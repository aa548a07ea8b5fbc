"""The hold-out corpus: classical inequalities that no proof path names.

`tests/data/holdout.ineq` holds 11 true and 2 false stanzas from the
literature, none of them in the shipped corpus.  A change that closes a
margin shrinks an `uncovered` list here on purpose and says so."""
import json
import re
from fractions import Fraction
from pathlib import Path

import ineqcert
from ineqcert.cli import run_command

HOLDOUT = Path(__file__).parent / "data" / "holdout.ineq"

_ONE = 2 ** 192                 # the default precision's dyadic scale
LEFT = (f"(lo, {-(-_ONE // 1000)}/{_ONE}] uncovered "
        "(margin eps_lo=1/1000; no registered series)")
# the largest dyadic below pi/2 - 1/1000, and below pi - 1/1000
HALF_PI_CORE = 9853771247127882600434230892690926779315623077077217238319
BELOW_HALF_PI = f"[{HALF_PI_CORE}/{_ONE}, hi) uncovered (margin eps_hi=1/1000)"
BELOW_PI = (f"[19713819595991151881632297574805061225047348509598898511151"
            f"/{_ONE}, hi) uncovered (margin eps_hi=1/1000)")
TAIL = "(20, inf) unverified (x_max cutoff)"

EXPECTED = {
    "CUSA_HUYGENS": ("Proved", [LEFT, BELOW_HALF_PI]),
    "JORDAN": ("Proved", [LEFT, BELOW_HALF_PI]),
    "ADAMOVIC_MITRINOVIC": ("Proved", [LEFT, BELOW_HALF_PI]),
    "KOBER": ("Proved", [LEFT, BELOW_HALF_PI]),
    "WU_SRIVASTAVA": ("Proved", [LEFT, BELOW_HALF_PI]),
    "BECKER_STARK_LO": ("Proved", [LEFT, BELOW_HALF_PI]),
    "BECKER_STARK_HI": ("Proved", [LEFT, BELOW_HALF_PI]),
    "REDHEFFER": ("Proved", [LEFT, BELOW_PI]),
    "LAZAREVIC": ("Proved", [LEFT, TAIL]),
    "CUSA_HYPERBOLIC": ("Proved", [LEFT, TAIL]),
    "WILKER_HYPERBOLIC": ("Proved", [LEFT, TAIL]),
    "CUSA_HUYGENS_REVERSED": ("Refuted", [LEFT, BELOW_HALF_PI]),
    "SINH_OVER_SIN": ("Refuted", [LEFT, BELOW_HALF_PI]),
}


def test_holdout_verdicts_and_margins(tmp_path):
    # every verdict matches its `expected:` tag (exit 0), and each stanza
    # lists exactly its two margins; both false claims are refuted at the
    # midpoint of their core [1/1000, pi/2 - 1/1000], about pi/4
    out = tmp_path / "holdout.json"
    assert run_command(["prove", "--corpus", str(HOLDOUT), "--out", str(out)]) == 0
    claims = {c["name"]: c for c in json.loads(out.read_text())["claims"]}
    assert {name: (c["status"], c["uncovered"])
            for name, c in claims.items()} == EXPECTED
    mid = str(Fraction(-(-_ONE // 1000) + HALF_PI_CORE, _ONE) / 2)
    for name, (status, _) in EXPECTED.items():
        witness = claims[name]["witness"]
        assert (witness is not None) == (status == "Refuted"), name
        if witness:
            assert witness["lo"] == witness["hi"] == mid, name
            assert Fraction(witness["midpoint_value"]["hi"]) < 0, name
    # no source file names a hold-out stanza, so no route is chosen by name
    names = re.compile(r"\b(?:%s)\b" % "|".join(EXPECTED))
    src = Path(ineqcert.__file__).parent
    for path in src.rglob("*"):
        if path.is_file() and path.suffix in (".py", ".ineq"):
            assert not names.search(path.read_text(encoding="utf-8")), path
