"""Workload inputs and their known answers.

Everything here is independent of the engine: stanzas are read from the
corpus text with a small regex reader of the benchmark's own, expected
verdicts come from the hand-written `expected:` tags and the tables below,
and every refutation witness is re-evaluated with mpmath.

A workload is built from a seed into a directory of input files plus a list
of commands; each command is an `ineqcert` argument list run through
`ineqcert.cli.run_command`.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

CORPUS_REL = Path("src/ineqcert/data/paper.ineq")

EXACT_NMAX = 500

# Refute workload: closed sub-domains per proved stanza, with dyadic
# endpoints in 64ths inside (0, 3/2] for trigonometric and (0, 8] for
# unbounded domains.
REFUTE_COPIES = 4
REFUTE_TOP = {"(0, pi/2)": 96, "(0, inf)": 512}

# Hand table for the exact workload.  Sequence values follow the corpus
# `expect_seq` tags; the one violation is c_3 - c_2 for T3.3, computed by hand
# from c_n = (2^(2n+1) - 6n - 2) / (4n(n-1)(4n^2-1)): 9/70 - 3/20 = -3/140.
EXPECTED_SEQUENCES = {
    ("S_T31", "positive"): (2, None),
    ("S_T32_B", "increasing"): (2, None),
    ("S_T32_G", "positive"): (2, None),
    ("S_T33_C", "increasing"): (2, (2, "-3/140")),
    ("S_T34_C", "increasing"): (3, None),
    ("S_T35", "positive"): (2, None),
}

# Every identity holds; the only sign the proofs need that fails is the
# T3.3 numerator (6n^2-17n+1)4^n + 18n^2 + 23n - 1 = -27 at n = 2, which is
# why THM33 is false.
EXPECTED_IDENTITIES = {
    "ID_T32_BDIFF": (2, {"difference": None}),
    "ID_T33_CDIFF": (2, {"numerator": (2, "-27")}),
    "ID_T34_FDECOMP": (6, {"f1": None, "f2": None, "f3": None, "f4": None}),
    "ID_T34_POLYS": (6, {"binomial_truncation": None, "f1_rewrite": None,
                         "f2_rewrite": None, "f3_inner_rewrite": None,
                         "f4_rewrite": None, "quartic_rewrite": None}),
}

# Paper constants: the limit at 0 exactly, the pi/2 value as its closed form.
EXPECTED_LIMITS = {
    ("T3.1", "zero"): "1/60",
    ("T3.2", "zero"): "17/720",
    ("T3.3", "zero"): "3/20",
    ("T3.4", "zero"): "23/720",
    ("T3.5", "zero"): "1/10",
    ("T3.1", "right"): "(8*pi-24)/pi^3",
    ("T3.2", "right"): "(pi^2+8*pi-32)/(2*pi^3)",
    ("T3.5", "right"): "(12*pi-32)/pi^3",
}

_STANZA_RE = re.compile(r"^inequality\s+(\S+)\s*\{\n(.*?)\n\}", re.M | re.S)


def read_stanzas(text: str) -> list[dict]:
    """Stanzas of a corpus file as dicts of their `key = value` fields."""
    out = []
    for m in _STANZA_RE.finditer(text):
        fields = {"name": m.group(1), "block": m.group(0)}
        for line in m.group(2).splitlines():
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        fields["tags"] = [t.strip() for t in fields.get("tags", "").split(",")
                          if t.strip()]
        out.append(fields)
    return out


def tag(stanza: dict, key: str):
    for t in stanza["tags"]:
        if t.startswith(key + ":"):
            return t[len(key) + 1:]
    return None


def shipped_stanzas(root: Path) -> list[dict]:
    stanzas = read_stanzas((root / CORPUS_REL).read_text(encoding="utf-8"))
    verdicts = sorted(tag(s, "expected") for s in stanzas)
    if verdicts != ["proved"] * 27 + ["refuted"]:
        raise ValueError(f"unexpected corpus verdict tags: {verdicts}")
    return stanzas


# --- building the inputs ----------------------------------------------------

def build(workload: str, seed: int, root: Path, out_dir: Path, nproc: int,
          batches: int) -> dict:
    """Write the seeded inputs under out_dir; return the plan.

    The plan holds one command list per batch and the answers every output
    is checked against.  Every batch gets its own order of the same claims,
    drawn from the seed: claims share the point cache and the memo tables,
    so one order alone would tie a verdict's latency to the seed.
    `corpus-jobs` runs with --jobs nproc (at least 2, so the thread pool in
    `cli` is used).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    stanzas = shipped_stanzas(root)
    if workload == "exact":
        checks = []
        for s in stanzas:
            for t in s["tags"]:
                if t.startswith("expect_seq."):
                    _, seq_id, mode = t.split(":")[0].split(".")
                    checks.append(["sequences", "--id", seq_id, "--mode", mode,
                                   "--nmax", str(EXACT_NMAX)])
        if len(checks) != len(EXPECTED_SEQUENCES):
            raise ValueError("corpus expect_seq tags do not match the table")
        checks += [["identities", "--id", i, "--nmax", str(EXACT_NMAX)]
                   for i in EXPECTED_IDENTITIES]
        checks += [["limits", "--thm", t, "--endpoint", e]
                   for t, e in EXPECTED_LIMITS]
        return {"kind": "exact",
                "batches": [rng.sample(checks, len(checks)) for _ in range(batches)]}
    if workload in ("corpus", "corpus-jobs"):
        claims = stanzas
        jobs = 1 if workload == "corpus" else max(2, nproc)
    elif workload == "refute":
        claims = refute_stanzas(stanzas, rng)
        jobs = 1
    else:
        raise ValueError(f"unknown workload {workload!r}")
    commands = []
    for b in range(batches):
        path = out_dir / f"input-b{b}.ineq"
        path.write_text("\n\n".join(s["block"] for s in rng.sample(claims, len(claims)))
                        + "\n", encoding="utf-8")
        commands.append([["prove", "--corpus", str(path), "--jobs", str(jobs)]])
    return {"kind": "prove", "batches": commands,
            "expected": {s["name"]: tag(s, "expected") for s in claims},
            "stanzas": {s["name"]: s for s in claims}}


def refute_stanzas(stanzas: list[dict], rng: random.Random) -> list[dict]:
    """False claims: each proved stanza with its relation reversed, renamed
    (so no registered theorem series applies) and placed on REFUTE_COPIES
    seeded closed sub-domains of its domain.  The original holds strictly on
    its whole domain, so every copy is false at every point."""
    out = []
    for s in stanzas:
        if tag(s, "expected") != "proved":
            continue
        top = REFUTE_TOP[s["domain"]]
        relation = {">": "<", "<": ">"}[s["relation"]]
        for k in range(REFUTE_COPIES):
            a, b = sorted(rng.sample(range(1, top + 1), 2))
            name = f"{s['name']}_R{k}"
            block = (f"inequality {name} {{\n  domain   = [{a}/64, {b}/64]\n"
                     f"  lhs      = {s['lhs']}\n  relation = {relation}\n"
                     f"  rhs      = {s['rhs']}\n  tags     = expected:refuted\n}}")
            out.append({"name": name, "block": block, "lhs": s["lhs"],
                        "rhs": s["rhs"], "relation": relation,
                        "tags": ["expected:refuted"],
                        "lo": Fraction(a, 64), "hi": Fraction(b, 64)})
    return out


# --- checking the outputs ---------------------------------------------------

def _mpf(mp, f):
    f = Fraction(f)
    return mp.mpf(f.numerator) / f.denominator


def _mp_difference(stanza: dict, x: Fraction, mp):
    """lhs - rhs (or rhs - lhs for '<') at x, evaluated in mpmath."""
    def ev(text):
        py = re.sub(r"(\d+)", r"mpf(\1)", text.replace("^", "**"))
        py = re.sub(r"\*\*mpf\((\d+)\)", r"**\1", py)
        env = {"mpf": mp.mpf, "x": _mpf(mp, x),
               "pi": mp.pi, "sin": mp.sin, "cos": mp.cos, "tan": mp.tan,
               "sinh": mp.sinh, "cosh": mp.cosh, "tanh": mp.tanh}
        return eval(py, {"__builtins__": {}}, env)
    lhs, rhs = ev(stanza["lhs"]), ev(stanza["rhs"])
    return lhs - rhs if stanza["relation"] == ">" else rhs - lhs


def check_prove(report: dict, plan: dict, mp) -> list[str]:
    """Mismatches of one prove report: one entry per wrong verdict."""
    bad = []
    claims = {c["name"]: c for c in report["claims"]}
    for name, want in plan["expected"].items():
        c = claims.get(name)
        if c is None or c["status"].lower() != want:
            bad.append(f"{name}: {None if c is None else c['status']} != {want}")
            continue
        if want != "refuted":
            continue
        stanza = plan["stanzas"][name]
        w = c["witness"]
        if not w or not w.get("midpoint_value"):
            bad.append(f"{name}: refuted without a witness value")
            continue
        x = (Fraction(w["lo"]) + Fraction(w["hi"])) / 2
        if "lo" in stanza and not stanza["lo"] <= x <= stanza["hi"]:
            bad.append(f"{name}: witness {x} outside [{stanza['lo']}, {stanza['hi']}]")
            continue
        with mp.workdps(60):
            v = _mp_difference(stanza, x, mp)
            lo = _mpf(mp, w["midpoint_value"]["lo"])
            hi = _mpf(mp, w["midpoint_value"]["hi"])
            tol = mp.mpf(10) ** -45 * max(1, abs(v))
            if not (v < -tol and lo - tol <= v <= hi + tol):
                bad.append(f"{name}: mpmath value {mp.nstr(v, 20)} at "
                           f"x={x} is not a negative point of "
                           f"[{mp.nstr(lo, 20)}, {mp.nstr(hi, 20)}]")
    return bad


def check_exact(argv: list, out: dict, mp) -> list[str]:
    """Mismatches of one exact check's report against the hand table."""
    entry = out["claims"][0]
    cmd = argv[0]
    if cmd == "sequences":
        key = (argv[argv.index("--id") + 1], argv[argv.index("--mode") + 1])
        n_min, violation = EXPECTED_SEQUENCES[key]
        got = entry["first_violation"]
        got = None if got is None else (got["n"], got["value"])
        want_status = "pass" if violation is None else "violation"
        if (entry["status"], entry["n_min"], entry["n_max"], got) != \
                (want_status, n_min, EXACT_NMAX, violation):
            return [f"{key}: {entry}"]
        return []
    if cmd == "identities":
        ident = argv[argv.index("--id") + 1]
        n_min, signs = EXPECTED_IDENTITIES[ident]
        got = {k: None if v is None else (v["n"], v["value"])
               for k, v in entry["sign_violations"].items()}
        if (entry["status"], entry["n_min"], entry["n_max"], got) != \
                ("holds", n_min, EXACT_NMAX, signs):
            return [f"{ident}: {entry}"]
        return []
    key = (argv[argv.index("--thm") + 1], argv[argv.index("--endpoint") + 1])
    want = EXPECTED_LIMITS[key]
    if key[1] == "zero":
        ok = entry["value_exact"] == want and entry["match"]
    else:
        with mp.workdps(60):
            v = eval(want.replace("^", "**"), {"__builtins__": {}},
                     {"pi": mp.pi})
            enc = entry["value_enclosure"]
            lo, hi = Fraction(enc["lo"]), Fraction(enc["hi"])
            ok = (entry["match"] and hi - lo < Fraction(1, 10 ** 30)
                  and _mpf(mp, lo) <= v <= _mpf(mp, hi))
    return [] if ok else [f"{key}: {entry}"]


def digest(report: dict) -> str:
    """sha256 of the canonical report with the corpus path normalised."""
    report = json.loads(json.dumps(report))
    if "corpus" in report.get("config", {}):
        report["config"]["corpus"] = "<corpus>"
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()
