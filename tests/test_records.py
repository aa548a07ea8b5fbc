"""Value semantics of every record type: construction, equality and hashing
within one type, immutability, defaults, `replace` and `repr`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ineqcert
from ineqcert._record import Record
from ineqcert.interval import Interval
from ineqcert.lang import (Add, Call, Div, InequalitySpec, Lit, Mul, Neg,
                           PiConst, PowInt, Sub, Token, VarX, parse_expression)
from ineqcert.prove import (THEOREM_CLAIMS, IdentityReport, Leaf, LimitReport,
                            ProofResult, ProveOptions, ScanReport,
                            SequenceReport, TheoremClaim)
from ineqcert.series import (THEOREMS, CoeffSeq, TailBound, Theorem, _Fact,
                             _Geo, get_series)

# each record type's fields, in order, as its positional arguments take them
FIELDS = {
    Interval: ("lo", "hi"),
    Token: ("kind", "text", "position"),
    Lit: ("value", "pos"),
    PiConst: ("pos",),
    VarX: ("pos",),
    Neg: ("a", "pos"),
    Add: ("a", "b", "pos"),
    Sub: ("a", "b", "pos"),
    Mul: ("a", "b", "pos"),
    Div: ("a", "b", "pos"),
    PowInt: ("base", "exponent", "pos"),
    Call: ("fn", "arg", "pos"),
    InequalitySpec: ("name", "lo_expr", "hi_expr", "lo_closed", "hi_closed",
                     "lhs", "rhs", "relation", "tags"),
    ProveOptions: ("eps_lo", "eps_hi", "x_max", "max_depth", "min_width",
                   "precision"),
    Leaf: ("lo", "hi", "bound"),
    ProofResult: ("status", "witness", "witness_value", "certificate",
                  "leaves", "max_depth", "ms", "reason", "findings",
                  "uncovered", "series_certificate", "theorem", "bisected",
                  "multipliers"),
    SequenceReport: ("seq_id", "mode", "n_min", "n_max", "all_pass",
                     "first_violation"),
    IdentityReport: ("identity_id", "n_min", "n_max", "holds",
                     "first_failure", "positivity"),
    LimitReport: ("thm_id", "endpoint", "value_exact", "value_enclosure",
                  "matches_paper", "paper_value"),
    ScanReport: ("thm_id", "lo", "hi", "location", "value", "value_enclosure",
                 "sampled_monotone", "at_boundary"),
    TheoremClaim: ("stanza", "thm", "series_id", "mode", "prefactor"),
    _Geo: ("poly", "shift"),
    _Fact: ("poly", "base", "shift"),
    CoeffSeq: ("id", "start_index", "expo_offset", "coeff_fn", "radius",
               "singular_part", "components", "kernel"),
    TailBound: ("kind", "N", "x_upper", "bound"),
    Theorem: ("id", "start", "roles", "zero_role", "zero_value", "right_value",
              "right_bracket", "num", "den", "series", "stanzas", "sequences",
              "prefactor", "derivative_series"),
}

X = VarX(0)
SAMPLES = [
    Interval(Fraction(1, 2), 3),
    Token("NUMBER", "12", 4),
    Lit(Fraction(1, 2), 0), PiConst(1), X, Neg(X, 2), Add(X, X, 3),
    Sub(X, X, 3), Mul(X, X, 3), Div(X, X, 3), PowInt(X, 2, 3),
    Call("sin", X, 0),
    InequalitySpec("S", Lit(0), "inf", False, False, X, Lit(1), "<",
                   ("expected:proved",)),
    ProveOptions(),
    Leaf(Fraction(0), Fraction(1), Fraction(1, 7)),
    ProofResult("Proved", leaves=2, findings=["f"]),
    SequenceReport("S_T31", "positive", 2, 10, True),
    IdentityReport("ID_T32_BDIFF", 1, 10, True, positivity={"b": None}),
    LimitReport("T3.1", "zero", Fraction(1, 60), None, True, "1/60"),
    ScanReport("T3.1", Fraction(0), Fraction(1), Fraction(1, 2), 0.5,
               Interval(0, 1), True, None),
    THEOREM_CLAIMS["THM31_LO"],
    _Geo((0, 24), -4), _Fact((1,), 2, 0),
    get_series("COT"),
    TailBound("COT", 10, Fraction(1), Fraction(1, 10 ** 30)),
    THEOREMS["T3.1"],
]


def _values(rec) -> dict:
    return {n: getattr(rec, n) for n in FIELDS[type(rec)]}


def _changed(value):
    """A value unequal to `value` that each record's own checks accept."""
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return value + 1
    return object()


def _hashable(rec) -> bool:
    try:
        hash(tuple(_values(rec).values()))
    except TypeError:
        return False
    return True


def test_every_record_type_has_a_sample_and_its_fields():
    assert len(FIELDS) == 26 and {type(r) for r in SAMPLES} == set(FIELDS)
    assert all(cls._fields == fields for cls, fields in FIELDS.items())


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_equal_values_compare_equal_and_hash_alike(rec):
    cls, values = type(rec), _values(rec)
    twins = [cls(*values.values()), cls(**values), rec.replace()]
    for twin in twins:
        assert twin is not rec and twin == rec and not twin != rec
        if cls.__hash__ is not None and _hashable(rec):
            assert hash(twin) == hash(rec)


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_other_types_and_other_fields_compare_unequal(rec):
    values = _values(rec)
    # same name, fields and values, but another type
    twin = type(type(rec).__name__, (Record,),
                {"__annotations__": dict.fromkeys(values)})(*values.values())
    assert twin != rec and rec != twin and rec != tuple(values.values())
    for name, value in values.items():
        other = rec.replace(**{name: _changed(value)})
        if name == "pos":
            assert other == rec and other.pos != rec.pos
        else:
            assert other != rec and getattr(other, name) != value


def test_expression_nodes_ignore_pos():
    parsed = parse_expression("x - sin(x)")
    built = Sub(VarX(), Call("sin", VarX()))
    assert (parsed.pos, built.pos) == (2, -1)
    assert parsed == built and hash(parsed) == hash(built)
    assert repr(parsed) != repr(built)
    assert Add(X, X) != Sub(X, X) and VarX() != PiConst() and Neg(X) != X


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_cannot_change_except_a_proof_results(rec):
    name, value = next(iter(_values(rec).items()))
    if type(rec) is ProofResult:
        rec = rec.replace()
        rec.status = "Unknown"
        assert rec.status == "Unknown"
        with pytest.raises(TypeError):
            hash(rec)
        return
    with pytest.raises(AttributeError):
        setattr(rec, name, value)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert getattr(rec, name) is value


def test_defaults_and_keyword_construction():
    assert Lit(Fraction(2)).pos == -1 and PiConst() == PiConst(7)
    assert Token(position=3, kind="IDENT", text="x") == Token("IDENT", "x", 3)
    assert ProveOptions(precision=256) == ProveOptions(
        Fraction(1, 1000), Fraction(1, 1000), Fraction(20), 48,
        Fraction(1, 10 ** 12), 256)
    r = ProofResult("Unknown")
    assert (r.witness, r.leaves, r.ms, r.theorem) == (None, 0, 0.0, None)
    assert SequenceReport("S", "positive", 0, 5, True).first_violation is None
    assert InequalitySpec("S", Lit(0), "inf", False, False, X, Lit(1), "<").tags == ()


def test_mutable_defaults_are_fresh_per_instance():
    a, b = ProofResult("Proved"), ProofResult("Proved")
    for name in ("certificate", "findings", "uncovered"):
        getattr(a, name).append(name)
        assert getattr(b, name) == [] and getattr(ProofResult("X"), name) == []
    c, d = (IdentityReport("ID", 1, 2, True) for _ in range(2))
    c.positivity["p"] = None
    assert d.positivity == {} and IdentityReport("ID", 1, 2, True).positivity == {}
    given = []
    assert ProofResult("Proved", certificate=given).certificate is given
    # positional and keyword fields mixed: each field in its place, the
    # defaults after the last positional one fresh on each instance
    w, v = Interval.point(1), Interval(-2, -1)
    e, f = (ProofResult("Refuted", w, v, [], leaves=3, reason="r") for _ in range(2))
    assert (e.witness, e.witness_value, e.leaves, e.max_depth, e.reason) == (w, v, 3, 0, "r")
    e.findings.append("x")
    e.uncovered.append("y")
    assert f.findings == f.uncovered == [] and e.certificate is not f.certificate
    g, h = (IdentityReport("ID", 1, n_max=2, holds=True) for _ in range(2))
    g.positivity["p"] = None
    assert h.positivity == {} and (h.n_min, h.n_max, h.holds) == (1, 2, True)


@pytest.mark.parametrize("make", [
    lambda: Lit(), lambda: Lit(1, 2, 3), lambda: Lit(1, value=1),
    lambda: Lit(1, posx=0), lambda: Interval(1), lambda: Leaf(1, 2),
    lambda: ProofResult(), lambda: ProofResult("P", status="P"),
    lambda: ProofResult("P", None, None, [], leaves=1, witness=None),
    lambda: ProofResult("P", None, leaves=1, bogus=2),
    lambda: ProofResult(leaves=1, reason="r"),
    lambda: ProofResult(*("P", None, None, [], 0, 0, 0.0, None, [], [], None,
                          None, None, (), None)),
    lambda: IdentityReport("ID", 1, 2, holds=True, n_max=2),
], ids=["missing", "too-many", "repeated", "unknown", "interval", "leaf",
        "result-missing", "result-repeated", "result-mixed-repeated",
        "result-mixed-unknown", "result-keywords-missing", "result-15-positional",
        "report-repeated"])
def test_bad_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_repr():
    assert repr(Interval(Fraction(1, 2), 3)) == "Interval(1/2, 3)"
    assert repr(Lit(Fraction(1, 2), 4)) == "Lit(value=Fraction(1, 2), pos=4)"
    assert repr(Neg(X)) == "Neg(a=VarX(pos=0), pos=-1)"
    assert repr(Leaf(Fraction(0), 1, 2)) == (
        "Leaf(lo=Fraction(0, 1), hi=1, bound=2)")


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # the records are built without code generation; this keeps the import
    # of `dataclasses` (and `inspect`, which it pulls in) from coming back.
    # From Python 3.12 on `importlib.resources` imports `inspect` too.  Only
    # what the import adds counts: a site hook may load some at start-up.
    env = dict(os.environ, PYTHONPATH=str(Path(ineqcert.__file__).parents[1]))
    code = ("import sys; before = set(sys.modules); import ineqcert.cli; "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources'}"
            " & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_the_default_corpus_is_the_package_resource():
    # found beside the module, so the CLI need not import `importlib.resources`
    from importlib import resources

    from ineqcert.lang import default_corpus_path
    assert default_corpus_path() == str(
        resources.files("ineqcert").joinpath("data/paper.ineq"))
