from fractions import Fraction

import pytest

from ineqcert.errors import DomainError
from ineqcert.interval import Interval
from ineqcert.lang import eval_expr, parse_expression
from ineqcert.prove import (THEOREM_CLAIMS, ProveOptions, identity_check,
                            limit_report, near_zero_certificate,
                            prove_positive, reverify_certificate,
                            scan_extremum, sequence_check, verify_inequality)
from ineqcert.series import theorem_coeff

F = Fraction


def _spec(corpus_specs, name):
    for s in corpus_specs:
        if s.name == name:
            return s
    raise KeyError(name)


# --- prove_positive ----------------------------------------------------------

def test_prove_sin_positive():
    r = prove_positive(parse_expression("sin(x)"), Interval(F(1, 10), 3))
    assert r.status == "Proved"
    assert r.certificate and all(l.bound > 0 for l in r.certificate)
    assert r.certificate[0].lo == F(1, 10) and r.certificate[-1].hi == 3


def test_prove_cos_minus_half_refuted():
    r = prove_positive(parse_expression("cos(x) - 1/2"),
                       Interval(F(11, 10), F(3, 2)))
    assert r.status == "Refuted"
    assert r.witness is not None
    assert r.witness_value.hi < 0


@pytest.mark.parametrize("src,hi", [("cos(x) - 1/2", F(3, 2)), ("1 - x", 2)])
def test_bisection_refutes_past_an_inconclusive_box(src, hi):
    # the difference crosses 0 inside the domain: the box at the crossing
    # stays inconclusive, and a later box is certified negative
    r = prove_positive(parse_expression(src), Interval(0, hi))
    assert r.status == "Refuted"
    assert r.witness_value.hi < 0


@pytest.mark.parametrize("src,lo,hi", [("sin(x)^2 + cos(x)^2 - 1", F(1, 4), 1),
                                       ("(x-1)^2", 0, 2)])
def test_bisection_unknown_without_a_negative_box(src, lo, hi):
    # an identically zero difference stops after a bounded number of
    # inconclusive boxes; a touching zero leaves nothing to refute
    r = prove_positive(parse_expression(src), Interval(lo, hi))
    assert r.status == "Unknown"
    assert r.reason.startswith("inconclusive on [")


def test_prove_x_minus_sin():
    r = prove_positive(parse_expression("x - sin(x)"),
                       Interval(F(1, 10), F(3, 2)))
    assert r.status == "Proved"


def test_prove_unknown_at_interior_zero():
    # x^2 is not strictly positive across 0; bisection must stop Unknown
    opts = ProveOptions(max_depth=20)
    r = prove_positive(parse_expression("x^2"), Interval(-1, 1), opts)
    assert r.status == "Unknown"
    assert r.reason


def test_certificate_leaves_cover_and_reverify():
    expr = parse_expression("2*sin(x) + tan(x) - 3*x")
    r = prove_positive(expr, Interval(F(1, 1000), F(3, 2)))
    assert r.status == "Proved"
    leaves = r.certificate
    assert leaves[0].lo == F(1, 1000) and leaves[-1].hi == F(3, 2)
    for a, b in zip(leaves, leaves[1:]):
        assert a.hi == b.lo
    assert reverify_certificate(expr, r, precision=384)


def test_prove_deterministic():
    expr = parse_expression("2*sin(x) + tan(x) - 3*x")
    r1 = prove_positive(expr, Interval(F(1, 1000), F(3, 2)))
    r2 = prove_positive(expr, Interval(F(1, 1000), F(3, 2)))
    assert [(l.lo, l.hi, l.bound) for l in r1.certificate] == \
           [(l.lo, l.hi, l.bound) for l in r2.certificate]


# --- verify_inequality -------------------------------------------------------

def test_verify_thm31_lo(corpus_specs):
    r = verify_inequality(_spec(corpus_specs, "THM31_LO"))
    assert r.status == "Proved"
    assert r.leaves <= 50_000
    assert r.series_certificate is not None


def test_verify_thm33_refuted(corpus_specs):
    r = verify_inequality(_spec(corpus_specs, "THM33"))
    assert r.status == "Refuted"
    assert F(1) <= r.witness.mid <= F(4)
    assert r.witness_value.hi < 0
    # the two-sided claim at x=2: F(2) enclosure sits below 3/20
    from ineqcert.lang import eval_expr
    from ineqcert.series import THEOREMS
    t = THEOREMS["T3.3"]
    enc = eval_expr(parse_expression(f"({t.num})/({t.den})"), Interval.point(2))
    assert enc.hi < F(3, 20)
    assert enc.lo <= F("0.143781441112624")
    assert F("0.143781441112623") <= enc.hi


def test_verify_huy_trig(corpus_specs):
    r = verify_inequality(_spec(corpus_specs, "HUY_TRIG"))
    assert r.status == "Proved"
    assert any("uncovered" in u for u in r.uncovered)


def test_verify_rejects_negative_margins(corpus_specs):
    spec = _spec(corpus_specs, "HUY_TRIG")
    for opts in (ProveOptions(eps_lo=Fraction(-1)),
                 ProveOptions(eps_hi=Fraction(-1, 10))):
        with pytest.raises(DomainError, match="non-negative"):
            verify_inequality(spec, opts)


def test_verify_unbounded_reports_cutoff(corpus_specs):
    r = verify_inequality(_spec(corpus_specs, "HUY_HYP"))
    assert r.status == "Proved"
    assert any("inf) unverified" in u for u in r.uncovered)


@pytest.mark.parametrize("stanza", sorted(THEOREM_CLAIMS))
def test_theorem_claim_matches_corpus_stanza(corpus_specs, stanza):
    # the difference rebuilt from the theorem registry is the stanza's own
    diff = parse_expression(THEOREM_CLAIMS[stanza].diff_text)
    spec_diff = _spec(corpus_specs, stanza).difference()
    for x in (F(1, 4), F(1, 2), F(1)):
        xi = Interval.point(x)
        assert eval_expr(diff, xi).intersects(eval_expr(spec_diff, xi)), x


# --- near-zero certificates --------------------------------------------------

def test_near_zero_t31_proved():
    r = near_zero_certificate("T3.1", F(1, 10))
    assert r.status == "Proved"
    cert = r.series_certificate
    assert cert["leading"] == theorem_coeff("T3.1", "f", 3) == F(1, 210)
    assert cert["normalized_lower_bound"] > 0


def test_near_zero_t33_refuted():
    r = near_zero_certificate("T3.3", F(1, 10))
    assert r.status == "Refuted"
    assert r.series_certificate["leading"] == F(-1, 40)
    assert r.witness is not None
    assert r.witness_value.hi < 0


def test_near_zero_t34_t32_t35():
    assert near_zero_certificate("T3.4", F(1, 1000)).status == "Proved"
    assert near_zero_certificate("T3.2", F(1, 1000)).status == "Proved"
    assert near_zero_certificate("T3.5", F(1, 10)).status == "Proved"


def test_near_zero_upper_side():
    r = near_zero_certificate("T3.1", F(1, 1000), side="upper")
    assert r.status == "Proved"
    assert r.series_certificate["claim"] == "upper"


def test_near_zero_unregistered():
    with pytest.raises(DomainError):
        near_zero_certificate("T9.9", F(1, 10))
    with pytest.raises(DomainError):
        near_zero_certificate("T3.3", F(1, 10), side="upper")


# --- sequence checks ---------------------------------------------------------

def test_sequence_t32_b_increasing():
    rep = sequence_check("S_T32_B", "increasing", 100)
    assert rep.all_pass
    assert theorem_coeff("T3.2", "b", 3) - theorem_coeff("T3.2", "b", 2) == 169


def test_sequence_t33_c_violation():
    rep = sequence_check("S_T33_C", "increasing", 100)
    assert not rep.all_pass
    assert rep.first_violation == (2, F(-3, 140))


def test_sequence_t33_c_restricted_passes():
    rep = sequence_check("S_T33_C", "increasing", 500, n_min=3)
    assert rep.all_pass


def test_sequence_t34_c_increasing():
    rep = sequence_check("S_T34_C", "increasing", 200)
    assert rep.all_pass
    assert theorem_coeff("T3.4", "c", 6) == F(416488, 6177600)
    assert theorem_coeff("T3.4", "c", 6) > theorem_coeff("T3.4", "c", 5)


def test_sequence_positive_families():
    assert sequence_check("S_T31", "positive", 200).all_pass
    assert sequence_check("S_T32_G", "positive", 200).all_pass
    assert sequence_check("S_T35", "positive", 200).all_pass


def test_sequence_errors():
    with pytest.raises(DomainError):
        sequence_check("S_NOPE", "positive", 10)
    with pytest.raises(DomainError):
        sequence_check("S_T31", "sideways", 10)
    with pytest.raises(DomainError):
        sequence_check("S_T31", "positive", 2)


# --- identity checks ---------------------------------------------------------

def test_identity_t32_bdiff():
    rep = identity_check("ID_T32_BDIFF", 500)
    assert rep.holds
    assert rep.positivity["difference"] is None
    assert 4 ** 2 * 11 - 8 + 1 == 169


def test_identity_t33_cdiff():
    rep = identity_check("ID_T33_CDIFF", 500)
    assert rep.holds                      # the identity itself is exact
    n, value = rep.positivity["numerator"]
    assert (n, value) == (2, F(-27))      # the claimed sign fails at n=2 only


def test_identity_t34_fdecomp():
    rep = identity_check("ID_T34_FDECOMP", 200)
    assert rep.holds
    for name in ("f1", "f2", "f3", "f4"):
        assert rep.positivity[name] is None


def test_identity_t34_polys():
    rep = identity_check("ID_T34_POLYS", 200)
    assert rep.holds
    for name, violation in rep.positivity.items():
        assert violation is None, name


def test_identity_errors():
    with pytest.raises(DomainError):
        identity_check("ID_NOPE", 10)
    with pytest.raises(DomainError):
        identity_check("ID_T34_POLYS", 3)


# --- limits ------------------------------------------------------------------

def test_limits_zero_exact():
    expected = {"T3.1": F(1, 60), "T3.2": F(17, 720), "T3.3": F(3, 20),
                "T3.4": F(23, 720), "T3.5": F(1, 10)}
    for thm, val in expected.items():
        rep = limit_report(thm, "zero")
        assert rep.value_exact == val
        assert rep.matches_paper


def test_limits_right_enclosures():
    brackets = {
        "T3.1": (F("0.0365326427419144"), F("0.0365326427419145")),
        "T3.2": (F("0.0484151267300545"), F("0.0484151267300546")),
        "T3.5": (F("0.1838051018456696"), F("0.1838051018456697")),
    }
    for thm, (lo, hi) in brackets.items():
        rep = limit_report(thm, "right")
        enc = rep.value_enclosure
        assert enc.width <= F(1, 10 ** 9)
        assert enc.lo <= hi and lo <= enc.hi
        assert rep.matches_paper


def test_limits_right_rejected_for_hyperbolic():
    with pytest.raises(DomainError):
        limit_report("T3.3", "right")
    with pytest.raises(DomainError):
        limit_report("T3.4", "right")


def test_limits_cross_consistency():
    from ineqcert.series import THEOREM_START
    roles = {"T3.1": "f", "T3.2": "g", "T3.3": "c", "T3.4": "c", "T3.5": "f"}
    for thm, role in roles.items():
        rep = limit_report(thm, "zero")
        assert rep.value_exact == theorem_coeff(thm, role, THEOREM_START[thm])


# --- extremum scan -----------------------------------------------------------

def test_scan_t33_minimum_near_two():
    rep = scan_extremum("T3.3", Interval(F(1, 10), 10), F(1, 10 ** 6))
    assert not rep.sampled_monotone
    assert abs(rep.location - 2) < F(1, 2)
    assert rep.value_enclosure.lo > F("0.1437")
    assert rep.value_enclosure.hi < F("0.1439")


def test_scan_t31_monotone_minimum_at_left():
    hi = F("1.5697")
    rep = scan_extremum("T3.1", Interval(F(1, 1000), hi), F(1, 10 ** 6))
    assert rep.sampled_monotone
    assert rep.at_boundary == "lo"
    assert rep.value_enclosure.contains_interval(
        Interval(rep.value_enclosure.lo, rep.value_enclosure.lo))
    assert abs(rep.value_enclosure.lo - F(1, 60)) < F(1, 10 ** 6)


def test_scan_t34_monotone_minimum_at_left():
    rep = scan_extremum("T3.4", Interval(F(1, 1000), 10), F(1, 10 ** 6))
    assert rep.sampled_monotone
    assert rep.at_boundary == "lo"
    assert abs(rep.value_enclosure.lo - F(23, 720)) < F(1, 10 ** 6)


def test_scan_monotone_corroboration_family():
    hi = F("1.5697")
    assert scan_extremum("T3.2", Interval(F(1, 1000), hi), F(1, 10 ** 6)).sampled_monotone
    assert scan_extremum("T3.5", Interval(F(1, 1000), hi), F(1, 10 ** 6)).sampled_monotone
