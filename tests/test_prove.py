import json
import operator
import random
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import pytest

from ineqcert import _core, exact, prove, series
from ineqcert.cli import MAX_NMAX, run_command
from ineqcert.errors import DomainError, EvalError, PoleError
from ineqcert.interval import Interval, get_ctx, pi_enclose
from ineqcert.lang import (clear_tan, eval_endpoint, eval_expr, format_expr,
                           parse_corpus, parse_expression, tan_multipliers)
from ineqcert.prove import (THEOREM_CLAIMS, ProveOptions, _left_lower_bound,
                            _pick_N, _registration_ok,
                            identity_check, limit_report,
                            near_zero_certificate, prove_positive,
                            reverify_certificate, scan_extremum,
                            sequence_check, verify_inequality)
from ineqcert.series import (THEOREMS, TRIG_X_MAX, get_series, series_ids,
                             tail_bound, theorem_coeff)

from oracles import (IDENTITY_POWER_FORMS, left_lower_bound_termwise,
                     left_sup_bound_termwise, series_claim_form)

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


def test_a_claim_negative_at_its_midpoint_builds_no_taylor_form(monkeypatch):
    # cos(13/10) - 1/2 is about -0.23: the point probed at the core's
    # midpoint refutes the claim before any box is formed
    calls = []
    taylor = _core.eval_taylor
    monkeypatch.setattr(_core, "eval_taylor",
                        lambda *a, **kw: calls.append(a) or taylor(*a, **kw))
    r = prove_positive(parse_expression("cos(x) - 1/2"),
                       Interval(F(11, 10), F(3, 2)))
    assert r.status == "Refuted" and r.witness == Interval.point(F(13, 10))
    assert r.witness_value.hi < 0 and r.certificate == []
    assert (r.leaves, r.max_depth, len(calls)) == (0, 0, 0)


def test_a_pole_at_the_midpoint_leaves_the_core_to_bisection():
    # 1/(x-1) raises PoleError at the midpoint 1; bisection still refutes
    # the claim on a box left of the pole
    expr = parse_expression("1/(x-1)")
    with pytest.raises(PoleError):
        prove._enclose(get_ctx(192), expr, F(1), F(1))
    r = prove_positive(expr, Interval(0, 2))
    assert r.status == "Refuted" and r.witness == Interval(0, F(1, 2))
    assert r.max_depth == 2 and r.witness_value.hi < 0


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


def test_unknown_reason_prints_the_full_form_of_its_box():
    # boxes at the depth limit inherit no remainder coefficient: the
    # enclosure a reason prints is the box's own full form, as enclose
    # without rem gives it
    node = parse_expression("sin(x)^2 + cos(x)^2 - 1")
    opts = ProveOptions(max_depth=4)    # wide enough for the forms to differ
    r = prove_positive(node, Interval(F(1, 4), F(1, 2)), opts)
    assert r.status == "Unknown"
    a, b, lo, hi = re.fullmatch(
        r"inconclusive on \[(\S+), (\S+)\] at depth 4: "
        r"enclosure \[(\S+), (\S+)\] straddles 0", r.reason).groups()
    ctx = get_ctx(opts.precision)
    (elo, ehi), _ = _core.enclose(ctx, node, ctx.lo_of(F(a)), ctx.hi_of(F(b)))
    assert (F(lo), F(hi)) == (F(elo, ctx.one), F(ehi, ctx.one))


@pytest.mark.parametrize("xmax,status", [(40, "Unknown"), (30, "Proved")])
def test_cutoff_past_the_argument_limit_is_not_bisected(corpus_specs, xmax, status):
    # sinh is certified on [-32, 32]: a cutoff past it ends the core at once
    r = verify_inequality(_spec(corpus_specs, "HUY_HYP"), ProveOptions(x_max=F(xmax)))
    assert r.status == status
    if status == "Unknown":
        assert r.reason == ("x=40 is past an argument limit: "
                            "sinh argument outside [-32, 32]")
        assert r.leaves == 0 and r.max_depth == 0
    else:
        assert r.reason is None and r.leaves > 0


_PAST_LIMIT_CORPUS = """
inequality SINH_INV {
  domain   = (0, inf)
  lhs      = sinh(1/x)
  relation = >
  rhs      = 0
}

inequality SIN_WIDE {
  domain   = [0, 10]
  lhs      = sin(x)
  relation = >
  rhs      = -2
}
"""


@pytest.mark.parametrize("name,point,limit", [
    ("SINH_INV", Interval.point(F(1, 1000)).round_out(192).hi, "sinh argument outside [-32, 32]"),
    ("SIN_WIDE", F(10), "sin argument outside [-4, 4]"),
], ids=["left-end", "right-end"])
def test_core_end_past_an_argument_limit_ends_the_stanza_at_once(monkeypatch, name, point, limit):
    # the left end 1/1000 puts 1/x past 32, the right end 10 puts x past 4:
    # every box holding that end raises, so neither is bisected (they went
    # to depth 45 and 44); the only points tried are the core's midpoint,
    # by the probe, and no point of a recorded box
    cores, scans = [], []
    bisect = prove._bisect_positive
    monkeypatch.setattr(prove, "_bisect_positive",
                        lambda expr, lo, hi, opts: cores.append((lo, hi))
                        or bisect(expr, lo, hi, opts))
    monkeypatch.setattr(prove, "_grid_refute",
                        lambda ev, points: scans.append(list(points)))
    spec = {s.name: s for s in parse_corpus(_PAST_LIMIT_CORPUS)}[name]
    r = verify_inequality(spec)
    ((lo, hi),) = cores
    assert r.status == "Unknown" and scans == [[(lo + hi) / 2]]
    assert r.reason == f"x={point} is past an argument limit: {limit}"
    assert r.leaves == 0 and r.max_depth == 0


_CORE_ENDS_CORPUS = """
inequality OPEN_ENDS {
  domain   = (1/3, pi/2)
  lhs      = x
  relation = >
  rhs      = 0
}

inequality CLOSED_ENDS {
  domain   = [1/3, pi/2]
  lhs      = x
  relation = >
  rhs      = 0
}

inequality CUT_AT_X_MAX {
  domain   = [1/3, inf)
  lhs      = x
  relation = >
  rhs      = 0
}
"""


@pytest.mark.parametrize("bits", [64, 192, 256])
def test_core_ends_are_the_round_out_of_each_end(monkeypatch, bits):
    # each core end is one floor or ceil of its numerator; it must be the
    # dyadic that Interval.round_out gives, the lower end rounded up into
    # the core and the upper one down, for an end that is no dyadic (1/3,
    # pi/2 less eps_hi 1e-3, either end closed) and for the x_max cutoff
    cores = []
    monkeypatch.setattr(prove, "_bisect_positive", lambda expr, lo, hi, opts: cores.append(
        (lo, hi)) or prove.ProofResult("Unknown", reason="stopped by the test"))
    opts = ProveOptions(eps_hi=F(1, 1000), precision=bits)
    specs = parse_corpus(_CORE_ENDS_CORPUS)
    for spec in specs:
        verify_inequality(spec, opts)
    third, half_pi = F(1, 3), eval_endpoint(parse_expression("pi/2"))
    up = lambda q: Interval.point(q).round_out(bits).hi      # noqa: E731
    down = lambda q: Interval.point(q).round_out(bits).lo    # noqa: E731
    assert cores == [(up(third + opts.eps_lo), down(half_pi.lo - opts.eps_hi)),
                     (up(third), down(half_pi.lo)),
                     (up(third), down(opts.x_max))]
    assert cores[1][0] > third and cores[0][1] < half_pi.lo - opts.eps_hi


def test_an_end_past_an_argument_limit_inside_the_core_ends_it_after_a_split(monkeypatch):
    # sin's argument 20x(1-x) passes 4 only near x = 1/2: neither end of
    # [0, 1] raises as a point, so that box is split, and the first half
    # then ends the stanza at its right end
    found = []
    real = prove._past_limit
    monkeypatch.setattr(prove, "_past_limit",
                        lambda *args: found.append(real(*args)) or found[-1])
    r = prove_positive(parse_expression("sin(20*x*(1-x)) + 2"), Interval(0, 1))
    assert r.status == "Unknown"
    assert r.reason == "x=1/2 is past an argument limit: sin argument outside [-4, 4]"
    assert found == [None, r.reason]
    assert r.leaves == 0 and r.max_depth == 1


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


def test_leaf_budget_ends_the_bisection_unknown(monkeypatch):
    # the proof needs 6 leaves; past a budget of 3 it stops at the 4th
    monkeypatch.setattr(prove, "MAX_LEAVES", 3)
    r = prove_positive(parse_expression("2*sin(x) + tan(x) - 3*x"),
                       Interval(F(1, 1000), F(3, 2)))
    assert r.status == "Unknown" and r.reason == "leaf budget 3 exceeded"
    assert r.leaves == 4 and r.certificate == []


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
    # the witness is the core's first box certified negative, not the
    # near-zero certificate's point, whose findings are kept
    r = verify_inequality(_spec(corpus_specs, "THM33"))
    assert r.status == "Refuted"
    assert F(1, 1000) <= r.witness.lo and r.witness.hi <= F(1, 500)
    assert r.witness_value.hi < 0
    with mpmath.workdps(60):
        x = mpmath.mpf(r.witness.mid.numerator) / r.witness.mid.denominator
        assert (2 * mpmath.sinh(x) / x + mpmath.tanh(x) / x - 3
                - 3 * x ** 3 * mpmath.tanh(x) / 20) < 0
    assert any("leading coefficient -1/40" in f for f in r.findings)
    assert len([f for f in r.findings
                if f.startswith("difference on [") and "certified < 0" in f]) == 1
    # the two-sided claim at x=2: F(2) enclosure sits below 3/20
    from ineqcert.lang import eval_expr
    from ineqcert.series import THEOREMS
    t = THEOREMS["T3.3"]
    enc = eval_expr(parse_expression(f"({t.num})/({t.den})"), Interval.point(2))
    assert enc.hi < F(3, 20)
    assert enc.lo <= F("0.143781441112624")
    assert F("0.143781441112623") <= enc.hi


def test_a_negative_box_is_valued_by_its_own_enclosure_where_its_midpoint_straddles(
        corpus_specs, monkeypatch):
    # every point enclosure made to straddle 0, THM33's core is still
    # refuted by its first negative box; its midpoint no longer refutes, so
    # the box's own enclosure is its value, certified below 0
    boxes = {}
    enclose = prove._enclose

    def straddling_points(ctx, expr, a, b, *rem_and_poles):
        if a == b:
            return Interval(-1, 1), None
        enc, rem = enclose(ctx, expr, a, b, *rem_and_poles)
        boxes[a, b] = enc
        return enc, rem

    monkeypatch.setattr(prove, "_enclose", straddling_points)
    r = verify_inequality(_spec(corpus_specs, "THM33"))
    w = r.witness
    assert r.status == "Refuted" and w.lo < w.hi
    assert r.witness_value == boxes[w.lo, w.hi] and r.witness_value.hi < 0


@pytest.mark.parametrize("core", ["Unknown", "Proved"])
def test_a_near_zero_refutation_overrides_a_core_that_is_not_refuted(
        corpus_specs, monkeypatch, core):
    # THM33's core bisection refutes it first; made to end Unknown or
    # Proved instead, the series rule's refutation of (0, eps] still decides
    def bisect(expr, lo, hi, opts):
        if core == "Proved":
            return prove.ProofResult("Proved", leaves=1,
                                     certificate=[prove.Leaf(lo, hi, F(1))])
        return prove.ProofResult("Unknown", reason="stopped by the test")

    monkeypatch.setattr(prove, "_bisect_positive", bisect)
    r = verify_inequality(_spec(corpus_specs, "THM33"))
    eps = r.series_certificate["eps"]
    assert r.status == "Refuted"
    assert F(1, 1000) <= eps < F(1, 1000) + F(1, 2 ** 60)
    assert r.witness == Interval.point(eps / 2)
    assert r.witness_value.hi < 0
    assert any(f == f"THM33: leading coefficient -1/40 at x^6 is negative; "
                    f"difference certified negative on (0, {eps}]"
               for f in r.findings)


# negative only on |x - 1/4| < 1e-15, a dip narrower than min_width and off
# the core's midpoint 1/2, where the difference is positive
_DIP = parse_corpus("inequality DIP {\n  domain   = [0, 1]\n"
                    "  lhs      = (x - 1/4)^2\n  relation = >\n"
                    "  rhs      = (1/10)^30\n}\n")[0]


def test_grid_fallback_refutes_a_dip_below_min_width():
    # every box at 1/4 stays inconclusive; the scan of those boxes hits the
    # point, an end of two of them, and both entry points end by that scan
    for r in (verify_inequality(_DIP),
              prove_positive(_DIP.difference(), Interval(0, 1))):
        assert r.status == "Refuted" and r.reason is None
        assert r.witness == Interval.point(F(1, 4)) and r.max_depth > 0
        assert r.witness_value.hi < 0 and r.ms > 0


def test_a_dip_off_any_fixed_grid_is_refuted_by_both_entry_points():
    # 1/512 is no point of a 257-point grid on [0, 1], but bisection pins it
    # as the end of an inconclusive box
    dip = parse_corpus("inequality DIP512 {\n  domain   = [0, 1]\n"
                       "  lhs      = (x - 1/512)^2\n  relation = >\n"
                       "  rhs      = (1/10)^30\n}\n")[0]
    for r in (prove_positive(dip.difference(), Interval(0, 1)),
              verify_inequality(dip)):
        assert r.status == "Refuted" and r.reason is None
        assert r.witness == Interval.point(F(1, 512)) and r.witness_value.hi < 0


def test_unknown_scans_only_the_recorded_inconclusive_boxes(monkeypatch):
    # an identically zero difference records MAX_INCONCLUSIVE boxes; after
    # the probe at the core's midpoint, one scan tries the ends and midpoint
    # of those boxes only, in order, and the reason names the first of them
    scans = []
    scan = prove._grid_refute
    monkeypatch.setattr(prove, "_grid_refute",
                        lambda ev, points: scans.append(list(points)) or scan(ev, points))
    r = prove_positive(parse_expression("sin(x)^2 + cos(x)^2 - 1"),
                       Interval(F(1, 4), 1))
    assert r.status == "Unknown" and r.reason.startswith("inconclusive on [")
    probe, points = scans
    assert probe == [F(5, 8)] and len(points) == 3 * prove.MAX_INCONCLUSIVE
    boxes = [points[i:i + 3] for i in range(0, len(points), 3)]
    assert all(a < m == (a + b) / 2 < b for a, m, b in boxes)
    assert r.reason.startswith(f"inconclusive on [{boxes[0][0]}, {boxes[0][2]}]")


def test_no_grid_fallback_after_an_inconsistency(monkeypatch):
    # contradicting enclosures mean no verdict on the stanza can be trusted
    from ineqcert import _core
    monkeypatch.setattr(_core, "_term",
                        lambda c, rs, j: (1 << 10000, 1 << 10000))
    r = verify_inequality(_DIP)
    assert r.status == "Unknown" and r.witness is None
    assert r.reason.startswith("internal inconsistency: ")


def test_negative_series_form_is_confirmed_on_the_raw_difference(
        corpus_specs, monkeypatch):
    # a series bound that is negative, or a rule that refutes on the core
    # (x > 1; the left margin's own call at x = 1/1000 keeps the true
    # rule), must not refute a true claim: the raw difference decides
    monkeypatch.setattr("ineqcert.prove._registration_ok", lambda *a: True)
    rule = prove.near_zero_certificate

    def refuting(thm, x, side):
        r = rule(thm, x, side)
        if x > 1:
            r.status = "Refuted"
        return r

    for name, fake in (("_left_lower_bound", lambda *a: F(-1)),
                       ("near_zero_certificate", refuting)):
        with monkeypatch.context() as m:
            m.setattr(prove, name, fake)
            r = verify_inequality(_spec(corpus_specs, "THM31_LO"))
        assert r.status == "Proved" and r.witness is None
        assert r.leaves > 1
        assert any(f.endswith("the raw difference was bisected instead")
                   for f in r.findings)


def test_an_inconclusive_series_form_leaves_the_core_to_the_raw_difference(
        corpus_specs, monkeypatch):
    # a series bound that proves nothing does not end the core Unknown: the
    # raw difference decides, and proves the true claim
    monkeypatch.setattr(prove, "_left_lower_bound", lambda *a: F(0))
    r = verify_inequality(_spec(corpus_specs, "THM31_LO"))
    assert r.status == "Proved" and r.reason is None and r.leaves > 1
    assert any(f.endswith("bound 0 does not prove the core; the raw "
                          "difference was bisected instead") for f in r.findings)


def test_a_series_bound_at_the_core_end_proves_the_core_in_one_leaf(
        corpus_specs, monkeypatch):
    # the near-zero rule at the core's right end, 64 bits up, holds on the
    # whole core: one leaf, and the series form is bisected nowhere.  The
    # same one call stands for the left margin.  The leaf's bound holds for
    # the form itself, not the form over x^e0: at the leaf's left end it
    # lies below the form's own enclosure there
    rule, calls = prove.near_zero_certificate, []
    monkeypatch.setattr(prove, "near_zero_certificate",
                        lambda *a: calls.append(rule(*a)) or calls[-1])
    for stanza, claim in sorted(THEOREM_CLAIMS.items()):
        if stanza == "THM33":  # a derivative's series: no core bound
            continue
        calls.clear()
        r = verify_inequality(_spec(corpus_specs, stanza))
        assert r.status == "Proved" and r.leaves == 1 and r.max_depth == 0
        (leaf,) = r.certificate
        (nz,) = calls
        cert = nz.series_certificate
        assert r.series_certificate is cert
        assert cert["eps"] == Interval.point(leaf.hi).round_out(64).hi >= leaf.hi
        assert 0 < leaf.bound <= cert["bound"] * leaf.lo ** cert["e0"]
        assert leaf.bound.denominator <= 2 ** 192
        form = series_claim_form(claim, cert["N"])
        assert leaf.bound <= form(Interval.point(leaf.lo)).lo, stanza


def test_one_series_bound_and_one_tail_per_bound_for_each_theorem_stanza(
        corpus_specs, monkeypatch):
    # the core's call covers the left margin, so each stanza takes one
    # bound; each tail is computed once, in `_pick_N`'s loop, and reused.
    # Each stanza runs at the options of the corpus run (THM34's x_max 10)
    bounds, tails = [], []
    lower_bound, tail = prove._left_lower_bound, prove.tail_bound
    monkeypatch.setattr(prove, "_left_lower_bound",
                        lambda *a: bounds.append(a) or lower_bound(*a))
    monkeypatch.setattr(prove, "tail_bound",
                        lambda *a: tails.append(a) or tail(*a))
    expected = {"THM33": 1, "THM34": 5}
    for stanza in sorted(THEOREM_CLAIMS):
        bounds.clear()
        tails.clear()
        spec = _spec(corpus_specs, stanza)
        verify_inequality(spec, ProveOptions(x_max=F(spec.tag_value("x_max") or 20)))
        assert len(bounds) == 1, stanza
        assert len(tails) == expected.get(stanza, 4), stanza
        (tail_used, _, _), last = bounds[0], tails[-1]
        assert (tail_used.kind, tail_used.N, tail_used.x_upper) == last, stanza


def test_the_margin_finding_bounds_the_series_form_not_the_difference(
        corpus_specs):
    # the rule bounds the series form over x^e0, and the finding says so:
    # at x = 1/1000 a lower claim's difference is near 4.8e-21, far below
    # the stated 0.0047619 * x^2, which the form meets there and at the
    # finding's own x
    pattern = (r"(\w+): series form (\S+) from x\^(\d+) on >= (\S+) \* "
               r"x\^(\d+) on \(0, (\S+)\]; leading coefficient (\S+)")
    x0 = F(1, 1000)
    for stanza, claim in sorted(THEOREM_CLAIMS.items()):
        if claim.mode == "upper" or stanza == "THM33":
            continue
        r = verify_inequality(_spec(corpus_specs, stanza))
        cert = r.series_certificate
        (m,) = filter(None, (re.fullmatch(pattern, f) for f in r.findings))
        assert m[1] == stanza and m[2] == claim.series_id
        e0, x = int(m[3]), F(m[6])
        assert e0 == int(m[5]) == cert["e0"] and x == cert["eps"]
        lb = cert["normalized_lower_bound"]
        assert m[4] == f"{float(lb):.6g}" and m[7] == str(cert["leading"])
        form = series_claim_form(claim, cert["N"])
        for at in (x, x0):
            assert form(Interval.point(at)).lo >= lb * at ** e0, (stanza, at)
        if claim.mode == "lower":
            diff = eval_expr(_spec(corpus_specs, stanza).difference(),
                             Interval.point(x0), 384)
            assert 0 < diff.hi < lb * x0 ** e0 * F(1, 10 ** 11), stanza


def test_a_left_margin_of_1_or_more_is_closed_on_theorem_stanzas(corpus_specs):
    # the series rule holds for any eps inside the series' radius, not only
    # below 1
    for stanza in sorted(THEOREM_CLAIMS):
        for eps in (F(1), F(3, 2)):
            r = verify_inequality(_spec(corpus_specs, stanza),
                                  ProveOptions(eps_lo=eps))
            assert r.status == ("Refuted" if stanza == "THM33" else "Proved")
            assert not any(u.startswith("(lo, ") for u in r.uncovered), stanza
            # the core's call covers the margin: its x is the core's end
            assert r.series_certificate["eps"] >= eps


_OPEN_UNIT = parse_corpus("inequality OPEN_UNIT {\n  domain   = (0, 1)\n"
                          "  lhs      = 2 + sin(x)\n  relation = >\n"
                          "  rhs      = 1\n}\n")[0]


def test_an_empty_margin_is_not_listed(corpus_specs):
    # a zero margin at a rational open end leaves nothing uncovered there;
    # (lo, 0] and [1, hi) would name empty intervals
    r = verify_inequality(_OPEN_UNIT, ProveOptions(eps_lo=F(0), eps_hi=F(0)))
    assert r.status == "Proved" and r.uncovered == []
    r = verify_inequality(_OPEN_UNIT)
    left, right = r.uncovered
    assert left.startswith("(lo, ") and right.startswith("[")
    # pi/2 is no dyadic: a zero margin there still leaves [hi_core, hi)
    r = verify_inequality(_spec(corpus_specs, "HUY_TRIG"),
                          ProveOptions(eps_lo=F(0), eps_hi=F(0)))
    (u,) = r.uncovered
    assert u.startswith("[") and u.endswith("hi) uncovered (margin eps_hi=0)")


def test_an_empty_core_lists_its_margins(corpus_specs, monkeypatch):
    # margins that meet leave no core: no rule runs, and each margin is
    # listed, as under every other verdict
    r = verify_inequality(_closed_stanza("(30, inf)", "x", "0"))
    assert (r.status, r.reason, r.leaves) == ("Unknown", "empty core after margins", 0)
    left, tail = r.uncovered
    assert left.startswith("(lo, ") and left.endswith(
        "] uncovered (margin eps_lo=1/1000; no registered series)")
    assert F(left[len("(lo, "):left.index("]")]) > 30
    assert tail == "(20, inf) unverified (x_max cutoff)"
    # eps 1 on each side of (0, pi/2): (lo, 1] and [pi/2 - 1, hi) cover it
    one = ProveOptions(eps_lo=F(1), eps_hi=F(1))
    r = verify_inequality(_spec(corpus_specs, "HUY_TRIG"), one)
    left, right = r.uncovered
    assert left == "(lo, 1] uncovered (margin eps_lo=1; no registered series)"
    assert right.startswith("[") and right.endswith("hi) uncovered (margin eps_hi=1)")
    assert F(right[1:right.index(",")]) < 1
    # a theorem's stanza takes no series rule on it either

    def no_rule(*args):
        raise AssertionError("a series rule ran on an empty core")

    monkeypatch.setattr(prove, "near_zero_certificate", no_rule)
    r = verify_inequality(_spec(corpus_specs, "THM31_LO"), one)
    assert r.status == "Unknown" and r.theorem.stanza == "THM31_LO"
    assert r.uncovered[0] == "(lo, 1] uncovered (margin eps_lo=1; empty core)"
    assert len(r.uncovered) == 2


def _closed_stanza(domain, lhs, rhs):
    return parse_corpus(f"inequality CLOSED {{\n  domain   = {domain}\n"
                        f"  lhs      = {lhs}\n  relation = >\n"
                        f"  rhs      = {rhs}\n}}\n")[0]


@pytest.mark.parametrize("domain,lhs,rhs,ends", [
    ("[0, pi/4]", "1", "tan(x)", ["hi"]),        # false at pi/4 itself
    ("[1/3, 2/3]", "x", "0", ["lo", "hi"]),
    ("[1/2, 1]", "x", "0", []),                  # dyadic ends: no sliver
    ("[1/3, inf)", "x", "0", ["lo", "x_max"]),
])
def test_a_closed_end_beyond_the_core_is_listed(domain, lhs, rhs, ends):
    spec = _closed_stanza(domain, lhs, rhs)
    r = verify_inequality(spec)
    assert r.status == "Proved"
    assert len(r.uncovered) == len(ends)
    for end, u in zip(ends, r.uncovered):
        if end == "x_max":
            assert u == "(20, inf) unverified (x_max cutoff)"
            continue
        assert u.endswith(f" uncovered (closed end {end} lies beyond the core)")
        if end == "lo":
            assert u.startswith("[lo, ")
            core = F(u[len("[lo, "):u.index(")")])
            assert core > eval_endpoint(spec.lo_expr).lo
        else:
            assert u.startswith("(") and ", hi] " in u
            core = F(u[1:u.index(",")])
            assert core < eval_endpoint(spec.hi_expr).hi


def test_a_prefactor_that_does_not_prove_leaves_the_core_to_the_raw_difference(
        corpus_specs, monkeypatch):
    # the series route proves a core in one leaf only with its prefactor
    # Proved positive: x - 1 is refuted on part of THM31_LO's core, and
    # x - x is 0 everywhere, so Unknown.  Either way the raw difference
    # decides, proves the true claim, and the finding names the verdict
    claim = THEOREM_CLAIMS["THM31_LO"]
    for prefactor, verdict in (("x - 1", "refuted"), ("x - x", "unknown")):
        monkeypatch.setitem(THEOREM_CLAIMS, "THM31_LO",
                            claim.replace(prefactor=prefactor))
        r = verify_inequality(_spec(corpus_specs, "THM31_LO"))
        assert r.status == "Proved" and r.reason is None and r.leaves > 1
        assert any(f"prefactor {prefactor} {verdict} positive (" in f and
                   f.endswith("; the raw difference was bisected instead")
                   for f in r.findings), r.findings


def test_verify_huy_trig(corpus_specs):
    r = verify_inequality(_spec(corpus_specs, "HUY_TRIG"))
    assert r.status == "Proved"
    assert any("uncovered" in u for u in r.uncovered)


def test_verify_rejects_negative_margins(corpus_specs):
    spec = _spec(corpus_specs, "HUY_TRIG")
    for margins in ({"eps_lo": Fraction(-1)}, {"eps_hi": Fraction(-1, 10)}):
        with pytest.raises(DomainError, match="non-negative"):
            verify_inequality(spec, ProveOptions(**margins))


@pytest.mark.parametrize("field,value", [
    ("x_max", 0), ("max_depth", 0), ("max_depth", 257), ("min_width", 0),
    ("min_width", Fraction(-1)), ("precision", 32), ("precision", 4097),
])
def test_prove_options_reject_out_of_range(field, value):
    with pytest.raises(DomainError, match=field):
        ProveOptions(**{field: value})


def test_verify_unbounded_reports_cutoff(corpus_specs):
    r = verify_inequality(_spec(corpus_specs, "HUY_HYP"))
    assert r.status == "Proved"
    assert any("inf) unverified" in u for u in r.uncovered)


def _integrated_form(series_id: str, N: int):
    # x -> enclosure of the integral over [0, x] of the series, for a series
    # registered as the derivative of the prefactor times the difference
    seq = get_series(series_id)
    exps = [(seq.coeff(n), seq.exponent_of(n) + 1)
            for n in range(seq.start_index, N + 1)]

    def form(x: Fraction) -> Interval:
        total = sum(c * x ** e / e for c, e in exps)
        r = x * tail_bound(series_id, N, x).bound
        return Interval(total - r, total + r)

    return form


@pytest.mark.parametrize("stanza", sorted(THEOREM_CLAIMS))
def test_theorem_claim_matches_corpus_stanza(corpus_specs, stanza):
    # the registered series form, linked by its prefactor, encloses the
    # shipped stanza's difference at 9 points of its default core (1/4, 1/2
    # and 3/4 among them): registration by identity relies on this data
    spec = _spec(corpus_specs, stanza)
    claim = THEOREM_CLAIMS[stanza]
    lo = eval_endpoint(spec.lo_expr).hi + F(1, 1000)
    hi = (F(spec.tag_value("x_max") or 20) if spec.unbounded
          else eval_endpoint(spec.hi_expr).lo - F(1, 1000))
    N = _pick_N(claim.series_id, hi).N
    derivative = THEOREMS[claim.thm].derivative_series
    form = (_integrated_form(claim.series_id, N) if derivative
            else series_claim_form(claim, N))
    prefactor = parse_expression(claim.prefactor)
    for k in range(9):
        x = lo + (hi - lo) * F(k, 8)
        xi = Interval.point(x)
        s, p = form(x if derivative else xi), eval_expr(prefactor, xi)
        via = s / p if claim.mode == "positive" else p * s
        assert via.intersects(eval_expr(spec.difference(), xi)), (stanza, k)


@pytest.mark.parametrize("stanza", sorted(THEOREM_CLAIMS))
def test_shipped_theorem_stanzas_are_registered(corpus_specs, stanza):
    assert _registration_ok(_spec(corpus_specs, stanza))


_T31_SMALL, _T31_BIG = "3 + (1/60)*x^3*sin(x)", "2*x/sin(x) + x/tan(x)"


def _thm31_lo(domain, lhs=_T31_SMALL, rel="<", rhs=_T31_BIG):
    return parse_corpus(f"inequality THM31_LO {{\n  domain = {domain}\n"
                        f"  lhs = {lhs}\n  relation = {rel}\n"
                        f"  rhs = {rhs}\n}}\n")[0]


def test_registration_compares_domain_and_difference():
    # the same claim, spelt the other way round and with other spacing
    assert _registration_ok(_thm31_lo("( 0 , pi/2 )", _T31_BIG, ">", _T31_SMALL))
    assert not _registration_ok(_thm31_lo("(0, 31/10)"))
    assert not _registration_ok(_thm31_lo("[0, pi/2)"))
    assert not _registration_ok(_thm31_lo("(0, pi/2)", rhs=_T31_BIG + " + 0"))
    assert not _registration_ok(_thm31_lo("(0, pi/2)", "x", ">", "1/2000"))


def test_registered_stanza_past_the_series_radius_gets_a_verdict():
    # T3.1's series has radius pi; on (0, 31/10) the stanza is not the
    # shipped one, so the raw difference is bisected instead of the series
    r = verify_inequality(_thm31_lo("(0, 31/10)"), ProveOptions(max_depth=16))
    assert r.status == "Unknown" and r.theorem is None
    assert "possible pole" in r.reason


def test_tan_where_cos_is_negative_is_proved():
    # TAN23: on [2, 3] cos < 0 throughout, so tan has no pole there
    r = prove_positive(parse_expression("tan(x) + 3"), Interval(2, 3))
    assert r.status == "Proved" and r.reason is None


def test_tan_where_cos_is_negative_is_refuted():
    # tan(2) + 1 is about -1.19; at the midpoint 5/2 it is about 0.25, so
    # the point probed there leaves bisection's witness box in place
    r = prove_positive(parse_expression("tan(x) + 1"), Interval(2, 3))
    assert r.status == "Refuted"
    assert r.witness == Interval(2, F(9, 4)) and r.witness_value.hi < 0


def test_tan_just_past_its_pole_is_refuted():
    # tan(x) > 0 fails just right of pi/2, where cos < 0
    r = prove_positive(parse_expression("tan(x)"), Interval(1, 2))
    assert r.status == "Refuted" and r.witness_value.hi < 0
    half_pi = pi_enclose(F(1, 10 ** 30)) * F(1, 2)
    assert half_pi.hi < r.witness.lo and r.witness.hi < F(1571, 1000)


def _mp_value(e, x):
    """The expression e at the mpmath number x, at mpmath's precision."""
    kind = e.kind
    if kind == "x":
        return x
    if kind == "lit":
        return mpmath.mpf(e.value.numerator) / e.value.denominator
    if kind == "pi":
        return +mpmath.pi
    if kind == "call":
        return getattr(mpmath, e.fn)(_mp_value(e.arg, x))
    if kind == "pow":
        return _mp_value(e.base, x) ** e.exponent
    if kind == "neg":
        return -_mp_value(e.a, x)
    ops = {"add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": operator.truediv}
    return ops[kind](_mp_value(e.a, x), _mp_value(e.b, x))


def test_the_sharp_end_of_thm31_hi_proves_under_mpmath(corpus_specs):
    # with no right margin THM31_HI's core ends at the dyadic just below
    # pi/2, where its difference is 0.  Bisected as (x cos x)/sin x, x/tan(x)
    # does not grow near pi/2, and the difference proves there: each
    # leaf's bound lies under mpmath's value at 150 digits at the leaf's
    # ends and midpoint, and each such value is > 0
    spec = next(s for s in corpus_specs if s.name == "THM31_HI")
    r = verify_inequality(spec, ProveOptions(eps_hi=F(0)))
    assert r.status == "Proved" and (r.leaves, r.max_depth) == (15, 12)
    assert len(r.certificate) == 15
    node = spec.difference()
    with mpmath.workdps(150):
        assert _mp_value(node, mpmath.pi / 2) == pytest.approx(0, abs=1e-140)
        mp = lambda q: mpmath.mpf(q.numerator) / q.denominator
        gap = mpmath.pi / 2 - mp(r.certificate[-1].hi)
        assert 0 < gap < mpmath.mpf(2) ** -140
        for leaf in r.certificate:
            for x in (leaf.lo, (leaf.lo + leaf.hi) / 2, leaf.hi):
                v = _mp_value(node, mp(x))
                assert mp(leaf.bound) <= v and v > 0, x


def test_a_quotient_by_tan_across_its_pole_is_never_proved():
    # x/tan(x) > -1 holds on (1, 2) but at pi/2, where tan is undefined.
    # The boxes bound x cos x / sin x, which is finite there: only the
    # per-box guard on cos keeps the pole out of every proof
    spec, = parse_corpus("inequality T {\n  domain   = (1, 2)\n  lhs      = x/tan(x)\n"
                         "  relation = >\n  rhs      = -1\n}\n")
    r = verify_inequality(spec)
    assert r.status == "Unknown" and "possible pole" in r.reason
    r = prove_positive(parse_expression("x/tan(x) + 1"), Interval(1, 2))
    assert r.status != "Proved"


# --- tan's pole cleared: N = cos(u)*difference, v/tan(u) as v*cos(u)/sin(u) --

_HOLDOUT = Path(__file__).parent / "data" / "holdout.ineq"
_CLEARED = {"HUY_TRIG", "CHAIN_1_3_A", "WILKER", "WILKER_HI", "WILKER_LO",
            "CHAIN_1_7_A", "CHAIN_1_8_A", "BECKER_STARK_LO", "BECKER_STARK_HI"}
# the stanzas whose tan is only a divisor: rewritten, with no multiplier
_DIVISOR_ONLY = {"CHAIN_1_3_B", "CHAIN_1_7_B", "CHAIN_1_7_C", "CHAIN_1_8_B",
                 "CHAIN_1_8_C", "CHAIN_1_8_D", "WU_SRIVASTAVA"}


def test_the_cleared_form_is_cos_times_the_difference(corpus_results):
    # the shipped stanzas as the corpus run left them, and the hold-out's:
    # every bisected form that is not the difference is the product of its
    # multipliers and the difference
    holdout = parse_corpus(_HOLDOUT.read_text(encoding="utf-8"))
    runs = list(corpus_results) + [(s, verify_inequality(s)) for s in holdout]
    cleared = {spec.name for spec, r in runs if r.multipliers}
    assert cleared == _CLEARED
    rewritten = {spec.name for spec, r in runs
                 if r.bisected not in (None, spec.difference())}
    assert rewritten == _CLEARED | _DIVISOR_ONLY
    rng = random.Random(44)
    with mpmath.workdps(60):
        for spec, r in runs:
            if spec.name not in rewritten:
                continue
            assert r.bisected is clear_tan(spec.difference(), r.multipliers)
            assert "/tan(" not in format_expr(r.bisected), spec.name
            if spec.name in cleared:
                assert [format_expr(m) for m in r.multipliers] == ["cos(x)"]
                assert r.findings[0] == ("bisected cos(x)*difference: cos(x) > 0 on "
                                         "the core, with tan's pole near it")
            for _ in range(20):
                x = mpmath.mpf(rng.random()) * mpmath.pi / 2
                want = _mp_value(spec.difference(), x)
                for m in r.multipliers:
                    want *= _mp_value(m, x)
                assert _mp_value(r.bisected, x) == pytest.approx(want, rel=1e-40,
                                                                 abs=1e-50), spec.name


@pytest.mark.parametrize("text", [
    "tan(x)^2 - 1", "sin(tan(x)) - 1/2", "tan(x)*x/tan(x) - 1",
    "tan(x)*tan(x) + 1", "x/tan(x) - 1", "1/(2*tan(x)) + tan(x)",
    "x*(tan(x) + 1) - 1"])
def test_a_tan_used_otherwise_is_not_cleared(text):
    # no multiplier; only a quotient by a tan call is rewritten, exactly
    e = parse_expression(text)
    assert tan_multipliers(e) == ()
    n = clear_tan(e, ())
    assert clear_tan(e, ()) is n and (n is e) == ("/tan(" not in text)
    assert "/tan(" not in format_expr(n)
    with mpmath.workdps(50):
        for k in range(1, 10):
            x = mpmath.mpf(k) / 7
            assert _mp_value(n, x) == pytest.approx(_mp_value(e, x), rel=1e-40)


def test_each_tan_argument_is_cleared_in_turn():
    # tan(x) and tan(x/2) are each one numerator factor of their term
    e = parse_expression("2*sin(x)/x + tan(x)/x - sin(x)/x - 2*tan(x/2)/(x/2)")
    ms = tan_multipliers(e)
    assert [format_expr(m) for m in ms] == ["cos(x)", "cos(x/2)"]
    n = clear_tan(e, ms)
    assert clear_tan(e, ms) is n and "tan" not in format_expr(n)
    with mpmath.workdps(50):
        for k in range(1, 10):
            x = mpmath.mpf(k) / 7
            want = mpmath.cos(x) * mpmath.cos(x / 2) * _mp_value(e, x)
            assert _mp_value(n, x) == pytest.approx(want, rel=1e-40)


def test_a_core_that_holds_tans_pole_is_not_cleared():
    # sin(x) wherever it is defined: Unknown at the pole, as it always was.
    # Taken through cos(x), which holds 0 here, it would read sin(x)cos(x),
    # negative past pi/2
    spec, = parse_corpus("inequality T {\n  domain   = (1, 2)\n  lhs      = "
                         "tan(x)*cos(x)\n  relation = >\n  rhs      = 0\n}\n")
    r = verify_inequality(spec)
    assert r.status == "Unknown" and "possible pole" in r.reason
    assert r.multipliers == () and r.bisected is spec.difference()
    assert not any(f.startswith("bisected") for f in r.findings)


def test_a_core_end_2_to_the_minus_192_below_pi_2_takes_the_raw_difference(
        corpus_specs, monkeypatch):
    # cos is not certified > 0 at the 192-bit dyadic just below pi/2, so the
    # raw difference is bisected there, exactly as with no clearing at all
    ctx = get_ctx(192)
    hi = F(ctx.pi[0] >> 1, ctx.one)
    node = _spec(corpus_specs, "WILKER_HI").difference()
    opts = ProveOptions(max_depth=12)
    r = prove_positive(node, Interval(F(1, 1000), hi), opts)
    assert r.multipliers == () and r.bisected is node and r.findings == []
    # CHAIN_1_3_B divides by tan(x) and takes no multiplier: its boxes bound
    # x cos x / sin x, and it ends Unknown at that end, at depth 41
    quotient = _spec(corpus_specs, "CHAIN_1_3_B").difference()
    q = prove_positive(quotient, Interval(F(1, 1000), hi))
    assert q.multipliers == () and q.findings == []
    assert q.bisected is clear_tan(quotient, ()) and q.bisected is not quotient
    assert (q.status, q.leaves, q.max_depth) == ("Unknown", 43, 41)
    monkeypatch.setattr(prove, "tan_multipliers", lambda e: ())
    plain = prove_positive(node, Interval(F(1, 1000), hi), opts)
    assert (r.status, r.leaves, r.max_depth, r.reason) == (
        plain.status, plain.leaves, plain.max_depth, plain.reason)


def test_a_cleared_box_refutes_with_the_raw_differences_value():
    # tan(x) > x^8 holds at the core's midpoint and fails near 1.4: the
    # boxes bound sin(x) - x^8 cos(x), and the witness is valued by the
    # raw difference
    e = parse_expression("tan(x) - x^8")
    r = prove_positive(e, Interval(F(1, 1000), F(3, 2)))
    assert r.status == "Refuted" and r.leaves > 0
    assert [format_expr(m) for m in r.multipliers] == ["cos(x)"]
    w, v = r.witness, r.witness_value
    with mpmath.workdps(120):
        mid = mpmath.mpf(w.mid.numerator) / w.mid.denominator
        lo, hi = (mpmath.mpf(q.numerator) / q.denominator for q in (v.lo, v.hi))
        assert lo <= _mp_value(e, mid) <= hi and v.hi < 0


@pytest.mark.parametrize("text,lo,hi,status,leaves", [
    ("x - 1", 0, 2, "Refuted", 0),
    ("sin(x)^2 + cos(x)^2 - 1", F(1, 4), F(1, 2), "Unknown", 0),
    ("tan(x) - x^8", F(1, 1000), F(3, 2), "Refuted", 21)])
def test_only_a_proved_result_replays(text, lo, hi, status, leaves):
    # a result that is not Proved holds no proof to replay, though each of
    # the leaves it lists, none or some, replays positive
    e = parse_expression(text)
    r = prove_positive(e, Interval(lo, hi))
    assert (r.status, len(r.certificate)) == (status, leaves)
    assert not reverify_certificate(e, r, 256)
    assert reverify_certificate(e, r.replace(status="Proved"), 256)


def test_a_cleared_certificate_replays_only_as_its_own_form(corpus_results):
    spec, r = next((s, r) for s, r in corpus_results if s.name == "WILKER_HI")
    node = spec.difference()
    for bits in (256, 384):
        assert reverify_certificate(node, r, precision=bits)
    # the raw difference does not stand in for N, nor N for the raw one
    assert not reverify_certificate(node, r.replace(bisected=node), 256)
    other = _spec([s for s, _ in corpus_results], "WILKER_LO")
    assert not reverify_certificate(other.difference(), r, 256)


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


@pytest.mark.parametrize("k", [30, 60, 200])
def test_near_zero_t33_witness_value_below_the_192_bit_resolution(k):
    # the 192-bit enclosure at eps/2 straddles 0 here, or at 2^-201 meets
    # the pole at 0; doubling the precision (384 bits at 2^-30, 768 at 2^-60)
    # shows the negative value
    eps = F(1, 2 ** k)
    diff = prove._shipped_stanzas()["THM33"].difference()
    try:
        at_192 = eval_expr(diff, Interval.point(eps / 2))
        assert at_192.lo < 0 < at_192.hi
    except EvalError:
        assert k == 200
    r = near_zero_certificate("T3.3", eps)
    assert r.status == "Refuted"
    assert r.witness_value.hi < 0


def test_near_zero_t33_witness_value_at_the_corpus_eps_is_the_192_bit_one():
    eps = F(1, 1000)
    diff = prove._shipped_stanzas()["THM33"].difference()
    r = near_zero_certificate("T3.3", eps)
    assert r.witness_value == eval_expr(diff, Interval.point(eps / 2), 192)


def test_near_zero_t34_t32_t35():
    assert near_zero_certificate("T3.4", F(1, 1000)).status == "Proved"
    assert near_zero_certificate("T3.2", F(1, 1000)).status == "Proved"
    assert near_zero_certificate("T3.5", F(1, 10)).status == "Proved"


def test_near_zero_upper_side():
    r = near_zero_certificate("T3.1", F(1, 1000), side="upper")
    assert r.status == "Proved"
    assert r.series_certificate["claim"] == "upper"


@pytest.mark.parametrize("kind", series_ids())
def test_near_zero_bounds_equal_termwise_loops(kind):
    # one exact sum per bound gives exactly the per-term Fraction loop's value
    start = get_series(kind).start_index
    for eps in (F(1, 1000), F(1, 3), F(3 * 2 ** 61 + 1, 2 ** 64)):
        for n0 in (start, start + 1):
            for N in (n0 + 7, n0 + 22):
                for negate in (False, True):
                    assert (_left_lower_bound(tail_bound(kind, N, eps), n0,
                                              negate)
                            == left_lower_bound_termwise(kind, n0, eps, N,
                                                         negate)), (kind, eps, n0, N)


def test_near_zero_unregistered():
    with pytest.raises(DomainError):
        near_zero_certificate("T9.9", F(1, 10))
    with pytest.raises(DomainError):
        near_zero_certificate("T3.3", F(1, 10), side="upper")
    with pytest.raises(DomainError, match="'lower' or 'upper'"):
        near_zero_certificate("T3.1", F(1, 10), side="lowr")
    for eps in (0, -1, F(-1, 10 ** 9)):
        with pytest.raises(DomainError, match="epsilon must be positive"):
            near_zero_certificate("T3.1", eps)


def test_near_zero_takes_any_eps_inside_the_radius():
    # from 1 on the rule still settles the sign; past 63/64 of pi, the
    # limit of a trigonometric series, it ends Unknown with its own reason
    for eps in (1, F(3, 2)):
        for side in ("lower", "upper"):
            assert near_zero_certificate("T3.1", eps, side).status == "Proved"
    for side in ("lower", "upper"):
        r = near_zero_certificate("T3.1", 4, side)
        assert r.status == "Unknown" and r.series_certificate is None
        assert r.reason == (f"T3.1_F: x_upper=4 too close to the radius pi "
                            f"(limit {TRIG_X_MAX})")


def test_theorem_series_cancel_at_start_and_lead_with_the_claimed_sign():
    # the certificate's leading index is the start for an upper claim, whose
    # series starts at x^0, and start + 1 otherwise, the start term
    # cancelling exactly; THM33's leading coefficient refutes it
    for stanza, claim in THEOREM_CLAIMS.items():
        t, seq = THEOREMS[claim.thm], get_series(claim.series_id)
        assert seq.start_index == t.start, stanza
        if claim.mode == "upper":
            assert seq.exponent_of(t.start) == 0, stanza
            leading = seq.coeff(t.start)
        else:
            zero = t.zero_value if claim.mode == "lower" else 0
            assert seq.coeff(t.start) == zero, stanza
            leading = seq.coeff(t.start + 1)
        if stanza == "THM33":
            assert leading == F(-1, 40)
        else:
            assert leading > 0, stanza


# 2^-61 ... 1/2, then 1 - 2^-5 ... 1 - 2^-30
_SWEEP_EPS = ([F(1, 2 ** k) for k in range(1, 62)]
              + [1 - F(1, 2 ** j) for j in range(5, 31)])


@pytest.mark.parametrize("stanza", sorted(THEOREM_CLAIMS))
def test_near_zero_sweep_takes_one_bound_per_claim(monkeypatch, stanza):
    claim = THEOREM_CLAIMS[stanza]
    side = "upper" if claim.mode == "upper" else "lower"
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _left_lower_bound(*args, **kwargs)

    monkeypatch.setattr(prove, "_left_lower_bound", counting)
    for eps in _SWEEP_EPS:
        calls.clear()
        r = near_zero_certificate(claim.thm, eps, side=side)
        assert r.status == ("Refuted" if stanza == "THM33" else "Proved"), eps
        assert len(calls) == 1, eps
        cert = r.series_certificate
        if side == "upper":
            assert cert["sup_bound"] == left_sup_bound_termwise(
                claim.series_id, eps, cert["N"]), eps
        if stanza == "THM33":
            # at x = eps/2 <= 2^-26 the difference, about -x^6/280, is smaller
            # than a 192-bit point enclosure's width, which the divisions by
            # x widen, so the value comes from a higher precision
            assert r.witness == Interval.point(eps / 2)
            assert r.witness_value.hi < 0, eps


# --- sequence checks ---------------------------------------------------------

def test_sequence_t32_b_increasing():
    rep = sequence_check("S_T32_B", "increasing", 100)
    assert rep.all_pass
    assert theorem_coeff("T3.2", "b", 3) - theorem_coeff("T3.2", "b", 2) == 169


def test_sequence_t33_c_violation():
    rep = sequence_check("S_T33_C", "increasing", 100)
    assert not rep.all_pass
    assert rep.first_violation == (2, F(-3, 140))
    assert type(rep.first_violation[1]) is F


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


@pytest.mark.parametrize("flags,least", [
    (["--nmax", "2"], 3),                        # the default start, n=2
    (["--nmax", "10", "--nmin", "20"], 21),
])
def test_a_short_nmax_names_the_least_one_accepted(flags, least, capsys):
    n_max = flags[1]
    assert run_command(["sequences", "--id", "S_T31", "--mode", "positive",
                        *flags]) == 3
    assert capsys.readouterr().err == (
        f"ineqcert: error: n_max must be at least {least}, got {n_max}\n")


def test_passing_exact_checks_never_normalise_a_coefficient(monkeypatch):
    # a passing check signs and cross-multiplies integer pairs only
    def refuse(*args):
        raise AssertionError(f"theorem_coeff{args} called")

    monkeypatch.setattr(prove, "theorem_coeff", refuse)
    monkeypatch.setattr(series, "theorem_coeff", refuse)
    checks = [("S_T31", "positive", None), ("S_T32_B", "increasing", None),
              ("S_T32_G", "positive", None), ("S_T33_C", "increasing", 3),
              ("S_T34_C", "increasing", None), ("S_T35", "positive", None)]
    assert sorted(c[0] for c in checks) == sorted(prove.SEQUENCE_IDS)
    for seq_id, mode, n_min in checks:
        assert sequence_check(seq_id, mode, 500, n_min=n_min).all_pass, seq_id
    for identity_id in prove.IDENTITY_IDS:
        assert identity_check(identity_id, 500).holds, identity_id


_WEIGHTED = {"S_T31": ("T3.1", "f"), "S_T32_G": ("T3.2", "g"),
             "S_T35": ("T3.5", "f")}


def test_positive_steps_read_no_tangent_number(monkeypatch):
    # T_n >= 1, so a step's sign is its integer kernel's: past n = 2 neither
    # the tangent table nor the weight |B_2n|/(2n)! is read
    def upto_2(real):
        def guarded(*args):             # the index n is the last argument
            if args[-1] > 2:
                raise AssertionError(f"{real.__name__}{args} read")
            return real(*args)
        return guarded

    monkeypatch.setattr(exact, "tangent", upto_2(exact.tangent))
    monkeypatch.setattr(series, "tangent", upto_2(series.tangent))
    monkeypatch.setattr(series, "_w", upto_2(series._w))
    for seq_id in _WEIGHTED:
        assert sequence_check(seq_id, "positive", 500).all_pass, seq_id


@pytest.mark.parametrize("seq_id", sorted(_WEIGHTED))
@pytest.mark.parametrize("at,flip", [(37, lambda k: -k), (5, lambda k: 0)],
                         ids=["negative-at-37", "zero-at-5"])
def test_a_failing_kernel_reports_the_full_value(seq_id, at, flip, monkeypatch):
    thm, role = _WEIGHTED[seq_id]
    seq = get_series(THEOREMS[thm].roles[role])
    real = seq.kernel
    monkeypatch.setitem(series._REGISTRY, seq.id, seq.replace(
        kernel=lambda n: flip(real(n)) if n == at else real(n)))
    rep = sequence_check(seq_id, "positive", 500)
    assert not rep.all_pass
    n, v = rep.first_violation
    assert n == at and type(v) is F
    den = factorial(2 * at - 1) * 4 ** at * (4 ** at - 1)
    assert v == F(*series.theorem_pair(thm, role, at))
    assert v == F(flip(real(at)) * exact.tangent(at), den)
    assert (v < 0) if at == 37 else (v == 0)


def test_each_check_forms_each_value_once(monkeypatch):
    # each a_n of a step is formed once, and no a_n past the last step
    calls = []
    real = prove.theorem_pair

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(prove, "theorem_pair", counted)
    assert sequence_check("S_T34_C", "increasing", 500).all_pass
    assert len(calls) == len(set(calls)) == 498        # a_3 .. a_500
    calls.clear()
    assert identity_check("ID_T34_FDECOMP", 500).holds
    assert len(calls) == len(set(calls)) == 496        # c_6 .. c_501


def test_a_lowered_sequence_value_first_fails_its_step(monkeypatch):
    # b_38 of T3.2 lowered to b_37 - 1: the increasing check must first fail
    # at the step b_38 - b_37 = -1, so each step must start from the value
    # the step before it ended at
    real = prove.theorem_pair

    def lowered(thm, role, n):
        if (thm, role, n) == ("T3.2", "b", 38):
            return real(thm, role, 37)[0] - 1, 1
        return real(thm, role, n)

    monkeypatch.setattr(prove, "theorem_pair", lowered)
    rep = sequence_check("S_T32_B", "increasing", 500)
    assert not rep.all_pass and rep.first_violation == (37, F(-1))


# --- identity checks ---------------------------------------------------------

@pytest.mark.parametrize("identity_id", sorted(IDENTITY_POWER_FORMS))
def test_each_identity_shift_form_equals_its_power_form(identity_id):
    # 4^n, 16^n and the denominator's (16 + 4^n)(64 + 4^n) as shifts: the
    # same parts and sides from the identity's start to the --nmax cap + 1
    start, _, _, at = prove._IDENTITIES[identity_id]
    for n in range(start, MAX_NMAX + 2):
        sides, parts = at(n, (0, 1))
        want_parts, want_den = IDENTITY_POWER_FORMS[identity_id](n)
        assert parts == want_parts, (identity_id, n)
        assert sides == ((0, 1, sum(want_parts), want_den),), (identity_id, n)


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


def _bump(real, at):
    """real, made 1 larger at the arguments `at` only; a pair (num, den)
    becomes (num + den, den)."""
    def bumped(*args):
        v = real(*args)
        if args != at:
            return v
        return (v[0] + v[1], v[1]) if type(v) is tuple else v + 1
    return bumped


# (identity, what is bumped, at which arguments, the first failure it makes)
_IDENTITY_TAMPERS = [
    ("ID_T32_BDIFF", "theorem_pair", ("T3.2", "b", 5), (4, F(5874), F(5873))),
    ("ID_T33_CDIFF", "theorem_pair", ("T3.3", "c", 7),
     (6, F(6101, 4004), F(2097, 4004))),
    ("ID_T34_FDECOMP", "_f4_plain", (9,),
     (9, F(35411152249349, 655687219874400),
      F(271957649275000321, 5035677848635392000))),
    # _quartic_poly is the right side of one rewrite and the left of the
    # next: the first of the two is reported
    ("ID_T34_POLYS", "_quartic_poly", (8,), (8, F(22911342), F(22911343))),
]


@pytest.mark.parametrize("identity_id,name,at,failure", _IDENTITY_TAMPERS)
def test_a_tampered_identity_first_fails_where_it_was_changed(
        monkeypatch, identity_id, name, at, failure):
    monkeypatch.setattr(prove, name, _bump(getattr(prove, name), at))
    rep = identity_check(identity_id, 20)
    assert not rep.holds and rep.n_max == 20
    assert rep.first_failure == failure
    assert all(type(v) is F for v in rep.first_failure[1:])


@pytest.mark.parametrize("identity_id,name,at,failure", _IDENTITY_TAMPERS)
def test_a_tampered_identity_exits_1_in_both_formats(
        monkeypatch, capsys, tmp_path, identity_id, name, at, failure):
    monkeypatch.setattr(prove, name, _bump(getattr(prove, name), at))
    out = tmp_path / "i.json"
    argv = ["identities", "--id", identity_id, "--nmax", "20"]
    assert run_command([*argv, "--out", str(out)]) == 1
    (claim,) = json.loads(out.read_text())["claims"]
    n, lhs, rhs = failure
    assert claim["status"] == "fails"
    assert claim["first_failure"] == {"n": n, "lhs": str(lhs), "rhs": str(rhs)}
    assert run_command([*argv, "--format", "text"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{identity_id}: FAILS on [{claim['n_min']}, 20]")


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


@pytest.mark.parametrize("thm,endpoint,match", [
    ("T9.9", "zero", "unknown theorem id 'T9.9'"),
    ("T3.1", "middle", "endpoint must be 'zero' or 'right'"),
])
def test_limits_reject_an_unknown_theorem_or_endpoint(thm, endpoint, match):
    with pytest.raises(DomainError, match=match):
        limit_report(thm, endpoint)


def test_limits_right_rejected_for_hyperbolic():
    with pytest.raises(DomainError):
        limit_report("T3.3", "right")
    with pytest.raises(DomainError):
        limit_report("T3.4", "right")


def test_limits_cross_consistency():
    roles = {"T3.1": "f", "T3.2": "g", "T3.3": "c", "T3.4": "c", "T3.5": "f"}
    for thm, role in roles.items():
        rep = limit_report(thm, "zero")
        assert rep.value_exact == theorem_coeff(thm, role, THEOREMS[thm].start)


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


def test_corpus_work_counts_and_certificates_reverify(corpus_report, corpus_results):
    # counts, not timings: the removable-quotient remainder and the Bernstein
    # bound took the corpus from 966 leaves (depths up to 21) to 222 (up to 11)
    _, _, rep = corpus_report
    assert sum(c["leaves"] for c in rep["claims"]) <= 300
    proved = [c for c in rep["claims"] if c["status"] == "Proved"]
    assert len(proved) == 27
    assert all(c["max_depth"] <= 12 for c in proved), \
        [(c["name"], c["max_depth"]) for c in proved if c["max_depth"] > 12]
    # the leaves of a stanza on the series route certify its series form, not
    # the difference, so reverify_certificate does not apply to them
    raw = [(spec, r) for spec, r in corpus_results if r.status == "Proved"
           and (r.theorem is None or THEOREMS[r.theorem.thm].derivative_series)]
    assert len(raw) == 20 and len(corpus_results) == 28
    for spec, r in raw:
        for bits in (256, 384):
            assert reverify_certificate(spec.difference(), r, precision=bits), \
                (spec.name, bits)
