from fractions import Fraction
from math import factorial

import pytest

from ineqcert.cli import MAX_NMAX
from ineqcert.errors import DomainError
from ineqcert.exact import tangent
from ineqcert.interval import Interval, elem_enclose, pi_enclose
from ineqcert.series import (LEMMA_KINDS, PI_LO, THEOREMS, TRIG_X_MAX, CoeffSeq,
                             _register, eval_series, get_series, lemma_coeff,
                             series_ids, tail_bound, theorem_coeff,
                             theorem_pair, theorem_sign)

from oracles import (FORMER_COEFFS, LemmaSeriesOracle, dominating_term,
                     eval_series_termwise, former_theorem_value, tail_bound_termwise)

F = Fraction
ORACLE = LemmaSeriesOracle(46)


def test_lemma_coeff_spot_values():
    assert lemma_coeff("X_OVER_SIN", 1) == F(1, 6)
    assert lemma_coeff("X_OVER_SIN", 2) == F(7, 360)
    assert lemma_coeff("X_OVER_SIN", 3) == F(31, 15120)
    assert lemma_coeff("COT", 1) == F(-1, 3)
    assert lemma_coeff("CSC2", 1) == F(1, 3)
    assert lemma_coeff("CSC3", 1) == F(17, 120)
    assert lemma_coeff("COS_OVER_SIN3", 2) == F(-1, 15)
    assert lemma_coeff("SINH", 0) == 1
    assert get_series("COS_OVER_SIN3").exponent_of(2) == 1
    assert get_series("CSC3").exponent_of(1) == 1


def test_lemma_coeff_matches_series_algebra_oracle():
    for kind in LEMMA_KINDS:
        start = get_series(kind).start_index
        for n in range(start, 21):
            assert lemma_coeff(kind, n) == ORACLE.lemma_coeff(kind, n), (kind, n)


def test_lemma_coeff_domain_errors():
    with pytest.raises(DomainError):
        lemma_coeff("COT", 0)
    with pytest.raises(DomainError):
        lemma_coeff("COS_OVER_SIN3", 1)
    with pytest.raises(DomainError):
        lemma_coeff("NOPE", 1)


def test_theorem_coeff_spot_values():
    assert theorem_coeff("T3.1", "f", 2) == F(1, 60)
    assert theorem_coeff("T3.2", "b", 2) == 17
    assert theorem_coeff("T3.2", "g", 2) == F(17, 720)
    assert theorem_coeff("T3.3", "c", 2) == F(3, 20)
    assert theorem_coeff("T3.3", "c", 3) == F(9, 70)
    assert theorem_coeff("T3.3", "a", 3) == F(108, 720)
    assert theorem_coeff("T3.3", "b", 3) == F(840, 720)
    assert theorem_coeff("T3.4", "c", 3) == F(23, 720)
    assert theorem_coeff("T3.4", "c", 4) == F(17, 336)
    assert theorem_coeff("T3.4", "c", 5) == F(5099, 85680)
    assert theorem_coeff("T3.5", "f", 2) == F(1, 10)


@pytest.mark.parametrize("kind", sorted(FORMER_COEFFS))
def test_coefficients_equal_their_former_formulas(kind):
    # the shared |B_2n|/(2n)! and the integer numerators over (2n)! give
    # exactly the value of the formula that divided each term itself
    seq = get_series(kind)
    for n in range(seq.start_index, MAX_NMAX + 1):
        assert seq.coeff(n) == FORMER_COEFFS[kind](n), (kind, n)


_PAIR_NS = (*range(61), 250, 500)


def _check_pair(pair, want, where):
    num, den = pair
    assert type(num) is int and type(den) is int and den > 0, where
    assert Fraction(num, den) == want, where


def test_every_registered_series_has_an_oracle():
    assert sorted(FORMER_COEFFS) == sorted(series_ids())


@pytest.mark.parametrize("kind", sorted(FORMER_COEFFS))
def test_coefficient_pairs_equal_the_oracle(kind):
    # each coefficient is an integer pair over a positive denominator, and
    # `coeff` normalises it into the same value
    seq = get_series(kind)
    for n in (n for n in _PAIR_NS if n >= seq.start_index):
        want = FORMER_COEFFS[kind](n)
        _check_pair(seq.pair(n), want, (kind, n))
        c = seq.coeff(n)
        assert type(c) is Fraction and c == want, (kind, n)


@pytest.mark.parametrize("thm,role", [(t.id, role) for t in THEOREMS.values()
                                      for role in t.roles])
def test_theorem_pairs_equal_the_oracle(thm, role):
    for n in (n for n in _PAIR_NS if n >= THEOREMS[thm].start):
        want = former_theorem_value(thm, role, n)
        _check_pair(theorem_pair(thm, role, n), want, (thm, role, n))
        c = theorem_coeff(thm, role, n)
        assert type(c) is Fraction and c == want, (thm, role, n)


@pytest.mark.parametrize("thm", ["T3.3", "T3.4"])
def test_ratio_role_equals_a_over_b(thm):
    for n in range(THEOREMS[thm].start, MAX_NMAX + 1):
        c = theorem_coeff(thm, "c", n)
        assert type(c) is Fraction
        assert c == theorem_coeff(thm, "a", n) / theorem_coeff(thm, "b", n), n


def test_theorem_coeff_domain_errors():
    for read in (theorem_coeff, theorem_sign):
        with pytest.raises(DomainError):
            read("T3.4", "c", 2)   # starts at n=3
        with pytest.raises(DomainError):
            read("T3.1", "b", 2)   # no such role
        with pytest.raises(DomainError):
            read("T9.9", "f", 2)
        with pytest.raises(DomainError):
            read("T3.1", "f", 1)   # a kernel role checks its start too


# the integer factor k_n of each Bernoulli-weighted theorem series, stated
# here from the paper, apart from the module's own
KERNELS = {
    "T3.1_F": lambda n: (n - 2) * 2 ** (2 * n + 1) + 4 * (n + 1),
    "T3.2_G": lambda n: 4 ** n * (2 * n - 3) + 3 + 3 * n - 2 * n * n,
    "T3.5_F": lambda n: (6 * n - 8) * 4 ** n + 8,
}


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_a_kernel_times_its_weight_is_the_pair(kind):
    # |B_2n|/(2n)! = T_n/((2n-1)! 4^n (4^n-1)), multiplied in by `pair`
    seq = get_series(kind)
    for n in range(seq.start_index, 301):
        k = seq.kernel(n)
        assert k == KERNELS[kind](n), (kind, n)
        assert seq.pair(n) == (k * tangent(n), factorial(2 * n - 1) * 4 ** n
                               * (4 ** n - 1)), (kind, n)


@pytest.mark.parametrize("thm,role", [(t.id, role) for t in THEOREMS.values()
                                      for role in t.roles])
def test_theorem_sign_has_the_sign_of_the_pair(thm, role):
    for n in range(THEOREMS[thm].start, 301):
        sign, (num, den) = theorem_sign(thm, role, n), theorem_pair(thm, role, n)
        assert type(sign) is int and den > 0, (thm, role, n)
        assert (sign > 0, sign < 0) == (num > 0, num < 0), (thm, role, n)


def test_theorem_series_reconstructions():
    # term-by-term against the composition of the lemma expansions
    f31 = ORACLE.t31_f_times_x4()
    g32 = ORACLE.t32_g_times_4x4()
    f35 = ORACLE.t35_f_times_x4()
    assert f31[0] == 0 and f31[2] == 0
    assert g32[0] == 0 and g32[2] == 0
    assert f35[0] == 0 and f35[2] == 0
    for n in range(2, 21):
        assert f31[2 * n] == theorem_coeff("T3.1", "f", n), n
        assert g32[2 * n] == 4 * theorem_coeff("T3.2", "g", n), n
        assert f35[2 * n] == theorem_coeff("T3.5", "f", n), n


def test_hyperbolic_series_reconstructions():
    f33 = ORACLE.t33_f_series()
    g33 = ORACLE.t33_g_series()
    f34 = ORACLE.t34_f_series()
    g34 = ORACLE.t34_g_series()
    for n in range(2, 21):
        # f' coefficient a_n at x^(2n) equals (2n+1) * [x^(2n+1)] f
        assert theorem_coeff("T3.3", "a", n) == (2 * n + 1) * f33[2 * n + 1], n
        assert theorem_coeff("T3.3", "b", n) == (2 * n + 1) * g33[2 * n + 1], n
    for n in range(3, 21):
        assert theorem_coeff("T3.4", "a", n) == f34[2 * n], n
        assert theorem_coeff("T3.4", "b", n) == g34[2 * n], n


def test_diff_series_cancellation_and_leading_terms():
    d33 = get_series("T3.3_DIFF")
    assert d33.coeff(2) == 0
    assert d33.coeff(3) == F(-1, 40)
    d34 = get_series("T3.4_DIFF")
    assert d34.coeff(3) == 0
    assert d34.coeff(4) == F(47, 3024)


def test_pi_lo_and_the_trig_limit_lie_below_pi():
    # the trig tails close at the ratio (x/PI_LO)^2 and hold for x up to
    # TRIG_X_MAX: a PI_LO above pi would understate every one of them
    pi = pi_enclose(F(1, 10 ** 30))
    assert TRIG_X_MAX < PI_LO < pi.lo


def test_theorem_series_positivity():
    for n in range(2, 201):
        assert theorem_coeff("T3.1", "f", n) > 0
        assert theorem_coeff("T3.2", "g", n) > 0
        assert theorem_coeff("T3.5", "f", n) > 0


def test_dominating_bounds_cover_coefficients():
    # each tail component sum must dominate |coeff(n)| * x^exponent(n)
    for kind in ("X_OVER_SIN", "COT", "CSC2", "COS_OVER_SIN2", "CSC3",
                 "COS_OVER_SIN3", "SINH", "COSH", "T3.1_F", "T3.2_G",
                 "T3.5_F", "T3.3_A", "T3.3_B", "T3.3_DIFF", "T3.4_A",
                 "T3.4_B", "T3.4_DIFF"):
        seq = get_series(kind)
        xs = (F(1, 2), F(3, 2)) if seq.radius == "pi" else (F(1, 2), F(8))
        for x in xs:
            for n in range(max(seq.start_index, 1), 61):
                dom = sum(dominating_term(c, n, x) for c in seq.components)
                assert abs(seq.coeff(n)) * x ** seq.exponent_of(n) <= dom, (kind, n, x)


def test_tail_bound_soundness_partial_sums():
    # extending the partial sum by 50 terms never escapes the bound
    cases = [
        ("X_OVER_SIN", 5, F(1, 2)),
        ("COT", 4, F(1)),
        ("CSC2", 4, F(3, 2)),
        ("CSC3", 3, F(1)),
        ("COS_OVER_SIN3", 4, F(2)),
        ("SINH", 10, F(2)),
        ("COSH", 8, F(5)),
        ("T3.1_F", 6, F(3, 2)),
        ("T3.2_G", 6, F(3, 2)),
        ("T3.5_F", 6, F(3, 2)),
        ("T3.3_DIFF", 6, F(10)),
        ("T3.4_DIFF", 7, F(10)),
    ]
    for kind, N, x in cases:
        seq = get_series(kind)
        U = tail_bound(kind, N, x).bound
        partial = F(0)
        for n in range(N + 1, N + 51):
            partial += abs(seq.coeff(n)) * x ** seq.exponent_of(n)
            assert partial <= U, (kind, n)


def test_tail_bound_sinh_example():
    U = tail_bound("SINH", 10, F(2)).bound
    direct = sum(F(2 ** (2 * n + 1), 1) / _fact(2 * n + 1) for n in range(11, 60))
    assert U >= direct


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_tail_bound_monotone_in_x():
    for kind in ("X_OVER_SIN", "SINH", "T3.1_F"):
        x = F(3, 2)
        prev = tail_bound(kind, 6, x).bound
        for _ in range(8):
            x /= 2
            cur = tail_bound(kind, 6, x).bound
            assert cur <= prev
            prev = cur
        assert cur < F(1, 10 ** 6)


def test_tail_bound_domain_errors():
    with pytest.raises(DomainError):
        tail_bound("X_OVER_SIN", 5, F(31, 10))   # too close to pi
    with pytest.raises(DomainError):
        tail_bound("X_OVER_SIN", 5, F(0))
    with pytest.raises(DomainError):
        tail_bound("COS_OVER_SIN3", 1, F(1))     # N below start index


def test_eval_series_point_values():
    # 0.5/sin(0.5) = 1.0429148214667440928862508...
    e = eval_series("X_OVER_SIN", Interval.point(F(1, 2)), 8)
    assert e.lo <= F("1.0429148214667441") <= e.hi
    assert e.width < F(1, 10 ** 9)
    # ratio series at x=1: 0.022440259773049676601...
    e = eval_series("T3.1_F", Interval.point(1), 12)
    assert e.lo <= F("0.0224402597730497") <= e.hi
    assert e.width < F(1, 10 ** 6)


def test_eval_series_tiny_x_leading_term():
    for kind in ("X_OVER_SIN", "T3.1_F", "T3.5_F"):
        seq = get_series(kind)
        n0 = max(seq.start_index, 1)
        x = F(1, 10 ** 4)
        e = eval_series(kind, Interval.point(x), n0 + 40)
        lead = seq.coeff(n0) * x ** seq.exponent_of(n0)
        tb = 2 * tail_bound(kind, n0 + 40, x).bound
        base = seq.coeff(0) if seq.start_index == 0 else F(0)
        assert abs((e.lo + e.hi) / 2 - base - lead) <= lead * F(1, 100) + tb


def test_eval_series_full_value_matches_direct_evaluation():
    # lemma kinds against closed-form evaluation through elem_enclose
    wt = F(1, 10 ** 25)
    for x in (F(1, 10), F(1, 2), F(1), F(3, 2)):
        xi = Interval.point(x)
        s = elem_enclose("sin", xi, wt)
        c = elem_enclose("cos", xi, wt)
        direct = {
            "X_OVER_SIN": xi / s,
            "COT": c / s,
            "CSC2": Interval.point(1) / s ** 2,
            "COS_OVER_SIN2": c / s ** 2,
            "CSC3": Interval.point(1) / s ** 3,
            "COS_OVER_SIN3": c / s ** 3,
        }
        sh = elem_enclose("sinh", xi, wt)
        ch = elem_enclose("cosh", xi, wt)
        direct["SINH"] = sh
        direct["COSH"] = ch
        for kind, dv in direct.items():
            ev = eval_series(kind, xi, 20, full_value=True)
            assert ev.intersects(dv), (kind, x)


def test_eval_series_domain_errors():
    with pytest.raises(DomainError):
        eval_series("COT", Interval(0, 1), 10)          # needs x > 0
    with pytest.raises(DomainError):
        eval_series("X_OVER_SIN", Interval(F(1, 2), F(32, 10)), 10)


def test_eval_series_past_the_radius_margin_is_refused_by_tail_bound():
    x = Interval(F(1, 2), TRIG_X_MAX + F(1, 10 ** 9))
    for kind, full in (("X_OVER_SIN", False), ("COT", True)):
        with pytest.raises(DomainError, match=(
                rf"^{kind}: x_upper=.* too close to the radius pi \(limit ")):
            eval_series(kind, x, 10, full_value=full)


def test_lemma_kinds_are_the_eight_lemma_expansions_in_order():
    assert LEMMA_KINDS == ("X_OVER_SIN", "COT", "CSC2", "COS_OVER_SIN2",
                           "CSC3", "COS_OVER_SIN3", "SINH", "COSH")


def test_singular_parts_are_the_principal_parts_of_the_laurent_series():
    # sympy's own series at 0: the terms c*x^k with k < 0 are the c/x^p
    import sympy

    x = sympy.Symbol("x")
    closed = {"X_OVER_SIN": x / sympy.sin(x), "COT": sympy.cot(x),
              "CSC2": 1 / sympy.sin(x) ** 2,
              "COS_OVER_SIN2": sympy.cos(x) / sympy.sin(x) ** 2,
              "CSC3": 1 / sympy.sin(x) ** 3,
              "COS_OVER_SIN3": sympy.cos(x) / sympy.sin(x) ** 3,
              "SINH": sympy.sinh(x), "COSH": sympy.cosh(x)}
    regular = 0
    for kind, f in closed.items():
        laurent = sympy.series(f, x, 0, 1).removeO()
        principal = sorted(
            (F(int(c.p), int(c.q)), int(-k)) for c, k in
            (t.as_coeff_exponent(x) for t in sympy.Add.make_args(laurent))
            if k < 0)
        got = get_series(kind).singular_part
        if not principal:
            assert got is None, kind
            regular += 1
        else:
            assert sorted((F(c), p) for c, p in got) == principal, kind
    assert regular == 3


# a point, a wide interval, x.lo = 0, and 64-bit outward endpoints (as the
# series claims in `prove` use them)
_SUM_XS = (Interval.point(F(1, 3)), Interval(F(1, 8), F(3, 2)), Interval(0, 1),
           Interval.point(F(7, 10)).round_out(64),
           Interval(F(1, 7), F(2, 3)).round_out(64))


@pytest.mark.parametrize("kind", series_ids())
def test_eval_series_equals_termwise_sum(kind):
    # the one-normalisation sum gives exactly the term-by-term rationals
    seq = get_series(kind)
    s = seq.start_index
    for N in (s, s + 7, s + 40):
        for x in _SUM_XS:
            for full in (False, True):
                if x.lo == 0 and (full or seq.expo_offset < 0
                                  or seq.singular_part is not None):
                    with pytest.raises(DomainError):
                        eval_series(kind, x, N, full_value=full)
                    continue
                got = eval_series(kind, x, N, full_value=full)
                want = eval_series_termwise(kind, x, N, full_value=full)
                assert (got.lo, got.hi) == (want.lo, want.hi), (kind, x, N, full)


def test_register_rejects_a_negative_start_exponent():
    seq = CoeffSeq("NEG_EXPONENT", 0, -1, lambda n: (1, 1), "inf", None, ())
    with pytest.raises(DomainError, match="NEG_EXPONENT"):
        _register(seq)
    assert "NEG_EXPONENT" not in series_ids()


@pytest.mark.parametrize("kind", series_ids())
def test_tail_bound_equals_termwise_loop(kind):
    # the integer tail sums give exactly the Fraction loop's bound, on both
    # sides of the ratio-1/2 switch and, at x = 3, near the trig radius
    seq = get_series(kind)
    s = seq.start_index
    for x in (F(3, 2), F(3)):
        for N in (s, s + 40):
            assert tail_bound(kind, N, x).bound == tail_bound_termwise(kind, N, x), \
                (kind, N, x)
