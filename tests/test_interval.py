import random
from fractions import Fraction

import mpmath
import pytest

from ineqcert import interval
from ineqcert.errors import DomainError, PoleError
from ineqcert.interval import Interval, elem_enclose, pi_enclose

F = Fraction


def test_arith_fixtures():
    assert Interval(0, 0) + Interval(F(-3), F(7)) == Interval(-3, 7)
    assert Interval(1, 2) * Interval(-1, 3) == Interval(-2, 6)
    assert Interval(1, 1) / Interval(2, 4) == Interval(F(1, 4), F(1, 2))
    assert Interval(-2, 1) ** 2 == Interval(0, 4)
    assert -Interval(1, 2) == Interval(-2, -1)
    assert Interval(0, 1) - Interval(2, 5) == Interval(-5, -1)


def test_pow_cases():
    assert Interval(-3, -2) ** 2 == Interval(4, 9)
    assert Interval(-3, -2) ** 3 == Interval(-27, -8)
    assert Interval(-2, 3) ** 3 == Interval(-8, 27)
    assert Interval(2, 4) ** -1 == Interval(F(1, 4), F(1, 2))
    assert Interval(5, 5) ** 0 == Interval(1, 1)


def test_division_by_zero_interval_names_offender():
    with pytest.raises(PoleError) as exc:
        Interval(1, 1) / Interval(-1, 2)
    assert "[-1, 2]" in str(exc.value)


def _of_class(rng, kind):
    """A random interval of one sign class, its ends Fractions."""
    a, b = sorted(F(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(2))
    return {"nonneg": Interval(a, b), "nonpos": Interval(-b, -a),
            "straddle": Interval(-a, b), "point": Interval(-a, -a),
            "lo-zero": Interval(0, b), "hi-zero": Interval(-b, 0),
            "zero": Interval(0, 0)}[kind]


_CLASSES = ("nonneg", "nonpos", "straddle", "point", "lo-zero", "hi-zero", "zero")


def test_mul_div_pow_equal_the_endpoint_definitions():
    # each result is the least and the greatest of its endpoint products,
    # quotients or powers (an even power straddling 0 reaches 0): equality,
    # so a looser interval that still contains the true range fails
    rng = random.Random(2009)
    for _ in range(8):
        for p in _CLASSES:
            for q in _CLASSES:
                x, y = _of_class(rng, p), _of_class(rng, q)
                ps = [u * v for u in (x.lo, x.hi) for v in (y.lo, y.hi)]
                assert x * y == Interval(min(ps), max(ps)), (x, y)
                if y.contains(0):
                    with pytest.raises(PoleError) as exc:
                        x / y
                    assert str(exc.value) == (
                        f"division by an interval containing 0: [{y.lo}, {y.hi}]")
                else:
                    qs = [u / v for u in (x.lo, x.hi) for v in (y.lo, y.hi)]
                    assert x / y == Interval(min(qs), max(qs)), (x, y)
            for e in range(-3, 6):
                if e < 0 and x.contains(0):
                    with pytest.raises(PoleError):
                        x ** e
                    continue
                es = [x.lo ** e, x.hi ** e]
                if e > 0 and e % 2 == 0 and x.lo < 0 < x.hi:
                    es.append(F(0))
                assert x ** e == Interval(min(es), max(es)), (x, e)


def test_round_out_contains_original():
    iv = Interval(F(1, 3), F(2, 3))
    r = iv.round_out(16)
    assert r.lo <= iv.lo and iv.hi <= r.hi
    assert r.lo.denominator <= 1 << 16 and r.hi.denominator <= 1 << 16


@pytest.mark.parametrize("bits", [16, 64, 192])
def test_round_out_moves_each_end_outward_by_under_one_ulp(bits):
    # odd denominators keep both ends off the 2^-bits grid, of either sign
    rng = random.Random(bits)
    ulp = F(1, 1 << bits)
    for _ in range(100):
        lo, hi = sorted(F(rng.randrange(-1 << 80, 1 << 80), rng.randrange(3, 1 << 70) | 1)
                        for _ in range(2))
        r = Interval(lo, hi).round_out(bits)
        assert r.lo < lo < r.lo + ulp and r.hi - ulp < hi < r.hi, (lo, hi)


def test_inclusion_isotonicity_of_mul():
    rng = random.Random(7)
    for _ in range(200):
        a = Interval(F(rng.randint(-50, 49)), F(rng.randint(50, 100)))
        b = Interval(F(rng.randint(-50, 49)), F(rng.randint(50, 100)))
        x = a.lo + (a.hi - a.lo) * F(rng.randint(0, 64), 64)
        y = b.lo + (b.hi - b.lo) * F(rng.randint(0, 64), 64)
        assert (a * b).contains(x * y)


def test_elem_point_zero_is_exact():
    assert elem_enclose("sin", Interval.point(0), F(1, 10)) == Interval(0, 0)
    c = elem_enclose("cos", Interval.point(0), F(1, 10))
    assert c.contains(1) and c.width <= F(1, 10)
    assert elem_enclose("sinh", Interval.point(0), F(1, 10)) == Interval(0, 0)


def test_elem_known_values():
    wt = F(1, 10 ** 10)
    s = elem_enclose("sin", Interval.point(1), wt)
    assert s.width <= wt
    assert s.contains(F("0.84147098480789650665")) or (
        s.lo <= F("0.8414709848078966") and F("0.8414709848078964") <= s.hi)
    t = elem_enclose("tanh", Interval.point(1), wt)
    assert t.lo <= F("0.7615941559557648882")
    assert F("0.7615941559557648881") <= t.hi
    c = elem_enclose("cos", Interval.point(F(6, 5)), wt)
    assert c.lo <= F("0.3623577544766736")
    assert F("0.3623577544766735") <= c.hi


def test_elem_domain_limits():
    with pytest.raises(DomainError):
        elem_enclose("sin", Interval(0, 5), F(1, 10))
    with pytest.raises(DomainError):
        elem_enclose("sinh", Interval(0, 40), F(1, 10))
    with pytest.raises(PoleError):
        elem_enclose("tan", Interval(F(157, 100), F(158, 100)), F(1, 10))


def test_pi_enclosure():
    e = pi_enclose(F(1, 10 ** 20))
    assert e.width <= F(1, 10 ** 20)
    # the true value lies between these decimal brackets
    assert e.lo <= F("3.14159265358979323847")
    assert F("3.14159265358979323846") <= e.hi
    loose = pi_enclose(1)
    assert loose.contains_interval(e)
    assert loose.lo <= F("3.141593") and F("3.141592") <= loose.hi


@pytest.mark.parametrize("width", [0, -1, F(-1, 3)])
def test_pi_enclose_refuses_a_width_that_is_not_positive(width):
    with pytest.raises(DomainError, match="width_target must be positive"):
        pi_enclose(width)


def test_pi_enclose_keeps_a_later_tighter_bracket_inside_an_earlier_one(monkeypatch):
    # a looser bracket first, so the tighter one is cut to fit inside it
    monkeypatch.setattr(interval, "_pi_best", None)
    loose = pi_enclose(F(1, 10 ** 10))
    tight = pi_enclose(F(1, 10 ** 40))
    assert loose.contains_interval(tight) and tight.width <= F(1, 10 ** 40)
    with mpmath.workprec(600):
        for e in (loose, tight):
            assert (mpmath.mpf(e.lo.numerator) / e.lo.denominator <= mpmath.pi
                    <= mpmath.mpf(e.hi.numerator) / e.hi.denominator)


_DOMAINS = {
    "sin": (-4, 4), "cos": (-4, 4), "tan": (0, F(3, 2)),
    "sinh": (-32, 32), "cosh": (-32, 32), "tanh": (-32, 32),
}

_MP = {"sin": mpmath.sin, "cos": mpmath.cos, "tan": mpmath.tan,
       "sinh": mpmath.sinh, "cosh": mpmath.cosh, "tanh": mpmath.tanh}


def _rand_subinterval(rng, lo, hi):
    lo, hi = F(lo), F(hi)
    a = lo + (hi - lo) * F(rng.randint(0, 2 ** 20), 2 ** 20)
    b = a + (hi - a) * F(rng.randint(0, 2 ** 20), 2 ** 20)
    return Interval(a, b)


def test_random_containment_self_consistent():
    rng = random.Random(12345)
    wt = F(1, 10 ** 12)
    for fn, (lo, hi) in _DOMAINS.items():
        for _ in range(300):
            x = _rand_subinterval(rng, lo, hi)
            p = x.lo + (x.hi - x.lo) * F(rng.randint(0, 255), 255)
            try:
                box = elem_enclose(fn, x, wt)
            except PoleError:
                continue
            pt = elem_enclose(fn, Interval.point(p), F(1, 10 ** 30))
            assert box.lo <= pt.lo and pt.hi <= box.hi, (fn, x, p)


def test_containment_against_mpmath():
    mpmath.mp.dps = 50
    rng = random.Random(99)
    for fn, (lo, hi) in _DOMAINS.items():
        for _ in range(30):
            x = _rand_subinterval(rng, lo, hi)
            p = x.lo + (x.hi - x.lo) * F(rng.randint(0, 255), 255)
            try:
                box = elem_enclose(fn, x, F(1, 10 ** 12))
            except PoleError:
                continue
            v = F(mpmath.nstr(_MP[fn](mpmath.mpf(p.numerator) / p.denominator),
                              40, strip_zeros=False))
            slop = F(1, 10 ** 30)
            assert box.lo - slop <= v <= box.hi + slop, (fn, p)


def test_pythagorean_and_hyperbolic_identities():
    rng = random.Random(4242)
    for _ in range(60):
        x = _rand_subinterval(rng, 0, 3)
        s = elem_enclose("sin", x, F(1, 10 ** 15))
        c = elem_enclose("cos", x, F(1, 10 ** 15))
        assert (s ** 2 + c ** 2).contains(1)
    for _ in range(60):
        x = _rand_subinterval(rng, 0, 8)
        sh = elem_enclose("sinh", x, F(1, 10 ** 15))
        ch = elem_enclose("cosh", x, F(1, 10 ** 15))
        assert (ch ** 2 - sh ** 2).contains(1)


def test_width_refinement():
    # halving width_target never widens the output
    for fn, arg in (("sin", F(1)), ("cos", F(1, 3)), ("tanh", F(2))):
        wt = F(1, 10 ** 6)
        prev = elem_enclose(fn, Interval.point(arg), wt)
        for _ in range(6):
            wt /= 2
            cur = elem_enclose(fn, Interval.point(arg), wt)
            assert cur.width <= prev.width
            prev = cur
