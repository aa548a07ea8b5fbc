"""Taylor-vector algebra of `_core`, checked against its own point ranges
and against the dense reference loops in `oracles`."""

import random
from fractions import Fraction

import pytest

from ineqcert import _core
from ineqcert.interval import get_ctx
from oracles import imul_dense, tdiv_dense, tmul_dense, tsincos_dense

_SIGNS = ("nonneg", "nonpos", "straddle", "thin", "zero")


def _meets(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def _taylor_at(ctx, tm, tx, h):
    """Midpoint polynomial plus the box remainder term at offset h, as a
    Fraction range (Taylor's theorem with the Lagrange remainder)."""
    k = len(tm) - 1
    lo = hi = Fraction(0)
    for j, c in enumerate(tm[:k] + [tx[k]]):
        t = (Fraction(c[0], ctx.one) * h ** j, Fraction(c[1], ctx.one) * h ** j)
        lo, hi = lo + min(t), hi + max(t)
    return lo, hi


def test_taylor_vectors_agree_with_point_ranges(corpus_specs):
    # On dyadic boxes [i/64, j/64] inside every corpus domain: the chord slope
    # from two point ranges meets the box's first Taylor coefficient (mean
    # value theorem), the midpoint vector's value meets the point range, and
    # the Taylor polynomial about the midpoint, with the box's remainder
    # coefficient, meets the point range at the left end.
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    rng = random.Random(20121)
    boxes = 0
    for spec in corpus_specs:
        node = spec.difference()
        top = 512 if spec.unbounded else 96          # x <= 8, or x <= 1.5 < pi/2
        for _ in range(4):
            i, j = sorted(rng.sample(range(1, top + 1), 2))
            a, b = ctx.lo_of(Fraction(i, 64)), ctx.lo_of(Fraction(j, 64))
            fa = _core.eval_plain(ctx, node, (a, a))
            fb = _core.eval_plain(ctx, node, (b, b))
            slope = (Fraction(fb[0] - fa[1], b - a), Fraction(fb[1] - fa[0], b - a))
            tx = _core.eval_taylor(ctx, node, _core._tvar(ctx, a, b), k)
            d1 = (Fraction(tx[1][0], ctx.one), Fraction(tx[1][1], ctx.one))
            assert _meets(slope, d1), (spec.name, i, j)
            m = (a + b) // 2
            tm = _core.eval_taylor(ctx, node, _core._tvar(ctx, m, m), k)
            assert len(tm) == k + 1
            assert _meets(tm[0], _core.eval_plain(ctx, node, (m, m))), (spec.name, i, j)
            fa_q = (Fraction(fa[0], ctx.one), Fraction(fa[1], ctx.one))
            h = Fraction(a - m, ctx.one)
            assert _meets(_taylor_at(ctx, tm, tx, h), fa_q), (spec.name, i, j)
            boxes += 1
    assert boxes == 4 * len(corpus_specs) == 112


def _interval(rng, scale, sign):
    """A random interval of the given sign pattern; about one in four
    nonneg/nonpos intervals has a zero endpoint."""
    lo, hi = sorted((rng.randrange(scale), rng.randrange(scale)))
    if rng.random() < 0.25:
        lo = 0
    if sign == "nonneg":
        return (lo, hi)
    if sign == "nonpos":
        return (-hi, -lo)
    if sign == "straddle":
        return (-lo - 1, hi + 1)
    if sign == "thin":
        v = rng.randrange(-scale, scale)
        return (v, v)
    return (0, 0)


def _vector(rng, scale, k=_core.TAYLOR_ORDER):
    """An order-k vector with about half of its coefficients exactly (0, 0)."""
    return [(0, 0) if rng.random() < 0.5
            else _interval(rng, scale, rng.choice(_SIGNS)) for _ in range(k + 1)]


def test_imul_sign_cases_equal_four_products():
    ctx = get_ctx(192)
    rng = random.Random(5)
    for sa in _SIGNS:
        for sb in _SIGNS:
            for _ in range(40):
                a = _interval(rng, 4 * ctx.one, sa)
                b = _interval(rng, 4 * ctx.one, sb)
                assert _core.imul(ctx, a, b) == imul_dense(ctx, a, b), (a, b)


def test_sparse_tmul_and_tdiv_equal_dense():
    ctx = get_ctx(192)
    rng = random.Random(12)
    for _ in range(60):
        a, b = _vector(rng, 4 * ctx.one), _vector(rng, 4 * ctx.one)
        assert _core._tmul(ctx, a, b) == tmul_dense(ctx, a, b)
        # a divisor whose constant term is at least 1/2 away from 0
        lo, hi = _interval(rng, 4 * ctx.one, "nonneg")
        b[0] = (lo + ctx.one // 2, hi + ctx.one // 2)
        if rng.random() < 0.5:
            b[0] = _core.ineg(b[0])
        assert _core._tdiv(ctx, a, b) == tdiv_dense(ctx, a, b)


@pytest.mark.parametrize("hyper", [False, True])
def test_sparse_tsincos_equals_dense(hyper):
    ctx = get_ctx(192)
    rng = random.Random(7)
    k = _core.TAYLOR_ORDER
    for n in range(60):
        u = _vector(rng, 4 * ctx.one)
        if n % 3 == 0:
            u[2:] = [(0, 0)] * (k - 1)      # an affine argument, as in the corpus
        u[0] = _interval(rng, 3 * ctx.one, rng.choice(_SIGNS))   # |u0| < 3
        assert _core._tsincos(ctx, u, hyper) == tsincos_dense(ctx, u, hyper)
