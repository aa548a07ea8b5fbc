"""Taylor-vector algebra of `_core`, checked against its own point ranges."""

import random
from fractions import Fraction

from ineqcert import _core
from ineqcert.interval import get_ctx


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
