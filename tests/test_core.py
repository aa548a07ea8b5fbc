"""Taylor-vector algebra of `_core`, checked against its own point ranges
and against the dense reference loops in `oracles`."""

import random
from fractions import Fraction
from math import factorial, floor

import mpmath
import pytest

from ineqcert import _core, lang
from ineqcert.cli import run_command
from ineqcert.interval import Interval, get_ctx
from ineqcert.lang import INF, eval_endpoint, parse_expression
from ineqcert.prove import ProveOptions, prove_positive, verify_inequality
from oracles import (bernstein_least, bernstein_lo_fraction,
                     enclose_full_order, idiv_eight, imul_dense,
                     point_series_helpers, poly_exact, tdiv_dense,
                     term_exact, tmul_dense, tsincos_dense, tsqr_dense,
                     ttan_dense, ttan_quotient, vector_from_zero_walk, walk)

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


def test_sign_case_idiv_equals_eight_quotients():
    ctx = get_ctx(192)
    rng = random.Random(3)
    for sa in _SIGNS:
        for divisor in ("positive", "negative", "thin"):
            for _ in range(40):
                a = _interval(rng, 4 * ctx.one, sa)
                lo, hi = _interval(rng, 4 * ctx.one, "nonneg")
                b = (lo + 1, hi + 1) if divisor != "thin" else (hi + 1, hi + 1)
                if divisor == "negative" or rng.random() < 0.5:
                    b = _core.ineg(b)
                assert _core.idiv(ctx, a, b) == idiv_eight(ctx, a, b), (a, b)
    for b in [(0, 0), (0, ctx.one), (-ctx.one, 0), (-1, 1)]:
        with pytest.raises(_core.PoleError):
            _core.idiv(ctx, (ctx.one, ctx.one), b)


def test_tan_range_where_cos_is_negative_holds_the_true_values():
    # on [-4, -pi/2) and (pi/2, 4] cos < 0 and tan has no pole: the range
    # must hold tan at the ends and the midpoint; a box with pi/2 still raises
    ctx = get_ctx(128)
    rng = random.Random(14)
    tol = mpmath.mpf(10) ** -45
    with mpmath.workdps(60):
        for sign in (1, -1):
            for _ in range(30):
                i = rng.randrange(101, 256)          # i/64 > pi/2
                j = rng.randrange(i + 1, 257)
                ends = sorted((Fraction(sign * i, 64), Fraction(sign * j, 64)))
                lo, hi = _core.fn_range(ctx, "tan", *map(ctx.lo_of, ends))
                for x in (ends[0], sum(ends) / 2, ends[1]):
                    v = mpmath.tan(mpmath.mpf(x.numerator) / x.denominator)
                    assert (mpmath.mpf(lo) / ctx.one - tol <= v
                            <= mpmath.mpf(hi) / ctx.one + tol), (ends, x)
    for ends in ((Fraction(3, 2), Fraction(2)), (Fraction(-2), Fraction(-3, 2))):
        with pytest.raises(_core.PoleError, match="contains 0"):
            _core.fn_range(ctx, "tan", *map(ctx.lo_of, ends))


_TAN_ARGS = {
    "tan(x)": mpmath.tan,
    "tan(x^2/2)": lambda x: mpmath.tan(x ** 2 / 2),
    "tanh(x)": mpmath.tanh,
    "tanh(sin(x))": lambda x: mpmath.tanh(mpmath.sin(x)),
}


@pytest.mark.parametrize("text", list(_TAN_ARGS))
def test_tan_tanh_recurrence_contains_true_coefficients(text):
    # mpmath's coefficients v at 60 digits are good to far below tol, so an
    # enclosure that misses [v - tol, v + tol] misses the true value; tol is
    # under a millionth of one unit at 128 bits (2^-128, about 3e-39).  The
    # sin/cos quotient the recurrence replaced must contain it too.
    ctx = get_ctx(128)
    k = _core.TAYLOR_ORDER
    node = parse_expression(text)
    hyper = node.fn == "tanh"
    rng = random.Random(text)
    tol = mpmath.mpf(10) ** -45

    def contains(vec, true, where):
        for j, ((lo, hi), v) in enumerate(zip(vec, true)):
            assert (mpmath.mpf(lo) / ctx.one - tol <= v
                    <= mpmath.mpf(hi) / ctx.one + tol), (text, where, j)

    with mpmath.workdps(60):
        for _ in range(4):
            i = rng.randrange(-88, 81)
            j = i + rng.randrange(1, 9)              # [i/64, j/64] in [-1.375, 1.375]
            a, b = ctx.lo_of(Fraction(i, 64)), ctx.lo_of(Fraction(j, 64))
            box = _core.eval_taylor(ctx, node, _core._tvar(ctx, a, b), k)
            u = _core.eval_taylor(ctx, node.arg, _core._tvar(ctx, a, b), k)
            quotient = ttan_quotient(ctx, u, hyper)
            for x in (Fraction(i, 64), Fraction(i + j, 128), Fraction(j, 64)):
                true = mpmath.taylor(_TAN_ARGS[text],
                                     mpmath.mpf(x.numerator) / x.denominator, k)
                contains(box, true, ("box", i, j, x))
                contains(quotient, true, ("quotient", i, j, x))
                m = ctx.lo_of(x)
                point = _core.eval_taylor(ctx, node, _core._tvar(ctx, m, m), k)
                contains(point, true, ("point", x))


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


@pytest.mark.parametrize("hyper", [False, True])
def test_ttan_recurrence_equals_dense(hyper):
    # the half convolution with its middle square held at 0 or above, each
    # w[m] and t[j] rounded once, equals the full convolution's
    ctx = get_ctx(192)
    rng = random.Random(8)
    k = _core.TAYLOR_ORDER
    for n in range(40):
        u = _vector(rng, 4 * ctx.one)
        if n % 3 == 0:
            u[2:] = [(0, 0)] * (k - 1)
        u[0] = _interval(rng, ctx.one, rng.choice(_SIGNS))   # |u0| < 1 < pi/2
        assert _core._ttan(ctx, u, hyper) == ttan_dense(ctx, u, hyper)


@pytest.mark.parametrize("shape", ["sparse", "straddle", "point"])
def test_tsqr_equals_dense_square(shape):
    ctx = get_ctx(192)
    rng = random.Random(shape)
    k = _core.TAYLOR_ORDER
    tighter = 0
    for _ in range(40):
        if shape == "sparse":
            a = _vector(rng, 4 * ctx.one)
        else:
            sign = "thin" if shape == "point" else "straddle"
            a = [_interval(rng, 4 * ctx.one, sign) for _ in range(k + 1)]
        sq = _core._tsqr(ctx, a)
        assert sq == tsqr_dense(ctx, a)
        # _tmul squares a vector it gets twice; an equal copy takes the
        # general product, which holds the square: its middle terms may
        # reach below 0
        assert _core._tmul(ctx, a, a) == sq
        general = _core._tmul(ctx, a, list(a))
        assert all(g[0] <= s[0] and s[1] <= g[1] for g, s in zip(general, sq))
        tighter += general != sq
    assert tighter > 0 or shape == "point"


def test_plan_holds_each_distinct_subtree_once():
    node = parse_expression("(sin(x)/x)^2 + sin(x)/x")
    steps, positions, _ = _core._plan(node)
    assert [step[0] for step in steps] == ["x", "call", "div", "pow", "add"]
    assert positions == (5, 1, 7, 10, 13)          # the first occurrences
    assert _core._plan(node) is _core._plan(node)
    # found by identity: an equal tree parsed from other text has its own
    other = parse_expression("(sin(x) / x)^2 + sin(x)/x")
    assert other == node and _core._plan(other)[1] == (5, 1, 8, 12, 15)


def test_plan_equals_recursive_walk(corpus_specs):
    # on seeded boxes inside every corpus domain, under the range and the
    # Taylor tables, for the box and the midpoint vectors; and enclose, whose
    # midpoint vector stops at order k - 1, equals the full-order oracle
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    rng = random.Random(1968)
    for spec in corpus_specs:
        node = spec.difference()
        top = 512 if spec.unbounded else 96
        for _ in range(4):
            i, j = sorted(rng.sample(range(1, top + 1), 2))
            a, b = ctx.lo_of(Fraction(i, 64)), ctx.lo_of(Fraction(j, 64))
            assert (_core.eval_plain(ctx, node, (a, b))
                    == walk(ctx, node, (a, b), _core._RANGE_OPS)), (spec.name, i, j)
            m = (a + b) // 2
            for xvec in (_core._tvar(ctx, a, b), _core._tvar(ctx, m, m)):
                assert (_core.eval_taylor(ctx, node, xvec, k)
                        == walk(ctx, node, xvec, _core._TAYLOR_OPS)), (spec.name, i, j)
            assert (_core.enclose(ctx, node, a, b)[0]
                    == enclose_full_order(ctx, node, a, b)), (spec.name, i, j)


def test_plan_equals_recursive_walk_on_corpus_endpoints(corpus_specs):
    for spec in corpus_specs:
        for e in (spec.lo_expr, spec.hi_expr):
            if e != INF:
                assert eval_endpoint(e) == walk(None, e, None, lang._ENDPOINT_OPS)


def test_eval_taylor_checks_the_order():
    ctx = get_ctx(192)
    node = parse_expression("sin(x)/x")
    xvec = _core._tvar(ctx, ctx.one, ctx.one, 11)
    assert len(_core.eval_taylor(ctx, node, xvec, 11)) == 12
    with pytest.raises(ValueError):
        _core.eval_taylor(ctx, node, xvec, _core.TAYLOR_ORDER)


def test_enclose_product_count_does_not_grow(monkeypatch, corpus_specs):
    # one enclose of CHAIN_1_8_A on [1/2, 5/8], where the plain range does not
    # decide the sign, took 1012 interval products with each copy of a block
    # evaluated and both vectors to order 12; it takes 651 with the plan
    ctx = get_ctx(192)
    node = next(s for s in corpus_specs if s.name == "CHAIN_1_8_A").difference()
    a, b = ctx.lo_of(Fraction(1, 2)), ctx.lo_of(Fraction(5, 8))
    plain = _core.eval_plain(ctx, node, (a, b))
    assert plain[0] < 0 < plain[1]
    calls = []
    imul = _core.imul

    def counting(*args):
        calls.append(args)
        return imul(*args)

    monkeypatch.setattr(_core, "imul", counting)
    assert _core.enclose(ctx, node, a, b)[0][0] > 0
    assert len(calls) <= 651


def _sign(enc):
    return 1 if enc[0] > 0 else -1 if enc[1] < 0 else 0


def test_inherited_remainder_keeps_sign_and_points(monkeypatch, corpus_specs):
    # Each seeded box is split once, and each half is enclosed with the
    # box's remainder coefficient: it decides what its own full form
    # decides, holds the point enclosures at its ends and midpoint, and
    # hands down no coefficient when a Taylor vector raised.
    ctx = get_ctx(192)
    rng = random.Random(1968)
    raised = []
    eval_taylor = _core.eval_taylor

    def watching(*args, **kwargs):
        try:
            return eval_taylor(*args, **kwargs)
        except (_core.DomainError, _core.PoleError):
            raised.append(args[3])
            raise

    monkeypatch.setattr(_core, "eval_taylor", watching)
    inherited = 0
    for spec in corpus_specs:
        node = spec.difference()
        top = 512 if spec.unbounded else 96
        for _ in range(4):
            i, j = sorted(rng.sample(range(1, top + 1), 2))
            a, b = ctx.lo_of(Fraction(i, 64)), ctx.lo_of(Fraction(j, 64))
            _, rem = _core.enclose(ctx, node, a, b)
            m = (a + b) // 2
            for ca, cb in ((a, m), (m, b)):
                full, _ = _core.enclose(ctx, node, ca, cb)
                raised.clear()
                enc, child_rem = _core.enclose(ctx, node, ca, cb, rem)
                where = (spec.name, i, j, ca == a)
                assert _sign(enc) == _sign(full), where
                for p in (ca, cb, (ca + cb) // 2):
                    pt = _core.eval_plain(ctx, node, (p, p))
                    assert enc[0] <= pt[0] and pt[1] <= enc[1], where
                if raised:
                    assert child_rem is None, where
                inherited += rem is not None and enc != full
    # the halves did take the inherited form, not only their own
    assert inherited > 0


def _record_orders(monkeypatch):
    """Rebind eval_taylor to record the order of each call."""
    orders = []
    eval_taylor = _core.eval_taylor

    def recording(ctx, node, xvec, k, shifts=None, memo=None):
        orders.append(k)
        return eval_taylor(ctx, node, xvec, k, shifts, memo)

    monkeypatch.setattr(_core, "eval_taylor", recording)
    return orders


def _crafted_taylor(monkeypatch, tm0, rem):
    """Rebind eval_taylor: the midpoint vector becomes tm0 and zeros, the
    box vector zeros with rem at order k; returns the orders called."""
    orders = []

    def crafted(ctx, node, xvec, k, shifts=None, memo=None):
        orders.append(k)
        if k < _core.TAYLOR_ORDER:
            return [tm0] + [(0, 0)] * k
        return [(0, 0)] * k + [rem]

    monkeypatch.setattr(_core, "eval_taylor", crafted)
    return orders


def test_skip_reads_the_sign_of_p_and_never_intersects_it(monkeypatch):
    # P is no enclosure: a plain range that misses it is no inconsistency,
    # so deciding on P must read its sign, never intersect it
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    node = parse_expression("sin(x) - 1/2")
    a, b = 0, ctx.one
    plain = _core.eval_plain(ctx, node, (a, b))
    assert plain[0] < 0 < plain[1]
    wide = (-(10 ** 6) * ctx.one, 10 ** 6 * ctx.one)
    above = (plain[1] + ctx.one, plain[1] + 2 * ctx.one)     # P > 0, misses plain
    orders = _crafted_taylor(monkeypatch, above, wide)
    # P decides but P with rem does not: the box vector is built, and its
    # wide coefficient leaves the plain range
    assert _core.enclose(ctx, node, a, b, wide) == (plain, wide)
    assert orders == [k - 1, k]
    # P straddles 0: no coefficient could decide, so no box vector is built
    # and the inherited rem is handed on
    orders = _crafted_taylor(monkeypatch, (-ctx.one, ctx.one), wide)
    assert _core.enclose(ctx, node, a, b, wide) == (plain, wide)
    assert orders == [k - 1]
    # without rem the full form is taken all the same
    orders = _crafted_taylor(monkeypatch, (-ctx.one, ctx.one), wide)
    assert _core.enclose(ctx, node, a, b) == (plain, wide)
    assert orders == [k - 1, k]


def test_failed_taylor_vector_hands_down_no_rem(monkeypatch, corpus_specs):
    # CHAIN_1_8_A on [1/2, 5/8]: the midpoint terms decide the sign, so with
    # a coefficient too wide to decide the box vector is built, and when a
    # vector raises, the plain range comes back with no coefficient
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    node = next(s for s in corpus_specs if s.name == "CHAIN_1_8_A").difference()
    a, b = ctx.lo_of(Fraction(1, 2)), ctx.lo_of(Fraction(5, 8))
    plain = _core.eval_plain(ctx, node, (a, b))
    wide = (-(10 ** 20) * ctx.one, 10 ** 20 * ctx.one)   # times r^12 > 1e5
    eval_taylor = _core.eval_taylor
    for failing in (k - 1, k):
        def failing_at(ctx, node, xvec, order, shifts=None, memo=None,
                       failing=failing):
            if order == failing:
                raise _core.PoleError("no vector")
            return eval_taylor(ctx, node, xvec, order, shifts, memo)

        monkeypatch.setattr(_core, "eval_taylor", failing_at)
        assert _core.enclose(ctx, node, a, b) == (plain, None)
        assert _core.enclose(ctx, node, a, b, wide) == (plain, None)


def test_inherited_remainder_decides_without_a_box_vector(monkeypatch, corpus_specs):
    # CHAIN_1_8_A on [1/2, 5/8], inside [1/2, 3/4]: the remainder coefficient
    # of the larger box already decides the sign, so no order-k vector is built
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    node = next(s for s in corpus_specs if s.name == "CHAIN_1_8_A").difference()
    a, b = ctx.lo_of(Fraction(1, 2)), ctx.lo_of(Fraction(5, 8))
    _, rem = _core.enclose(ctx, node, a, ctx.lo_of(Fraction(3, 4)))
    full, own = _core.enclose(ctx, node, a, b)
    orders = _record_orders(monkeypatch)
    enc, handed = _core.enclose(ctx, node, a, b, rem)
    assert enc[0] > 0 and full[0] > 0
    assert orders == [k - 1] and handed == rem != own


def test_inherited_remainder_cuts_box_vectors_on_ns_quartic(monkeypatch, corpus_specs):
    # NS_QUARTIC's core: the same 12 leaves as with a box vector on
    # every undecided box (22 order-12 vectors then), and 11 order-12
    # vectors once each box inherits its parent's remainder coefficient
    node = next(s for s in corpus_specs if s.name == "NS_QUARTIC").difference()
    opts = ProveOptions()
    lo = Interval.point(opts.eps_lo).round_out(opts.precision).hi
    hi = Interval.point(opts.x_max).round_out(opts.precision).lo
    orders = _record_orders(monkeypatch)
    res = prove_positive(node, Interval(lo, hi), opts)
    assert res.status == "Proved" and res.leaves == 12
    assert orders.count(_core.TAYLOR_ORDER) <= 11


def _poly_lo(ctx, tm, h):
    """Lower end, in Fractions, of sum_j tm[j] h^j at the offset h."""
    t = Fraction(h, ctx.one)
    return sum(min(Fraction(lo, ctx.one) * t ** j, Fraction(hi, ctx.one) * t ** j)
               for j, (lo, hi) in enumerate(tm))


def _powers(ctx, r, k):
    """rs[j] = r^j 2**((k - j) prec), j = 0..k: r^j at the scale of r^k."""
    return [r ** j << (k - j) * ctx.prec for j in range(k + 1)]


def test_integer_bernstein_bound_equals_fraction_reference(corpus_specs):
    # seeded corpus boxes across each domain and within 1/8 of 0, and
    # random interval vectors of every sign pattern: the integer bound, at
    # the scale of its powers, equals the Fraction one, is below the
    # midpoint polynomial at both ends and the midpoint, and beats the
    # exact term-by-term sum on some boxes
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    rng = random.Random(1993)
    raised = 0
    for spec in corpus_specs:
        node = spec.difference()
        top = 512 if spec.unbounded else 96
        for _ in range(4):
            i, j = sorted(rng.sample(range(1, top + 1), 2))
            for den in (64, 64 * 64):
                a, b = ctx.lo_of(Fraction(i, den)), ctx.lo_of(Fraction(j, den))
                m = (a + b) // 2
                r = max(b - m, m - a)
                tm = _core.eval_taylor(ctx, node, _core._tvar(ctx, m, m, k - 1), k - 1)
                rs = _powers(ctx, r, k)
                scale = ctx.one * rs[0]
                lo = _core._bernstein_lo(tm, rs)
                assert lo == bernstein_lo_fraction(ctx, tm, r, scale), (spec.name, i, j, den)
                for h in (-r, 0, r):
                    assert Fraction(lo, scale) <= _poly_lo(ctx, tm, h), (spec.name, i, j)
                raised += Fraction(lo, scale) > poly_exact(ctx, tm, r)[0]
    assert raised > 0
    for _ in range(60):
        tm = _vector(rng, 4 * ctx.one, k - 1)
        r = rng.randrange(1, ctx.one)
        rs = _powers(ctx, r, k)
        assert (_core._bernstein_lo(tm, rs)
                == bernstein_lo_fraction(ctx, tm, r, ctx.one * rs[0]))


def test_vector_from_zero_holds_point_vectors(corpus_specs):
    # every corpus difference but the two Huygens ones divides u/v with
    # u(0) = v(0) = 0; its vector over [0, b], with those quotients taken as
    # (u/x)/(v/x), equals the recursive walk's and holds the point vectors
    # at 0 (with the rule) and at seeded xi in (0, b] (without it).  Near 0
    # a point vector divides by a tiny x and may be wider than the box's
    # coefficient; there both still hold the true value, so they meet.
    # sin(x)^5/x^5 shares five leading zeros, so its vector loses 5 orders.
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    rng = random.Random(2003)
    held = 0
    cases = [(s.name, s.difference(), s.unbounded, 1) for s in corpus_specs]
    cases.append(("SIN5", parse_expression("sin(x)^5/x^5"), False, 5))
    for name, node, unbounded, want in cases:
        found = _core._removable(ctx, node)
        assert (found is None) == (name in ("HUY_TRIG", "HUY_HYP")), name
        if found is None:
            continue
        shifts, depth = found
        assert depth == want and _core._removable(ctx, node) is found
        top = 512 if unbounded else 96
        for _ in range(3):
            b = ctx.lo_of(Fraction(rng.randint(1, top), 64))
            vec = _core.eval_taylor(ctx, node, _core._tvar(ctx, 0, b, k + depth),
                                    k + depth, shifts)
            assert len(vec) == k + 1 and vec == vector_from_zero_walk(ctx, node, b)
            assert _core._coeff_from_zero(ctx, node, b) == vec[k]
            points = [_core.eval_taylor(ctx, node, _core._tvar(ctx, 0, 0, k + depth),
                                        k + depth, shifts)]
            for xi in (b, rng.randint(1, b - 1), rng.randint(1, b // 64)):
                points.append(_core.eval_taylor(ctx, node, _core._tvar(ctx, xi, xi), k))
            for pt in points:
                for j, (c, p) in enumerate(zip(vec, pt)):
                    assert _meets(c, p), (name, b, j)
                    if p[1] - p[0] <= ctx.one >> 64:
                        assert c[0] <= p[0] and p[1] <= c[1], (name, b, j)
                        held += 1
    assert held >= 24 * 4 * (k + 1)


@pytest.mark.parametrize("bits", [128, 192, 384])
def test_numerator_not_exactly_zero_at_0_never_takes_the_rule(monkeypatch, bits):
    # 2^-150 is exact at 192 and 384 bits and rounds out to [0, 2^-128] at
    # 128: either way sin(x) + 2^-150 is not exactly (0, 0) at 0, so the
    # boxes near 0 where sin(x)/x takes the [0, b] vector never build one
    ctx = get_ctx(bits)
    k = _core.TAYLOR_ORDER
    boxes = [(ctx.lo_of(Fraction(1, d)), ctx.lo_of(Fraction(2, d)))
             for d in (10, 100, 1000)]
    for text, takes in (("(sin(x) + 1/(2^50*2^50*2^50))/x - 1", False),
                        ("sin(x)/x - 1", True)):
        node = parse_expression(text)
        assert (_core._removable(ctx, node) is not None) == takes
        orders = _record_orders(monkeypatch)
        for a, b in boxes:
            _core.enclose(ctx, node, a, b)
        assert (k + 1 in orders) == takes, text
        monkeypatch.undo()


def test_shorter_operand_is_truncated_never_read_as_zeros():
    # past a removable quotient a vector is one order short: its missing
    # coefficient is unknown, so products and quotients stop at the shorter
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    rng = random.Random(14)
    for _ in range(40):
        a, b = _vector(rng, 4 * ctx.one), _vector(rng, 4 * ctx.one)
        b[0] = (ctx.one // 2, ctx.one)
        short = b[:k]
        assert _core._tmul(ctx, a, short) == tmul_dense(ctx, a[:k], short)
        assert _core._tmul(ctx, short, a) == tmul_dense(ctx, short, a[:k])
        assert _core._tdiv(ctx, a, short) == tdiv_dense(ctx, a[:k], short)
        a[0] = (ctx.one, 2 * ctx.one)
        assert _core._tdiv(ctx, short, a) == tdiv_dense(ctx, short, a[:k])


def test_removable_quotient_coefficient_decides_near_zero(monkeypatch, corpus_specs):
    # CHAIN_1_3_A on [1/1000, 1/500], where the difference is about 1e-12:
    # dividing by the box of x makes its own order-12 coefficient about
    # +-4.5e36, so its form is undecided while P decides; the coefficient
    # over [0, 1/500] decides, and the intersection is handed down
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    node = next(s for s in corpus_specs if s.name == "CHAIN_1_3_A").difference()
    a, b = ctx.lo_of(Fraction(1, 1000)), ctx.lo_of(Fraction(1, 500))
    own = _core.eval_taylor(ctx, node, _core._tvar(ctx, a, b), k)[k]
    assert own[0] < -(10 ** 36) * ctx.one and own[1] > 10 ** 36 * ctx.one
    c0 = _core._coeff_from_zero(ctx, node, b)
    orders = _record_orders(monkeypatch)
    enc, c = _core.enclose(ctx, node, a, b)
    assert enc[0] > 0 and orders == [k - 1, k, k + 1]
    assert c == _core.iisect(own, c0) == c0
    for p in (a, b, (a + b) // 2):
        pt = _core.eval_plain(ctx, node, (p, p))
        assert enc[0] <= pt[0] and pt[1] <= enc[1]
    # when that vector cannot be evaluated, the own form and c stand
    eval_taylor = _core.eval_taylor

    def failing(ctx, node, xvec, order, shifts=None, memo=None):
        if shifts is not None:
            raise _core.PoleError("no vector")
        return eval_taylor(ctx, node, xvec, order, memo=memo)

    monkeypatch.setattr(_core, "eval_taylor", failing)
    enc, c = _core.enclose(ctx, node, a, b)
    assert enc[0] <= 0 <= enc[1] and c == own


@pytest.mark.parametrize("src,f,lo,hi", [
    ("((x - sinh(x))/(x^3)) - (-171/1024)",
     lambda x: (x - mpmath.sinh(x)) / x ** 3 + mpmath.mpf(171) / 1024,
     Fraction(-137, 4000), Fraction(-3, 1000)),
    ("((sinh(x) - sin(x))/x^3) - (341/1024)",
     lambda x: (mpmath.sinh(x) - mpmath.sin(x)) / x ** 3 - mpmath.mpf(341) / 1024,
     Fraction(-59, 100), Fraction(-9, 100)),
    ("((cosh(x) - 1)/x^2) - (1/2)",
     lambda x: (mpmath.cosh(x) - 1) / x ** 2 - mpmath.mpf(1) / 2,
     Fraction(-189, 64000), Fraction(-1, 1000)),
], ids=["x-sinh", "sinh-sin", "cosh"])
def test_a_box_left_of_0_takes_no_coefficient_from_0(src, f, lo, hi):
    # the coefficient over [0, b] bounds no point left of 0; taken over
    # [0, b] with b < 0, it contradicted each box's own coefficient
    # (InconsistencyError)
    ctx = get_ctx(192)
    a, b = ctx.lo_of(lo), ctx.hi_of(hi)
    enc, _ = _core.enclose(ctx, parse_expression(src), a, b)
    with mpmath.workdps(60):
        for t in range(9):
            x = lo + (hi - lo) * Fraction(t, 8)
            v = f(mpmath.mpf(x.numerator) / x.denominator)
            assert mpmath.mpf(enc[0]) / ctx.one <= v <= mpmath.mpf(enc[1]) / ctx.one


def test_a_reversed_box_is_refused():
    # over [0, b] with b < 0 the coefficient from 0 once came back reversed,
    # lo above hi, with no error; a point box stays valid
    ctx = get_ctx(192)
    b = ctx.lo_of(Fraction(-3, 1000))
    assert _core._tvar(ctx, b, b)[0] == (b, b)
    with pytest.raises(ValueError, match="reversed"):
        _core._tvar(ctx, 0, b)
    node = parse_expression("((x - sinh(x))/(x^3)) - (-171/1024)")
    assert _core._removable(ctx, node) is not None
    with pytest.raises(ValueError, match="reversed"):
        _core._coeff_from_zero(ctx, node, b)


# ---------------------------------------------------------------------------
# the Taylor memo of enclose, and the low-order search for the shifts
# ---------------------------------------------------------------------------

def test_enclose_on_a_warmed_ctx_equals_a_fresh_one(monkeypatch, corpus_specs):
    # Ctx.memo keeps the costly steps' vectors by global id and base vector,
    # so stanzas that share a subtree share them.  Every shipped stanza, on
    # boxes drawn once per domain (one of them in [0, 1), where the [0, b]
    # coefficient is built too), encloses on a context the stanzas before
    # it have warmed exactly as on a fresh one, with fewer products
    warm = _core.Ctx(192)
    rng = random.Random(1506)
    boxes = {}
    for top in (96, 512):
        pairs = [sorted(rng.sample(range(1, top + 1), 2)) for _ in range(3)]
        boxes[top] = [(Fraction(i, 64), Fraction(j, 64)) for i, j in pairs]
        d = rng.randint(100, 1000)
        boxes[top].append((Fraction(1, d), Fraction(2, d)))
    products = {"warm": 0, "fresh": 0}
    side = ["fresh"]
    xmul = _core._xmul

    def counting(*args):
        products[side[0]] += 1
        return xmul(*args)

    monkeypatch.setattr(_core, "_xmul", counting)
    for spec in corpus_specs:
        node = spec.difference()
        for lo, hi in boxes[512 if spec.unbounded else 96]:
            a, b = warm.lo_of(lo), warm.lo_of(hi)
            side[0] = "fresh"
            want = _core.enclose(_core.Ctx(192), node, a, b)
            side[0] = "warm"
            assert _core.enclose(warm, node, a, b) == want, (spec.name, lo, hi)
    assert warm.memo and products["warm"] < products["fresh"]


def _counting_taylor_products(monkeypatch):
    """Rebind the Taylor ops that multiply; returns the list of their calls."""
    made = []
    for kind in _core._MEMO_KINDS:
        def op(*args, kind=kind, run=_core._TAYLOR_OPS[kind]):
            made.append(kind)
            return run(*args)
        monkeypatch.setitem(_core._TAYLOR_OPS, kind, op)
    return made


def test_chain_twin_run_after_its_twin_makes_no_taylor_products(monkeypatch,
                                                                corpus_specs):
    # CHAIN_1_7_C states exactly what CHAIN_1_3_B does.  Run right after
    # it, on the same core, it takes every vector from the memo and its
    # shifts from _removable's table
    ctx = get_ctx(192)
    ctx.scope(object())             # a root no bisection has: an empty memo
    made = _counting_taylor_products(monkeypatch)
    specs = {s.name: s for s in corpus_specs}
    first = verify_inequality(specs["CHAIN_1_3_B"])
    assert first.status == "Proved" and made
    made.clear()
    second = verify_inequality(specs["CHAIN_1_7_C"])
    assert second.status == "Proved" and second.leaves == first.leaves
    assert made == []


def test_bisection_on_a_new_root_empties_the_memo():
    ctx = get_ctx(192)
    box = Interval(Fraction(1, 100), Fraction(4))
    assert prove_positive(parse_expression("x - sin(x)"), box).status == "Proved"
    memo = ctx.memo
    assert memo and ctx.root == (ctx.lo_of(box.lo), ctx.hi_of(box.hi))
    # another expression on the same root keeps it and adds its own steps
    prove_positive(parse_expression("x^3 - sin(x)^3"), box)
    assert ctx.memo is memo
    # a new root starts from an empty memo
    prove_positive(parse_expression("x - sin(x)"), Interval(Fraction(1, 100), 2))
    assert ctx.memo is not memo and ctx.memo
    assert ctx.root == (ctx.lo_of(Fraction(1, 100)), ctx.hi_of(Fraction(2)))


def test_a_full_memo_stores_nothing_and_changes_no_report(monkeypatch, tmp_path,
                                                          corpus_report):
    # past MEMO_CAP vectors for one root, Ctx.memo stores no new one and
    # lookups go on: the corpus report is the same bytes, and no root
    # holds more than the cap (the shipped corpus peaks near 1,000)
    cap, peak = 64, [0]
    monkeypatch.setattr(_core, "MEMO_CAP", cap)
    scope = _core.Ctx.scope

    def recording(ctx, root):
        assert ctx.stored == sum(len(steps) for steps in ctx.memo.values())
        peak[0] = max(peak[0], ctx.stored)
        return scope(ctx, root)

    monkeypatch.setattr(_core.Ctx, "scope", recording)
    get_ctx(192).scope(object())            # a root no bisection has
    out = tmp_path / "capped.json"
    assert run_command(["prove", "--out", str(out)]) == 0
    get_ctx(192).scope(object())
    assert out.read_bytes() == corpus_report[1]
    assert peak[0] == cap


def test_direct_eval_taylor_never_reads_the_memo(monkeypatch, corpus_specs):
    # only enclose passes Ctx.memo: a direct call on a base vector whose
    # steps the memo holds still forms every product, as the imul count of
    # test_taylor_products_go_through_module_imul relies on
    ctx = _core.Ctx(192)
    k = _core.TAYLOR_ORDER
    node = next(s for s in corpus_specs if s.name == "WILKER").difference()
    xvec = _core._tvar(ctx, ctx.lo_of(Fraction(1, 4)), ctx.lo_of(Fraction(1, 2)))
    calls = []
    imul = _core.imul

    def counting(*args):
        calls.append(args)
        return imul(*args)

    monkeypatch.setattr(_core, "imul", counting)
    vec = _core.eval_taylor(ctx, node, xvec, k)
    full = len(calls)
    assert _core.eval_taylor(ctx, node, xvec, k, memo=ctx.memo) == vec
    assert ctx.memo and len(calls) == 2 * full
    assert _core.eval_taylor(ctx, node, xvec, k) == vec
    assert len(calls) == 3 * full
    # while a call that passes it forms none
    assert _core.eval_taylor(ctx, node, xvec, k, memo=ctx.memo) == vec
    assert len(calls) == 3 * full


# --- outward rounding against exact arithmetic --------------------------------

_MACLAURIN_DEGREE = 200


def _maclaurin(m, bits, hyper):
    """(odd, even) parts of the Maclaurin sum of e^x (sin and cos unless
    hyper) at x = m/2^bits through _MACLAURIN_DEGREE, as exact Fractions,
    and a bound on what the sum omits for 0 < x <= 32: twice the first
    omitted term, as each later one is under half the one before."""
    n = _MACLAURIN_DEGREE
    den = factorial(n) << (bits * n)
    term, sums = den, [0, 0]          # term: den * x^k / k!, an integer
    for k in range(n + 1):
        sums[k % 2] += -term if not hyper and k % 4 >= 2 else term
        term = term * m // ((k + 1) << bits)
    tail = Fraction(2 * 32 ** (n + 1), factorial(n + 1))
    return Fraction(sums[1], den), Fraction(sums[0], den), tail


@pytest.mark.parametrize("tag,limit", [("sc", 4), ("hc", 32)])
def test_point_series_brackets_contain_the_exact_sums(tag, limit):
    # each bracket holds the exact value and lies within 2^8 ulps of it,
    # relative to max(1, value); x^2 rounded down at the upper ends puts
    # sinh and cosh near 32 below their true values
    ctx = get_ctx(192)
    rng = random.Random(12)
    for _ in range(24):
        m = rng.randrange(1, limit * ctx.one) | 1    # x*x is not dyadic at 192
        brackets = _core._point_series(ctx, m, tag)
        odd, even, tail = _maclaurin(m, ctx.prec, tag == "hc")
        for (lo, hi), value in zip(brackets, (odd, even)):
            v, t = value * ctx.one, tail * ctx.one         # in ulps
            slack = max(1, abs(value)) * 2 ** 8
            assert v - slack <= lo <= v - t and v + t <= hi <= v + slack, m


@pytest.mark.parametrize("tag,limit", [("sc", 4), ("hc", 32)])
def test_point_series_equals_the_helper_loop(tag, limit):
    # the term loop with its ceilings written out gives the very integers of
    # the loop through _ceil_shift and _ceil_div, on seeded dyadic points:
    # 0 and both ends, short dyadics and full-precision ones
    ctx = _core.Ctx(192)
    rng = random.Random(35)
    top = limit * ctx.one
    points = [0, top, -top]
    while len(points) < 400:
        bits = rng.choice((4, 12, 64, ctx.prec))
        step = 1 << (ctx.prec - bits)
        points.append(rng.randrange(-top // step, top // step + 1) * step)
    for m in points:
        ctx.cache.clear()
        assert _core._point_series(ctx, m, tag) == point_series_helpers(ctx, m, tag), m


def test_each_form_rounds_the_exact_sum_outward_by_under_one_ulp(corpus_specs):
    # P + c [-r, r]^k, with c of each sign pattern handed down as `rem`, on
    # seeded corpus boxes: each end the plain range does not give is the
    # end of the exact sum, P's lower end raised as `enclose` raises it,
    # rounded outward, so it lies within one ulp of the exact end
    ctx = get_ctx(192)
    one = ctx.one
    k = _core.TAYLOR_ORDER
    rng = random.Random(776)
    checked = 0
    for spec in corpus_specs:
        node = spec.difference()
        for _ in range(2):
            x = Fraction(rng.randrange(1, 96), 64)
            a, b = ctx.lo_of(x), ctx.lo_of(x + Fraction(1, 64 << rng.randrange(4)))
            enc = _core.eval_plain(ctx, node, (a, b))
            m = (a + b) // 2
            r = max(b - m, m - a)
            tm = _core.eval_taylor(ctx, node, _core._tvar(ctx, m, m, k - 1), k - 1)
            lo, hi = poly_exact(ctx, tm, r)
            if floor(lo * one) <= 0 < tm[0][0]:
                lo = max(lo, bernstein_least(ctx, tm, r))
            for sign in _SIGNS:
                c = _interval(rng, 4 * one, sign)
                out, rem = _core.enclose(ctx, node, a, b, c)
                if rem is not c:        # the plain range or the box's own c
                    continue
                t_lo, t_hi = term_exact(ctx, c, r, k)
                exact = ((lo + t_lo) * one, (hi + t_hi) * one)
                if out[0] != enc[0]:
                    assert out[0] <= exact[0] < out[0] + 1, (spec.name, x, c)
                if out[1] != enc[1]:
                    assert out[1] - 1 < exact[1] <= out[1], (spec.name, x, c)
                checked += out[0] != enc[0] and out[1] != enc[1]
    assert checked >= 100


def _rounds_out_by_under_one_ulp(pair, ends):
    """pair holds the exact ends (in ulps) and each of its ends lies less
    than one ulp from theirs: a rounding flipped inward fails the first
    check, one a whole ulp too wide the second."""
    lo, hi = min(ends), max(ends)
    return pair[0] <= lo < pair[0] + 1 and pair[1] - 1 < hi <= pair[1]


def test_imul_and_idiv_round_the_exact_ends_outward_by_under_one_ulp():
    # every sign case of the product; the quotient by a positive and by a
    # negative divisor of a numerator >= 0, <= 0 and straddling 0, so each
    # of idiv's eight divisor choices rounds an exact end that is not dyadic
    ctx = get_ctx(192)
    one = ctx.one
    rng = random.Random(170)
    for sa in ("nonneg", "nonpos", "straddle"):
        for sb in ("nonneg", "nonpos", "straddle"):
            for _ in range(24):
                a = _interval(rng, 4 * one, sa)
                b = _interval(rng, 4 * one, sb)
                ends = [Fraction(x * y, one) for x in a for y in b]
                assert _rounds_out_by_under_one_ulp(_core.imul(ctx, a, b), ends)
        for divisor in ("positive", "negative"):
            for _ in range(24):
                a = _interval(rng, 4 * one, sa)
                lo, hi = sorted(rng.randrange(1, 4 * one) for _ in range(2))
                b = (lo | 1, hi | 1) if divisor == "positive" else (-(hi | 1), -(lo | 1))
                ends = [Fraction(x * one, y) for x in a for y in b]
                assert _rounds_out_by_under_one_ulp(_core.idiv(ctx, a, b), ends), (a, b)


def test_ipow_rounds_the_exact_ends_outward_by_under_one_ulp():
    # odd bases keep each exact end off the 2^-192 grid
    ctx = get_ctx(192)
    one = ctx.one
    rng = random.Random(186)
    for sign in ("nonneg", "nonpos", "straddle"):
        for _ in range(24):
            lo, hi = _interval(rng, 4 * one, sign)
            a = (lo | 1, hi | 1)
            for e in (2, 3, 4, 5):
                ends = [Fraction(x ** e, one ** (e - 1)) for x in a]
                if sign == "straddle" and e % 2 == 0:
                    ends.append(Fraction(0))
                assert _rounds_out_by_under_one_ulp(_core.ipow(ctx, a, e), ends), (a, e)


def test_a_zeroth_power_is_exactly_one():
    ctx = get_ctx(192)
    one = ctx.one
    for a in ((-3 * one, 5 * one), (0, 0), (one, 2 * one)):
        assert _core.ipow(ctx, a, 0) == (one, one)
    assert lang.eval_expr(parse_expression("x^0"), Interval(-3, 5)) == Interval.point(1)


def test_a_negative_power_is_the_reciprocal_of_the_positive_one():
    # over the box [1, 2] the Taylor vector of x^(-2) is that of 1/x^2
    ctx = get_ctx(192)
    k = _core.TAYLOR_ORDER
    xvec = _core._tvar(ctx, ctx.one, 2 * ctx.one, k)
    vec = _core.eval_taylor(ctx, parse_expression("x^(-2)"), xvec, k)
    assert vec == _core.eval_taylor(ctx, parse_expression("1/x^2"), xvec, k)
    assert vec[0][0] > 0 and vec[1][1] < 0


def test_lo_of_and_hi_of_round_a_rational_outward_by_under_one_ulp():
    ctx = get_ctx(192)
    rng = random.Random(117)
    for _ in range(200):
        f = Fraction(rng.randrange(-8 << 64, 8 << 64), rng.randrange(3, 1 << 64) | 1)
        exact = f * ctx.one
        if exact.denominator == 1:
            continue
        assert ctx.lo_of(f) < exact < ctx.lo_of(f) + 1, f
        assert ctx.hi_of(f) - 1 < exact < ctx.hi_of(f), f


def test_bernstein_lo_lies_under_one_ulp_below_the_least_coefficient():
    # at the scale of its powers only the Bernstein denominator leaves the
    # grid, on about one draw in ten
    ctx = get_ctx(192)
    rng = random.Random(797)
    off_grid = 0
    for _ in range(400):
        tm = _vector(rng, 4 * ctx.one, 6)
        r = rng.randrange(1, ctx.one) | 1
        rs = _powers(ctx, r, 6)
        least = bernstein_least(ctx, tm, r) * ctx.one * rs[0]
        lo = _core._bernstein_lo(tm, rs)
        assert lo <= least < lo + 1, (tm, r)
        off_grid += least.denominator != 1
    assert off_grid >= 30


def test_unary_minus_negates_the_taylor_vector():
    # the Taylor table's neg op: -sin(x) is sin(x)'s vector with each
    # coefficient negated, and it holds -sin's true coefficients
    ctx = get_ctx(192)
    m = ctx.lo_of(Fraction(1, 3))
    xvec = _core._tvar(ctx, m, m)
    k = _core.TAYLOR_ORDER
    neg = _core.eval_taylor(ctx, parse_expression("-sin(x)"), xvec, k)
    pos = _core.eval_taylor(ctx, parse_expression("sin(x)"), xvec, k)
    assert neg == [_core.ineg(c) for c in pos]
    with mpmath.workdps(80):
        x = mpmath.mpf(m) / ctx.one
        for j, (lo, hi) in enumerate(neg):
            true = -mpmath.diff(mpmath.sin, x, j) / factorial(j) * ctx.one
            assert lo <= true <= hi, j


def test_atan_and_pi_brackets_hold_the_true_values():
    # every precision from 16 to 399 bits: an atan term rounded inward at
    # its upper end puts atan(1/5) or atan(1/239) above most of the brackets
    with mpmath.workprec(1200):
        for prec in range(16, 400):
            one = mpmath.mpf(2) ** prec
            for q in (5, 239):
                lo, hi = _core._atan_inv_bracket(q, prec)
                assert lo <= mpmath.atan(mpmath.mpf(1) / q) * one <= hi, (q, prec)
            lo, hi = _core._pi_bracket(prec)
            assert lo < mpmath.pi * one < hi <= lo + 2, prec
