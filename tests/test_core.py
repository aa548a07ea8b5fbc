"""Taylor-vector algebra of `_core`, checked against its own point ranges
and against the dense reference loops in `oracles`."""

import random
from fractions import Fraction

import mpmath
import pytest

from ineqcert import _core, lang
from ineqcert.interval import Interval, get_ctx
from ineqcert.lang import INF, eval_endpoint, parse_expression
from ineqcert.prove import ProveOptions, prove_positive
from oracles import (enclose_full_order, idiv_eight, imul_dense, tdiv_dense,
                     tmul_dense, tsincos_dense, ttan_quotient, walk)

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


@pytest.mark.parametrize("shape", ["sparse", "straddle", "point"])
def test_tsqr_equals_dense_square(shape):
    ctx = get_ctx(192)
    rng = random.Random(shape)
    k = _core.TAYLOR_ORDER
    for _ in range(40):
        if shape == "sparse":
            a = _vector(rng, 4 * ctx.one)
        else:
            sign = "thin" if shape == "point" else "straddle"
            a = [_interval(rng, 4 * ctx.one, sign) for _ in range(k + 1)]
        sq = _core._tsqr(ctx, a)
        assert sq == tmul_dense(ctx, a, a)
        # _tmul squares a vector it gets twice; an equal copy takes the
        # general product, with the same result
        assert _core._tmul(ctx, a, a) == sq == _core._tmul(ctx, a, list(a))


def test_plan_holds_each_distinct_subtree_once():
    node = parse_expression("(sin(x)/x)^2 + sin(x)/x")
    steps, positions = _core._plan(node)
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

    def watching(*args):
        try:
            return eval_taylor(*args)
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

    def recording(ctx, node, xvec, k):
        orders.append(k)
        return eval_taylor(ctx, node, xvec, k)

    monkeypatch.setattr(_core, "eval_taylor", recording)
    return orders


def _crafted_taylor(monkeypatch, tm0, rem):
    """Rebind eval_taylor: the midpoint vector becomes tm0 and zeros, the
    box vector zeros with rem at order k; returns the orders called."""
    orders = []

    def crafted(ctx, node, xvec, k):
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
        def failing_at(ctx, node, xvec, order, failing=failing):
            if order == failing:
                raise _core.PoleError("no vector")
            return eval_taylor(ctx, node, xvec, order)

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
    # the slowest stanza's core: the same 149 leaves as with a box vector on
    # every undecided box (291 order-12 vectors then), and 128 order-12
    # vectors once each box inherits its parent's remainder coefficient
    node = next(s for s in corpus_specs if s.name == "NS_QUARTIC").difference()
    opts = ProveOptions()
    lo = Interval.point(opts.eps_lo).round_out(opts.precision).hi
    hi = Interval.point(opts.x_max).round_out(opts.precision).lo
    orders = _record_orders(monkeypatch)
    res = prove_positive(node, Interval(lo, hi), opts)
    assert res.status == "Proved" and res.leaves == 149
    assert orders.count(_core.TAYLOR_ORDER) <= 128
