"""Containment fuzz: random expressions over the whole grammar, checked
against mpmath.

Each expression (depth 1-4: the six functions, `x/k` arguments,
arguments near the edge of a function's domain, `pi`, negative literals,
+ - * /, small powers) is centred by a rational near its value at
its box's midpoint, so that the plain range straddles 0 and `enclose` builds
its Taylor form.  Boxes start near 0, sit left of 0, are points or are
ordinary boxes; some are split in two with the parent's remainder
coefficient handed to each half, as bisection does.  Every `eval_plain` and
`enclose` result must hold mpmath's value at 100 digits, to within 2^-400,
at the box's ends and 3 inner points.  A DomainError or PoleError is a valid
answer; any other exception fails.  Each of the three cases of the exact
power `_core._xpow` must be reached.  The test knows no stanza of the
corpus, so it guards the arithmetic on inputs that no corpus was tuned on.

A second test feeds the Taylor kernels random interval vectors directly and
checks each against the exact series of point choices of its inputs.  A
third checks the box, point and [0, b] vectors of (v)*cos(u)/sin(u), the
text `lang.clear_tan` writes for v/tan(u), against mpmath's coefficients of
v over the tan series.
"""

import random
from fractions import Fraction
from math import comb

import mpmath

from ineqcert import _core
from ineqcert.errors import DomainError, PoleError
from ineqcert.lang import parse_expression
from oracles import ser_div, ser_mul

SEED = 19
CHECKS = 3000
PREC = 192
TOL = mpmath.mpf(2) ** -400

_UNARY = ("sin", "cos", "tan", "sinh", "cosh", "tanh")
_EDGE = {"sin": 4, "cos": 4, "sinh": 32, "cosh": 32, "tanh": 32}


def _literal(rng):
    q = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
    return f"({q})", lambda x: mpmath.mpf(q.numerator) / q.denominator


def _edge_call(rng, fn, f):
    """fn at c + x/64, c within 1 of the edge of fn's argument domain: 4
    for sin and cos, 32 for sinh, cosh and tanh.  sinh and cosh are scaled
    by 2^-46, to values below 1."""
    lim = _EDGE[fn]
    c = Fraction(rng.choice((-1, 1)) * rng.randint(64 * lim - 64, 64 * lim), 64)
    text = f"{fn}(({c}) + x/64)"
    if fn in ("sinh", "cosh"):
        return f"({text})/{2 ** 46}", lambda x: f(_mp(c) + x / 64) / 2 ** 46
    return text, lambda x: f(_mp(c) + x / 64)


def _draw(rng, depth):
    """(text, mpmath function of x) of a random expression whose deepest
    path has `depth` operations."""
    if depth == 0:
        u = rng.random()
        if u < 0.5:
            return "x", lambda x: x
        if u < 0.6:
            k = rng.randint(1, 8)
            return f"(pi/{k})", lambda x: mpmath.pi / k
        return _literal(rng)
    kind = rng.choice(("call", "call", "add", "sub", "mul", "div", "pow"))
    if kind == "call":
        fn = rng.choice(_UNARY)
        f = getattr(mpmath, fn)
        u = rng.random()
        if u < 0.25 and fn in _EDGE:
            return _edge_call(rng, fn, f)
        if u < 0.4:  # an x/k argument
            k = rng.randint(2, 9)
            return f"{fn}(x/{k})", lambda x: f(x / k)
        text, g = _draw(rng, depth - 1)
        return f"{fn}({text})", lambda x: f(g(x))
    if kind == "pow":
        e = rng.randint(2, 3) if depth <= 2 else 2  # nested, at most 36
        text, g = _draw(rng, depth - 1)
        return f"({text})^{e}", lambda x: g(x) ** e
    lt, lf = _draw(rng, depth - 1)
    rt, rf = _draw(rng, rng.randint(0, depth - 1))
    if rng.random() < 0.5:
        lt, lf, rt, rf = rt, rf, lt, lf
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    fn = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b, "div": lambda a, b: a / b}[kind]
    return f"({lt}) {op} ({rt})", lambda x: fn(lf(x), rf(x))


def _box(rng):
    """(a, b): near 0 (30%), a point (20%), left of 0 (20%) or ordinary."""
    u = rng.random()
    width = Fraction(1, 2 ** rng.randint(2, 10))
    if u < 0.3:
        a = 0 if rng.random() < 0.5 else Fraction(1, 2 ** rng.randint(4, 12))
        return a, a + width
    if u < 0.5:
        p = Fraction(rng.randint(-4000, 4000), rng.randint(1, 1000))
        return p, p
    if u < 0.7:
        b = -Fraction(rng.randint(0, 2000), 1000)
        return b - width, b
    a = Fraction(rng.randint(0, 3000), 1000)
    return a, a + width


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _value(f, x):
    """f at the Fraction x in mpmath, or None where it is not finite."""
    try:
        v = f(_mp(x))
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    return v if mpmath.isfinite(v) else None


def _miss(f, x, enc, one):
    """Whether f's value at x lies outside enc/one by more than TOL; None
    where it is not finite."""
    v = _value(f, x)
    if v is None:
        return None
    return not _mp(Fraction(enc[0], one)) - TOL <= v <= _mp(Fraction(enc[1], one)) + TOL


def _points(rng, a, b):
    if a == b:
        return [a]
    inner = sorted(a + (b - a) * Fraction(rng.randint(1, 999), 1000)
                   for _ in range(3))
    return [a, *inner, b]


def _xpow_case(a, e):
    """The case of `_core._xpow` that the pair a and the power e take."""
    if e % 2 or a[0] >= 0:
        return "in order"
    return "reversed" if a[1] <= 0 else "from 0"


def test_every_enclosure_holds_the_mpmath_value(monkeypatch):
    # every case of the exact power must be reached, as every sign pair of
    # the exact product and quotient is in the kernel test below
    rng = random.Random(SEED)
    ctx = _core.Ctx(PREC)
    checks, misses, raised, powers = 0, [], [], set()
    xpow = _core._xpow

    def recording_xpow(a, e):
        powers.add(_xpow_case(a, e))
        return xpow(a, e)

    monkeypatch.setattr(_core, "_xpow", recording_xpow)

    def check(label, text, f, enc, points):
        nonlocal checks
        for x in points:
            miss = _miss(f, x, enc, ctx.one)
            if miss is None:
                continue
            checks += 1
            if miss:
                # mpmath rounds too: where terms cancel, its error at 100
                # digits can pass 2^-400 (x + (-5/2 - x) reads 3e-101), so
                # a miss must stand at 200 digits
                with mpmath.workdps(200):
                    if _miss(f, x, enc, ctx.one):
                        misses.append((label, text, x, enc))

    def run(label, text, f, node, a, b, rem=None):
        """enclose's (and, without rem, eval_plain's) range over the box
        [a, b] of integers at 2**-PREC; enclose's rem, or None."""
        points = _points(rng, Fraction(a, ctx.one), Fraction(b, ctx.one))
        try:
            if rem is None:
                check("eval_plain", text, f, _core.eval_plain(ctx, node, (a, b)), points)
            enc, rem = _core.enclose(ctx, node, a, b, rem)
        except (DomainError, PoleError):
            return None
        except Exception as exc:  # any other exception is a fault
            raised.append((label, text, a, b, repr(exc)))
            return None
        check(label, text, f, enc, points)
        return rem

    with mpmath.workdps(100):
        while checks < CHECKS:
            text, f = _draw(rng, rng.randint(1, 4))
            a, b = _box(rng)
            centre = _value(f, (a + b) / 2)
            if centre is None or abs(centre) > 2 ** 40:
                continue
            q = Fraction(round(centre * 2 ** 20), 2 ** 20)
            text = f"({text}) - ({q})"
            node = parse_expression(text)
            fq = lambda x, f=f, q=q: f(x) - _mp(q)
            lo, hi = ctx.lo_of(a), ctx.hi_of(b)
            rem = run("enclose", text, fq, node, lo, hi)
            if rem is not None and lo < hi and rng.random() < 0.5:
                # the halves inherit the parent's remainder coefficient
                mid = (lo + hi) // 2
                run("enclose-left-half", text, fq, node, lo, mid, rem)
                run("enclose-right-half", text, fq, node, mid, hi, rem)
    assert not raised, raised[:3]
    assert not misses, misses[:3]
    assert powers == {"in order", "reversed", "from 0"}


# ---------------------------------------------------------------------------
# the Taylor kernels on random interval vectors
# ---------------------------------------------------------------------------

KERNEL_DRAWS = 30
REALISATIONS = 3
KERNEL_TOL = mpmath.mpf(2) ** -256     # far below one unit at 2^-192

_CLASSES = ("nonneg", "nonpos", "straddle", "straddle", "thin", "zero")


def _coefficient(rng, scale, sign):
    lo, hi = sorted((rng.randrange(scale), rng.randrange(scale)))
    if sign == "nonneg":
        return (lo, hi)
    if sign == "nonpos":
        return (-hi, -lo)
    if sign == "straddle":
        return (-lo - 1, hi + 1)
    if sign == "thin":
        return (hi - lo, hi - lo) if rng.random() < 0.5 else (lo - hi, lo - hi)
    return (0, 0)


def _vector(rng, k, scale):
    return [_coefficient(rng, scale, rng.choice(_CLASSES)) for _ in range(k + 1)]


def _realise(rng, vec, one):
    """A point of each coefficient, as a Fraction: an end or a point between."""
    out = []
    for lo, hi in vec:
        u = rng.random()
        out.append(Fraction(lo if u < 0.3 else hi if u < 0.6 else rng.randint(lo, hi), one))
    return out


def _sign(pair):
    return "+" if pair[0] >= 0 else "-" if pair[1] < 0 else "+-"


def _sin_cos_series(v, hyper):
    """(sin, cos) (sinh, cosh when hyper) of the series v, in mpmath:
    sin(v0 + w) = sin(v0) cos(w) + cos(v0) sin(w) with w = v - v0, whose
    series are sums of the powers of w over the factorials."""
    k = len(v) - 1
    w = [mpmath.mpf(0)] + [_mp(c) for c in v[1:]]
    odd, even = [mpmath.mpf(0)] * (k + 1), [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
    power = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
    for n in range(1, k + 1):
        power = ser_mul(power, w, k)
        sign = 1 if hyper or n % 4 in (0, 1) else -1
        target = odd if n % 2 else even
        for j in range(k + 1):
            target[j] += sign * power[j] / mpmath.factorial(n)
    v0 = _mp(v[0])
    s0, c0 = (mpmath.sinh(v0), mpmath.cosh(v0)) if hyper else (mpmath.sin(v0), mpmath.cos(v0))
    sgn = 1 if hyper else -1
    return ([s0 * e + c0 * o for e, o in zip(even, odd)],
            [c0 * e + sgn * s0 * o for e, o in zip(even, odd)])


def _holds(vec, true, one):
    """Whether each coefficient of vec holds the exact Fraction of true."""
    return all(Fraction(lo, one) <= v <= Fraction(hi, one)
               for (lo, hi), v in zip(vec, true)) and len(vec) == len(true)


def _holds_mp(vec, true, one):
    """Whether each coefficient of vec holds the mpmath value of true, to
    within KERNEL_TOL of its size."""
    return all(_mp(Fraction(lo, one)) - KERNEL_TOL * (1 + abs(v)) <= v
               <= _mp(Fraction(hi, one)) + KERNEL_TOL * (1 + abs(v))
               for (lo, hi), v in zip(vec, true)) and len(vec) == len(true)


def test_taylor_kernels_hold_every_realisation(monkeypatch):
    # random interval vectors, their coefficients of every sign and many
    # straddling 0: each kernel's vector must hold the exact coefficients
    # (Fractions) or mpmath's (sin, cos, tan and the hyperbolic three) of
    # the series got by taking a point in each input coefficient.  Every
    # sign pair of the exact product and of the quotient's numerator and
    # divisor must be reached.
    rng = random.Random(SEED)
    ctx = _core.Ctx(PREC)
    one = ctx.one
    products, quotients, misses = set(), set(), []
    xmul, xdiv = _core._xmul, _core._xdiv

    def recording_xmul(a, b):
        products.add((_sign(a), _sign(b)))
        return xmul(a, b)

    def recording_xdiv(ctx, lo, hi, b):
        quotients.add((_sign((lo, hi)), _sign(b)))
        return xdiv(ctx, lo, hi, b)

    monkeypatch.setattr(_core, "_xmul", recording_xmul)
    monkeypatch.setattr(_core, "_xdiv", recording_xdiv)
    with mpmath.workdps(100):
        for _ in range(KERNEL_DRAWS):
            k = rng.randint(1, _core.TAYLOR_ORDER)
            a, b = _vector(rng, k, 4 * one), _vector(rng, k, 4 * one)
            lo, hi = _coefficient(rng, 4 * one, "nonneg")
            b[0] = (lo + one // 2, hi + one // 2)
            if rng.random() < 0.5:
                b[0] = (-b[0][1], -b[0][0])
            if rng.random() < 0.25:
                b = b[:k]                       # a shorter operand truncates
            n = min(len(a), len(b)) - 1
            got = {"tmul": _core._tmul(ctx, a, b), "tdiv": _core._tdiv(ctx, a, b),
                   "tsqr": _core._tsqr(ctx, a)}
            for _ in range(REALISATIONS):
                ra, rb = _realise(rng, a, one), _realise(rng, b, one)
                want = {"tmul": ser_mul(ra, rb, n), "tdiv": ser_div(ra, rb, n),
                        "tsqr": ser_mul(ra, ra, k)}
                misses += [(op, a, b) for op in got
                           if not _holds(got[op], want[op], one)]
            for hyper in (False, True):
                u = _vector(rng, k, 4 * one)
                u[0] = _coefficient(rng, (32 if hyper else 4) * one,
                                    rng.choice(_CLASSES))
                s, c = _core._tsincos(ctx, u, hyper)
                try:
                    t = _core._ttan(ctx, u, hyper)
                except PoleError:           # cos(u[0]) may hold 0
                    t = None
                for _ in range(REALISATIONS):
                    ts, tc = _sin_cos_series(_realise(rng, u, one), hyper)
                    pairs = [("sin", s, ts), ("cos", c, tc)]
                    if t is not None:
                        pairs.append(("tan", t, ser_div(ts, tc, k)))
                    misses += [(op, hyper, u) for op, vec, true in pairs
                               if not _holds_mp(vec, true, one)]
    assert not misses, misses[:3]
    assert products == {(p, q) for p in ("+", "-", "+-") for q in ("+", "-", "+-")}
    assert quotients == {(p, q) for p in ("+", "-", "+-") for q in ("+", "-")}


# ---------------------------------------------------------------------------
# v/tan(u) as the boxes bound it: the text (v)*cos(u)/sin(u), which
# `lang.clear_tan` writes for it, against v/tan(u)'s own coefficients
# ---------------------------------------------------------------------------

TAN_DRAWS = 56

# (v's text, u's text, v, u), v and u polynomials in x, lowest power first
_BY_TAN = [("x", "x", [0, 1], [0, 1]),
           ("x/2", "x/2", [0, Fraction(1, 2)], [0, Fraction(1, 2)]),
           ("x^2+1", "2*x/3", [1, 0, 1], [0, Fraction(2, 3)])]


def _poly_text(p):
    return " + ".join(f"({c})*x^{i}" for i, c in enumerate(p))


def _at(p, xi, k):
    """The Taylor coefficients of the polynomial p at xi, through order k."""
    return [sum(c * comb(i, j) * xi ** (i - j) for i, c in enumerate(p) if i >= j)
            for j in range(k + 1)]


def _by_tan_series(v, u, xi, k):
    """The order-k Taylor coefficients of v/tan(u) at xi, in mpmath, by the
    tan series sin(u)/cos(u), not by the kernel's sin and cos operands; at a
    shared zero (xi = 0, where v and u vanish) both series drop it first."""
    n = k + (xi == 0)
    vs, us = _at(v, xi, n), _at(u, xi, n)
    s, c = _sin_cos_series(us, False)
    t = ser_div(s, c, n)
    num = [_mp(e) for e in vs]
    while num[0] == 0 and t[0] == 0:
        num, t = num[1:], t[1:]
    return ser_div(num, t, k)


def test_taylor_quotient_by_tan_holds_the_mpmath_coefficients():
    # box, point and [0, b] vectors (the last with _removable's shifts) of
    # (v)*cos(u)/sin(u) on [1/64, 3/2], for the three shapes of the corpus
    # and random polynomial v with u = q x: each coefficient must hold
    # mpmath's of v/tan(u) at the box's ends and inner points, at the point,
    # and over [0, b] at 0 too
    rng = random.Random(SEED)
    ctx = _core.Ctx(PREC)
    one, k = ctx.one, _core.TAYLOR_ORDER
    checks, misses = 0, []

    def check(label, text, vec, v, u, points):
        nonlocal checks
        for xi in points:
            checks += len(vec)
            if not _holds_mp(vec, _by_tan_series(v, u, xi, k), one):
                misses.append((label, text, xi))

    with mpmath.workdps(80):
        for draw in range(TAN_DRAWS):
            if draw < 2 * len(_BY_TAN):
                vt, ut, v, u = _BY_TAN[draw % len(_BY_TAN)]
            else:
                v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
                v[rng.randint(0, 2)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                if rng.random() < 0.5:
                    v[0] = Fraction(0)       # v(0) = 0: a removable quotient
                u = [0, Fraction(rng.randint(1, 8), 8)]
                vt, ut = _poly_text(v), f"({u[1]})*x"
            text = f"({vt})*cos({ut})/sin({ut})"
            node = parse_expression(text)
            a = Fraction(rng.randint(1, 95), 64)
            b = min(a + Fraction(1, 2 ** rng.randint(2, 8)), Fraction(3, 2))
            lo, hi = ctx.lo_of(a), ctx.lo_of(b)
            box = _core.eval_taylor(ctx, node, _core._tvar(ctx, lo, hi, k), k)
            check("box", text, box, v, u, [Fraction(lo, one), *_points(rng, a, b)[1:-1],
                                           Fraction(hi, one)])
            m = (lo + hi) // 2
            point = _core.eval_taylor(ctx, node, _core._tvar(ctx, m, m, k), k)
            check("point", text, point, v, u, [Fraction(m, one)])
            found = _core._removable(ctx, node)
            assert (found is None) == (v[0] != 0), text
            if found is not None:
                shifts, depth = found
                vec = _core.eval_taylor(ctx, node, _core._tvar(ctx, 0, hi, k + depth),
                                        k + depth, shifts)
                check("from 0", text, vec, v, u,
                      [Fraction(0), *_points(rng, Fraction(0), Fraction(hi, one))[1:]])
    assert not misses, misses[:3]
    assert checks > 6000
