"""Fixed-point interval engine.

Endpoints are dyadic rationals m / 2**prec stored as plain integers, so every
operation is exact integer arithmetic with outward rounding: each computed
pair (lo, hi) satisfies lo/2**prec <= true value <= hi/2**prec.  This is the
hot path behind expression evaluation and the adaptive prover; the public
Fraction-based Interval type wraps it.

Supported elementary functions: sin, cos on [-4, 4], tan where cos is
certified positive, sinh/cosh/tanh on [-32, 32].  Ranges over an interval
come from endpoint Taylor evaluations plus the interior extrema (+-pi/2 for
sin, 0 and +-pi for cos); the corpus never needs argument reduction.

One tree walk evaluates the parsed `lang.Expr` nodes with one of three op
tables: ranges, truncated Taylor vectors, or exact rational intervals for
`lang.eval_endpoint`.  Only point series are cached (in `Ctx`).  `enclose`
intersects the plain range with an order-12 Taylor form about the midpoint;
there is no other narrowing step.  The Taylor ops skip every term with an exact
(0, 0) factor, so sparse vectors cost less and come out equal to dense ones.
"""

from fractions import Fraction

from .errors import DomainError, PoleError

__all__ = ["Ctx", "DomainError", "PoleError"]


def _ceil_shift(a, bits):
    return -((-a) >> bits)


def _ceil_div(a, b):
    return -((-a) // b)


# ---------------------------------------------------------------------------
# pi via Machin's formula: pi = 16 atan(1/5) - 4 atan(1/239)
# ---------------------------------------------------------------------------

def _atan_inv_bracket(q, prec):
    """Bracket of atan(1/q) at scale 2**prec (alternating series)."""
    one = 1 << prec
    qq = q * q
    lo = hi = 0
    k = 0
    dp = q  # q**(2k+1)
    while True:
        d = (2 * k + 1) * dp
        t_lo = one // d
        t_hi = _ceil_div(one, d)
        if k % 2 == 0:
            lo += t_lo
            hi += t_hi
        else:
            lo -= t_hi
            hi -= t_lo
        dp *= qq
        nxt = _ceil_div(one, (2 * k + 3) * dp)
        if nxt <= 1:
            # remainder of an alternating series with decreasing terms
            lo -= nxt
            hi += nxt
            return lo, hi
        k += 1


def _pi_bracket(prec):
    g = prec + 16
    a_lo, a_hi = _atan_inv_bracket(5, g)
    b_lo, b_hi = _atan_inv_bracket(239, g)
    lo = 16 * a_lo - 4 * b_hi
    hi = 16 * a_hi - 4 * b_lo
    return lo >> 16, _ceil_shift(hi, 16)


class Ctx:
    """Evaluation context: precision, cached pi bracket, point-series cache."""

    __slots__ = ("prec", "one", "pi", "cache")

    def __init__(self, prec=192):
        if prec < 16:
            raise ValueError("precision too small")
        self.prec = prec
        self.one = 1 << prec
        self.pi = _pi_bracket(prec)
        self.cache = {}

    # conversions ----------------------------------------------------------
    def lo_of(self, f):
        return (f.numerator << self.prec) // f.denominator

    def hi_of(self, f):
        return _ceil_div(f.numerator << self.prec, f.denominator)


# ---------------------------------------------------------------------------
# interval primitives on (lo, hi) integer pairs
# ---------------------------------------------------------------------------

def iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def isub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def ineg(a):
    return (-a[1], -a[0])


def imul(ctx, a, b):
    # when neither factor straddles 0 the sign case names the two products
    # that are the min and the max of the four endpoint products
    a0, a1 = a
    b0, b1 = b
    if a0 >= 0 and b0 >= 0:
        lo, hi = a0 * b0, a1 * b1
    elif a0 >= 0 and b1 <= 0:
        lo, hi = a1 * b0, a0 * b1
    elif a1 <= 0 and b0 >= 0:
        lo, hi = a0 * b1, a1 * b0
    elif a1 <= 0 and b1 <= 0:
        lo, hi = a1 * b1, a0 * b0
    else:
        p = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
        lo, hi = min(p), max(p)
    return (lo >> ctx.prec, _ceil_shift(hi, ctx.prec))


def imul_int(a, k):
    if k >= 0:
        return (a[0] * k, a[1] * k)
    return (a[1] * k, a[0] * k)


def idiv_int(a, k):
    # k: positive integer
    return (a[0] // k, _ceil_div(a[1], k))


def idiv(ctx, a, b):
    if b[0] <= 0 <= b[1]:
        raise PoleError(
            f"division by an interval containing 0: "
            f"[{Fraction(b[0], ctx.one)}, {Fraction(b[1], ctx.one)}]"
        )
    sh = a[0] << ctx.prec, a[1] << ctx.prec
    q = (sh[0] // b[0], sh[0] // b[1], sh[1] // b[0], sh[1] // b[1])
    qc = (_ceil_div(sh[0], b[0]), _ceil_div(sh[0], b[1]),
          _ceil_div(sh[1], b[0]), _ceil_div(sh[1], b[1]))
    return (min(q), max(qc))


def ipow(ctx, a, e):
    one = ctx.one
    if e == 0:
        return (one, one)
    if e < 0:
        return idiv(ctx, (one, one), ipow(ctx, a, -e))
    sc = one ** (e - 1)

    def plo(m):
        return (m ** e) // sc if e > 1 else m

    def phi(m):
        return _ceil_div(m ** e, sc) if e > 1 else m

    lo, hi = a
    if lo >= 0:
        return (plo(lo), phi(hi))
    if hi <= 0:
        if e % 2:
            return (plo(lo), phi(hi))
        return (plo(hi), phi(lo))
    if e % 2:
        return (plo(lo), phi(hi))
    return (0, max(phi(lo), phi(hi)))


def iisect(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if lo > hi:
        raise AssertionError("intersection of two certified enclosures is empty")
    return (lo, hi)


# ---------------------------------------------------------------------------
# elementary point evaluations (Taylor series with certified remainders)
# ---------------------------------------------------------------------------

_TRIG_MAX = 4          # |x| <= 4 for sin/cos
_HYP_MAX = 32          # |x| <= 32 for sinh/cosh


def _sincos_pt(ctx, m):
    """(sin bracket, cos bracket) at the dyadic point m/2**prec, |x| <= 4."""
    return _point_series(ctx, m, "sc")


def _sinhcosh_pt(ctx, m):
    """(sinh bracket, cosh bracket) at m/2**prec, |x| <= 32."""
    return _point_series(ctx, m, "hc")


def _point_series(ctx, m, tag):
    """Cached (odd, even) series brackets at m/2**prec: sin and cos for tag
    "sc", whose terms alternate in sign, sinh and cosh for tag "hc"."""
    key = (tag, m)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    if m == 0:
        return ((0, 0), (ctx.one, ctx.one))
    alternating = tag == "sc"
    neg = m < 0
    x = -m if neg else m
    prec = ctx.prec
    mm_lo = (x * x) >> prec
    mm_hi = _ceil_shift(x * x, prec)
    # nonnegative term brackets: t = x^(2k+1)/(2k+1)!, u = x^(2k)/(2k)!
    t_lo, t_hi = x, x
    u_lo, u_hi = ctx.one, ctx.one
    s_lo, s_hi = x, x
    c_lo, c_hi = ctx.one, ctx.one
    k = 0
    while True:
        k += 1
        t_lo = (t_lo * mm_lo >> prec) // ((2 * k) * (2 * k + 1))
        t_hi = _ceil_div(_ceil_shift(t_hi * mm_hi, prec), (2 * k) * (2 * k + 1))
        u_lo = (u_lo * mm_lo >> prec) // ((2 * k - 1) * (2 * k))
        u_hi = _ceil_div(_ceil_shift(u_hi * mm_hi, prec), (2 * k - 1) * (2 * k))
        if alternating and k % 2:
            s_lo -= t_hi
            s_hi -= t_lo
            c_lo -= u_hi
            c_hi -= u_lo
        else:
            s_lo += t_lo
            s_hi += t_hi
            c_lo += u_lo
            c_hi += u_hi
        # alternating: terms decrease strictly once (2k+1)(2k+2) > x^2
        # (x <= 4 => k >= 2), then the omitted tail is bounded by the next
        # term.  Positive: once the term ratio x^2/((2k+2)(2k+3)) <= 1/2,
        # the tail is at most twice the next term.
        if t_hi <= 2 and u_hi <= 2 and (
                k >= 2 if alternating
                else 2 * mm_hi <= ((2 * k + 2) * (2 * k + 3)) << prec):
            rt = _ceil_div(_ceil_shift(t_hi * mm_hi, prec),
                           (2 * k + 2) * (2 * k + 3)) + 1
            ru = _ceil_div(_ceil_shift(u_hi * mm_hi, prec),
                           (2 * k + 1) * (2 * k + 2)) + 1
            if alternating:
                s = (s_lo - rt, s_hi + rt)
                c = (c_lo - ru, c_hi + ru)
            else:
                s = (s_lo, s_hi + 2 * rt)
                c = (c_lo, c_hi + 2 * ru)
            break
    if neg:
        s = (-s[1], -s[0])
    out = (s, c)
    ctx.cache[key] = out
    return out


def _tan_pt(ctx, m):
    s, c = _sincos_pt(ctx, m)
    return idiv(ctx, s, c)


def _tanh_pt(ctx, m):
    s, c = _sinhcosh_pt(ctx, m)
    return idiv(ctx, s, c)


def fn_range(ctx, fn, a, b):
    """Certified range of fn over [a, b]/2**prec."""
    one = ctx.one
    if fn in ("sin", "cos"):
        lim = _TRIG_MAX * one
        if a < -lim or b > lim:
            raise DomainError(f"{fn} argument outside [-4, 4]")
        pi_lo, pi_hi = ctx.pi
        if fn == "sin":
            pa, _ = _sincos_pt(ctx, a)
            pb, _ = _sincos_pt(ctx, b)
            lo = min(pa[0], pb[0])
            hi = max(pa[1], pb[1])
            # interior extrema in [-4,4]: max at pi/2, min at -pi/2
            h_lo, h_hi = pi_lo >> 1, _ceil_shift(pi_hi, 1)
            if a <= h_hi and b >= h_lo:
                hi = one
            if a <= -h_lo and b >= -h_hi:
                lo = -one
        else:
            _, pa = _sincos_pt(ctx, a)
            _, pb = _sincos_pt(ctx, b)
            lo = min(pa[0], pb[0])
            hi = max(pa[1], pb[1])
            if a <= 0 <= b:
                hi = one
            if (a <= pi_hi and b >= pi_lo) or (a <= -pi_lo and b >= -pi_hi):
                lo = -one
        return (max(lo, -one), min(hi, one))

    if fn == "tan":
        crange = fn_range(ctx, "cos", a, b)
        if crange[0] <= 0:
            raise PoleError(
                "possible pole: cos enclosure "
                f"[{Fraction(crange[0], one)}, {Fraction(crange[1], one)}] "
                "contains 0"
            )
        return (_tan_pt(ctx, a)[0], _tan_pt(ctx, b)[1])

    lim = _HYP_MAX * one
    if a < -lim or b > lim:
        raise DomainError(f"{fn} argument outside [-32, 32]")
    if fn == "sinh":
        return (_sinhcosh_pt(ctx, a)[0][0], _sinhcosh_pt(ctx, b)[0][1])
    if fn == "cosh":
        ca = _sinhcosh_pt(ctx, a)[1]
        cb = _sinhcosh_pt(ctx, b)[1]
        if a <= 0 <= b:
            return (one, max(ca[1], cb[1]))
        if b <= 0:
            return (max(cb[0], one), ca[1])
        return (max(ca[0], one), cb[1])
    if fn == "tanh":
        lo = _tanh_pt(ctx, a)[0]
        hi = _tanh_pt(ctx, b)[1]
        return (max(lo, -one), min(hi, one))
    raise DomainError(f"unknown function {fn}")


# ---------------------------------------------------------------------------
# truncated Taylor-coefficient vectors (interval coefficients)
#
# A vector t of length k+1 at base interval X satisfies, for every xi in X:
#   t[j]  encloses  f^(j)(xi) / j!
# Evaluating with a point base gives the midpoint coefficients.
# ---------------------------------------------------------------------------

TAYLOR_ORDER = 12      # order of every Taylor form built by enclose


def _tconst(iv, k):
    return [iv] + [(0, 0)] * k


def _tvar(ctx, a, b):
    """The variable x over [a, b]/2**prec as an order-TAYLOR_ORDER vector."""
    return [(a, b), (ctx.one, ctx.one)] + [(0, 0)] * (TAYLOR_ORDER - 1)


def _tadd(a, b):
    return [iadd(x, y) for x, y in zip(a, b)]


def _tsub(a, b):
    return [isub(x, y) for x, y in zip(a, b)]


def _tneg(a):
    return [ineg(x) for x in a]


# imul with a (0, 0) factor is exactly (0, 0), and iadd/isub with (0, 0) is
# the identity, so the sparse loops below skip only terms that add nothing.
# They call imul by its module name: the traced benchmark rebinds it to count.
def _tmul(ctx, a, b):
    k = len(a) - 1
    out = [(0, 0)] * (k + 1)
    nb = [(j, y) for j, y in enumerate(b) if y != (0, 0)]
    for i, x in enumerate(a):
        if x == (0, 0):
            continue
        for j, y in nb:
            if i + j > k:
                break
            out[i + j] = iadd(out[i + j], imul(ctx, x, y))
    return out


def _tdiv(ctx, a, b):
    # idiv raises PoleError at j = 0 when b[0] contains 0
    nb = [(i, y) for i, y in enumerate(b) if i and y != (0, 0)]
    out = []
    for j in range(len(a)):
        acc = a[j]
        for i, y in nb:
            if i > j:
                break
            if out[j - i] != (0, 0):
                acc = isub(acc, imul(ctx, out[j - i], y))
        out.append(idiv(ctx, acc, b[0]))
    return out


def _tpow(ctx, a, e):
    k = len(a) - 1
    if e == 0:
        return _tconst((ctx.one, ctx.one), k)
    if e < 0:
        return _tdiv(ctx, _tconst((ctx.one, ctx.one), k), _tpow(ctx, a, -e))
    out = a
    for _ in range(e - 1):
        out = _tmul(ctx, out, a)
    return out


def _tsincos(ctx, u, hyper):
    """Taylor vectors of sin(u), cos(u) (or sinh/cosh when hyper)."""
    k = len(u) - 1
    names = ("sinh", "cosh") if hyper else ("sin", "cos")
    s = [fn_range(ctx, names[0], u[0][0], u[0][1])]
    c = [fn_range(ctx, names[1], u[0][0], u[0][1])]
    # i*u[i] for the nonzero u[i], i >= 1: only i = 1 for an affine argument
    nu = [(i, imul_int(y, i)) for i, y in enumerate(u) if i and y != (0, 0)]
    for j in range(1, k + 1):
        acc_s = acc_c = (0, 0)
        for i, iu in nu:
            if i > j:
                break
            acc_s = iadd(acc_s, imul(ctx, iu, c[j - i]))
            acc_c = iadd(acc_c, imul(ctx, iu, s[j - i]))
        s.append(idiv_int(acc_s, j))
        acc_c = idiv_int(acc_c, j)
        c.append(acc_c if hyper else ineg(acc_c))
    return s, c


def _tcall(ctx, name, u):
    """Taylor vector of name(u); tan and tanh are quotients of the pair."""
    if name not in ("sin", "cos", "tan", "sinh", "cosh", "tanh"):
        raise DomainError(f"unknown function {name}")
    s, c = _tsincos(ctx, u, hyper=name.endswith("h"))
    if name.startswith("tan"):
        return _tdiv(ctx, s, c)
    return s if name.startswith("sin") else c


# ---------------------------------------------------------------------------
# one recursive walk over a parsed expression tree, with one of three op tables
#
# The walk dispatches on each `lang.Expr` node's class attribute `kind` and
# reads its fields: a/b, base/exponent, fn/arg, value, and pos for errors.
#
# Op signatures: lit(ctx, value, x), pi(ctx, x), neg(a), add(a, b),
# sub(a, b), mul(ctx, a, b), div(ctx, a, b), pow(ctx, a, int),
# call(ctx, name, a).  `lang` holds the third table, on exact endpoint
# intervals.  The range table's mul and call look imul and fn_range up at
# call time, so a rebinding of either module attribute (as the traced
# benchmark does) sees every call.
# ---------------------------------------------------------------------------

_RANGE_OPS = {
    "lit": lambda ctx, v, x: (ctx.lo_of(v), ctx.hi_of(v)),
    "pi": lambda ctx, x: ctx.pi,
    "neg": ineg, "add": iadd, "sub": isub,
    "mul": lambda ctx, a, b: imul(ctx, a, b),
    "div": idiv, "pow": ipow,
    "call": lambda ctx, name, a: fn_range(ctx, name, a[0], a[1]),
}

_TAYLOR_OPS = {
    "lit": lambda ctx, v, x: _tconst((ctx.lo_of(v), ctx.hi_of(v)), len(x) - 1),
    "pi": lambda ctx, x: _tconst(ctx.pi, len(x) - 1),
    "neg": _tneg, "add": _tadd, "sub": _tsub,
    "mul": _tmul, "div": _tdiv, "pow": _tpow, "call": _tcall,
}


def _walk(ctx, node, x, ops):
    """Value of the expression node at x under the op table."""
    kind = node.kind
    if kind == "x":
        return x
    if kind == "lit":
        return ops["lit"](ctx, node.value, x)
    if kind == "pi":
        return ops["pi"](ctx, x)
    try:
        if kind == "call":
            return ops["call"](ctx, node.fn, _walk(ctx, node.arg, x, ops))
        if kind == "pow":
            return ops["pow"](ctx, _walk(ctx, node.base, x, ops), node.exponent)
        if kind == "neg":
            return ops["neg"](_walk(ctx, node.a, x, ops))
        if kind == "mul" or kind == "div":
            return ops[kind](ctx, _walk(ctx, node.a, x, ops),
                             _walk(ctx, node.b, x, ops))
        return ops[kind](_walk(ctx, node.a, x, ops), _walk(ctx, node.b, x, ops))
    except (DomainError, PoleError) as exc:
        # the innermost node that failed names the offset; 0 is a valid one
        if getattr(exc, "position", None) is None:
            exc.position = node.pos
        raise


def eval_plain(ctx, node, x):
    """Certified range of node over the integer range x = (lo, hi)."""
    return _walk(ctx, node, x, _RANGE_OPS)


def eval_taylor(ctx, node, xvec, k):
    """Order-k Taylor vector of node, given the vector xvec (k + 1 entries)
    of the variable."""
    return _walk(ctx, node, xvec, _TAYLOR_OPS)


# ---------------------------------------------------------------------------
# adaptive enclosure: plain range + interval Taylor form
# ---------------------------------------------------------------------------

def _form_term(ctx, c, r, j):
    """c * [-r, r]^j (which is c * [0, r^j] for even j), computed with exact
    integer powers and a single outward rounding so tiny r^j cannot
    underflow before multiplying a large remainder coefficient."""
    if j == 0:
        return c
    rj = r ** j
    sh = j * ctx.prec
    clo, chi = c
    if j % 2 == 0:
        lo = min(clo * rj, 0)
        hi = max(chi * rj, 0)
    else:
        m = max(abs(clo), abs(chi)) * rj
        lo, hi = -m, m
    return (lo >> sh, _ceil_shift(hi, sh))


def enclose(ctx, node, a, b):
    """Certified enclosure of node over [a, b]/2**prec: the plain range,
    intersected with the order-TAYLOR_ORDER Taylor form about the midpoint
    (box coefficients for the remainder term) when the plain range does not
    decide the sign."""
    enc = eval_plain(ctx, node, (a, b))
    if enc[0] > 0 or enc[1] < 0 or a == b:
        return enc
    k = TAYLOR_ORDER
    m = (a + b) // 2
    try:
        tx = eval_taylor(ctx, node, _tvar(ctx, a, b), k)
        tm = eval_taylor(ctx, node, _tvar(ctx, m, m), k)
    except (DomainError, PoleError):
        return enc
    r = max(b - m, m - a)
    form = tm[0]
    for j in range(1, k):
        form = iadd(form, _form_term(ctx, tm[j], r, j))
    form = iadd(form, _form_term(ctx, tx[k], r, k))
    return iisect(enc, form)
