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
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    return (min(p1, p2, p3, p4) >> ctx.prec,
            _ceil_shift(max(p1, p2, p3, p4), ctx.prec))


def imul_int(a, k):
    if k >= 0:
        return (a[0] * k, a[1] * k)
    return (a[1] * k, a[0] * k)


def idiv_int(a, k):
    # k: positive integer
    return (a[0] // k, _ceil_div(a[1], k))


def idiv(ctx, a, b, pos=None):
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
# plain recursive evaluation of a compiled expression
#
# compiled node layout (tuples):
#   ("x", pos) ("pi", pos) ("lit", pos, Fraction)
#   ("neg", pos, a) ("add", pos, a, b) ("sub", pos, a, b)
#   ("mul", pos, a, b) ("div", pos, a, b) ("pow", pos, a, int)
#   ("call", pos, name, a)
# ---------------------------------------------------------------------------

def eval_plain(ctx, node, x, memo=None):
    kind = node[0]
    if kind == "x":
        return x
    if kind == "lit":
        f = node[2]
        return (ctx.lo_of(f), ctx.hi_of(f))
    if kind == "pi":
        return ctx.pi
    if memo is not None and x[0] == x[1]:
        key = (id(node), x[0])
        hit = memo.get(key)
        if hit is not None:
            return hit
    else:
        key = None
    try:
        if kind == "neg":
            out = ineg(eval_plain(ctx, node[2], x, memo))
        elif kind == "add":
            out = iadd(eval_plain(ctx, node[2], x, memo),
                       eval_plain(ctx, node[3], x, memo))
        elif kind == "sub":
            out = isub(eval_plain(ctx, node[2], x, memo),
                       eval_plain(ctx, node[3], x, memo))
        elif kind == "mul":
            out = imul(ctx, eval_plain(ctx, node[2], x, memo),
                       eval_plain(ctx, node[3], x, memo))
        elif kind == "div":
            out = idiv(ctx, eval_plain(ctx, node[2], x, memo),
                       eval_plain(ctx, node[3], x, memo))
        elif kind == "pow":
            out = ipow(ctx, eval_plain(ctx, node[2], x, memo), node[3])
        elif kind == "call":
            arg = eval_plain(ctx, node[3], x, memo)
            out = fn_range(ctx, node[2], arg[0], arg[1])
        else:
            raise AssertionError(f"bad node {kind}")
    except (DomainError, PoleError) as exc:
        exc.position = getattr(exc, "position", None) or node[1]
        raise
    if key is not None:
        memo[key] = out
    return out


# ---------------------------------------------------------------------------
# truncated Taylor-coefficient vectors (interval coefficients)
#
# A vector t of length k+1 at base interval X satisfies, for every xi in X:
#   t[j]  encloses  f^(j)(xi) / j!
# Evaluating with a point base gives the midpoint coefficients.
# ---------------------------------------------------------------------------

def _tzero(ctx, k):
    return [(0, 0)] * (k + 1)


def _tconst(ctx, iv, k):
    v = _tzero(ctx, k)
    v[0] = iv
    return v


def _tadd(a, b):
    return [iadd(x, y) for x, y in zip(a, b)]


def _tsub(a, b):
    return [isub(x, y) for x, y in zip(a, b)]


def _tneg(a):
    return [ineg(x) for x in a]


def _tmul(ctx, a, b):
    k = len(a) - 1
    out = []
    for j in range(k + 1):
        acc = (0, 0)
        for i in range(j + 1):
            acc = iadd(acc, imul(ctx, a[i], b[j - i]))
        out.append(acc)
    return out


def _tdiv(ctx, a, b):
    k = len(a) - 1
    if b[0][0] <= 0 <= b[0][1]:
        raise PoleError(
            f"division by an interval containing 0: "
            f"[{Fraction(b[0][0], ctx.one)}, {Fraction(b[0][1], ctx.one)}]"
        )
    out = []
    for j in range(k + 1):
        acc = a[j]
        for i in range(j):
            acc = isub(acc, imul(ctx, out[i], b[j - i]))
        out.append(idiv(ctx, acc, b[0]))
    return out


def _tpow(ctx, a, e):
    k = len(a) - 1
    if e == 0:
        return _tconst(ctx, (ctx.one, ctx.one), k)
    if e < 0:
        return _tdiv(ctx, _tconst(ctx, (ctx.one, ctx.one), k), _tpow(ctx, a, -e))
    out = a
    for _ in range(e - 1):
        out = _tmul(ctx, out, a)
    return out


def _tsincos(ctx, u, hyper):
    """Taylor vectors of sin(u), cos(u) (or sinh/cosh when hyper)."""
    k = len(u) - 1
    if hyper:
        s_range = fn_range(ctx, "sinh", u[0][0], u[0][1])
        c_range = fn_range(ctx, "cosh", u[0][0], u[0][1])
    else:
        s_range = fn_range(ctx, "sin", u[0][0], u[0][1])
        c_range = fn_range(ctx, "cos", u[0][0], u[0][1])
    s = [s_range]
    c = [c_range]
    sign = 1 if hyper else -1
    for j in range(1, k + 1):
        acc_s = (0, 0)
        acc_c = (0, 0)
        for i in range(1, j + 1):
            iu = imul_int(u[i], i)
            acc_s = iadd(acc_s, imul(ctx, iu, c[j - i]))
            acc_c = iadd(acc_c, imul(ctx, iu, s[j - i]))
        s.append(idiv_int(acc_s, j))
        acc_c = idiv_int(acc_c, j)
        c.append(acc_c if sign == 1 else ineg(acc_c))
    return s, c


def eval_taylor(ctx, node, xvec, k):
    kind = node[0]
    if kind == "x":
        return list(xvec)
    if kind == "lit":
        f = node[2]
        return _tconst(ctx, (ctx.lo_of(f), ctx.hi_of(f)), k)
    if kind == "pi":
        return _tconst(ctx, ctx.pi, k)
    try:
        if kind == "neg":
            return _tneg(eval_taylor(ctx, node[2], xvec, k))
        if kind == "add":
            return _tadd(eval_taylor(ctx, node[2], xvec, k),
                         eval_taylor(ctx, node[3], xvec, k))
        if kind == "sub":
            return _tsub(eval_taylor(ctx, node[2], xvec, k),
                         eval_taylor(ctx, node[3], xvec, k))
        if kind == "mul":
            return _tmul(ctx, eval_taylor(ctx, node[2], xvec, k),
                         eval_taylor(ctx, node[3], xvec, k))
        if kind == "div":
            return _tdiv(ctx, eval_taylor(ctx, node[2], xvec, k),
                         eval_taylor(ctx, node[3], xvec, k))
        if kind == "pow":
            return _tpow(ctx, eval_taylor(ctx, node[2], xvec, k), node[3])
        if kind == "call":
            u = eval_taylor(ctx, node[3], xvec, k)
            name = node[2]
            if name in ("sin", "cos"):
                s, c = _tsincos(ctx, u, hyper=False)
                return s if name == "sin" else c
            if name in ("sinh", "cosh"):
                s, c = _tsincos(ctx, u, hyper=True)
                return s if name == "sinh" else c
            if name == "tan":
                s, c = _tsincos(ctx, u, hyper=False)
                return _tdiv(ctx, s, c)
            if name == "tanh":
                s, c = _tsincos(ctx, u, hyper=True)
                return _tdiv(ctx, s, c)
    except (DomainError, PoleError) as exc:
        exc.position = getattr(exc, "position", None) or node[1]
        raise
    raise AssertionError(f"bad node {kind}")


# ---------------------------------------------------------------------------
# adaptive enclosure: plain range + monotonicity + interval Taylor forms
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


def enclose(ctx, node, a, b, max_order=8, memo=None):
    """Certified enclosure of node over [a, b]/2**prec: the plain range,
    narrowed by monotonicity and by an order-max_order Taylor form when
    the plain range does not decide the sign."""
    enc = eval_plain(ctx, node, (a, b), memo)
    if enc[0] > 0 or enc[1] < 0 or a == b or max_order < 2:
        return enc
    k = max_order
    one_iv = (ctx.one, ctx.one)
    try:
        xv = _tzero(ctx, k)
        xv[0] = (a, b)
        xv[1] = one_iv
        tx = eval_taylor(ctx, node, xv, k)
    except (DomainError, PoleError):
        return enc
    d1 = tx[1]
    if d1[0] >= 0 or d1[1] <= 0:
        fa = eval_plain(ctx, node, (a, a), memo)
        fb = eval_plain(ctx, node, (b, b), memo)
        cand = (fa[0], fb[1]) if d1[0] >= 0 else (fb[0], fa[1])
        enc = iisect(enc, cand)
        if enc[0] > 0 or enc[1] < 0:
            return enc
    m = (a + b) // 2
    mv = _tzero(ctx, k)
    mv[0] = (m, m)
    mv[1] = one_iv
    try:
        tm = eval_taylor(ctx, node, mv, k)
    except (DomainError, PoleError):
        return enc
    r = max(b - m, m - a)
    form = tm[0]
    for j in range(1, k):
        form = iadd(form, _form_term(ctx, tm[j], r, j))
    form = iadd(form, _form_term(ctx, tx[k], r, k))
    return iisect(enc, form)
