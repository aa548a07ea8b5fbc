"""Fixed-point interval engine.

Endpoints are dyadic rationals m / 2**prec stored as plain integers, so every
operation is exact integer arithmetic with outward rounding: each computed
pair (lo, hi) satisfies lo/2**prec <= true value <= hi/2**prec.  Each range
op rounds one exact result outward once: `imul` the product `_xmul` and
`ipow` the power `_xpow`, while `idiv`'s `_xdiv` floors or ceils each
exact quotient once.  The public Fraction-based Interval type wraps the
engine and reads the same sign tables, `_xmul` and `_xpow`, unrounded.
Each Taylor coefficient, and each Taylor form of `enclose`, is rounded
once: its exact products (`_xmul`) are summed exactly, and only the sum,
or the sum's quotient, is rounded outward.

Elementary functions: sin, cos on [-4, 4], tan where the cos enclosure
excludes 0, sinh/cosh/tanh on [-32, 32].  Ranges over an interval come from
endpoint evaluations plus the interior extrema (+-pi/2 for sin, 0 and +-pi
for cos); the corpus never needs argument reduction.

One evaluator runs a parsed `lang.Expr` as a straight-line plan, each
distinct subtree once, with one of four op tables: ranges, truncated
Taylor vectors, and in `lang` exact rational intervals for `eval_endpoint`
and (text, precedence) pairs for `format_expr`.  On a box of (0, 1) that
the plain range does not decide, `enclose` tries the order-12 Taylor form
about 0 first (`_zero_form`); unless its lower end is > 0, it intersects
the plain range with an order-12 Taylor form about the midpoint, whose
midpoint vector stops at order 11.  The remainder coefficient of a box
vector bounds the remainder on every sub-box too (the inclusion property
of Taylor models), so `enclose` hands it down and takes
a parent's: a box builds its own only when the midpoint terms decide the
sign and the inherited one does not.  Near 0, a lower end <= 0 of the
midpoint terms above a positive midpoint value is raised to their least
Bernstein coefficient, and on a box in [0, 1) an undecided coefficient is
intersected with one over [0, b] in which every removable quotient u/v (u
and v exactly 0 at 0) is taken as (u/x)/(v/x), not divided by a box of x.

Each step of a plan has a global structural id.  For its whole lifetime,
one per precision in a process, `Ctx` keeps point series and the Taylor
vectors of the costly steps `enclose` runs, by id, box and order, each
table emptied when it is full: stanzas share those of their common sides
in any order.  The Taylor ops skip every term with an exact (0, 0) factor
and square by half convolution (`_sq`), the middle square held at 0 or
above; sin/cos and sinh/cosh vectors come from their coupled recurrence,
tan and tanh from the ODE t' = u' (1 +- t^2).
"""

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .errors import DomainError, InconsistencyError, PoleError

__all__ = ["Ctx", "DomainError", "PoleError", "FUNCTIONS"]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh")


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


# Entries a table of `Ctx` holds at most: a full table is emptied before its
# next store.  A default `prove` ends with 124 point series and 1,161 vectors.
MEMO_CAP = 1 << 14


class Ctx:
    """Evaluation context: precision, pi bracket, and two pure caches that
    live as long as the context, each emptied before a store once it holds
    MEMO_CAP entries: point series (`cache`) and Taylor vectors (`memo`)."""

    __slots__ = ("prec", "one", "pi", "cache", "memo")

    def __init__(self, prec=192):
        if prec < 16:
            raise ValueError("precision too small")
        self.prec = prec
        self.one = 1 << prec
        self.pi = _pi_bracket(prec)
        self.cache = {}
        self.memo = {}

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


def _xmul(a, b):
    """The exact product of the pairs a and b, at the product of their
    scales: the least and the greatest of the four endpoint products.  The
    signs of the factors name the two, except when both straddle 0: then
    each end is the lesser or the greater of two.  Every product of the
    range and the Taylor ops goes through this name."""
    a0, a1 = a
    b0, b1 = b
    if b0 >= 0:
        if a0 >= 0:
            return a0 * b0, a1 * b1
        if a1 <= 0:
            return a0 * b1, a1 * b0
        return a0 * b1, a1 * b1
    if b1 <= 0:
        if a0 >= 0:
            return a1 * b0, a0 * b1
        if a1 <= 0:
            return a1 * b1, a0 * b0
        return a1 * b0, a0 * b0
    if a0 >= 0:
        return a1 * b0, a1 * b1
    if a1 <= 0:
        return a0 * b1, a0 * b0
    return min(a0 * b1, a1 * b0), max(a0 * b0, a1 * b1)


def imul(ctx, a, b):
    lo, hi = _xmul(a, b)
    return (lo >> ctx.prec, _ceil_shift(hi, ctx.prec))


def idiv(ctx, a, b):
    return _xdiv(ctx, a[0] << ctx.prec, a[1] << ctx.prec, b)


def _xdiv(ctx, lo, hi, b):
    """[lo, hi]/2**(2 prec) divided by b/2**prec, rounded outward once to
    the scale 2**prec."""
    if b[0] <= 0 <= b[1]:
        raise PoleError(
            f"division by an interval containing 0: "
            f"[{Fraction(b[0], ctx.one)}, {Fraction(b[1], ctx.one)}]"
        )
    # b does not straddle 0, so x/y is monotone in each argument and the
    # signs of b and of each numerator endpoint name the divisor of each bound
    if b[0] > 0:
        return (lo // (b[1] if lo >= 0 else b[0]),
                _ceil_div(hi, b[0] if hi >= 0 else b[1]))
    return (hi // (b[1] if hi >= 0 else b[0]),
            _ceil_div(lo, b[0] if lo >= 0 else b[1]))


def _xpow(a, e):
    """The exact e-th power (e >= 1) of the pair a, at the e-th power of
    its scale: the powers of the ends in order for an odd e or a >= 0,
    reversed for a <= 0, and from 0 for an even e when a straddles 0."""
    lo, hi = a
    if e % 2 or lo >= 0:
        return lo ** e, hi ** e
    if hi <= 0:
        return hi ** e, lo ** e
    return 0, max(lo ** e, hi ** e)


def ipow(ctx, a, e):
    one = ctx.one
    if e == 0:
        return (one, one)
    if e < 0:
        return idiv(ctx, (one, one), ipow(ctx, a, -e))
    lo, hi = _xpow(a, e)
    return (lo >> (e - 1) * ctx.prec, _ceil_shift(hi, (e - 1) * ctx.prec))


def iisect(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if lo > hi:
        raise InconsistencyError("two certified enclosures do not meet")
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
        # t gains the factor x^2/((2k)(2k+1)), u the factor x^2/((2k-1)(2k));
        # an upper end is _ceil_div(_ceil_shift(...)) written out in place
        d = 2 * k
        dt, du = d * (d + 1), (d - 1) * d
        t_lo = (t_lo * mm_lo >> prec) // dt
        t_hi = -((-t_hi * mm_hi >> prec) // dt)
        u_lo = (u_lo * mm_lo >> prec) // du
        u_hi = -((-u_hi * mm_hi >> prec) // du)
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
    if len(ctx.cache) >= MEMO_CAP:
        ctx.cache.clear()
    ctx.cache[key] = out
    return out


def _cos_off_pole(ctx, a, b):
    """Refuse [a, b]/2**prec as a possible pole of tan when cos over it
    holds 0."""
    crange = fn_range(ctx, "cos", a, b)
    if crange[0] <= 0 <= crange[1]:
        raise PoleError(
            "possible pole: cos enclosure "
            f"[{Fraction(crange[0], ctx.one)}, {Fraction(crange[1], ctx.one)}] "
            "contains 0"
        )


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
        _cos_off_pole(ctx, a, b)        # tan increases between poles
        return (idiv(ctx, *_sincos_pt(ctx, a))[0], idiv(ctx, *_sincos_pt(ctx, b))[1])

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
        lo = idiv(ctx, *_sinhcosh_pt(ctx, a))[0]
        hi = idiv(ctx, *_sinhcosh_pt(ctx, b))[1]
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


def _tvar(ctx, a, b, k=TAYLOR_ORDER):
    """The variable x over [a, b]/2**prec as an order-k vector."""
    if a > b:
        raise ValueError(f"a reversed box: {a} > {b}")
    x = [(a, b), (ctx.one, ctx.one)] + [(0, 0)] * (k - 1)
    return x[:k + 1]  # order 0 is the range alone


def _tadd(a, b):
    return [iadd(x, y) for x, y in zip(a, b)]


def _tsub(a, b):
    return [isub(x, y) for x, y in zip(a, b)]


def _tneg(a):
    return [ineg(x) for x in a]


# Each coefficient below is an exact sum of exact products (`_xmul`) at the
# scale 2**(2 prec), rounded outward once; a division by j is in that one
# rounding, as floor(floor(n / 2**prec) / j) is floor(n / (j 2**prec)).  A
# (0, 0) factor adds exactly nothing, so the sparse loops skip only terms
# that add nothing.  They call _xmul by its module name, so a rebinding of
# it sees every product.  Operands of unequal length (past a removable
# quotient, which drops an order) are truncated to the shorter: a missing
# coefficient is unknown, not 0.
def _tmul(ctx, a, b):
    if a is b:                  # a power's first product, or u*u of one step
        return _tsqr(ctx, a)
    k = min(len(a), len(b)) - 1
    lo, hi = [0] * (k + 1), [0] * (k + 1)
    nb = [(j, y) for j, y in enumerate(b) if y != (0, 0)]
    for i, x in enumerate(a[:k + 1]):
        if x == (0, 0):
            continue
        for j, y in nb:
            if i + j > k:
                break
            p, q = _xmul(x, y)
            lo[i + j] += p
            hi[i + j] += q
    prec = ctx.prec
    return [(p >> prec, _ceil_shift(q, prec)) for p, q in zip(lo, hi)]


def _tdiv(ctx, a, b):
    # out[j] = (a[j] - sum_{i>=1} out[j-i] b[i]) / b[0], its numerator exact;
    # _xdiv raises PoleError at j = 0 when b[0] contains 0
    prec = ctx.prec
    nb = [(i, y) for i, y in enumerate(b) if i and y != (0, 0)]
    out = []
    for j in range(min(len(a), len(b))):
        lo, hi = a[j][0] << prec, a[j][1] << prec
        for i, y in nb:
            if i > j:
                break
            x = out[j - i]
            if x != (0, 0):
                p, q = _xmul(x, y)
                lo, hi = lo - q, hi - p
        out.append(_xdiv(ctx, lo, hi, b[0]))
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


def _sq(a, m):
    """(a^2)[m], exact: twice the cross products a[p] a[m - p], p < m - p,
    each formed once, and the middle square a[m/2]^2, whose lower end is
    held at 0 or above, since a square is never negative."""
    lo = hi = 0
    for p in range((m + 1) // 2):
        x, y = a[p], a[m - p]
        if x != (0, 0) and y != (0, 0):
            s, t = _xmul(x, y)
            lo, hi = lo + s, hi + t
    lo, hi = 2 * lo, 2 * hi
    if m % 2 == 0 and a[m // 2] != (0, 0):
        s, t = _xmul(a[m // 2], a[m // 2])
        lo, hi = lo + max(s, 0), hi + t
    return lo, hi


def _tsqr(ctx, a):
    """a * a, each coefficient `_sq` rounded outward once."""
    prec = ctx.prec
    out = []
    for m in range(len(a)):
        lo, hi = _sq(a, m)
        out.append((lo >> prec, _ceil_shift(hi, prec)))
    return out


def _tsincos(ctx, u, hyper):
    """Taylor vectors of sin(u), cos(u) (or sinh/cosh when hyper):
    s[j] = (1/j) sum_{i>=1} i u[i] c[j-i], c[j] = -+(1/j) sum i u[i] s[j-i]."""
    k = len(u) - 1
    prec = ctx.prec
    names = ("sinh", "cosh") if hyper else ("sin", "cos")
    s = [fn_range(ctx, names[0], u[0][0], u[0][1])]
    c = [fn_range(ctx, names[1], u[0][0], u[0][1])]
    # i*u[i] for the nonzero u[i], i >= 1: only i = 1 for an affine argument
    nu = [(i, (y[0] * i, y[1] * i)) for i, y in enumerate(u) if i and y != (0, 0)]
    for j in range(1, k + 1):
        s_lo = s_hi = c_lo = c_hi = 0
        for i, iu in nu:
            if i > j:
                break
            p, q = _xmul(iu, c[j - i])
            s_lo, s_hi = s_lo + p, s_hi + q
            p, q = _xmul(iu, s[j - i])
            c_lo, c_hi = c_lo + p, c_hi + q
        if not hyper:
            c_lo, c_hi = -c_hi, -c_lo
        s.append(((s_lo >> prec) // j, -((-s_hi >> prec) // j)))
        c.append(((c_lo >> prec) // j, -((-c_hi >> prec) // j)))
    return s, c


def _ttan(ctx, u, hyper):
    """Taylor vector of tan(u) (tanh(u) when hyper) from t' = u' w with
    w = 1 + t^2 (1 - t^2): t[j] = (1/j) sum_{i>=1} i u[i] w[j-i]."""
    k = len(u) - 1
    prec = ctx.prec
    t = [fn_range(ctx, "tanh" if hyper else "tan", u[0][0], u[0][1])]
    w = []
    nu = [(i, (y[0] * i, y[1] * i)) for i, y in enumerate(u) if i and y != (0, 0)]
    for j in range(1, k + 1):
        # w[m], m = j - 1, from the exact (t^2)[m], rounded once
        m = j - 1
        lo, hi = _sq(t, m)
        if hyper:
            lo, hi = -hi, -lo
        if m == 0:
            lo, hi = lo + (1 << 2 * prec), hi + (1 << 2 * prec)
        w.append((lo >> prec, _ceil_shift(hi, prec)))
        t_lo = t_hi = 0
        for i, iu in nu:
            if i > j:
                break
            p, q = _xmul(iu, w[j - i])
            t_lo, t_hi = t_lo + p, t_hi + q
        t.append(((t_lo >> prec) // j, -((-t_hi >> prec) // j)))
    return t


def _tcall(ctx, name, u):
    """Taylor vector of name(u): sin/cos and sinh/cosh as one pair, tan and
    tanh by their own recurrence."""
    if name not in FUNCTIONS:
        raise DomainError(f"unknown function {name}")
    hyper = name.endswith("h")
    if name.startswith("tan"):
        return _ttan(ctx, u, hyper)
    s, c = _tsincos(ctx, u, hyper)
    return s if name.startswith("sin") else c


# ---------------------------------------------------------------------------
# one straight-line plan per expression, run with one of four op tables
#
# A plan lists the distinct subtrees of a parsed `lang.Expr` in post-order,
# each as a step (kind, p, q) whose operands are the indices of earlier
# steps, with its global id: interned from the kind and the operands' ids as
# the step is recorded, so equal subtrees of any expressions share it.  A
# plan holds each id once, at its first occurrence, whose pos names the
# offset of any error there.  The plan is built in one pass and kept on the
# root node itself, so it is found by identity (never by Expr equality,
# which ignores pos) and goes when the node goes.
#
# Op signatures: lit(ctx, value, x), pi(ctx, x), neg(a), add(a, b),
# sub(a, b), mul(ctx, a, b), div(ctx, a, b), pow(ctx, a, int),
# call(ctx, name, a).  `lang` holds the other two tables: exact endpoint
# intervals, and the printer's (text, precedence) pairs.  The range table's
# mul and call look imul and fn_range up at call time, so a rebinding of
# either module attribute (as the traced benchmark does) sees every call.
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


_STEP_IDS = {}  # the one process-wide table: ids by (kind, operand ids or values)
_STEP_IDS_LOCK = threading.Lock()
_MEMO_KINDS = frozenset(("call", "mul", "div", "pow"))    # the costly steps


def _plan(node):
    """(steps, positions, ids) of node's straight-line plan: step i, the
    offset of its first node and its global id."""
    try:
        return node._plan
    except AttributeError:
        pass
    steps, positions, ids, index = [], [], [], {}

    def visit(n):
        kind = n.kind
        if kind == "lit":
            step = key = (kind, n.value, None)
        elif kind == "x" or kind == "pi":
            step = key = (kind, None, None)
        elif kind == "call":
            q = visit(n.arg)
            step, key = (kind, n.fn, q), (kind, n.fn, ids[q])
        elif kind == "pow":
            p = visit(n.base)
            step, key = (kind, p, n.exponent), (kind, ids[p], n.exponent)
        elif kind == "neg":
            p = visit(n.a)
            step, key = (kind, p, None), (kind, ids[p], None)
        else:
            p, q = visit(n.a), visit(n.b)
            step, key = (kind, p, q), (kind, ids[p], ids[q])
        gid = _STEP_IDS.setdefault(key, len(_STEP_IDS))
        i = index.get(gid)
        if i is None:
            i = index[gid] = len(steps)
            steps.append(step)
            positions.append(n.pos)
            ids.append(gid)
        return i

    with _STEP_IDS_LOCK:
        visit(node)
    plan = (tuple(steps), tuple(positions), tuple(ids))
    object.__setattr__(node, "_plan", plan)     # the nodes are frozen
    return plan


def _run(ctx, node, x, ops, shifts=None, memo=None):
    """Value of the expression node at x under the op table: each step of
    its plan once, in order.  With `shifts` (one entry per step), each `/`
    step i first drops shifts[i] leading coefficients of both operands; an
    entry of None is filled in from the operands, as `_removable` does.
    With `memo` (a `Ctx.memo`), each costly step is looked up there by its
    global id, the box and order of x (`_tvar`'s) and whether shifts apply
    before it is run, and stored, the memo emptied first if it is full."""
    steps, positions, ids = _plan(node)
    base = None if memo is None else (x[0], len(x), shifts is not None)
    vals = []
    push = vals.append
    try:
        for kind, p, q in steps:
            key = (ids[len(vals)], base) if base and kind in _MEMO_KINDS else None
            if key is not None and (hit := memo.get(key)) is not None:
                push(hit)
                continue
            if kind == "x":
                push(x)
            elif kind == "lit":
                push(ops["lit"](ctx, p, x))
            elif kind == "pi":
                push(ops["pi"](ctx, x))
            elif kind == "call":
                push(ops["call"](ctx, p, vals[q]))
            elif kind == "pow":
                push(ops["pow"](ctx, vals[p], q))
            elif kind == "neg":
                push(ops["neg"](vals[p]))
            elif kind == "mul":
                push(ops["mul"](ctx, vals[p], vals[q]))
            elif kind == "div":
                u, v = vals[p], vals[q]
                if shifts is not None:
                    s = shifts[len(vals)]
                    if s is None:
                        s = shifts[len(vals)] = _shared_zeros(u, v)
                    u, v = u[s:], v[s:]
                push(ops["div"](ctx, u, v))
            else:
                push(ops[kind](vals[p], vals[q]))
            if key is not None:
                if len(memo) >= MEMO_CAP:
                    memo.clear()
                memo[key] = vals[-1]
    except (DomainError, PoleError) as exc:
        # the first step that fails names the offset; 0 is a valid one
        if getattr(exc, "position", None) is None:
            exc.position = positions[len(vals)]
        raise
    return vals[-1]


def eval_plain(ctx, node, x):
    """Certified range of node over the integer range x = (lo, hi)."""
    return _run(ctx, node, x, _RANGE_OPS)


def eval_taylor(ctx, node, xvec, k, shifts=None, memo=None):
    """Order-k Taylor vector of node, given the vector xvec (k + 1 entries)
    of the variable; with `_removable`'s shifts, each removable quotient
    drops its operands' leading coefficients (and an order).  Only
    `enclose` passes a memo, so a direct call computes every product; a
    memoised xvec must be `_tvar`'s, which its box and order fix."""
    if len(xvec) != k + 1:
        raise ValueError(f"an order-{k} vector has {k + 1} entries, "
                         f"not {len(xvec)}")
    if memo is not None and xvec != _tvar(ctx, *xvec[0], k):
        raise ValueError("a memoised run takes _tvar's vector of the variable")
    return _run(ctx, node, xvec, _TAYLOR_OPS, shifts, memo)


# ---------------------------------------------------------------------------
# removable quotients: u/v with u(0) = v(0) = 0
#
# Where u(0) = 0, u(x)/x = integral_0^1 u'(tx) dt, so for xi in [0, b] the
# coefficient (u/x)^(j)(xi)/j! is a convex average of u^(j+1)/(j+1)! over
# [0, xi]: a box vector of u over [0, b], shifted by one, is one of u/x.
# Taking u/v as (u/x)/(v/x) never divides by a box around 0, at the cost of
# one order per shift.
# ---------------------------------------------------------------------------

def _shared_zeros(u, v):
    """Leading coefficients that u and v both have exactly (0, 0), keeping
    at least one of each."""
    s = 0
    while s + 1 < min(len(u), len(v)) and u[s] == (0, 0) == v[s]:
        s += 1
    return s


def _removable(ctx, node):
    """(shifts, depth) for node's removable quotients, (None, 0) if it has
    none, or None if its plan cannot run at 0.  shifts holds, for each `/`
    step, how many leading coefficients both operands have exactly (0, 0)
    at the point 0, with the rule applied to the steps before it; depth is the
    most orders one path to the root loses.  Exact zeros come only from
    exact operations on exact zeros, so the shifts do not depend on the
    precision: the finding is kept on the root node, beside its plan."""
    try:
        return node._removable
    except AttributeError:
        pass
    shifts = [None] * len(_plan(node)[0])
    try:
        out = _run(ctx, node, _tvar(ctx, 0, 0), _TAYLOR_OPS, shifts)
    except (DomainError, PoleError):
        out = None
    found = out and (tuple(shifts) if any(shifts) else None, TAYLOR_ORDER + 1 - len(out))
    object.__setattr__(node, "_removable", found)     # the nodes are frozen
    return found


def _from_zero(ctx, node, b):
    """The order-TAYLOR_ORDER vector of node over [0, b] (at the point 0
    when b = 0), each removable quotient taken as (u/x)/(v/x), so run at
    the order raised by the orders the shifts lose; None when the vector
    cannot be evaluated, at once when the plan cannot run at the point 0,
    which [0, b] holds."""
    if (found := _removable(ctx, node)) is None:
        return None
    shifts, depth = found
    k = TAYLOR_ORDER + depth
    try:
        # looked up at call time, so the traced benchmark counts it
        return eval_taylor(ctx, node, _tvar(ctx, 0, b, k), k, shifts,
                           memo=ctx.memo)
    except (DomainError, PoleError):
        return None


def _zero_form(ctx, node, a, b):
    """A lower end > 0 of node over [a, b]/2**prec, 0 < a < b, from the
    Taylor form about 0, or None.

    On [0, b], f(x) = sum_{j<K} f_j x^j + c0 x^K (K = TAYLOR_ORDER), f_j
    from the vector at the point 0 and c0, which holds f^(K)(xi)/K! for
    every xi in [0, b], from the one over [0, b] (`_from_zero`).  With v
    the first order whose f_j excludes 0, g = f/x^v on [a, b] is at least
    the sum of -|f_j| a^(j-v) for j < v and of f_j's lower end times a^e or
    b^e, e = j - v, for j >= v.  When f_v > 0, f >= g_lo a^v: the sum times
    a^v, exact at the scale 2**((K + 1) prec), rounded down once."""
    jet = _from_zero(ctx, node, 0)
    if jet is None:
        return None
    k, prec = TAYLOR_ORDER, ctx.prec
    v = next((j for j in range(k) if jet[j][0] > 0 or jet[j][1] < 0), k)
    box = None if v == k or jet[v][0] < 0 else _from_zero(ctx, node, b)
    if box is None:
        return None
    av, lo = a ** v, 0
    for j, c in enumerate(jet[:k] + [box[k]]):
        if j < v:
            t = -max(-c[0], c[1]) * a ** j
        else:
            t = c[0] * (b if c[0] < 0 else a) ** (j - v) * av
        lo += t << (k - j) * prec
    lo >>= k * prec
    return lo if lo > 0 else None


# ---------------------------------------------------------------------------
# adaptive enclosure: plain range + interval Taylor form
# ---------------------------------------------------------------------------

def _term(c, rs, j):
    """c [-r, r]^j, exact at the scale of c times rs[j] = r^j 2**((k - j)
    prec): [-r, r]^j is [0, r^j] for even j.  Formed from exact integer
    powers, so a tiny r^j cannot underflow before it multiplies a large
    coefficient."""
    return _xmul(c, (-rs[j] if j % 2 else 0, rs[j]))


@lru_cache(maxsize=None)
def _bernstein_weights(n):
    """(rows, d): rows[i][j] / d is the i-th degree-n Bernstein coefficient,
    on [0, 1], of (2s - 1)^j, which is t^j / r^j for t = r (2s - 1) in
    [-r, r].  The coefficient is the blossom of l^j, l(s) = 2s - 1, at n - i
    zeros and i ones, where l is -1 and 1: the mean over the j-subsets of
    n slots of the product of l there."""
    d = lcm(*(comb(n, j) for j in range(n + 1)))
    rows = tuple(
        tuple(d // comb(n, j) * sum((-1) ** (j - m) * comb(i, m) * comb(n - i, j - m)
                                    for m in range(j + 1))
              for j in range(n + 1))
        for i in range(n + 1))
    return rows, d


def _bernstein_lo(tm, rs):
    """Lower bound of sum_j tm[j] t^j over t in [-r, r] and over every
    choice of coefficients in the intervals tm[j], at the scale of tm[j]
    rs[j]: the least Bernstein coefficient, each a linear form in the
    tm[j] rs[j], formed exactly in integers and rounded down once."""
    rows, d = _bernstein_weights(len(tm) - 1)
    lo = [c[0] * sc for c, sc in zip(tm, rs)]
    hi = [c[1] * sc for c, sc in zip(tm, rs)]
    return min(sum(w * (lo[j] if w >= 0 else hi[j]) for j, w in enumerate(row))
               for row in rows) // d


def enclose(ctx, node, a, b, rem=None):
    """(enclosure, rem for sub-boxes) of node over [a, b]/2**prec.

    The enclosure is the plain range, intersected with the order-TAYLOR_ORDER
    Taylor form about the midpoint when the plain range does not decide the
    sign.  The form is P + c * [-r, r]^k, where P bounds the midpoint terms
    below order k and c bounds the order-k coefficient over the box.  On
    0 < a < b < 1 the form about 0 (`_zero_form`) comes between the two:
    a lower end > 0 from it replaces the plain range's, and rem is handed
    on with no midpoint vector built; else all goes on as below.

    Every term is exact at one scale, from powers of r formed once per
    box, and each form is the exact sum P + c * [-r, r]^k rounded outward
    once.  When P's lower end is <= 0 although the value at the midpoint
    is > 0, the lower end is raised to the least Bernstein coefficient of
    the midpoint polynomial on [-r, r]: term by term, c x^v > 0 cannot
    show on a box wider than about 1/v of its distance from 0.  The upper
    end is never changed.

    `rem`, if given, is such a c over a box enclosing [a, b]: it bounds the
    remainder here too.  Then the box vector is skipped when P with rem
    already decides the sign, or when P itself straddles 0 (the remainder
    term holds 0, so no c could decide), and rem is handed on.  Otherwise
    the box vector gives c.  When that form leaves the sign undecided while
    P decides it, and 0 <= a < b < 1, c becomes c intersected with the
    coefficient over [0, b] with each removable quotient taken as
    (u/x)/(v/x) (`_from_zero`): near 0, dividing by a box of x
    inflates c like a^-k.  That c is handed on; without `rem` the
    enclosure is always the full form.  No rem is handed on when a Taylor
    vector could not be evaluated.
    """
    enc = eval_plain(ctx, node, (a, b))
    if enc[0] > 0 or enc[1] < 0 or a == b:
        return enc, rem
    if 0 < a and b < ctx.one:
        lo = _zero_form(ctx, node, a, b)
        if lo is not None:
            return iisect(enc, (lo, enc[1])), rem
    k = TAYLOR_ORDER
    m = (a + b) // 2
    r = max(b - m, m - a)
    try:
        # the form reads tm[j] for j < k only: c bounds the remainder
        tm = eval_taylor(ctx, node, _tvar(ctx, m, m, k - 1), k - 1,
                         memo=ctx.memo)
    except (DomainError, PoleError):
        return enc, None
    # every term tm[j] [-r, r]^j is exact at the scale 2**((k + 1) prec),
    # with rs[j] = r^j 2**((k - j) prec); P is their sum for j < k
    sh = k * ctx.prec
    rs = [r ** j << (k - j) * ctx.prec for j in range(k + 1)]
    lo, hi = tm[0][0] << sh, tm[0][1] << sh
    for j in range(1, k):
        if tm[j] != (0, 0):
            p, q = _term(tm[j], rs, j)
            lo, hi = lo + p, hi + q
    # P's signs are read at the scale 2**prec of the forms' rounded ends:
    # when those of P straddle 0, so do those of every form
    if lo >> sh <= 0 < tm[0][0]:
        lo = max(lo, _bernstein_lo(tm, rs))
    straddles = lo >> sh <= 0 <= _ceil_shift(hi, sh)

    def form(c):
        # P + c [-r, r]^k, exact, rounded outward once
        p, q = _term(c, rs, k)
        return iisect(enc, ((lo + p) >> sh, _ceil_shift(hi + q, sh)))

    if rem is not None:
        # P is no enclosure by itself: its sign is read, never intersected
        out = form(rem)
        if out[0] > 0 or out[1] < 0 or straddles:
            return out, rem
    try:
        tx = eval_taylor(ctx, node, _tvar(ctx, a, b, k), k, memo=ctx.memo)
    except (DomainError, PoleError):
        return enc, None
    c = tx[k]
    out = form(c)
    # Over [0, b] the coefficient grows as b nears a singularity (pi/2 for
    # tan, and off the real axis for tanh): past b = 1 it seldom beats the
    # box's own.  The gate is on b, so every sub-box of an admitted box is
    # admitted: a box that inherits a [0, b] coefficient builds its own.
    if out[0] <= 0 <= out[1] and not straddles and 0 <= a and b < ctx.one:
        vec = _from_zero(ctx, node, b)
        if vec is not None:
            c = iisect(c, vec[k])
            out = form(c)
    return out, c
