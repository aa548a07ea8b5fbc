"""Rational interval arithmetic with certified elementary enclosures.

Endpoints are exact Fractions and the operators round nothing, so results
are the tightest rational intervals.  Products and powers take their ends
from `_core`'s exact sign tables (`_xmul`, `_xpow`), and a quotient is the
product with the exact reciprocal of its divisor.  `round_out` optionally
widens endpoints to dyadics of a chosen precision to keep numbers small
inside long computations.  Elementary functions and pi come from the
fixed-point engine in `_core`, which rounds outward at every step.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from numbers import Rational

from . import _core
from ._record import Record
from .errors import DomainError, PoleError

__all__ = [
    "Interval", "elem_enclose", "pi_enclose", "DomainError", "PoleError",
]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, Rational)):
        return Fraction(v)
    raise TypeError(f"expected a rational value, got {type(v).__name__}")


class Interval(Record):
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        lo, hi = _frac(lo), _frac(hi)
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, v) -> "Interval":
        f = _frac(v)
        return cls(f, f)

    @classmethod
    def scaled(cls, lo: int, hi: int, scale: int) -> "Interval":
        """[lo/scale, hi/scale] from `_core`'s integers, scale > 0, checked as ints."""
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo}/{scale} > hi={hi}/{scale}")
        iv = object.__new__(cls)
        object.__setattr__(iv, "lo", Fraction(lo, scale))
        object.__setattr__(iv, "hi", Fraction(hi, scale))
        return iv

    # --- queries ---------------------------------------------------------
    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return self.lo if self.lo == self.hi else (self.lo + self.hi) / 2

    def contains(self, v) -> bool:
        f = _frac(v)
        return self.lo <= f <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # --- arithmetic (exact, inclusion-isotonic) ---------------------------
    def __add__(self, other):
        o = _as_interval(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = _as_interval(other)
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        o = _as_interval(other)
        return Interval(*_core._xmul((self.lo, self.hi), (o.lo, o.hi)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_interval(other)
        if o.lo <= 0 <= o.hi:
            raise PoleError(
                f"division by an interval containing 0: [{o.lo}, {o.hi}]")
        return self * Interval(1 / o.hi, 1 / o.lo)

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("interval powers require an integer exponent")
        if e == 0:
            return Interval(Fraction(1), Fraction(1))
        if e < 0:
            return Interval.point(1) / self ** (-e)
        return Interval(*_core._xpow((self.lo, self.hi), e))

    # --- rounding ---------------------------------------------------------
    def round_out(self, bits: int) -> "Interval":
        """Widen outward to endpoints with denominator 2**bits."""
        scale = 1 << bits
        lo = Fraction((self.lo.numerator * scale) // self.lo.denominator, scale)
        hi = Fraction(-((-self.hi.numerator * scale) // self.hi.denominator), scale)
        return Interval(lo, hi)

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


def _as_interval(v) -> Interval:
    if isinstance(v, Interval):
        return v
    return Interval.point(v)


_pi_lock = threading.Lock()
_pi_best: Interval | None = None


def pi_enclose(width_target) -> Interval:
    """A rational interval of width <= width_target certified to contain pi.

    Successive calls refine a shared bracket, so results nest: a tighter
    request returns an interval contained in every looser one.
    """
    global _pi_best
    wt = _frac(width_target)
    if wt <= 0:
        raise DomainError("width_target must be positive")
    with _pi_lock:
        if _pi_best is not None and _pi_best.width <= wt:
            return _pi_best
        prec = 16
        while Fraction(4, 1 << prec) > wt:
            prec += 32
        prec += 8
        cand = Interval.scaled(*_core._pi_bracket(prec), 1 << prec)
        if _pi_best is not None:
            cand = Interval(max(cand.lo, _pi_best.lo), min(cand.hi, _pi_best.hi))
        _pi_best = cand
        return cand


def _bits_for_width(wt: Fraction) -> int:
    bits = 16
    while Fraction(1, 1 << bits) > wt and bits < 4096:
        bits += 16
    return bits + 16


_ctx_lock = threading.Lock()
_ctx_cache: dict[int, _core.Ctx] = {}


def get_ctx(prec: int) -> _core.Ctx:
    with _ctx_lock:
        ctx = _ctx_cache.get(prec)
        if ctx is None:
            ctx = _core.Ctx(prec)
            _ctx_cache[prec] = ctx
        return ctx


def elem_enclose(fn: str, x: Interval, width_target) -> Interval:
    """Certified enclosure of fn over x.

    The result width is at most width_target plus the amplification due to
    x's own width (the spread of fn over x).  sin/cos accept x within
    [-4, 4]; tan requires a cos enclosure excluding 0; hyperbolic functions
    accept [-32, 32].
    """
    if fn not in _core.FUNCTIONS:
        raise DomainError(f"unknown function {fn!r}")
    wt = _frac(width_target)
    if wt <= 0:
        raise DomainError("width_target must be positive")
    ctx = get_ctx(max(64, _bits_for_width(wt)))
    a = ctx.lo_of(x.lo)
    b = ctx.hi_of(x.hi)
    return Interval.scaled(*_core.fn_range(ctx, fn, a, b), ctx.one)
