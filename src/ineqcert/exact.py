"""Exact arithmetic: Bernoulli numbers, even-zeta ratios, binomials.

Bernoulli numbers come from integers: Brent & Harvey's TangentNumbers
recurrence (arXiv:1108.0286) gives the tangent number T_j as
entry j of a table that stage k = 2..j updates by

    T_j <- (j - k) * T_(j-1) + (j - k + 2) * T_j,    T_j = (j - 1)! before,

with T_(j-1) already at stage k.  The stages of entry j need only those of
entry j - 1, so the table grows one column at a time, and

    B_2m = (-1)^(m-1) * 2m * T_m / (4^m * (4^m - 1)).

Extending the table takes integer products and sums only; the values
handed out, B_n and the zeta ratios, are `fractions.Fraction`.  The Bernoulli
convention is B1 = -1/2, the one forced by the generating function
x/(e^x - 1); even-index values are the same under both sign conventions.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial

from .errors import DomainError

__all__ = ["bernoulli", "zeta_even_ratio", "binomial"]

# B_0, B_2, B_4, ...; the list only grows, so readers take no lock
_EVEN: list[Fraction] = [Fraction(1), Fraction(1, 6)]
# (j, column): entry j of TangentNumbers after each of its stages 1..j, so
# the last value is T_j; T_1 = 1 gives B_2 = 1/6 above
_COL = (1, [1])
_LOCK = threading.Lock()


def _extend(m: int) -> None:
    global _COL
    with _LOCK:
        j, col = _COL
        while len(_EVEN) <= m:
            j += 1
            v = (j - 1) * col[0]
            nxt = [v]
            for a, c in zip(range(j - 2, 0, -1), col[1:]):  # a = j - k
                v = a * c + (a + 2) * v
                nxt.append(v)
            nxt.append(2 * v)                     # stage k = j
            col = nxt
            if j == len(_EVEN):
                t = col[-1] if j % 2 else -col[-1]
                _EVEN.append(Fraction(2 * j * t, 4 ** j * (4 ** j - 1)))
        # stored last, so an interrupted extension leaves the column behind
        # the table, never ahead, and the loop above catches up without
        # appending
        _COL = (j, col)


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2; results are cached and repeated calls are pure."""
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    if m >= len(_EVEN):
        _extend(m)
    return _EVEN[m]


def zeta_even_ratio(q: int) -> Fraction:
    """The exact rational r with zeta(2q) = r * pi^(2q).

    r = (-1)^(q-1) * 2^(2q-1) * B_{2q} / (2q)!
    """
    if q < 1:
        raise DomainError("zeta_even_ratio requires q >= 1")
    return (-1) ** (q - 1) * 2 ** (2 * q - 1) * bernoulli(2 * q) / factorial(2 * q)


def binomial(n: int, k: int) -> int:
    """C(n, k) exactly; k > n or negative arguments are domain errors."""
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"binomial({n}, {k}) is outside 0 <= k <= n")
    return comb(n, k)
