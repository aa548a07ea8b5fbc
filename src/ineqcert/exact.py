"""Exact arithmetic: Bernoulli numbers, even-zeta ratios, binomials.

Bernoulli numbers come from integers: the Seidel-Entringer-Arnold
boustrophedon (Millar, Sloane & Young, JCTA 76, 1996) builds each row as
the running sum of the previous row read in reverse, and the last entry of
row 2m-1 is the tangent number T_m (Brent & Harvey, arXiv:1108.0286), so

    B_2m = (-1)^(m-1) * 2m * T_m / (4^m * (4^m - 1)).

Extending the table takes integer additions only; the values handed out,
B_n and the zeta ratios, are `fractions.Fraction`.  The Bernoulli
convention is B1 = -1/2, the one forced by the generating function
x/(e^x - 1); even-index values are the same under both sign conventions.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

from .errors import DomainError

__all__ = ["bernoulli", "zeta_even_ratio", "binomial"]

# B_0, B_2, B_4, ...; the list only grows, so readers take no lock
_EVEN: list[Fraction] = [Fraction(1)]
# the last boustrophedon row built; row r has r + 1 entries
_ROW = [1]
_LOCK = threading.Lock()


def _extend(m: int) -> None:
    global _ROW
    with _LOCK:
        row = _ROW
        while len(_EVEN) <= m:
            row = list(accumulate(reversed(row), initial=0))
            j = len(_EVEN)
            if len(row) == 2 * j:  # row 2j-1 ends in the tangent number T_j
                t = row[-1] if j % 2 else -row[-1]
                _EVEN.append(Fraction(2 * j * t, 4 ** j * (4 ** j - 1)))
        # stored last, so an interrupted extension leaves the row behind the
        # table, never ahead, and the loop above catches up without appending
        _ROW = row


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
