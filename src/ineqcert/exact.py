"""Exact arithmetic: Bernoulli numbers and even-zeta ratios.

Bernoulli numbers come from integers: Brent & Harvey's TangentNumbers
recurrence (arXiv:1108.0286) gives the tangent number T_j as
entry j of a table that stage k = 2..j updates by

    T_j <- (j - k) * T_(j-1) + (j - k + 2) * T_j,    T_j = (j - 1)! before,

with T_(j-1) already at stage k.  The stages of entry j need only those of
entry j - 1, so the table grows one column at a time, and

    B_2m = (-1)^(m-1) * 2m * T_m / (4^m * (4^m - 1)).

The table keeps the integers T_m (`tangent`).  It is the one process-wide
table of exact values: `bernoulli` forms its `fractions.Fraction` from it on
each call, and `series` keeps no coefficient it forms from it.  The Bernoulli
convention is B1 = -1/2, the one forced by the generating function
x/(e^x - 1); even-index values are the same under both sign conventions.

Every T_m is >= 1: the table starts at T_1 = 1, entry j starts at
(j - 1)!, and each stage adds positive multiples of positive integers (the
last one doubles).  So the weight |B_2m|/(2m)! is > 0, and the positive
proof steps of T3.1, T3.2 and T3.5 (`series.sign_function`) take their sign
from an integer kernel without reading this table.  It is read by
`bernoulli` and `zeta_even_ratio`, and through `series` by every value of a
Bernoulli-weighted coefficient: `lemma_coeff`, `theorem_coeff`, the partial
sums of `eval_series`, an increasing check of such a series, and the value
a failing positive step reports.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial

from .errors import DomainError

__all__ = ["bernoulli", "tangent", "zeta_even_ratio"]

# _TAN[m] = T_m (entry 0 unused); the list only grows, so readers take no lock
_TAN: list[int] = [0, 1]
# (j, column): entry j of TangentNumbers after each of its stages 1..j, so
# the last value is T_j
_COL = (1, [1])
_LOCK = threading.Lock()


def _extend(m: int) -> None:
    global _COL
    with _LOCK:
        j, col = _COL
        while len(_TAN) <= m:
            j += 1
            v = (j - 1) * col[0]
            nxt = [v]
            for a, c in zip(range(j - 2, 0, -1), col[1:]):  # a = j - k
                v = a * c + (a + 2) * v
                nxt.append(v)
            nxt.append(2 * v)                     # stage k = j
            col = nxt
            if j == len(_TAN):
                _TAN.append(col[-1])
        # stored last, so an interrupted extension leaves the column behind
        # the table, never ahead, and the loop above catches up without
        # appending
        _COL = (j, col)


def tangent(m: int) -> int:
    """The tangent number T_m, m >= 1: tan x = sum T_m x^(2m-1)/(2m-1)!."""
    if m < 1:
        raise DomainError("tangent index must be >= 1")
    if m >= len(_TAN):
        _extend(m)
    return _TAN[m]


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, formed from the tangent number on each call."""
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    return Fraction((-1) ** (m - 1) * 2 * m * tangent(m),
                    ((1 << 2 * m) - 1) << 2 * m)


def zeta_even_ratio(q: int) -> Fraction:
    """The exact rational r with zeta(2q) = r * pi^(2q).

    r = (-1)^(q-1) * 2^(2q-1) * B_{2q} / (2q)!
    """
    if q < 1:
        raise DomainError("zeta_even_ratio requires q >= 1")
    return (-1) ** (q - 1) * 2 ** (2 * q - 1) * bernoulli(2 * q) / factorial(2 * q)
