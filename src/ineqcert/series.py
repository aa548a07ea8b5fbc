"""Exact series coefficients and rigorous truncation tails.

Lemma kinds (signed coefficient of x^exponent_of(n); `singular_part` holds
the excluded terms c/x^p as pairs (c, p), summed with no per-kind code):

  X_OVER_SIN      x/sin x        = 1 + sum_{n>=1} 2(2^(2n-1)-1)|B_2n|/(2n)! x^(2n)
  COT             cot x          = 1/x - sum_{n>=1} 2^(2n)|B_2n|/(2n)! x^(2n-1)
  CSC2            1/sin^2 x      = 1/x^2 + sum_{n>=1} 2^(2n)(2n-1)|B_2n|/(2n)! x^(2n-2)
  COS_OVER_SIN2   cos x/sin^2 x  = 1/x^2 - sum_{n>=1} 2(2n-1)(2^(2n-1)-1)|B_2n|/(2n)! x^(2n-2)
  CSC3            1/sin^3 x      = 1/x^3 + 1/(2x) + (1/2) sum_{n>=1} [....] x^(2n-1)
  COS_OVER_SIN3   cos x/sin^3 x  = 1/x^3 - sum_{n>=2} (2n-1)(n-1)2^(2n)|B_2n|/(2n)! x^(2n-3)
  SINH, COSH      entire expansions

Theorem-proof series (the ratio numerator/denominator expansions used to
prove the sharp bounds; `_DIFF` entries are the exact difference series that
settle each claim near 0):

  T3.1_F   ((n-2)2^(2n+1)+4(n+1)) |B_2n|/(2n)!        x^(2n-4), n>=2
  T3.2_G   (4^n(2n-3)+3+3n-2n^2)  |B_2n|/(2n)!        x^(2n-4), n>=2
  T3.5_F   ((6n-8)2^(2n)+8)       |B_2n|/(2n)!        x^(2n-4), n>=2
  T3.3_A/B (2^(2n+1)-6n-2)/(2n)!  and 4n(n-1)(4n^2-1)/(2n)!,  x^(2n), n>=2
  T3.4_A   (n(3^(2n-1)/2-(n-1)2^(2n)-8n+9/2)+2^(2n+1)-4)/(2n)!  x^(2n), n>=3
  T3.4_B   (1+2^(2n-6))(2n-4)(2n-3)(2n-2)(2n-1)2n/(2n)!       x^(2n), n>=3
  T3.x_DIFF = A - (p/q) B, p/q the theorem's `zero_value` (vanishes at the
            start index; leading term -x^6/40 for T3.3, 47 x^8/3024 for T3.4)

The ratio c_n = a_n/b_n of T3.3 and T3.4 is role c, the integer numerators
of A and B over their common (2n)!.  Every coefficient is an unnormalised
integer pair (num, den), den > 0, with |B_2n|/(2n)! = T_n/((2n-1)! 4^n
(4^n-1)) from the tangent number T_n.  `CoeffSeq.pair` and `theorem_pair`
hand out pairs; `coeff`, `lemma_coeff` and `theorem_coeff` normalise once.
No coefficient is kept: each call forms its value again, and `exact`'s
tangent list is the one table of exact values behind them.

A series whose coefficient is k_n |B_2n|/(2n)! states only its integer
`kernel` k_n (the T3.x_F/G rows above, and COT, CSC2, COS_OVER_SIN2 and
COS_OVER_SIN3); `pair` multiplies in the weight.  The weight is > 0, since
T_n >= 1 (see `exact`), so `sign_function` reads a sign off k_n alone: the
positive proof steps of T3.1, T3.2 and T3.5 read no tangent number.  Every
coefficient value, and so every partial sum, still does.  Each power of 2
or 4 in a kernel, numerator or weight is written as a shift.

Tail bounds replace |B_2n|/(2n)! by 4/(2 pi)^(2n) (valid since
|B_2n|/(2n)! = 2 zeta(2n)/(2 pi)^(2n) and zeta(2n) <= zeta(2) < 2) and close
the remaining sum geometrically, so truncated evaluation is a certified
enclosure.  The terms before the geometric close, and the one it starts
from, are a polynomial in u = (x/PI_LO)^2 (trig kinds) or (base*x)^2
(entire kinds), summed by `exact_sum` in integers with one normalisation.

Partial sums are exact.  Every registered exponent is >= 0 (checked at
registration) and sums are taken over x >= 0, so each term c*x^e is monotone
in x: the least value of the partial sum on [a, b] is the positive terms at
a plus the negative terms at b, and the greatest the mirror image.
`exact_sum` forms such a sum in integers over one common denominator and
normalises it once, giving the same rational as a term-by-term sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Optional

from ._record import Record
from .errors import DomainError
from .exact import bernoulli, tangent  # noqa: F401 (bernoulli: perfbench)
from .interval import Interval

__all__ = [
    "CoeffSeq", "TailBound", "get_series", "series_ids",
    "lemma_coeff", "theorem_coeff", "theorem_pair", "sign_function",
    "tail_bound",
    "eval_series", "coeff_row", "exact_sum",
    "LEMMA_KINDS", "Theorem", "THEOREMS",
]

# Certified rational bound pi > PI_LO; tails only need a lower bound.
PI_LO = Fraction(314159265358979, 10 ** 14)
# delta-margin 1/64 from the radius for trigonometric tails.
TRIG_X_MAX = PI_LO * Fraction(63, 64)
_RHO_MAX = 1 - Fraction(1, 1024)


def _w(k: int, n: int) -> tuple:
    """k |B_2n|/(2n)! as the pair (k T_n, (2n-1)! 4^n (4^n-1))."""
    return k * tangent(n), (factorial(2 * n - 1) * ((1 << 2 * n) - 1)) << 2 * n


def _row(poly: tuple, n0: int, top: int, weights: list) -> tuple:
    """sum_{n >= n0} poly(n) * weights[n - n0]/top * y^n as `exact_sum`'s
    half (den, ((num, n), ...))."""
    den = lcm(*(Fraction(c).denominator for c in poly))
    ipoly = [int(Fraction(c) * den) for c in poly]
    return den * top, tuple(
        (sum(c * n ** i for i, c in enumerate(ipoly)) * w, n)
        for n, w in enumerate(weights, n0))


class _Geo(Record):
    """Dominating term poly(n) * (x/PI_LO)^(2n) * x^shift (trig kinds)."""

    poly: tuple
    shift: int

    def ratio(self, n: int, x: Fraction) -> Fraction:
        u = (x / PI_LO) ** 2
        deg = len(self.poly) - 1
        return u * Fraction(n + 1, n) ** deg

    def row(self, n0: int, m: int, x: Fraction) -> tuple:
        """The terms n0 <= n < m without x^shift, as an `exact_sum` part
        in the variable u."""
        return _row(self.poly, n0, 1, [1] * (m - n0)), (x / PI_LO) ** 2


class _Fact(Record):
    """Dominating term poly(n) * (base*x)^(2n)/(2n)! * x^shift (entire kinds)."""

    poly: tuple
    base: int
    shift: int

    def ratio(self, n: int, x: Fraction) -> Fraction:
        deg = len(self.poly) - 1
        return ((self.base * x) ** 2 / ((2 * n + 1) * (2 * n + 2))
                * Fraction(n + 1, n) ** deg)

    def row(self, n0: int, m: int, x: Fraction) -> tuple:
        """The terms n0 <= n < m without x^shift, as an `exact_sum` part
        in the variable (base*x)^2 over the denominator (2(m-1))!."""
        top = factorial(2 * (m - 1))
        return (_row(self.poly, n0, top,
                     [top // factorial(2 * n) for n in range(n0, m)]),
                (self.base * x) ** 2)


class CoeffSeq(Record):
    """A named exact coefficient sequence with tail metadata."""

    id: str
    start_index: int
    expo_offset: int                       # exponent_of(n) = 2n + expo_offset
    coeff_fn: Optional[Callable[[int], tuple]]  # n -> (num, den), den > 0
    radius: str                            # "pi" or "inf"
    singular_part: Optional[tuple]         # ((c, p), ...): sum of c/x^p
    components: tuple
    # n -> k_n, the coefficient being k_n |B_2n|/(2n)!; set in place of coeff_fn
    kernel: Optional[Callable[[int], int]] = None

    def exponent_of(self, n: int) -> int:
        return 2 * n + self.expo_offset

    def pair(self, n: int) -> tuple:
        if n < self.start_index:
            raise DomainError(
                f"{self.id}: index {n} below start index {self.start_index}")
        if self.kernel is None:
            return self.coeff_fn(n)
        return _w(self.kernel(n), n)

    def coeff(self, n: int) -> Fraction:
        return Fraction(*self.pair(n))


class TailBound(Record):
    """bound >= sum_{n>N} |coeff(n)| * x_upper^exponent_of(n)."""

    kind: str
    N: int
    x_upper: Fraction
    bound: Fraction


# --- coefficient formulas ---------------------------------------------------

def _c_x_over_sin(n):
    if n == 0:
        return 1, 1
    return _w(2 * ((1 << 2 * n - 1) - 1), n)


def _k_cot(n):
    return -(1 << 2 * n)


def _k_csc2(n):
    return (2 * n - 1) << 2 * n


def _k_cos_over_sin2(n):
    return -2 * (2 * n - 1) * ((1 << 2 * n - 1) - 1)


def _c_csc3(n):
    # [(2^(2n+1)-1)|B_2n+2|/(n+1) + (2^(2n-1)-1)|B_2n|/n] / (2(2n-1)!)
    a1, d1 = _w(((1 << 2 * n + 1) - 1) * 2 * n * (2 * n + 1), n + 1)
    a0, d0 = _w((1 << 2 * n - 1) - 1, n)
    return a1 * d0 + a0 * d1, d0 * d1


def _k_cos_over_sin3(n):
    return -((2 * n - 1) * (n - 1) << 2 * n)


def _c_sinh(n):
    return 1, factorial(2 * n + 1)


def _c_cosh(n):
    return 1, factorial(2 * n)


def _k_t31(n):
    return ((n - 2) << 2 * n + 1) + 4 * (n + 1)


def _b_t32(n):
    return ((2 * n - 3) << 2 * n) + (3 + 3 * n - 2 * n * n)


def _k_t35(n):
    return ((6 * n - 8) << 2 * n) + 8


# T3.3 and T3.4: integer numerators over the common denominator (2n)!

def _na_t33(n):
    return (1 << 2 * n + 1) - 6 * n - 2


def _nb_t33(n):
    return 4 * n * (n - 1) * (4 * n * n - 1)


def _c_t33(n):
    return _na_t33(n), _nb_t33(n)


def _na_t34(n):
    # 3^(2n-1) + 9 is even, so the docstring's halves make an integer
    return (n * ((3 ** (2 * n - 1) + 9) // 2 - ((n - 1) << 2 * n) - 8 * n)
            + (1 << 2 * n + 1) - 4)


def _nb_t34(n):
    return ((1 + (1 << 2 * n - 6)) * (2 * n - 4) * (2 * n - 3)
            * (2 * n - 2) * (2 * n - 1) * 2 * n)


def _c_t34(n):
    return _na_t34(n), _nb_t34(n)


_REGISTRY = {}


def _register(seq: CoeffSeq):
    # exact_sum's monotone endpoints need x^e nondecreasing on x >= 0
    if seq.exponent_of(seq.start_index) < 0:
        raise DomainError(
            f"{seq.id}: negative exponent {seq.exponent_of(seq.start_index)} "
            f"at start index {seq.start_index}")
    _REGISTRY[seq.id] = seq
    return seq


_register(CoeffSeq("X_OVER_SIN", 0, 0, _c_x_over_sin, "pi", None,
                   (_Geo((4,), 0),)))
_register(CoeffSeq("COT", 1, -1, None, "pi", ((1, 1),),
                   (_Geo((4,), -1),), kernel=_k_cot))
_register(CoeffSeq("CSC2", 1, -2, None, "pi", ((1, 2),),
                   (_Geo((0, 8), -2),), kernel=_k_csc2))
_register(CoeffSeq("COS_OVER_SIN2", 1, -2, None, "pi", ((1, 2),),
                   (_Geo((0, 8), -2),), kernel=_k_cos_over_sin2))
_register(CoeffSeq("CSC3", 1, -1, _c_csc3, "pi", ((1, 3), (Fraction(1, 2), 1)),
                   (_Geo((4, Fraction(8, 9), Fraction(16, 9)), -1),)))
_register(CoeffSeq("COS_OVER_SIN3", 2, -3, None, "pi", ((1, 3),),
                   (_Geo((0, 0, 8), -3),), kernel=_k_cos_over_sin3))
_register(CoeffSeq("SINH", 0, 1, _c_sinh, "inf", None,
                   (_Fact((1,), 1, 1),)))
_register(CoeffSeq("COSH", 0, 0, _c_cosh, "inf", None,
                   (_Fact((1,), 1, 0),)))
LEMMA_KINDS = tuple(_REGISTRY)

_register(CoeffSeq("T3.1_F", 2, -4, None, "pi", None,
                   (_Geo((0, 12), -4),), kernel=_k_t31))
_register(CoeffSeq("T3.2_G", 2, -4, None, "pi", None,
                   (_Geo((0, 12), -4),), kernel=_b_t32))
_register(CoeffSeq("T3.5_F", 2, -4, None, "pi", None,
                   (_Geo((0, 24), -4),), kernel=_k_t35))


class Theorem(Record):
    """One sharp bound zero_value < F(x) < right_value, F = num/den (the
    hyperbolic theorems have no right-hand constant).

    `series` settles the corpus `stanzas` (lower side, then upper side).
    With two stanzas it is F's own series and each stanza difference is
    den times its distance from the constant; with one, it is `prefactor`
    times the stanza difference, or the derivative of that product when
    `derivative_series` is set.
    """

    id: str
    start: int                       # first index of every theorem sequence
    roles: dict                      # role -> series id or exact function
    zero_role: str                   # its value at `start` is the limit at 0
    zero_value: Fraction
    right_value: Optional[str]       # pi/2 closed form
    right_bracket: Optional[tuple]   # the paper's decimals around it
    num: str
    den: str
    series: str
    stanzas: tuple
    sequences: dict                  # sequence id -> role
    prefactor: Optional[str] = None
    derivative_series: bool = False  # series is d/dx of the difference


THEOREMS = {t.id: t for t in (
    Theorem("T3.1", 2, {"f": "T3.1_F"}, "f", Fraction(1, 60),
            "(8*pi-24)/pi^3", (Fraction("0.0365326"), Fraction("0.0365327")),
            "2*x/sin(x) + x/tan(x) - 3", "x^3*sin(x)", "T3.1_F",
            ("THM31_LO", "THM31_HI"), {"S_T31": "f"}),
    Theorem("T3.2", 2, {"g": "T3.2_G", "b": lambda n: (_b_t32(n), 1)}, "g",
            Fraction(17, 720), "(pi^2+8*pi-32)/(2*pi^3)",
            (Fraction("0.0484151"), Fraction("0.0484152")),
            "x/sin(x) + ((x/2)/tan(x/2))^2 - 2", "x^3*sin(x)", "T3.2_G",
            ("THM32_LO", "THM32_HI"), {"S_T32_B": "b", "S_T32_G": "g"}),
    Theorem("T3.3", 2, {"a": "T3.3_A", "b": "T3.3_B", "c": _c_t33}, "c",
            Fraction(3, 20), None, None,
            "2*sinh(x)/x + tanh(x)/x - 3", "x^3*tanh(x)", "T3.3_DIFF",
            ("THM33",), {"S_T33_C": "c"},
            prefactor="x*cosh(x)", derivative_series=True),
    Theorem("T3.4", 3, {"a": "T3.4_A", "b": "T3.4_B", "c": _c_t34}, "c",
            Fraction(23, 720), None, None,
            "sinh(x)/x + (tanh(x/2)/(x/2))^2 - 2", "x^3*tanh(x)", "T3.4_DIFF",
            ("THM34",), {"S_T34_C": "c"},
            prefactor="x^2*cosh(x)*(1+cosh(x))"),
    Theorem("T3.5", 2, {"f": "T3.5_F"}, "f", Fraction(1, 10),
            "(12*pi-32)/pi^3", (Fraction("0.1838051"), Fraction("0.1838052")),
            "3*x/sin(x) + cos(x) - 4", "x^3*sin(x)", "T3.5_F",
            ("THM35_LO", "THM35_HI"), {"S_T35": "f"}),
)}


def _register_ratio(thm: str, na, nb, a_parts: tuple, b_parts: tuple) -> None:
    """Register thm's A = na(n)/(2n)!, B = nb(n)/(2n)! and DIFF = A - (p/q) B
    with p/q its `zero_value`; DIFF's tail is A's parts plus p/q times B's."""
    start, zero = THEOREMS[thm].start, THEOREMS[thm].zero_value
    p, q = zero.numerator, zero.denominator
    _register(CoeffSeq(f"{thm}_A", start, 0,
                       lambda n: (na(n), factorial(2 * n)),
                       "inf", None, a_parts))
    _register(CoeffSeq(f"{thm}_B", start, 0,
                       lambda n: (nb(n), factorial(2 * n)),
                       "inf", None, b_parts))
    _register(CoeffSeq(
        f"{thm}_DIFF", start, 0,
        lambda n: (q * na(n) - p * nb(n), q * factorial(2 * n)),
        "inf", None,
        a_parts + tuple(_Fact(tuple(zero * c for c in f.poly), f.base, f.shift)
                        for f in b_parts)))


_register_ratio("T3.3", _na_t33, _nb_t33, (_Fact((2,), 2, 0),),
                (_Fact((0, 0, 0, 0, 16), 1, 0),))
_register_ratio("T3.4", _na_t34, _nb_t34,
                (_Fact((0, Fraction(1, 6)), 3, 0), _Fact((0, 0, 1), 2, 0),
                 _Fact((4, Fraction(9, 2), 8), 1, 0), _Fact((2,), 2, 0)),
                (_Fact((0, 0, 0, 0, 0, 32), 1, 0),
                 _Fact((0, 0, 0, 0, 0, Fraction(1, 2)), 2, 0)))


def series_ids():
    return tuple(_REGISTRY)


def get_series(kind: str) -> CoeffSeq:
    seq = _REGISTRY.get(kind)
    if seq is None:
        raise DomainError(f"unknown series kind {kind!r}")
    return seq


def lemma_coeff(kind: str, n: int) -> Fraction:
    """Signed coefficient of x^exponent_of(n) in the named lemma expansion."""
    if kind not in LEMMA_KINDS:
        raise DomainError(f"unknown lemma kind {kind!r}")
    return get_series(kind).coeff(n)


def theorem_pair(thm: str, role: str, n: int) -> tuple:
    """Exact theorem-proof sequence values as pairs (num, den), den > 0.

    Roles: f/g are full series coefficients (including the |B_2n|/(2n)!
    factor where the proof carries it), a/b are the hyperbolic numerator /
    denominator series coefficients, b of T3.2 is the integer sequence b_n,
    and c is the ratio a_n/b_n, formed from the integer numerators of a_n and
    b_n over their common (2n)!.
    """
    source = _source(thm, role, n)
    if callable(source):
        return source(n)
    return get_series(source).pair(n)


def _source(thm: str, role: str, n: int):
    """thm's source for role, an exact function or a series id, once thm,
    role and the index n are checked."""
    t = THEOREMS.get(thm)
    if t is None or role not in t.roles:
        raise DomainError(f"no sequence for theorem {thm!r} role {role!r}")
    if n < t.start:
        raise DomainError(f"{thm} sequences start at n={t.start}, got {n}")
    return t.roles[role]


def sign_function(thm: str, role: str, n: int) -> Callable[[int], int]:
    """A function that gives, for each index from n on, an integer with the
    sign of `theorem_pair(thm, role, index)`'s value; thm, role and n are
    checked here, once.

    For a series with a kernel it is k_n, whose weight |B_2n|/(2n)! is > 0
    (T_n >= 1), so no tangent number is formed; otherwise it is the pair's
    numerator, its den being > 0.
    """
    source = _source(thm, role, n)
    kernel = get_series(source).kernel if isinstance(source, str) else None
    if kernel is not None:
        return kernel
    return lambda k: theorem_pair(thm, role, k)[0]


def theorem_coeff(thm: str, role: str, n: int) -> Fraction:
    """`theorem_pair`'s value as a Fraction."""
    return Fraction(*theorem_pair(thm, role, n))


def tail_bound(kind: str, N: int, x_upper) -> TailBound:
    """Certified U >= sum_{n>N} |coeff(n)| x_upper^exponent_of(n)."""
    seq = get_series(kind)
    x = Fraction(x_upper)
    if N < seq.start_index:
        raise DomainError(f"{kind}: N={N} below start index")
    if x <= 0:
        raise DomainError("x_upper must be positive")
    if seq.radius == "pi" and x > TRIG_X_MAX:
        raise DomainError(
            f"{kind}: x_upper={x} too close to the radius pi "
            f"(limit {TRIG_X_MAX})")
    total = Fraction(0)
    for comp in seq.components:
        # sum term-wise up to the first index m whose term ratio contracts,
        # then close the rest geometrically at that ratio
        for m in range(N + 1, N + 601):
            rho = comp.ratio(m, x)
            if rho < Fraction(1, 2) or (m - N > 200 and rho < _RHO_MAX):
                break
        else:
            raise DomainError(f"{kind}: tail does not contract at x={x}")
        # the closing term: y^m, already in lowest terms, times the row's
        # small factor, so no gcd of two large integers is taken
        (den, ((num, _),)), y = comp.row(m, m + 1, x)
        total += y ** m * Fraction(num, den) * x ** comp.shift / (1 - rho)
        if m > N + 1:
            total += exact_sum(comp.row(N + 1, m, x)) * x ** comp.shift
    return TailBound(kind, N, x, total)


def coeff_row(kind: str, n_from: int, N: int) -> tuple:
    """The nonzero coefficients of `kind` for n_from <= n <= N, split by sign.

    Returns (positive, negative); each half is (den, ((num, e), ...)) with
    the terms num/den * x^e in increasing e over one common denominator.
    """
    seq = get_series(kind)
    halves = ([], [])
    for n in range(n_from, N + 1):
        c = seq.coeff(n)
        if c:
            halves[c < 0].append((c, seq.exponent_of(n)))
    rows = []
    for half in halves:
        den = lcm(*(c.denominator for c, _ in half))
        rows.append((den, tuple((c.numerator * (den // c.denominator), e)
                                for c, e in half)))
    return tuple(rows)


def exact_sum(*parts) -> Fraction:
    """Exact sum over (half, x) parts of the half's terms num/den * x^e.

    Each half is formed in integers, in increasing e with the powers of x's
    numerator built incrementally; the parts meet over the product of their
    denominators and only the result is normalised.
    """
    top, bottom = 0, 1
    for (den, terms), x in parts:
        p, q = x.numerator, x.denominator
        num, e_prev, p_pow = 0, 0, 1
        for a, e in terms:
            p_pow *= p ** (e - e_prev)
            num = num * q ** (e - e_prev) + a * p_pow
            e_prev = e
        den *= q ** e_prev
        top, bottom = top * den + num * bottom, bottom * den
    return Fraction(top, bottom)


def eval_series(kind: str, x: Interval, N: int, full_value: bool = False) -> Interval:
    """Certified enclosure of the series over the interval x.

    The partial sum through index N is exact: since x >= 0 and every
    exponent is >= 0, its lower end is the positive terms at x.lo plus the
    negative terms at x.hi (the upper end the mirror image), each end formed
    by `exact_sum` with one normalisation.  It is widened by `tail_bound` at
    x.hi, which checks N and the radius.  With `full_value`, the singular
    terms c/x^p are added so the result encloses the closed-form function.
    """
    seq = get_series(kind)
    needs_positive = (seq.expo_offset < 0 or seq.singular_part is not None
                      or full_value)
    if x.lo < 0 or (needs_positive and x.lo == 0):
        raise DomainError(f"{kind}: interval must lie in x > 0")
    tb = tail_bound(kind, N, x.hi).bound
    pos, neg = coeff_row(kind, seq.start_index, N)
    acc = Interval(exact_sum((pos, x.lo), (neg, x.hi)) - tb,
                   exact_sum((pos, x.hi), (neg, x.lo)) + tb)
    if full_value and seq.singular_part is not None:
        inv = Interval.point(1) / x
        for c, p in seq.singular_part:
            acc = acc + inv ** p * c
    return acc
