"""Independent oracles for the test suite.

Everything here is deliberately separate from the package internals: exact
truncated Maclaurin algebra over Fractions (series product/quotient,
differentiation, argument scaling), plus three self-contained Bernoulli
routes.  Coefficient assertions against these oracles are equality checks,
never tolerance checks.  Three sections are exceptions, kept over the
package's own primitives: the term-by-term series sums and tail bounds that
`series` and `prove` replaced with exact integer sums, over `series`'
coefficients and term ratios; the dense interval Taylor arithmetic (the
plain loops `_core` replaced with sparse ones, the eight-quotient interval
division it replaced with sign cases, the tan/tanh recurrence over the
full convolution where `_core` halves it, and the quotient sin/cos that
recurrence replaced), over `_core`'s point ranges alone: as in `_core`,
each coefficient is its exact sum of exact products rounded outward once,
and `enclose_full_order`'s polynomial part is the Fraction sum of its
terms, rounded once; the recursive tree walk `_core` replaced with a
straight-line plan, over `_core`'s own op tables; `enclose`'s three rules
near 0, a Fraction Bernstein bound, and the [0, b] coefficient and the
Taylor form about 0 through that walk; and the point series' term loop through `_core`'s rounding helpers,
which `_core` writes out in place.  The former series coefficient formulas,
each dividing |B_2n| by (2n)! itself, sit over `exact.bernoulli` too, and
the integer kernels, numerators, denominators and identity parts with each
power of 2, 4 and 16 written as a power, which `series`, `exact` and
`prove` form as shifts, sit over `exact.tangent` and `prove`'s polynomials
in n.  The series form of a theorem
claim is an enclosure by the public `series.eval_series`, a route apart
from `prove`'s one series bound.  `mp_value` evaluates a parsed
expression node by node in mpmath, at mpmath's precision.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, comb, factorial, floor

import mpmath

from ineqcert import _core, prove
from ineqcert._core import fn_range
from ineqcert.errors import DomainError, PoleError
from ineqcert.exact import bernoulli, tangent
from ineqcert.interval import Interval
from ineqcert.lang import eval_endpoint, parse_expression
from ineqcert.series import (_RHO_MAX, PI_LO, THEOREMS, eval_series,
                             get_series, tail_bound)


# --- Bernoulli oracles -------------------------------------------------------

def bernoulli_recurrence(n_max):
    """B_0..B_n via the defining recurrence sum_{j<=m} C(m+1,j) B_j = 0."""
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = Fraction(0)
        for j in range(m):
            s += comb(m + 1, j) * out[j]
        out.append(-s / (m + 1))
    return out


def bernoulli_akiyama_tanigawa(n_max):
    """B_0..B_n via the Akiyama-Tanigawa triangle (second route).

    The triangle produces the B_1 = +1/2 convention; flip the sign of B_1 to
    match the generating-function convention used by the package.
    """
    a = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n_max >= 1:
        out[1] = -out[1]
    return out


def bernoulli_boustrophedon(n_max):
    """B_0..B_n via the Seidel-Entringer-Arnold boustrophedon (third route,
    the one `exact` used before the tangent-number recurrence).

    Each row is the running sum of the previous row read in reverse; the
    last entry of row 2m-1 is the tangent number T_m (Millar, Sloane &
    Young, JCTA 76, 1996), and B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).
    """
    out = [Fraction(1), Fraction(-1, 2)]
    row = [1]
    while len(out) <= n_max:
        row = list(accumulate(reversed(row), initial=0))
        m = len(row) // 2
        if len(row) % 2 == 0:  # row 2m-1 ends in T_m
            t = row[-1] if m % 2 else -row[-1]
            out += [Fraction(2 * m * t, 4 ** m * (4 ** m - 1)), Fraction(0)]
    return out[:n_max + 1]


# --- former series coefficient formulas ------------------------------------

def _babs_over(n, den):
    return abs(bernoulli(2 * n)) / den


FORMER_COEFFS = {
    "X_OVER_SIN": lambda n: Fraction(1) if n == 0 else (
        Fraction(2 * (2 ** (2 * n - 1) - 1)) * _babs_over(n, factorial(2 * n))),
    "COT": lambda n: -Fraction(2 ** (2 * n)) * _babs_over(n, factorial(2 * n)),
    "CSC2": lambda n: (Fraction(2 ** (2 * n) * (2 * n - 1))
                       * _babs_over(n, factorial(2 * n))),
    "COS_OVER_SIN2": lambda n: (-Fraction(2 * (2 * n - 1) * (2 ** (2 * n - 1) - 1))
                                * _babs_over(n, factorial(2 * n))),
    "CSC3": lambda n: (Fraction(2 ** (2 * n + 1) - 1) * _babs_over(n + 1, n + 1)
                       + Fraction(2 ** (2 * n - 1) - 1) * _babs_over(n, n)
                       ) / (2 * factorial(2 * n - 1)),
    "COS_OVER_SIN3": lambda n: (-Fraction((2 * n - 1) * (n - 1) * 2 ** (2 * n))
                                * _babs_over(n, factorial(2 * n))),
    "T3.1_F": lambda n: (Fraction((n - 2) * 2 ** (2 * n + 1) + 4 * (n + 1))
                         * _babs_over(n, factorial(2 * n))),
    "T3.2_G": lambda n: (Fraction(4 ** n * (2 * n - 3) + 3 + 3 * n - 2 * n * n)
                         * _babs_over(n, factorial(2 * n))),
    "T3.5_F": lambda n: (Fraction((6 * n - 8) * 2 ** (2 * n) + 8)
                         * _babs_over(n, factorial(2 * n))),
    "T3.3_A": lambda n: Fraction(2 ** (2 * n + 1) - 6 * n - 2, factorial(2 * n)),
    "T3.3_B": lambda n: Fraction(4 * n * (n - 1) * (4 * n * n - 1),
                                 factorial(2 * n)),
    "T3.4_A": lambda n: (Fraction(n) * (Fraction(3 ** (2 * n - 1), 2)
                                        - (n - 1) * 2 ** (2 * n) - 8 * n
                                        + Fraction(9, 2))
                         + 2 ** (2 * n + 1) - 4) / factorial(2 * n),
    "T3.4_B": lambda n: Fraction((1 + 2 ** (2 * n - 6)) * (2 * n - 4) * (2 * n - 3)
                                 * (2 * n - 2) * (2 * n - 1) * 2 * n,
                                 factorial(2 * n)),
}
FORMER_COEFFS["SINH"] = lambda n: Fraction(1, factorial(2 * n + 1))
FORMER_COEFFS["COSH"] = lambda n: Fraction(1, factorial(2 * n))
FORMER_COEFFS["T3.3_DIFF"] = lambda n: (
    FORMER_COEFFS["T3.3_A"](n) - Fraction(3, 20) * FORMER_COEFFS["T3.3_B"](n))
FORMER_COEFFS["T3.4_DIFF"] = lambda n: (
    FORMER_COEFFS["T3.4_A"](n) - Fraction(23, 720) * FORMER_COEFFS["T3.4_B"](n))


def former_theorem_value(thm, role, n):
    """A theorem role's value by the former formulas: its series'
    coefficient, T3.2's integer b_n, or the ratio c = a/b."""
    roles = THEOREMS[thm].roles
    if isinstance(roles[role], str):
        return FORMER_COEFFS[roles[role]](n)
    if role == "b":
        return Fraction(4 ** n * (2 * n - 3) + 3 + 3 * n - 2 * n * n)
    return FORMER_COEFFS[roles["a"]](n) / FORMER_COEFFS[roles["b"]](n)


# --- powers of 2, 4 and 16 as powers ------------------------------------------

def w_powers(k, n):
    """`series._w`'s pair with 4^n a power."""
    return k * tangent(n), factorial(2 * n - 1) * 4 ** n * (4 ** n - 1)


def bernoulli_powers(m):
    """B_2m over the denominator 4^m (4^m - 1), as `exact.bernoulli` formed
    it with powers."""
    return Fraction((-1) ** (m - 1) * 2 * m * tangent(m), 4 ** m * (4 ** m - 1))


def _c_csc3_powers(n):
    a1, d1 = w_powers((2 ** (2 * n + 1) - 1) * 2 * n * (2 * n + 1), n + 1)
    a0, d0 = w_powers(2 ** (2 * n - 1) - 1, n)
    return a1 * d0 + a0 * d1, d0 * d1


# `series` function name -> (its first n with a power, the function with `**`)
SERIES_POWER_FORMS = {
    "_c_x_over_sin": (1, lambda n: w_powers(2 * (2 ** (2 * n - 1) - 1), n)),
    "_k_cot": (1, lambda n: -2 ** (2 * n)),
    "_k_csc2": (1, lambda n: 2 ** (2 * n) * (2 * n - 1)),
    "_k_cos_over_sin2": (1, lambda n: -2 * (2 * n - 1) * (2 ** (2 * n - 1) - 1)),
    "_c_csc3": (1, _c_csc3_powers),
    "_k_cos_over_sin3": (2, lambda n: -(2 * n - 1) * (n - 1) * 2 ** (2 * n)),
    "_k_t31": (2, lambda n: (n - 2) * 2 ** (2 * n + 1) + 4 * (n + 1)),
    "_b_t32": (2, lambda n: 4 ** n * (2 * n - 3) + 3 + 3 * n - 2 * n * n),
    "_k_t35": (2, lambda n: (6 * n - 8) * 2 ** (2 * n) + 8),
    "_na_t33": (2, lambda n: 2 ** (2 * n + 1) - 6 * n - 2),
    "_na_t34": (3, lambda n: (n * ((3 ** (2 * n - 1) + 9) // 2
                                   - (n - 1) * 2 ** (2 * n) - 8 * n)
                              + 2 ** (2 * n + 1) - 4)),
    "_nb_t34": (3, lambda n: ((1 + 2 ** (2 * n - 6)) * (2 * n - 4) * (2 * n - 3)
                              * (2 * n - 2) * (2 * n - 1) * 2 * n)),
}


def _t34_fdecomp_powers(n):
    f = (16 ** n * prove._f1_plain(n), 9 ** n * prove._f2_plain(n),
         4 ** n * (9 ** n * prove._f3_inner_plain(n) + prove._f3_quartic_tail(n)),
         prove._f4_plain(n))
    den = (3 * n * (16 + 4 ** n) * (64 + 4 ** n) * (n - 2) * (2 * n - 3)
           * (4 * n * n - 1) * (n * n - 1))
    return f, den


# identity id -> n -> (the parts, the right side's denominator) with `**`,
# over `prove`'s own polynomials in n
IDENTITY_POWER_FORMS = {
    "ID_T32_BDIFF": lambda n: ((4 ** n * (6 * n - 1) - 4 * n + 1,), 1),
    "ID_T33_CDIFF": lambda n: (
        ((6 * n * n - 17 * n + 1) * 4 ** n + 18 * n * n + 23 * n - 1,),
        2 * n * (2 * n + 3) * (4 * n * n - 1) * (n * n - 1)),
    "ID_T34_FDECOMP": _t34_fdecomp_powers,
}


# --- exact truncated Maclaurin algebra --------------------------------------

def ser_mul(a, b, n):
    """Coefficients of (a*b) through degree n."""
    return [sum(a[i] * b[k - i]
                for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))))
            for k in range(n + 1)]


def ser_div(a, b, n):
    """Coefficients of a/b through degree n; requires b[0] != 0."""
    c = []
    for k in range(n + 1):
        s = a[k] if k < len(a) else Fraction(0)
        for i in range(k):
            s -= c[i] * b[k - i]
        c.append(s / b[0])
    return c


def ser_diff(a):
    return [k * a[k] for k in range(1, len(a))]


def ser_scale_arg(a, r):
    """a(r*x) for rational r."""
    r = Fraction(r)
    return [a[k] * r ** k for k in range(len(a))]


def ser_shift(a, m, n):
    """x^m * a(x) through degree n."""
    return [Fraction(0)] * m + a[: n + 1 - m]


def sin_over_x_series(n):
    return [Fraction((-1) ** (k // 2), factorial(k + 1)) if k % 2 == 0
            else Fraction(0) for k in range(n + 1)]


def cos_series(n):
    return [Fraction((-1) ** (k // 2), factorial(k)) if k % 2 == 0
            else Fraction(0) for k in range(n + 1)]


def sinh_series(n):
    return [Fraction(1, factorial(k)) if k % 2 == 1 else Fraction(0)
            for k in range(n + 1)]


def cosh_series(n):
    return [Fraction(1, factorial(k)) if k % 2 == 0 else Fraction(0)
            for k in range(n + 1)]


def one_series(n):
    return [Fraction(1)] + [Fraction(0)] * n


class LemmaSeriesOracle:
    """Scaled closed-form series: x/sin, x*cot, x^2/sin^2, x^2*cos/sin^2,
    x^3/sin^3, x^3*cos/sin^3, sinh, cosh -- all plain power series obtained
    by products/quotients of the base expansions."""

    def __init__(self, n=46):
        self.n = n
        sx = sin_over_x_series(n)
        c = cos_series(n)
        self.x_over_sin = ser_div(one_series(n), sx, n)
        self.x_cot = ser_mul(c, self.x_over_sin, n)
        self.x2_csc2 = ser_mul(self.x_over_sin, self.x_over_sin, n)
        self.x2_cos_csc2 = ser_mul(c, self.x2_csc2, n)
        self.x3_csc3 = ser_mul(self.x2_csc2, self.x_over_sin, n)
        self.x3_cos_csc3 = ser_mul(c, self.x3_csc3, n)
        self.sinh = sinh_series(n)
        self.cosh = cosh_series(n)

    def lemma_coeff(self, kind, n):
        """Signed coefficient matching the package's lemma_coeff convention."""
        if kind == "X_OVER_SIN":
            return self.x_over_sin[2 * n]
        if kind == "COT":          # cot = 1/x + series; x*cot carries it at 2n
            return self.x_cot[2 * n]
        if kind == "CSC2":
            return self.x2_csc2[2 * n]
        if kind == "COS_OVER_SIN2":
            return self.x2_cos_csc2[2 * n]
        if kind == "CSC3":         # coefficient of x^(2n-1): x^3/sin^3 at 2n+2
            return self.x3_csc3[2 * n + 2]
        if kind == "COS_OVER_SIN3":
            return self.x3_cos_csc3[2 * n]
        if kind == "SINH":
            return self.sinh[2 * n + 1]
        if kind == "COSH":
            return self.cosh[2 * n]
        raise ValueError(kind)

    def t31_f_times_x4(self):
        """x^4*f for the first sharp bound: 2*x^2/sin^2 + x^2 cos/sin^2 - 3*x/sin."""
        return [2 * self.x2_csc2[k] + self.x2_cos_csc2[k] - 3 * self.x_over_sin[k]
                for k in range(self.n + 1)]

    def t32_g_times_4x4(self):
        """4*x^4*g: 2*x^3 cos/sin^3 + 4*x^2/sin^2 + 2*x^3/sin^3 - x^2*(x/sin) - 8*(x/sin)."""
        out = [2 * self.x3_cos_csc3[k] + 4 * self.x2_csc2[k]
               + 2 * self.x3_csc3[k] - 8 * self.x_over_sin[k]
               for k in range(self.n + 1)]
        for k in range(2, self.n + 1):
            out[k] -= self.x_over_sin[k - 2]
        return out

    def t35_f_times_x4(self):
        """x^4*f for the cosine bound: 3*x^2/sin^2 + x*cot - 4*(x/sin)."""
        return [3 * self.x2_csc2[k] + self.x_cot[k] - 4 * self.x_over_sin[k]
                for k in range(self.n + 1)]

    def t33_f_series(self):
        """sinh(2x) + sinh(x) - 3x cosh(x)."""
        n = self.n
        s2 = ser_scale_arg(self.sinh, 2)
        xc = ser_shift(self.cosh, 1, n)
        return [s2[k] + self.sinh[k] - 3 * xc[k] for k in range(n + 1)]

    def t33_g_series(self):
        """x^4 sinh(x)."""
        return ser_shift(self.sinh, 4, self.n)

    def t34_f_series(self):
        """cosh(x) * (x sinh x cosh x + x sinh x + 4 cosh x - 2x^2 cosh x - 4 - 2x^2)."""
        n = self.n
        inner = [ser_shift(ser_mul(self.sinh, self.cosh, n), 1, n)[k]
                 + ser_shift(self.sinh, 1, n)[k]
                 + 4 * self.cosh[k]
                 - 2 * ser_shift(self.cosh, 2, n)[k]
                 for k in range(n + 1)]
        inner[0] -= 4
        inner[2] -= 2
        return ser_mul(self.cosh, inner, n)

    def t34_g_series(self):
        """x^5 sinh(x)(1 + cosh(x)) = x^5 (sinh(2x)/2 + sinh(x))."""
        n = self.n
        s2 = ser_scale_arg(self.sinh, 2)
        return [Fraction(1, 2) * ser_shift(s2, 5, n)[k]
                + ser_shift(self.sinh, 5, n)[k] for k in range(n + 1)]


# --- term-by-term series sums ------------------------------------------------
#
# Each term added in normalised Fraction (interval) arithmetic, one term at a
# time.  `series.eval_series`, `series.tail_bound` and `prove`'s near-zero
# bounds must return exactly these rationals.

def eval_series_termwise(kind, x, N, full_value=False):
    """`series.eval_series` as the interval sum of c * x^e, term by term."""
    seq = get_series(kind)
    acc = Interval.point(0)
    for n in range(seq.start_index, N + 1):
        c = seq.coeff(n)
        if c:
            acc = acc + (x ** seq.exponent_of(n)) * c
    tb = tail_bound(kind, N, x.hi).bound
    acc = acc + Interval(-tb, tb)
    if full_value and seq.singular_part is not None:
        inv = Interval.point(1) / x
        if seq.id == "COT":
            acc = acc + inv
        elif seq.id in ("CSC2", "COS_OVER_SIN2"):
            acc = acc + inv ** 2
        elif seq.id == "CSC3":
            acc = acc + inv ** 3 + inv * Fraction(1, 2)
        elif seq.id == "COS_OVER_SIN3":
            acc = acc + inv ** 3
    return acc


def left_lower_bound_termwise(kind, n0, eps, N, negate=False):
    """`prove._left_lower_bound` as a per-term Fraction loop."""
    seq = get_series(kind)
    sgn = -1 if negate else 1
    e0 = seq.exponent_of(n0)
    lb = sgn * seq.coeff(n0)
    for n in range(n0 + 1, N + 1):
        c = sgn * seq.coeff(n)
        if c < 0:
            lb += c * eps ** (seq.exponent_of(n) - e0)
    lb -= tail_bound(kind, N, eps).bound / eps ** e0
    return lb


def left_sup_bound_termwise(kind, eps, N):
    """An upper bound of the series on (0, eps] as a per-term Fraction loop:
    the positive terms at eps plus the tail.  An upper near-zero
    certificate's `sup_bound` equals it when its start term is positive."""
    seq = get_series(kind)
    ub = Fraction(0)
    for n in range(seq.start_index, N + 1):
        c = seq.coeff(n)
        if c > 0:
            ub += c * eps ** seq.exponent_of(n)
    return ub + tail_bound(kind, N, eps).bound


def dominating_term(comp, n, x):
    """A tail component's dominating term at index n as one Fraction, from
    its `poly`, `base` and `shift`: poly(n) (x/PI_LO)^(2n) for a trig
    component (which has no base), poly(n) (base x)^(2n)/(2n)! for an
    entire one, times x^shift."""
    p = sum(Fraction(c) * n ** i for i, c in enumerate(comp.poly))
    base = getattr(comp, "base", None)
    if base is None:
        return p * (x / PI_LO) ** (2 * n) * x ** comp.shift
    return p * (base * x) ** (2 * n) / factorial(2 * n) * x ** comp.shift


def tail_bound_termwise(kind, N, x_upper):
    """`series.tail_bound`'s bound as a Fraction loop: each dominating term
    added on its own, in normalised Fractions, until the term ratio
    contracts, then the rest closed geometrically at that ratio."""
    seq = get_series(kind)
    x = Fraction(x_upper)
    total = Fraction(0)
    for comp in seq.components:
        m = N + 1
        for _ in range(600):
            rho = comp.ratio(m, x)
            if rho < Fraction(1, 2) or (m - N > 200 and rho < _RHO_MAX):
                total += dominating_term(comp, m, x) / (1 - rho)
                break
            total += dominating_term(comp, m, x)
            m += 1
        else:
            raise DomainError(f"{kind}: tail does not contract at x={x}")
    return total


def series_claim_form(claim, N):
    """x -> enclosure of a registered claim's series form over the interval
    x, by `series.eval_series` at 64-bit outward endpoints: the series less
    a lower claim's constant, an upper claim's constant less the series, or
    a positive claim's series as it is."""
    t = THEOREMS[claim.thm]

    def form(x):
        s = eval_series(claim.series_id, x.round_out(64), N)
        if claim.mode == "lower":
            return s - t.zero_value
        if claim.mode == "upper":
            return eval_endpoint(parse_expression(t.right_value)) - s
        return s

    return form


# --- dense interval Taylor arithmetic ---------------------------------------
#
# One rounding per coefficient: every product of every coefficient pair is
# exact, the min and max of its four endpoint products; a coefficient is the
# exact sum of its products at the scale 2**(2 prec), rounded outward once to
# 2**prec, the division by j of the sin/cos and tan recurrences inside that
# one rounding; and a quotient's ends are the min and max of the eight
# rounded quotients of its exact numerator's ends by the divisor's ends.
# `_core`'s sparse, sign-aware versions must return exactly these tuples.

def _exact_product(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p), max(p)


def _exact_square(a):
    """[a]^2 exactly: 0 is its least value when a straddles 0."""
    sq = (a[0] * a[0], a[1] * a[1])
    return (0 if a[0] < 0 < a[1] else min(sq)), max(sq)


def _round_out(ctx, lo, hi, j=1):
    """[lo, hi] / (j 2**(2 prec)), rounded outward to the scale 2**prec."""
    d = j * ctx.one
    return lo // d, -(-hi // d)


def imul_dense(ctx, a, b):
    return _round_out(ctx, *_exact_product(a, b))


def _eight_quotients(lo, hi, b):
    """[lo, hi] / b, b at the scale 2**prec, rounded outward: the least
    floor and the greatest ceiling of the eight endpoint quotients."""
    if b[0] <= 0 <= b[1]:
        raise PoleError("division by an interval containing 0")
    q = (lo // b[0], lo // b[1], hi // b[0], hi // b[1])
    qc = (-(-lo // b[0]), -(-lo // b[1]), -(-hi // b[0]), -(-hi // b[1]))
    return (min(q), max(qc))


def idiv_eight(ctx, a, b):
    return _eight_quotients(a[0] << ctx.prec, a[1] << ctx.prec, b)


def tmul_dense(ctx, a, b):
    out = []
    for j in range(len(a)):
        lo = hi = 0
        for i in range(j + 1):
            p, q = _exact_product(a[i], b[j - i])
            lo, hi = lo + p, hi + q
        out.append(_round_out(ctx, lo, hi))
    return out


def tdiv_dense(ctx, a, b):
    out = []
    for j in range(len(a)):
        lo, hi = a[j][0] * ctx.one, a[j][1] * ctx.one
        for i in range(j):
            p, q = _exact_product(out[i], b[j - i])
            lo, hi = lo - q, hi - p
        out.append(_eight_quotients(lo, hi, b[0]))
    return out


def tsincos_dense(ctx, u, hyper):
    k = len(u) - 1
    names = ("sinh", "cosh") if hyper else ("sin", "cos")
    s = [fn_range(ctx, names[0], u[0][0], u[0][1])]
    c = [fn_range(ctx, names[1], u[0][0], u[0][1])]
    for j in range(1, k + 1):
        s_lo = s_hi = c_lo = c_hi = 0
        for i in range(1, j + 1):
            iu = (i * u[i][0], i * u[i][1])
            p, q = _exact_product(iu, c[j - i])
            s_lo, s_hi = s_lo + p, s_hi + q
            p, q = _exact_product(iu, s[j - i])
            c_lo, c_hi = c_lo + p, c_hi + q
        s.append(_round_out(ctx, s_lo, s_hi, j))
        c.append(_round_out(ctx, c_lo, c_hi, j) if hyper
                 else _round_out(ctx, -c_hi, -c_lo, j))
    return s, c


def _exact_square_coeff(a, m):
    """(a^2)[m] exactly, by the full convolution: its middle term the exact
    square, never below 0."""
    lo = hi = 0
    for p in range(m + 1):
        s, q = (_exact_square(a[p]) if 2 * p == m
                else _exact_product(a[p], a[m - p]))
        lo, hi = lo + s, hi + q
    return lo, hi


def tsqr_dense(ctx, a):
    return [_round_out(ctx, *_exact_square_coeff(a, m)) for m in range(len(a))]


def ttan_dense(ctx, u, hyper):
    """tan(u) (tanh(u) when hyper) by the recurrence t' = u' w, w = 1 + t^2
    (1 - t^2): each (t^2)[m] the full convolution, its middle term the exact
    square, and each w[m] and t[j] rounded outward once."""
    k = len(u) - 1
    one = ctx.one
    t = [fn_range(ctx, "tanh" if hyper else "tan", u[0][0], u[0][1])]
    w = []
    for j in range(1, k + 1):
        lo, hi = _exact_square_coeff(t, j - 1)
        if hyper:
            lo, hi = -hi, -lo
        if j == 1:
            lo, hi = lo + one * one, hi + one * one
        w.append(_round_out(ctx, lo, hi))
        lo = hi = 0
        for i in range(1, j + 1):
            p, q = _exact_product((i * u[i][0], i * u[i][1]), w[j - i])
            lo, hi = lo + p, hi + q
        t.append(_round_out(ctx, lo, hi, j))
    return t


def ttan_quotient(ctx, u, hyper):
    """tan(u) (tanh(u) when hyper) as the Taylor quotient sin(u)/cos(u)."""
    s, c = tsincos_dense(ctx, u, hyper)
    return tdiv_dense(ctx, s, c)


def term_exact(ctx, c, r, j):
    """c [-r, r]^j in Fractions, exact: the least and the greatest product
    of an end of c and an end of [-r, r]^j, which is [0, r^j] for even j."""
    rj = Fraction(r, ctx.one) ** j
    powers = (0, rj) if j % 2 == 0 else (-rj, rj)
    ends = [Fraction(e, ctx.one) * p for e in c for p in powers]
    return min(ends), max(ends)


def poly_exact(ctx, tm, r):
    """tm[0] + sum_{j>=1} tm[j] [-r, r]^j in Fractions, exact."""
    lo, hi = Fraction(tm[0][0], ctx.one), Fraction(tm[0][1], ctx.one)
    for j in range(1, len(tm)):
        t_lo, t_hi = term_exact(ctx, tm[j], r, j)
        lo, hi = lo + t_lo, hi + t_hi
    return lo, hi


# --- a parsed expression in mpmath ------------------------------------------

def mp_value(e, x):
    """The expression e at the mpmath number x, at mpmath's precision."""
    kind = e.kind
    if kind == "x":
        return x
    if kind == "lit":
        return mpmath.mpf(e.value.numerator) / e.value.denominator
    if kind == "pi":
        return +mpmath.pi
    if kind == "call":
        return getattr(mpmath, e.fn)(mp_value(e.arg, x))
    if kind == "pow":
        return mp_value(e.base, x) ** e.exponent
    if kind == "neg":
        return -mp_value(e.a, x)
    ops = {"add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": operator.truediv}
    return ops[kind](mp_value(e.a, x), mp_value(e.b, x))


# --- the recursive tree walk -------------------------------------------------
#
# Every node evaluated where it stands, a repeated subtree once per copy.
# `_core`'s straight-line plan must return exactly these values under each op
# table and name the same error offset.  `enclose_full_order` is
# `_core.enclose` over this walk, its midpoint vector built to the full
# order TAYLOR_ORDER, and the Taylor form about 0 in Fractions.

def walk(ctx, node, x, ops):
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
            return ops["call"](ctx, node.fn, walk(ctx, node.arg, x, ops))
        if kind == "pow":
            return ops["pow"](ctx, walk(ctx, node.base, x, ops), node.exponent)
        if kind == "neg":
            return ops["neg"](walk(ctx, node.a, x, ops))
        if kind == "mul" or kind == "div":
            return ops[kind](ctx, walk(ctx, node.a, x, ops),
                             walk(ctx, node.b, x, ops))
        return ops[kind](walk(ctx, node.a, x, ops), walk(ctx, node.b, x, ops))
    except (DomainError, PoleError) as exc:
        # the innermost node that failed names the offset; 0 is a valid one
        if getattr(exc, "position", None) is None:
            exc.position = node.pos
        raise


def enclose_full_order(ctx, node, a, b):
    enc = walk(ctx, node, (a, b), _core._RANGE_OPS)
    if enc[0] > 0 or enc[1] < 0 or a == b:
        return enc
    lo = zero_form_fraction(ctx, node, a, b) if 0 < a and b < ctx.one else None
    if lo is not None:
        return _core.iisect(enc, (lo, enc[1]))
    k = _core.TAYLOR_ORDER
    m = (a + b) // 2
    try:
        tx = walk(ctx, node, _core._tvar(ctx, a, b, k), _core._TAYLOR_OPS)
        tm = walk(ctx, node, _core._tvar(ctx, m, m, k), _core._TAYLOR_OPS)
    except (DomainError, PoleError):
        return enc
    r = max(b - m, m - a)
    one = ctx.one
    lo, hi = poly_exact(ctx, tm[:k], r)
    if floor(lo * one) <= 0 < tm[0][0]:
        lo = max(lo, bernstein_least(ctx, tm[:k], r))
    straddles = floor(lo * one) <= 0 <= ceil(hi * one)

    def form(c):
        # P + c [-r, r]^k, exact, rounded outward once
        t_lo, t_hi = term_exact(ctx, c, r, k)
        return _core.iisect(enc, (floor((lo + t_lo) * one),
                                  ceil((hi + t_hi) * one)))

    c = tx[k]
    out = form(c)
    if out[0] <= 0 <= out[1] and not straddles and 0 <= a and b < one:
        vec = vector_from_zero_walk(ctx, node, b)
        if vec is not None:
            out = form(_core.iisect(c, vec[k]))
    return out


# --- the three rules of enclose near 0 --------------------------------------
#
# The least Bernstein coefficient in Fractions, each weight from the monomial
# expansion of (2s - 1)^j and the classical conversion of monomial to
# Bernstein coefficients; the [0, b] coefficient with removable quotients
# shifted, found and applied in one recursive walk; and the Taylor form
# about 0 over those walks, summed in Fractions.  `_core._bernstein_lo`, at
# the scale of its powers, `_core._from_zero` and `_core._zero_form`
# must return exactly these.

@lru_cache(maxsize=None)
def _bernstein_weight(n, i, j):
    # (2s - 1)^j = sum_m C(j, m) 2^m (-1)^(j - m) s^m, and s^m has the
    # degree-n Bernstein coefficients C(i, m) / C(n, m)
    return sum(Fraction(comb(i, m) * comb(j, m) * 2 ** m * (-1) ** (j - m),
                        comb(n, m)) for m in range(min(i, j) + 1))


def bernstein_lo_fraction(ctx, tm, r, scale):
    """`bernstein_least` rounded down once to the scale `scale`."""
    return floor(bernstein_least(ctx, tm, r) * scale)


def bernstein_least(ctx, tm, r):
    """Least lower end over i of the i-th Bernstein coefficient on [0, 1] of
    sum_j tm[j] (r (2s - 1))^j, exact."""
    n = len(tm) - 1
    rr = Fraction(r, ctx.one)
    best = None
    for i in range(n + 1):
        low = Fraction(0)
        for j in range(n + 1):
            w = _bernstein_weight(n, i, j) * rr ** j
            lo, hi = (Fraction(e, ctx.one) for e in tm[j])
            low += min(w * lo, w * hi)
        best = low if best is None else min(best, low)
    return best


def walk_removable(ctx, node, xbox, xzero):
    """(value over the box, value at the point 0) of node under `_core`'s
    Taylor table, each `/` first shifting both operands, in both values,
    past the leading coefficients they both have exactly (0, 0) at 0."""
    ops = _core._TAYLOR_OPS
    kind = node.kind
    if kind == "x":
        return xbox, xzero
    if kind == "lit" or kind == "pi":
        return walk(ctx, node, xbox, ops), walk(ctx, node, xzero, ops)
    if kind == "call":
        ub, uz = walk_removable(ctx, node.arg, xbox, xzero)
        return ops["call"](ctx, node.fn, ub), ops["call"](ctx, node.fn, uz)
    if kind == "pow":
        ub, uz = walk_removable(ctx, node.base, xbox, xzero)
        return ops["pow"](ctx, ub, node.exponent), ops["pow"](ctx, uz, node.exponent)
    if kind == "neg":
        ub, uz = walk_removable(ctx, node.a, xbox, xzero)
        return ops["neg"](ub), ops["neg"](uz)
    ub, uz = walk_removable(ctx, node.a, xbox, xzero)
    vb, vz = walk_removable(ctx, node.b, xbox, xzero)
    if kind == "div":
        s = 0
        while s + 1 < min(len(uz), len(vz)) and uz[s] == (0, 0) == vz[s]:
            s += 1
        ub, uz, vb, vz = ub[s:], uz[s:], vb[s:], vz[s:]
    if kind == "mul" or kind == "div":
        return ops[kind](ctx, ub, vb), ops[kind](ctx, uz, vz)
    return ops[kind](ub, vb), ops[kind](uz, vz)


def walk_from_zero(ctx, node, b):
    """(depth, order-TAYLOR_ORDER vector over [0, b], the one at the point 0)
    of node with its removable quotients shifted, or None if it cannot be
    evaluated; the walk runs at the order raised by the depth, the orders
    the shifts lose."""
    k = _core.TAYLOR_ORDER
    zero = _core._tvar(ctx, 0, 0, k)
    try:
        depth = k + 1 - len(walk_removable(ctx, node, zero, zero)[1])
        return (depth, *walk_removable(ctx, node, _core._tvar(ctx, 0, b, k + depth),
                                       _core._tvar(ctx, 0, 0, k + depth)))
    except (DomainError, PoleError):
        return None


def vector_from_zero_walk(ctx, node, b):
    """`walk_from_zero`'s vector over [0, b], or None if it cannot be
    evaluated."""
    found = walk_from_zero(ctx, node, b)
    return found[1] if found else None


def zero_form_fraction(ctx, node, a, b):
    """The lower end over [a, b] of the Taylor form about 0, in Fractions:
    f_j at the point 0 for j < K and the order-K coefficient over [0, b]
    (`walk_from_zero`), v the first order whose f_j excludes 0, and
    g = f / x^v at least the sum of -max |f_j| / a^(v - j) over j < v and
    of min f_j lo x^(j - v) at x = a and x = b over j >= v.  Then
    g a^v rounded down once, or None when f_v < 0, no f_j excludes 0, or
    that end is not > 0."""
    found = walk_from_zero(ctx, node, b)
    if found is None:
        return None
    _, box, jet = found
    k, one = _core.TAYLOR_ORDER, ctx.one
    terms = [tuple(Fraction(e, one) for e in c) for c in jet[:k] + [box[k]]]
    v = next((j for j, (lo, hi) in enumerate(terms[:k]) if lo > 0 or hi < 0), None)
    if v is None or terms[v][1] < 0:
        return None
    xa, xb = Fraction(a, one), Fraction(b, one)
    g = Fraction(0)
    for j, (lo, hi) in enumerate(terms):
        if j < v:
            g -= max(abs(lo), abs(hi)) / xa ** (v - j)
        else:
            g += min(lo * xa ** (j - v), lo * xb ** (j - v))
    low = floor(g * xa ** v * one)
    return low if low > 0 else None


# --- point series through the rounding helpers ---------------------------------

def point_series_helpers(ctx, m, tag):
    """(odd, even) brackets at m/2**prec as `_core._point_series` formed them
    before its term loop wrote the ceilings out in place: each upper end
    through `_ceil_shift` and `_ceil_div`, each divisor formed where it is
    used.  No cache."""
    if m == 0:
        return ((0, 0), (ctx.one, ctx.one))
    ceil_shift, ceil_div = _core._ceil_shift, _core._ceil_div
    alternating = tag == "sc"
    neg = m < 0
    x = -m if neg else m
    prec = ctx.prec
    mm_lo = (x * x) >> prec
    mm_hi = ceil_shift(x * x, prec)
    t_lo, t_hi = x, x
    u_lo, u_hi = ctx.one, ctx.one
    s_lo, s_hi = x, x
    c_lo, c_hi = ctx.one, ctx.one
    k = 0
    while True:
        k += 1
        t_lo = (t_lo * mm_lo >> prec) // ((2 * k) * (2 * k + 1))
        t_hi = ceil_div(ceil_shift(t_hi * mm_hi, prec), (2 * k) * (2 * k + 1))
        u_lo = (u_lo * mm_lo >> prec) // ((2 * k - 1) * (2 * k))
        u_hi = ceil_div(ceil_shift(u_hi * mm_hi, prec), (2 * k - 1) * (2 * k))
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
        if t_hi <= 2 and u_hi <= 2 and (
                k >= 2 if alternating
                else 2 * mm_hi <= ((2 * k + 2) * (2 * k + 3)) << prec):
            rt = ceil_div(ceil_shift(t_hi * mm_hi, prec), (2 * k + 2) * (2 * k + 3)) + 1
            ru = ceil_div(ceil_shift(u_hi * mm_hi, prec), (2 * k + 1) * (2 * k + 2)) + 1
            if alternating:
                s = (s_lo - rt, s_hi + rt)
                c = (c_lo - ru, c_hi + ru)
            else:
                s = (s_lo, s_hi + 2 * rt)
                c = (c_lo, c_hi + 2 * ru)
            break
    if neg:
        s = (-s[1], -s[0])
    return (s, c)
