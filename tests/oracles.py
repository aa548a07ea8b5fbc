"""Independent oracles for the test suite.

Everything here is deliberately separate from the package internals: exact
truncated Maclaurin algebra over Fractions (series product/quotient,
differentiation, argument scaling), plus two self-contained Bernoulli
routes.  Coefficient assertions against these oracles are equality checks,
never tolerance checks.  The one exception is the dense interval Taylor
arithmetic at the end: the plain loops `_core` replaced with sparse ones,
kept over `_core`'s own sums, quotients and point ranges.
"""

from fractions import Fraction
from math import comb, factorial

from ineqcert._core import (fn_range, iadd, idiv, idiv_int, imul_int, ineg,
                            isub)


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


# --- dense interval Taylor arithmetic ---------------------------------------
#
# Every product of every coefficient pair, and the interval product as the
# min and max of all four endpoint products.  `_core`'s sparse, sign-aware
# versions must return exactly these tuples.

def imul_dense(ctx, a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p) >> ctx.prec, -(-max(p) >> ctx.prec))


def tmul_dense(ctx, a, b):
    k = len(a) - 1
    out = []
    for j in range(k + 1):
        acc = (0, 0)
        for i in range(j + 1):
            acc = iadd(acc, imul_dense(ctx, a[i], b[j - i]))
        out.append(acc)
    return out


def tdiv_dense(ctx, a, b):
    out = []
    for j in range(len(a)):
        acc = a[j]
        for i in range(j):
            acc = isub(acc, imul_dense(ctx, out[i], b[j - i]))
        out.append(idiv(ctx, acc, b[0]))
    return out


def tsincos_dense(ctx, u, hyper):
    k = len(u) - 1
    names = ("sinh", "cosh") if hyper else ("sin", "cos")
    s = [fn_range(ctx, names[0], u[0][0], u[0][1])]
    c = [fn_range(ctx, names[1], u[0][0], u[0][1])]
    for j in range(1, k + 1):
        acc_s = (0, 0)
        acc_c = (0, 0)
        for i in range(1, j + 1):
            iu = imul_int(u[i], i)
            acc_s = iadd(acc_s, imul_dense(ctx, iu, c[j - i]))
            acc_c = iadd(acc_c, imul_dense(ctx, iu, s[j - i]))
        s.append(idiv_int(acc_s, j))
        acc_c = idiv_int(acc_c, j)
        c.append(acc_c if hyper else ineg(acc_c))
    return s, c
