"""Exact series coefficients and certified truncation.

Every inequality in the corpus reduces to coefficient sequences of a few
Maclaurin-type expansions.  The coefficients are exact rationals; a
geometric tail bound turns a truncated sum into a certified enclosure.
"""

from fractions import Fraction

from ineqcert import Interval, eval_series, lemma_coeff, tail_bound, theorem_coeff
from ineqcert.series import get_series

print("x/sin(x) = 1 + sum c_n x^(2n):")
for n in range(1, 7):
    print(f"  c_{n} = {lemma_coeff('X_OVER_SIN', n)}")

singular = " + ".join(f"{c}*x^-{p}" for c, p in get_series("CSC3").singular_part)
print(f"\n1/sin(x)^3 carries the singular part {singular} plus an analytic series:")
for n in range(1, 5):
    print(f"  coefficient of x^{get_series('CSC3').exponent_of(n)}:"
          f" {lemma_coeff('CSC3', n)}")

print("\nTruncated evaluation with a certified tail:")
x = Fraction(1, 2)
for N in (3, 5, 8):
    enc = eval_series("X_OVER_SIN", Interval.point(x), N)
    tb = tail_bound("X_OVER_SIN", N, x)
    print(f"  N={N}: x/sin(x) at 1/2 in [{float(enc.lo):.15f}, "
          f"{float(enc.hi):.15f}] (tail bound {float(tb.bound):.2e})")
print("  reference: 0.5/sin(0.5) = 1.042914821466744...")

print("\nTheorem-proof sequences (exact):")
print("  first ratio sequence f_n:", [theorem_coeff("T3.1", "f", n) for n in (2, 3, 4)])
print("  b_n of the second bound:", [theorem_coeff("T3.2", "b", n) for n in (2, 3, 4)])
print("  hyperbolic ratio c_n   :", [theorem_coeff("T3.3", "c", n) for n in (2, 3, 4)])
print("  note c_3 < c_2:", theorem_coeff("T3.3", "c", 3) < theorem_coeff("T3.3", "c", 2),
      " (this is the crack the refutation demo exploits)")

print("\nDifference series that settle each claim near zero:")
d33 = get_series("T3.3_DIFF")
d34 = get_series("T3.4_DIFF")
print(f"  weight-3/20 claim:  coeff at x^4 cancels ({d33.coeff(2)}), "
      f"leading term {d33.coeff(3)} * x^6  -> negative near 0")
print(f"  weight-23/720 claim: coeff at x^6 cancels ({d34.coeff(3)}), "
      f"leading term {d34.coeff(4)} * x^8  -> positive near 0")
