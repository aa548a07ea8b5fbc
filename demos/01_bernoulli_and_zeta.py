"""Bernoulli numbers and the even-zeta link.

The whole verification engine runs on exact rational arithmetic.  This
script walks the base layer: the memoized Bernoulli table, the alternating
sign law, and the identity zeta(2q) = r_q * pi^(2q) with rational r_q,
which is also what makes rigorous series tail bounds possible.
"""

from fractions import Fraction

from ineqcert import Interval, bernoulli, pi_enclose, zeta_even_ratio

print("Bernoulli numbers (generating-function convention, B_1 = -1/2):")
for n in range(0, 14):
    print(f"  B_{n:<2} = {bernoulli(n)}")

print("\nSign law: (-1)^(n-1) * B_2n > 0 -- checked exactly for n <= 100:")
ok = all((-1) ** (n - 1) * bernoulli(2 * n) > 0 for n in range(1, 101))
print(f"  holds for every n in 1..100: {ok}")

print("\nEven zeta values as rational multiples of pi^(2q):")
for q in range(1, 6):
    r = zeta_even_ratio(q)
    print(f"  zeta({2 * q:>2}) = {r} * pi^{2 * q}")

print("\nCross-check against direct partial sums (interval arithmetic):")
pi_iv = pi_enclose(Fraction(1, 10 ** 40))
K = 200
for q in (1, 2, 5):
    z = pi_iv ** (2 * q) * zeta_even_ratio(q)
    s = sum(Fraction(1, k ** (2 * q)) for k in range(1, K + 1))
    tail = Fraction(1, K ** (2 * q - 1) * (2 * q - 1))
    consistent = z.intersects(Interval(s, s + tail))
    print(f"  q={q}: enclosure [{float(z.lo):.12f}, {float(z.hi):.12f}] "
          f"meets partial-sum bracket: {consistent}")

print("\nMagnitude bound used by every series tail: "
      "|B_2n|/(2n)! <= 4/(2 pi)^(2n)")
two_pi_lo = 2 * pi_enclose(Fraction(1, 10 ** 30)).lo
from math import factorial
worst = max(
    float(abs(bernoulli(2 * n)) * two_pi_lo ** (2 * n) / (4 * factorial(2 * n)))
    for n in range(1, 60))
print(f"  max over n <= 60 of |B_2n| (2 pi_lo)^(2n) / (4 (2n)!) = {worst:.4f} "
      "(must stay <= 1)")
