"""Adaptive bisection proofs with machine-checkable certificates.

`prove_positive` covers a compact interval with subintervals, each carrying
a certified positive lower bound computed in outward-rounded interval
arithmetic (plain ranges + midpoint Taylor forms).  A Refuted result
carries a witness with a certified negative upper bound: the interval's
midpoint when the claim is certified false there, evaluated before any
bisection, else a subinterval or a point that bisection found.
"""

from fractions import Fraction

from ineqcert import Interval, parse_expression, prove_positive
from ineqcert.prove import ProveOptions, reverify_certificate

F = Fraction

print("Classical two-term bound: 2 sin(x) + tan(x) - 3x > 0")
expr = parse_expression("2*sin(x) + tan(x) - 3*x")
r = prove_positive(expr, Interval(F(1, 1000), F(3, 2)))
print(f"  status={r.status}, leaves={r.leaves}, max depth={r.max_depth}")
print("  first three certificate leaves (interval, certified lower bound):")
for leaf in r.certificate[:3]:
    print(f"    [{float(leaf.lo):.6f}, {float(leaf.hi):.6f}]  >= {float(leaf.bound):.3e}")
print("  re-verification at doubled precision:",
      reverify_certificate(expr, r, precision=384))

print("\nA false claim is refuted with a witness: cos(x) > 1/2 on [1.1, 1.5]")
r = prove_positive(parse_expression("cos(x) - 1/2"), Interval(F(11, 10), F(3, 2)))
print(f"  status={r.status}")
print(f"  witness (the midpoint): [{float(r.witness.lo):.4f}, {float(r.witness.hi):.4f}]"
      f", {r.leaves} leaves")
print(f"  certified value there: [{float(r.witness_value.lo):.6f}, "
      f"{float(r.witness_value.hi):.6f}]  (cos(1.3) - 1/2 = -0.2325...)")

print("\nAn inconclusive claim stays Unknown: x^2 > 0 across 0")
r = prove_positive(parse_expression("x^2"), Interval(-1, 1),
                   ProveOptions(max_depth=16))
print(f"  status={r.status}")
print(f"  reason: {r.reason[:72]}...")
