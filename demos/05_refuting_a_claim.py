"""Anatomy of an honest refutation.

One published-style claim in the corpus -- the hyperbolic two-term bound
with weight 3/20 -- is false.  The engine finds this three independent
ways, and also confirms which parts of the supporting argument are
correct.  Nothing here is hard-coded: every check recomputes from scratch.
"""

from fractions import Fraction

from ineqcert import (Interval, eval_expr, identity_check,
                      near_zero_certificate, parse_expression, sequence_check,
                      verify_inequality)
from ineqcert.cli import default_corpus_path
from ineqcert.lang import parse_corpus

F = Fraction

spec = next(s for s in parse_corpus(open(default_corpus_path()).read())
            if s.name == "THM33")
print("claim:", "2*sinh(x)/x + tanh(x)/x > 3 + (3/20)*x^3*tanh(x) for x > 0")

print("\n1. Interval refutation with a certified witness:")
# The difference is positive at the core's midpoint (x near 10), so the
# witness is the first box that bisection certifies negative, at the left
# end of the core (x near 0.001), not the deepest dip near x = 2; the ratio
# below shows the claim failing there too.
r = verify_inequality(spec)
print(f"   status = {r.status}")
print(f"   witness x = {float(r.witness.mid):.6g}, difference in "
      f"[{float(r.witness_value.lo):.6g}, {float(r.witness_value.hi):.6g}]")

ratio = parse_expression("(2*sinh(x)/x + tanh(x)/x - 3)/(x^3*tanh(x))")
enc = eval_expr(ratio, Interval.point(2))
print(f"   ratio at x=2: [{float(enc.lo):.12f}, {float(enc.hi):.12f}] "
      f"< 3/20 = 0.15")

print("\n2. Series refutation near zero:")
nz = near_zero_certificate("T3.3", F(1, 10))
cert = nz.series_certificate
print(f"   status = {nz.status}")
print(f"   leading difference coefficient {cert['leading']} at x^6 "
      "(negative, so the claimed direction fails for all small x)")
print(f"   certified negative on (0, {cert['eps']}]")

print("\n3. The supporting sequence argument cracks at its first step:")
seq = sequence_check("S_T33_C", "increasing", 500)
n, val = seq.first_violation
print(f"   c_(n+1) - c_n > 0 fails at n={n}: c_3 - c_2 = {val}")
seq2 = sequence_check("S_T33_C", "increasing", 500, n_min=3)
print(f"   from n=3 on, the sequence does increase (checked to 500): "
      f"{seq2.all_pass}")

print("\n4. ...while the closed-form difference identity itself is fine:")
ident = identity_check("ID_T33_CDIFF", 500)
print(f"   identity holds exactly for 2 <= n <= 500: {ident.holds}")
print(f"   its numerator's claimed positivity fails only at "
      f"n={ident.positivity['numerator'][0]} "
      f"(value {ident.positivity['numerator'][1]})")
