"""Sharp constants: exact limits at zero, certified enclosures at pi/2.

Each two-sided bound has a ratio function whose endpoint limits are the
best-possible constants.  At zero the limit is an exact rational (a series
leading coefficient); at pi/2 it is a closed form in pi, enclosed to any
width.  A grid + golden-section scan corroborates the monotonicity the
proofs rely on -- corroboration, not proof, and reported as such.
"""

from fractions import Fraction

from ineqcert import Interval, limit_report, pi_enclose, scan_extremum

F = Fraction

for thm in ("T3.1", "T3.2", "T3.3", "T3.4", "T3.5"):
    rep = limit_report(thm, "zero")
    print(f"{thm}: limit at 0+ = {rep.value_exact} (exact)")

print()
for thm in ("T3.1", "T3.2", "T3.5"):
    rep = limit_report(thm, "right")
    enc = rep.value_enclosure
    print(f"{thm}: limit at (pi/2)- = {rep.paper_value} in "
          f"[{float(enc.lo):.12f}, {float(enc.hi):.12f}] "
          f"(width <= {float(enc.width):.1e})")

print("\nMonotonicity corroboration via 1024-point scans:")
hi = pi_enclose(F(1, 10 ** 20)).lo / 2 - F(1, 1000)
for thm, lo_, hi_ in (("T3.1", F(1, 1000), hi), ("T3.2", F(1, 1000), hi),
                      ("T3.3", F(1, 10), F(10)), ("T3.4", F(1, 1000), F(10)),
                      ("T3.5", F(1, 1000), hi)):
    rep = scan_extremum(thm, Interval(lo_, hi_), F(1, 10 ** 6))
    where = rep.at_boundary or f"x ~ {float(rep.location):.4f}"
    print(f"  {thm}: sampled nondecreasing = {rep.sampled_monotone!s:<5} "
          f"min at {where}, value in [{float(rep.value_enclosure.lo):.6f}, "
          f"{float(rep.value_enclosure.hi):.6f}]")

print("\nThe one non-monotone ratio (the 3/20-weight claim) dips below its")
print("value at 0+, which is exactly why that claimed bound fails.")
