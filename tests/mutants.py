"""Flip each outward rounding of the engine and report the flips no test sees.

Every mutant below but the last four turns one rounding the wrong way: a
lower end rounded up, an upper end rounded down, or a certified lower bound
of pi raised above pi.  The next three weaken the exact proof steps.  Two
hit the positive steps, which read a sign off an integer kernel: one lets a
zero value pass, the other changes T3.5's kernel.  `step-drops-carry`
deletes the line of `prove._steps` that moves a_(n+1) into a_n, so every
step is taken from the sequence's first value.  The last,
`probe-refutes-straddle`, lets the point that `prove._bisect_positive`
evaluates at a core's midpoint refute the claim when its enclosure merely
reaches below 0.  For each, the repository is copied to a temporary
directory, the one edit is made there, and `pytest -x -q` runs on the
copy.  A mutant that leaves the suite green survives: the edit it makes
has no test.

`test_canonical_report_is_pinned` is deselected on every run: it hashes the
report's bytes, so it catches a change, not an unsound one, and a flip whose
error stays below the printed digits would pass it.

Usage, from the repository root (stdlib only; pytest runs in a subprocess):

    python tests/mutants.py              # every mutant, then the survivors
    python tests/mutants.py idiv ipow    # the mutants whose label starts so

Each mutant takes from a few seconds (killed early) to a full Tier-1 run
(survived).  The unmutated copy runs first and must pass.  Exit status is
0 when every mutant run is killed, 1 when one survives, and 2 when no
label matches, a text to flip is not once in its file, or the unmutated
copy fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORE = "src/ineqcert/_core.py"

# (label, file, the exact text once in that file, its flipped form)
MUTANTS = [
    ("imul-lo-up", CORE,
     "return (lo >> ctx.prec, _ceil_shift(hi, ctx.prec))",
     "return (_ceil_shift(lo, ctx.prec), _ceil_shift(hi, ctx.prec))"),
    ("imul-hi-down", CORE,
     "return (lo >> ctx.prec, _ceil_shift(hi, ctx.prec))",
     "return (lo >> ctx.prec, hi >> ctx.prec)"),
    ("idiv_int-lo-up", CORE,
     "return (a[0] // k, _ceil_div(a[1], k))",
     "return (_ceil_div(a[0], k), _ceil_div(a[1], k))"),
    ("idiv_int-hi-down", CORE,
     "return (a[0] // k, _ceil_div(a[1], k))",
     "return (a[0] // k, a[1] // k)"),
    ("idiv-pos-lo-up", CORE,
     "return (lo // (b[1] if lo >= 0 else b[0]),",
     "return (_ceil_div(lo, b[1] if lo >= 0 else b[0]),"),
    ("idiv-pos-hi-down", CORE,
     "_ceil_div(hi, b[0] if hi >= 0 else b[1]))",
     "hi // (b[0] if hi >= 0 else b[1]))"),
    ("idiv-neg-lo-up", CORE,
     "return (hi // (b[1] if hi >= 0 else b[0]),",
     "return (_ceil_div(hi, b[1] if hi >= 0 else b[0]),"),
    ("idiv-neg-hi-down", CORE,
     "_ceil_div(lo, b[0] if lo >= 0 else b[1]))",
     "lo // (b[0] if lo >= 0 else b[1]))"),
    ("ipow-lo-up", CORE,
     "return (m ** e) // sc if e > 1 else m",
     "return _ceil_div(m ** e, sc) if e > 1 else m"),
    ("ipow-hi-down", CORE,
     "return _ceil_div(m ** e, sc) if e > 1 else m",
     "return (m ** e) // sc if e > 1 else m"),
    ("lo_of-up", CORE,
     "return (f.numerator << self.prec) // f.denominator",
     "return _ceil_div(f.numerator << self.prec, f.denominator)"),
    ("hi_of-down", CORE,
     "return _ceil_div(f.numerator << self.prec, f.denominator)",
     "return (f.numerator << self.prec) // f.denominator"),
    ("point_series-xx-hi-down", CORE,
     "mm_hi = _ceil_shift(x * x, prec)",
     "mm_hi = (x * x) >> prec"),
    ("point_series-term-hi-down", CORE,
     "t_hi = -((-t_hi * mm_hi >> prec) // dt)",
     "t_hi = (t_hi * mm_hi >> prec) // dt"),
    ("atan-term-hi-down", CORE,
     "t_hi = _ceil_div(one, d)",
     "t_hi = one // d"),
    ("pi-hi-down", CORE,
     "return lo >> 16, _ceil_shift(hi, 16)",
     "return lo >> 16, hi >> 16"),
    ("form_term-hi-down", CORE,
     "return (lo >> sh, _ceil_shift(hi, sh))",
     "return (lo >> sh, hi >> sh)"),
    ("bernstein-lo-up", CORE,
     "return least // (d << (prec * n))",
     "return _ceil_div(least, d << (prec * n))"),
    ("round_out-lo-up", "src/ineqcert/interval.py",
     "lo = Fraction((self.lo.numerator * scale) // self.lo.denominator, scale)",
     "lo = Fraction(-((-self.lo.numerator * scale) // self.lo.denominator), scale)"),
    ("round_out-hi-down", "src/ineqcert/interval.py",
     "hi = Fraction(-((-self.hi.numerator * scale) // self.hi.denominator), scale)",
     "hi = Fraction((self.hi.numerator * scale) // self.hi.denominator, scale)"),
    ("series-PI_LO-above-pi", "src/ineqcert/series.py",
     "PI_LO = Fraction(314159265358979, 10 ** 14)",
     "PI_LO = Fraction(314159265358980, 10 ** 14)"),
    ("positive-step-admits-zero", "src/ineqcert/prove.py",
     "if not theorem_sign(thm, role, n) > 0:",
     "if not theorem_sign(thm, role, n) >= 0:"),
    ("t35-kernel-minus-8", "src/ineqcert/series.py",
     "return (6 * n - 8) * 2 ** (2 * n) + 8",
     "return (6 * n - 8) * 2 ** (2 * n) - 8"),
    ("step-drops-carry", "src/ineqcert/prove.py",
     "        n0, d0 = n1, d1\n",
     ""),
    ("probe-refutes-straddle", "src/ineqcert/prove.py",
     "if v is not None and v.hi < 0:",
     "if v is not None and v.lo < 0:"),
]

PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--deselect", "tests/test_cli.py::test_canonical_report_is_pinned"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".perfbench_out", "*.egg-info")


def run(edit=None):
    """(killed, the first failing test or pytest's last line) for one copy."""
    with tempfile.TemporaryDirectory(prefix="ineqcert-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if edit is not None:
            path, old, new = edit
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        proc = subprocess.run(PYTEST, cwd=copy, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": "src"})
    lines = proc.stdout.splitlines()
    failed = [ln.split(" ", 1)[1].split(" - ")[0] for ln in lines
              if ln.startswith("FAILED ") or ln.startswith("ERROR ")]
    return proc.returncode != 0, (failed[0] if failed else
                                  (lines[-1] if lines else proc.stderr.strip()))


def main(argv):
    chosen = [m for m in MUTANTS
              if not argv or any(m[0].startswith(a) for a in argv)]
    bad = [label for label, path, old, _ in chosen
           if (ROOT / path).read_text().count(old) != 1]
    if not chosen or bad:
        print(f"no mutant matches {argv}" if not chosen else
              f"the text to flip is not once in its file: {', '.join(bad)}")
        return 2
    killed, detail = run()
    if killed:
        print(f"the unmutated copy fails: {detail}")
        return 2
    survivors = []
    for label, path, old, new in chosen:
        killed, detail = run((path, old, new))
        print(f"{label:28} {'killed by ' if killed else 'SURVIVED  '}{detail}",
              flush=True)
        if not killed:
            survivors.append(label)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
