"""Flip each outward rounding of the engine and report the flips no test sees.

The first 32 mutants below each turn one rounding the wrong way: a lower
end rounded up, an upper end rounded down, or a certified lower bound of pi
raised above pi.  Twelve of them flip the one outward rounding of a Taylor
coefficient: in `_tmul`, `_tsqr`, the sin and cos lines of `_tsincos`, and
the w and t lines of `_ttan`; two flip the one rounding of each Taylor form
of `enclose`.  `_tdiv` rounds through `_xdiv`, as `idiv` does, so the four
`idiv` flips reach it too.  The next four weaken the exact proof steps.
Two hit the positive steps, which read a sign off an integer kernel: one
lets a zero value pass, the other changes T3.5's kernel.
`b_t32-shift-short` shifts T3.2's b_n, also the kernel of its g_n, one bit
short, so its 4^n reads 4^n/2.  `step-drops-carry` deletes the line of
`prove._steps` that moves a_(n+1) into a_n, so every step is taken from
the sequence's first value.  `probe-refutes-straddle` lets a point refute
a claim in `prove._grid_refute` when its enclosure merely reaches below 0.
The next ten break a rule of `_core`, not a rounding: the cross
products of `_sq` counted once, not twice; in `enclose`, the inherited
remainder times r, as if taken at order k + 1, an even-order term taken at
r^j alone, not over [0, r^j], the coefficient over [0, b] taken at
TAYLOR_ORDER without its removable quotients' lost orders, and that
coefficient taken for a box left of 0 as well; in `_xpow`, an even
power of a pair straddling 0 raised from 0 to the lesser end's power, and
an even power of a nonpositive pair left in the order of its ends; and
in `_run`, each part of the Taylor memo's key but the step id dropped in
turn: the box, so boxes share vectors
(`test_enclose_on_a_warmed_ctx_equals_a_fresh_one`), the order, so two
removable quotients that lose 2 and 3 orders share one of sin(x) over
[0, b] (`test_a_memo_vector_is_served_only_at_its_order`), and whether
shifts apply, so a plain run is served the shifted quotient
(`test_a_memo_vector_is_served_only_to_its_shifts`).  The next three
break the registered route of `prove.verify_inequality`: the one-leaf
proof taken for a prefactor that is merely not Refuted
(`series-route-prefactor-not-refuted`, which
`test_a_prefactor_that_does_not_prove_leaves_the_core_to_the_raw_difference`
kills), a stanza registered by its name alone
(`registration-by-name`, which `test_theorem_names_on_other_claims`
kills), and a zero series bound taken as settling the sign in
`near_zero_certificate` (`series-bound-admits-zero`, which
`test_an_inconclusive_series_form_leaves_the_core_to_the_raw_difference`
kills).  The next four break the clearing of tan's pole: in
`lang.clear_tan`, the terms with no tan(u) left without their factor
cos(u) (`clear-drops-cos-factor`, which
`test_the_cleared_form_is_cos_times_the_difference` kills), and in
`prove._bisect_positive`, a multiplier taken without its certificate
cos(u) > 0 on the core (`clear-skips-cos-certificate`, which
`test_a_core_that_holds_tans_pole_is_not_cleared` kills); in
`prove._enclose`, the per-box guard on cos(u) for each rewritten
v/tan(u) dropped, so a box that holds tan's pole is bounded through the
finite v*cos(u)/sin(u) (`cot-drops-pole-guard`, which
`test_a_quotient_by_tan_across_its_pole_is_never_proved` kills), and in
`lang._cot`, sin and cos swapped in that rewrite (`cot-swaps-sin-cos`,
which `test_the_cleared_form_is_cos_times_the_difference` kills).  The
next one floors a core's lower end in `prove.verify_inequality`, so the
core starts outside its margin or before its closed end
(`core-end-rounds-inward`, which
`test_core_ends_are_the_round_out_of_each_end` kills).  The next two
break the Taylor form about 0 of `_core._zero_form`: the terms
-|f_j| a^(j-v) of the orders below v dropped
(`zero-form-drops-low-orders`), and a negative coefficient's term taken
at a^e in place of b^e (`zero-form-power-at-wrong-end`);
`test_the_form_about_0_equals_its_fraction_oracle` kills each.  The last
one drops the emptying of a full `Ctx.memo` in `_core._run`, so the table
grows past MEMO_CAP (`table-never-empties`, which
`test_a_full_table_is_emptied_and_changes_no_report` kills).  That is
58 mutants in all.  For each, the repository is copied to a temporary
directory, the one edit is made there, and `pytest -x -q` runs on the
copy.  A mutant that leaves the suite green survives: the edit it makes
has no test.

`test_canonical_report_is_pinned`, `test_exact_reports_are_pinned`,
`test_refute_report_is_pinned` and `test_holdout_report_is_pinned` are
deselected on every run: each hashes reports' bytes, so it catches a
change, not an unsound one, and a flip whose error stays below the printed
digits would pass it.  So is `test_each_mutant_anchor_is_once_in_its_file`,
which every mutant's own edit fails.

Usage, from the repository root (stdlib only; pytest runs in a subprocess):

    python tests/mutants.py              # every mutant, then the survivors
    python tests/mutants.py idiv ipow    # the mutants whose label starts so

Each mutant takes from a few seconds (killed early) to a full Tier-1 run
(survived).  Each copy runs the kernel tests (`FIRST`) before the whole
suite, which runs the corpus early: a mutant that sends a bisection to
the leaf budget spends minutes there (`sq-cross-undoubled` took 12 of
them), and the kernel tests see most mutants in seconds.  A copy that
passes them still runs every test.  Each pytest run is capped at 1 GiB of
address space (on POSIX systems): a mutant that makes a bisection keep
values without end then fails out of memory instead of exhausting the
machine; the unmutated suite stays near 120 MB resident.  The unmutated
copy runs first and must pass.  Exit status is 0 when every mutant run is
killed, 1 when one survives, and 2 when no label matches, a text to flip
is not once in its file, or the unmutated copy fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORE = "src/ineqcert/_core.py"
PROVE = "src/ineqcert/prove.py"

# (label, file, the exact text once in that file, its flipped form)
MUTANTS = [
    ("imul-lo-up", CORE,
     "return (lo >> ctx.prec, _ceil_shift(hi, ctx.prec))",
     "return (_ceil_shift(lo, ctx.prec), _ceil_shift(hi, ctx.prec))"),
    ("imul-hi-down", CORE,
     "return (lo >> ctx.prec, _ceil_shift(hi, ctx.prec))",
     "return (lo >> ctx.prec, hi >> ctx.prec)"),
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
     "return (lo >> (e - 1) * ctx.prec, _ceil_shift(hi, (e - 1) * ctx.prec))",
     "return (_ceil_shift(lo, (e - 1) * ctx.prec), _ceil_shift(hi, (e - 1) * ctx.prec))"),
    ("ipow-hi-down", CORE,
     "return (lo >> (e - 1) * ctx.prec, _ceil_shift(hi, (e - 1) * ctx.prec))",
     "return (lo >> (e - 1) * ctx.prec, hi >> (e - 1) * ctx.prec)"),
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
    ("tmul-lo-up", CORE,
     "return [(p >> prec, _ceil_shift(q, prec)) for p, q in zip(lo, hi)]",
     "return [(_ceil_shift(p, prec), _ceil_shift(q, prec)) for p, q in zip(lo, hi)]"),
    ("tmul-hi-down", CORE,
     "return [(p >> prec, _ceil_shift(q, prec)) for p, q in zip(lo, hi)]",
     "return [(p >> prec, q >> prec) for p, q in zip(lo, hi)]"),
    ("tsqr-lo-up", CORE,
     "out.append((lo >> prec, _ceil_shift(hi, prec)))",
     "out.append((_ceil_shift(lo, prec), _ceil_shift(hi, prec)))"),
    ("tsqr-hi-down", CORE,
     "out.append((lo >> prec, _ceil_shift(hi, prec)))",
     "out.append((lo >> prec, hi >> prec))"),
    ("tsincos-sin-lo-up", CORE,
     "s.append(((s_lo >> prec) // j, -((-s_hi >> prec) // j)))",
     "s.append((-((-s_lo >> prec) // j), -((-s_hi >> prec) // j)))"),
    ("tsincos-sin-hi-down", CORE,
     "s.append(((s_lo >> prec) // j, -((-s_hi >> prec) // j)))",
     "s.append(((s_lo >> prec) // j, (s_hi >> prec) // j))"),
    ("tsincos-cos-lo-up", CORE,
     "c.append(((c_lo >> prec) // j, -((-c_hi >> prec) // j)))",
     "c.append((-((-c_lo >> prec) // j), -((-c_hi >> prec) // j)))"),
    ("tsincos-cos-hi-down", CORE,
     "c.append(((c_lo >> prec) // j, -((-c_hi >> prec) // j)))",
     "c.append(((c_lo >> prec) // j, (c_hi >> prec) // j))"),
    ("ttan-w-lo-up", CORE,
     "w.append((lo >> prec, _ceil_shift(hi, prec)))",
     "w.append((_ceil_shift(lo, prec), _ceil_shift(hi, prec)))"),
    ("ttan-w-hi-down", CORE,
     "w.append((lo >> prec, _ceil_shift(hi, prec)))",
     "w.append((lo >> prec, hi >> prec))"),
    ("ttan-t-lo-up", CORE,
     "t.append(((t_lo >> prec) // j, -((-t_hi >> prec) // j)))",
     "t.append((-((-t_lo >> prec) // j), -((-t_hi >> prec) // j)))"),
    ("ttan-t-hi-down", CORE,
     "t.append(((t_lo >> prec) // j, -((-t_hi >> prec) // j)))",
     "t.append(((t_lo >> prec) // j, (t_hi >> prec) // j))"),
    ("form-lo-up", CORE,
     "return iisect(enc, ((lo + p) >> sh, _ceil_shift(hi + q, sh)))",
     "return iisect(enc, (_ceil_shift(lo + p, sh), _ceil_shift(hi + q, sh)))"),
    ("form-hi-down", CORE,
     "return iisect(enc, ((lo + p) >> sh, _ceil_shift(hi + q, sh)))",
     "return iisect(enc, ((lo + p) >> sh, (hi + q) >> sh))"),
    ("bernstein-lo-up", CORE,
     "return min(sum(w * (lo[j] if w >= 0 else hi[j]) for j, w in enumerate(row))\n"
     "               for row in rows) // d",
     "return -(-min(sum(w * (lo[j] if w >= 0 else hi[j]) for j, w in enumerate(row))\n"
     "                 for row in rows) // d)"),
    ("round_out-lo-up", "src/ineqcert/interval.py",
     "lo = Fraction((self.lo.numerator * scale) // self.lo.denominator, scale)",
     "lo = Fraction(-((-self.lo.numerator * scale) // self.lo.denominator), scale)"),
    ("round_out-hi-down", "src/ineqcert/interval.py",
     "hi = Fraction(-((-self.hi.numerator * scale) // self.hi.denominator), scale)",
     "hi = Fraction((self.hi.numerator * scale) // self.hi.denominator, scale)"),
    ("series-PI_LO-above-pi", "src/ineqcert/series.py",
     "PI_LO = Fraction(314159265358979, 10 ** 14)",
     "PI_LO = Fraction(314159265358980, 10 ** 14)"),
    ("positive-step-admits-zero", PROVE,
     "if not sign(n) > 0:",
     "if not sign(n) >= 0:"),
    ("t35-kernel-minus-8", "src/ineqcert/series.py",
     "return ((6 * n - 8) << 2 * n) + 8",
     "return ((6 * n - 8) << 2 * n) - 8"),
    ("b_t32-shift-short", "src/ineqcert/series.py",
     "return ((2 * n - 3) << 2 * n) + (3 + 3 * n - 2 * n * n)",
     "return ((2 * n - 3) << 2 * n - 1) + (3 + 3 * n - 2 * n * n)"),
    ("step-drops-carry", PROVE,
     "        n0, d0 = n1, d1\n",
     ""),
    ("probe-refutes-straddle", PROVE,
     "if v.hi < 0:",
     "if v.lo < 0:"),
    ("sq-cross-undoubled", CORE,
     "lo, hi = 2 * lo, 2 * hi",
     "lo, hi = lo, hi"),
    ("inherited-rem-order-up", CORE,
     "out = form(rem)",
     "out = form(imul(ctx, rem, (r, r)))"),
    ("term-even-lo", CORE,
     "return _xmul(c, (-rs[j] if j % 2 else 0, rs[j]))",
     "return _xmul(c, (-rs[j] if j % 2 else rs[j], rs[j]))"),
    ("coeff0-drops-depth", CORE,
     "k = TAYLOR_ORDER + depth",
     "k = TAYLOR_ORDER"),
    ("coeff0-gate-drops-a", CORE,
     "and 0 <= a and b < ctx.one:",
     "and b < ctx.one:"),
    ("xpow-straddle-lo-up", CORE,
     "return 0, max(lo ** e, hi ** e)",
     "return min(lo ** e, hi ** e), max(lo ** e, hi ** e)"),
    ("xpow-nonpos-even-order", CORE,
     "return hi ** e, lo ** e",
     "return lo ** e, hi ** e"),
    ("memo-key-drops-box", CORE,
     "else (x[0], len(x), shifts is not None)",
     "else (None, len(x), shifts is not None)"),
    ("memo-key-drops-order", CORE,
     "else (x[0], len(x), shifts is not None)",
     "else (x[0], None, shifts is not None)"),
    ("memo-key-drops-shifts", CORE,
     "else (x[0], len(x), shifts is not None)",
     "else (x[0], len(x), None)"),
    ("series-route-prefactor-not-refuted", PROVE,
     'if pre.status == "Proved":',
     'if pre.status != "Refuted":'),
    ("registration-by-name", PROVE,
     "return shipped is not None and _statement(spec) == _statement(shipped)",
     "return shipped is not None"),
    ("series-bound-admits-zero", PROVE,
     "if bound <= 0:",
     "if bound < 0:"),
    ("clear-drops-cos-factor", "src/ineqcert/lang.py",
     "g = Mul(g, _cot(m, poles), m.pos)",
     "g = g"),
    ("clear-skips-cos-certificate", PROVE,
     "if _positive(ctx, m, core)",
     "if True"),
    ("cot-drops-pole-guard", PROVE,
     "    for u in poles:\n        _core._cos_off_pole(ctx, *_core.eval_plain(ctx, u, x))\n",
     ""),
    ("cot-swaps-sin-cos", "src/ineqcert/lang.py",
     'Call("cos", u, at), e.pos), Call("sin", u, at)',
     'Call("sin", u, at), e.pos), Call("cos", u, at)'),
    ("core-end-rounds-inward", PROVE,
     "lo_core = _dyadic(lo_core, bits, up=True)",
     "lo_core = _dyadic(lo_core, bits)"),
    ("zero-form-drops-low-orders", CORE,
     "t = -max(-c[0], c[1]) * a ** j",
     "t = 0"),
    ("zero-form-power-at-wrong-end", CORE,
     "t = c[0] * (b if c[0] < 0 else a) ** (j - v) * av",
     "t = c[0] * a ** (j - v) * av"),
    ("table-never-empties", CORE,
     "                if len(memo) >= MEMO_CAP:\n                    memo.clear()\n",
     ""),
]

PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--deselect", "tests/test_cli.py::test_canonical_report_is_pinned",
          "--deselect", "tests/test_cli.py::test_exact_reports_are_pinned",
          "--deselect", "tests/test_cli.py::test_refute_report_is_pinned",
          "--deselect", "tests/test_cli.py::test_holdout_report_is_pinned",
          "--deselect",
          "tests/test_mutants.py::test_each_mutant_anchor_is_once_in_its_file"]
FIRST = ["tests/test_core.py", "tests/test_interval.py"]
MEMORY_CAP = 1 << 30
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".perfbench_out", "*.egg-info")


def _cap_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(edit=None):
    """(killed, the first failing test or pytest's last line) for one copy."""
    with tempfile.TemporaryDirectory(prefix="ineqcert-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if edit is not None:
            path, old, new = edit
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        for first in (FIRST, []):
            proc = subprocess.run(PYTEST + first, cwd=copy, capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": "src"},
                                  preexec_fn=_cap_memory if os.name == "posix" else None)
            if proc.returncode != 0:
                break
    lines = proc.stdout.splitlines()
    failed = [ln.split(" ", 1)[1].split(" - ")[0] for ln in lines
              if ln.startswith("FAILED ") or ln.startswith("ERROR ")]
    # a run that dies without a test report (a MemoryError at the cap) names
    # the last line of its stderr
    tail = proc.stderr.strip().splitlines() or lines or [""]
    return proc.returncode != 0, failed[0] if failed else tail[-1]


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
