"""ineqcert benchmark: how fast correct verdicts come back.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  Workloads (see `workloads.py`):

  corpus       the shipped 28-stanza corpus, --jobs 1, stanza order seeded
  corpus-jobs  the same input with --jobs set to the number of usable CPUs
               (at least 2)
  refute       108 seeded false claims: the 27 proved stanzas with their
               relation reversed, each on 4 seeded sub-domains
  exact        the corpus's exact proof steps at n_max=500 (sequences,
               identities, limits), seeded order, all in one interpreter

A batch is one workload input run in a fresh interpreter through
`ineqcert.cli.run_command`; a run makes round(seconds / BATCH_S) batches, so
every run of a workload does the same work.  Every verdict is checked
against a known answer (see `workloads.py`); wrong verdicts, exceptions and
unexpected exit codes are counted in `failed`.

Times are reported in reference seconds (see `speed.py`): measured seconds
scaled by the machine speed sampled while the batch ran, so that other
tenants of a shared machine do not show up as program changes.  The raw
seconds are kept in the run's summary.json.

With --trace 0 the last line reports the end-to-end metrics, tracing off:
the median batch's wall and CPU time, verdict latency (median and tail, see
`end_to_end`), the median set-up time and the peak RSS.  With --trace 1 one
untraced and one traced batch run, and the last line reports the per-layer
metrics from the spans of `spans.py`.  Inputs, reports and per-run details
go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

# Budgeted seconds per batch: a run makes round(seconds / BATCH_S) batches, so
# every run of a workload does the same work.  On a 2-vCPU VM with Python
# 3.11 a batch takes 8-10 s on corpus and corpus-jobs, 3.5-4 s on refute and
# 2.5-3.5 s on exact.
BATCH_S = {"corpus": 8.0, "corpus-jobs": 8.0, "refute": 4.0, "exact": 2.5}
DEADLINE_S = 170

# Per-layer metrics of the traced run: span fields, then program counters,
# then ratios derived from them.
LAYER_SPANS = [
    ("core.enclose", "calls s self_s"),
    ("core.eval_taylor", "calls s self_s"),
    ("core.eval_plain", "calls s self_s"),
    ("core.fn_range", "calls s"),
    ("core.sincos_pt", "calls s"),
    ("core.sinhcosh_pt", "calls s"),
    ("prove.verify_inequality", "calls s"),
    ("prove.bisect_positive", "calls s self_s"),
    ("prove.grid_refute", "s self_s"),
    ("prove.registration_ok", "s"),
    ("prove.near_zero_certificate", "s"),
    ("prove.sequence_check", "s"),
    ("prove.identity_check", "s"),
    ("prove.limit_report", "s"),
    ("series.eval_series", "calls s"),
    ("series.tail_bound", "calls s"),
    ("series.theorem_coeff", "calls s self_s"),
    ("exact.bernoulli", "s"),
    ("lang.parse_corpus", "s"),
    ("interval.get_ctx", "s"),
]
LAYER_COUNTS = [*(f"core.eval_taylor.k{k}.calls" for k in (2, 4, 8, 12)),
                "core.imul.calls", "core.point_cache.entries", "prove.leaves",
                "prove.max_depth", "exact.bernoulli.max_index"]
LAYER_DERIVED = [("core.point_cache.hit_ratio", "ratio"), ("cli.self_s", "s"),
                 ("cli.parallel_ratio", "ratio"), ("trace.overhead", "ratio")]


def spawn(job: dict, path: Path, deadline: float) -> dict:
    """Run child.py on a job in a fresh interpreter; wall, CPU and peak RSS
    come from the parent's clock and the child's rusage."""
    path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(path.with_suffix(".stderr"), "w", encoding="utf-8") as err:
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(path)],
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                lambda: os.kill(proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
           "rss_mb": ru.ru_maxrss / 1024}
    try:
        out.update(json.loads(Path(job["result"]).read_text(encoding="utf-8")))
    except (OSError, ValueError):
        out["errors"] = [f"child exited {proc.returncode}: "
                         + path.with_suffix(".stderr").read_text(encoding="utf-8")[-2000:]]
    return out


def run_batch(commands, out: Path, tag: str, trace: bool, deadline: float) -> dict:
    outputs = [str(out / f"{tag}-{k}.json") for k in range(len(commands))]
    job = {"root": str(ROOT), "trace": trace,
           "commands": commands, "outputs": outputs,
           "result": str(out / f"{tag}-result.json"),
           "spans": str(out / f"{tag}-spans.json") if trace else None}
    res = spawn(job, out / f"{tag}-job.json", deadline)
    res["outputs"] = outputs
    if res.get("samples") and len(res["setup"]) == 2:
        res.update(reference_times(res))
    return res


def reference_times(res) -> dict:
    """A batch's wall, CPU, set-up and verdict times in reference seconds.

    Wall and CPU time come from the parent and cover the whole child
    process; they are scaled by the batch's mean speed.  Set-up and verdict
    intervals are scaled by the speed sampled around each of them.
    """
    samples = res["samples"]
    k = speed.scale(samples)
    sampling = speed.busy(samples, float("-inf"), float("inf"))
    return {
        "ref_wall_s": (res["wall_s"] - sampling) * k,
        "ref_cpu_s": (res["cpu_s"] - sampling) * k,
        "ref_setup_s": sum(speed.ref_seconds(samples, a, b) for a, b in res["setup"]),
        "ref_commands_s": sum(speed.ref_seconds(samples, a, b) for a, b in res["commands"]),
        "ref_verdict_ms": {name: 1000 * speed.ref_seconds(samples, a, b)
                           for name, (a, b) in res["verdicts"].items()},
        "calib_s": statistics.median(b - a for a, b in samples),
    }


def check_batch(plan, commands, res, mp) -> dict:
    """Attempted and failed verdicts, the report digest and total leaves."""
    problems = list(res.get("errors", []))
    attempted = len(plan["expected"] if plan["kind"] == "prove" else commands)
    if "rcs" not in res or len(res["setup"]) != 2 or not res["samples"]:
        problems.append("the batch gave no exit codes, set-up time or speed samples")
        return {"attempted": attempted, "failed": attempted, "problems": problems,
                "digest": None, "leaves": None}
    rcs = res["rcs"]
    reports = []
    for path in res["outputs"]:
        try:
            reports.append(json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError):
            reports.append(None)
    if plan["kind"] == "prove":
        if reports[0] is None or rcs[0] != 0:
            problems.append(f"prove exited {rcs[0]}")
            return {"attempted": attempted, "failed": attempted,
                    "problems": problems, "digest": None, "leaves": None}
        bad = workloads.check_prove(reports[0], plan, mp)
        return {"attempted": attempted, "failed": len(bad),
                "problems": problems + bad, "digest": workloads.digest(reports[0]),
                "leaves": sum(c["leaves"] for c in reports[0]["claims"])}
    failed = 0
    for argv, rc, report in zip(commands, rcs, reports):
        bad = ([f"{' '.join(argv)} exited {rc}"] if rc != 0 or report is None
               else workloads.check_exact(argv, report, mp))
        failed += bool(bad)
        problems += bad
    return {"attempted": attempted, "failed": failed,
            "problems": problems, "leaves": 0,
            "digest": workloads.digest({" ".join(a): r for a, r in
                                        zip(commands, reports)})}


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100, n
    return s[n - 11], (100 * (n - 10)) // n, n


def end_to_end(batches) -> dict:
    """End-to-end metrics of one run, in reference seconds.

    Wall, CPU and set-up time are the median over batches, and so is each
    verdict's latency before the median over verdicts is taken.  The tail
    pools every latency of the run, so it has enough samples to reach past
    the median (one latency per verdict would not, on `exact`).
    """
    latency = {}
    for b in batches:
        for name, ms in b["ref_verdict_ms"].items():
            latency.setdefault(name, []).append(ms)
    value, pct, n = tail([ms for b in batches for ms in b["ref_verdict_ms"].values()])
    return {
        "wall_s": (statistics.median(b["ref_wall_s"] for b in batches), "s"),
        "cpu_s": (statistics.median(b["ref_cpu_s"] for b in batches), "s"),
        "verdict_ms_p50": (statistics.median(statistics.median(v)
                                             for v in latency.values()), "ms"),
        "verdict_ms_tail": (value, "ms", f"p{pct} of n={n} latencies"),
        "setup_s": (statistics.median(b["ref_setup_s"] for b in batches), "s"),
        "peak_rss_mb": (max(b["rss_mb"] for b in batches), "MB"),
    }


def per_layer(traced, base) -> dict:
    """Per-layer metrics from the traced batch, in measured seconds (span
    times include the speed samples taken inside them, about 1.5%).

    cli.parallel_ratio is the summed verify_inequality time over the time
    in run_command; trace.overhead compares the time in run_command of the
    traced and the untraced batch, in reference seconds, so that writing
    the spans out after the run does not count.
    """
    spans, counts = traced["trace"]["spans"], traced["trace"]["counts"]
    out = {f"{name}.{field}": (spans[name][field], "count" if field == "calls" else "s")
           for name, fields in LAYER_SPANS for field in fields.split()}
    out.update({name: (counts.get(name, 0), "count") for name in LAYER_COUNTS})
    hits = counts.get("point_cache.hit", 0)
    lookups = hits + counts.get("point_cache.miss", 0)
    derived = {
        "core.point_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cli.self_s": spans["cli.run_command"]["self_s"],
        "cli.parallel_ratio": (spans["prove.verify_inequality"]["s"]
                               / spans["cli.run_command"]["s"]),
        "trace.overhead": traced["ref_commands_s"] / base["ref_commands_s"],
    }
    out.update({name: (derived[name], unit) for name, unit in LAYER_DERIVED})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(BATCH_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds through spawn(), which stops the running child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src/ineqcert/cli.py").is_file() or not (ROOT / workloads.CORPUS_REL).is_file():
        print(f"perfbench: no ineqcert sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        import mpmath
    except ImportError:
        print("perfbench: mpmath is required to check refutation witnesses",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    out = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    n = 1 if args.trace else max(1, round(args.seconds / BATCH_S[args.workload]))
    plan = workloads.build(args.workload, args.seed, ROOT, out, nproc, n)

    if args.trace:
        # Both batches run the same input, so their ratio is the overhead.
        commands = plan["batches"] * 2
        batches = [run_batch(commands[0], out, "base", False, deadline),
                   run_batch(commands[1], out, "traced", True, deadline)]
    else:
        commands = plan["batches"]
        batches = [run_batch(c, out, f"b{b}", False, deadline)
                   for b, c in enumerate(commands)]

    checks = [check_batch(plan, c, b, mpmath) for c, b in zip(commands, batches)]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    for c in checks:
        for problem in c["problems"][:20]:
            print(f"FAIL {problem}")
    correct = failed == 0
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = per_layer(batches[1], batches[0])
    else:
        metrics = end_to_end(batches)

    digests = sorted({c["digest"] for c in checks if c["digest"]})
    try:
        baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
        known = baseline["digests"][args.workload][str(args.seed)]
    except (OSError, ValueError, KeyError):
        known = None
    if len(digests) != 1:
        digest_note = f"differs between batches: {digests}"
    elif known is None:
        digest_note = "no baseline digest for this workload and seed"
    elif digests[0] == known:
        digest_note = "matches the baseline"
    else:
        digest_note = f"CHANGED from the baseline {known}"
    calib = [b["calib_s"] for b in batches if "calib_s" in b]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "batches": len(batches), "verdicts_per_batch": checks[0]["attempted"],
        "nproc": nproc, "python": sys.version.split()[0],
        "calib_s": statistics.median(calib) if calib else None,
        "report_sha256": digests, "report_note": digest_note,
        "leaves": sorted({c["leaves"] for c in checks if c["leaves"] is not None}),
        "failed_share": failed / attempted,
        "raw_wall_s": [b["wall_s"] for b in batches],
        "raw_cpu_s": [b["cpu_s"] for b in batches],
        "ref_wall_s": [b.get("ref_wall_s") for b in batches],
        "ref_setup_s": [b.get("ref_setup_s") for b in batches],
        "metrics": {k: list(v) for k, v in metrics.items()},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  batches {len(batches)} x "
          f"{checks[0]['attempted']} verdicts  nproc {nproc}  "
          f"calib_s {summary['calib_s'] or float('nan'):.6f} "
          f"(one {speed.ITERS}-iteration sample; reference {speed.REF_S})")
    print(f"report sha256 {' '.join(digests) or '-'} ({digest_note}); "
          f"leaves {summary['leaves']}")
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted} verdicts)")
    for name, (value, unit, *note) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}{'  ' + note[0] if note else ''}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v[0], "unit": v[1]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
