"""One batch in a fresh interpreter.

    python3 perfbench/child.py JOB.json

JOB names the checkout root, the `ineqcert` argument lists and where to
write the results.  A new interpreter per batch starts every memo table
cold, as each `ineqcert` call does: the Bernoulli table, the lru_caches on
theorem_coeff, lemma_coeff and compile_expr, the pi bracket and the
per-precision contexts.

While the batch runs, a timer signal interrupts it every SAMPLE_EVERY_S
seconds to time a short fixed loop of 192-bit multiplies (`speed.py`), so
the parent can convert every measured interval into reference seconds.
"""

import json
import signal
import sys
import time

T0 = time.perf_counter()
import speed  # noqa: E402  (perfbench/ is on sys.path as the script's directory)

SAMPLE_EVERY_S = 0.02


def _sample(*_):
    t = time.perf_counter()
    speed.loop()
    speed.SAMPLES.append((t, time.perf_counter()))


signal.signal(signal.SIGALRM, _sample)
signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)


def _import(root):
    sys.path.insert(0, f"{root}/src")
    from ineqcert import _core, cli, exact, interval, lang, prove, series
    if not cli.__file__.startswith(f"{root}/src/"):
        raise ImportError(f"ineqcert imported from {cli.__file__}, not {root}/src")
    return {"_core": _core, "cli": cli, "exact": exact, "interval": interval,
            "lang": lang, "prove": prove, "series": series}


def batch(job):
    mods = _import(job["root"])
    # Set-up: the import above, then reading and parsing the first input.
    setup = [(T0, time.perf_counter())]
    cli = mods["cli"]
    load = cli._load_corpus

    def timed_load(path):
        t = time.perf_counter()
        try:
            return load(path)
        finally:
            if len(setup) == 1:
                setup.append((t, time.perf_counter()))

    cli._load_corpus = timed_load
    tracer = None
    verdicts = {}                         # verdict name -> (start, end)
    if job["trace"]:
        from spans import ROOT, Tracer
        tracer = Tracer()
        tracer.install(mods)
        run = lambda argv: tracer.call(ROOT, cli.run_command, argv)
    else:
        run = cli.run_command
        verify = cli.verify_inequality

        def timed_verify(spec, opts=None):
            t = time.perf_counter()
            try:
                return verify(spec, opts)
            finally:
                verdicts[spec.name] = (t, time.perf_counter())

        cli.verify_inequality = timed_verify
    rcs, errors, commands = [], [], []
    for argv, out in zip(job["commands"], job["outputs"]):
        t = time.perf_counter()
        try:
            rcs.append(run([*argv, "--out", out]))
        except Exception as exc:  # counted as a failed verdict, not a crash
            rcs.append(None)
            errors.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        commands.append((t, time.perf_counter()))
        if argv[0] != "prove":
            verdicts[" ".join(argv)] = commands[-1]
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    res = {"rcs": rcs, "errors": errors, "commands": commands,
           "verdicts": verdicts, "setup": setup, "samples": speed.SAMPLES}
    if tracer is not None:
        tracer.uninstall()
        res["trace"] = tracer.summary()
        ctxs = mods["interval"]._ctx_cache.values()
        res["trace"]["counts"]["core.point_cache.entries"] = sum(
            len(c.cache) for c in ctxs)
        if job.get("spans"):
            tracer.dump(job["spans"])
    return res


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    res = batch(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()
