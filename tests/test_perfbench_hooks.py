"""The traced benchmark rebinds `ineqcert` module attributes by name
(`perfbench/spans.py`, `perfbench/child.py`); a renamed function there would
silently lose its span or counter, so the names are checked here."""

import importlib
import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.exists(), reason="no perfbench/ in this checkout")
def test_traced_attributes_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for group in spans.TRACED.values() for site in group]
    sites += [("_core", "imul"), ("cli", "verify_inequality"),
              ("cli", "_load_corpus")]
    missing = [f"{mod}.{attr}" for mod, attr in sites
               if not callable(getattr(importlib.import_module(f"ineqcert.{mod}"),
                                       attr, None))]
    assert missing == []
    # the order counters read k as eval_taylor's fourth positional argument
    core = importlib.import_module("ineqcert._core")
    assert list(inspect.signature(core.eval_taylor).parameters)[3] == "k"
    # and the Bernoulli counter reads the index as bernoulli's first argument
    exact = importlib.import_module("ineqcert.exact")
    assert list(inspect.signature(exact.bernoulli).parameters)[0] == "n"
    # the traced run sums the point caches of the per-precision contexts
    interval = importlib.import_module("ineqcert.interval")
    interval.get_ctx(64)
    assert interval._ctx_cache and all(
        isinstance(ctx, core.Ctx) and ctx.prec == prec and isinstance(ctx.cache, dict)
        for prec, ctx in interval._ctx_cache.items())


def test_taylor_products_go_through_module_xmul(monkeypatch, corpus_specs):
    # every exact product of the Taylor ops goes through `_core._xmul`, so a
    # rebinding of it counts them; a copy of the product inlined into an op
    # would hide its work there
    core = importlib.import_module("ineqcert._core")
    ctx = core.Ctx(192)
    node = next(s for s in corpus_specs if s.name == "WILKER").difference()
    xvec = core._tvar(ctx, ctx.lo_of(Fraction(1, 4)), ctx.lo_of(Fraction(1, 2)))
    vec = core.eval_taylor(ctx, node, xvec, core.TAYLOR_ORDER)
    calls = []
    xmul = core._xmul

    def counting(*args):
        calls.append(args)
        return xmul(*args)

    monkeypatch.setattr(core, "_xmul", counting)
    assert core.eval_taylor(ctx, node, xvec, core.TAYLOR_ORDER) == vec
    assert len(calls) > 0
    # and each Taylor op on its own; `_tmul` of one object squares through
    # `_tsqr`, so its general loop needs two distinct operands
    for op, args in [(core._tmul, (xvec, list(xvec))), (core._tsqr, (xvec,)),
                     (core._tdiv, (xvec, xvec)),
                     (core._tsincos, (xvec, False)),
                     (core._ttan, (xvec, False))]:
        calls.clear()
        op(ctx, *args)
        assert len(calls) > 0, op.__name__


def test_bisection_encloses_through_module_enclose(monkeypatch):
    # the span `core.enclose` rebinds `_core.enclose`: every box of a
    # bisection, and the point probed at the core's midpoint before it,
    # must go through that name, inherited remainder and all
    core = importlib.import_module("ineqcert._core")
    prove = importlib.import_module("ineqcert.prove")
    lang = importlib.import_module("ineqcert.lang")
    interval = importlib.import_module("ineqcert.interval")
    calls = []
    enclose = core.enclose

    def counting(*args, **kwargs):
        calls.append(args[2:] + tuple(kwargs.values()))
        return enclose(*args, **kwargs)

    monkeypatch.setattr(core, "enclose", counting)
    res = prove.prove_positive(lang.parse_expression("x - sin(x)"),
                               interval.Interval(Fraction(1, 100), Fraction(4)))
    # a Proved bisection encloses each leaf and each box it split, after
    # one point at the midpoint: 401/200, rounded out to one unit wide
    assert res.status == "Proved" and len(calls) == 2 * res.leaves
    assert [i for i, (a, b, _) in enumerate(calls) if b - a <= 1] == [0]
    assert any(rem for _, _, rem in calls)


def _refute_input(tmp_path):
    """The benchmark's workloads module, and the plan and input file of its
    seed-1 refute workload, written under tmp_path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", SPANS.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    plan = workloads.build("refute", 1, SPANS.parents[1], tmp_path, 2, 1)
    (path,) = tmp_path.glob("input-b*.ineq")
    return workloads, plan, path


@pytest.mark.skipif(not SPANS.exists(), reason="no perfbench/ in this checkout")
def test_refute_workload_input_parses(tmp_path):
    # the benchmark writes its own stanzas; their tags must pass parse_corpus
    _, plan, path = _refute_input(tmp_path)
    lang = importlib.import_module("ineqcert.lang")
    assert len(lang.parse_corpus(path.read_text())) == len(plan["expected"])


@pytest.mark.skipif(not SPANS.exists(), reason="no perfbench/ in this checkout")
def test_refute_workload_is_refuted_with_confirmed_witnesses(tmp_path):
    # every one of the 108 false claims is Refuted, and mpmath finds each
    # witness's value negative and inside its certified enclosure
    mpmath = pytest.importorskip("mpmath")
    workloads, plan, path = _refute_input(tmp_path)
    cli = importlib.import_module("ineqcert.cli")
    out = tmp_path / "refute.json"
    assert cli.run_command(["prove", "--corpus", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert workloads.check_prove(report, plan, mpmath) == []


@pytest.mark.skipif(not SPANS.exists(), reason="no perfbench/ in this checkout")
def test_a_midpoint_refutation_binds_no_record(tmp_path, monkeypatch):
    # the refute workload's verdicts end at the core's midpoint; each forms
    # its ProofResult positionally, so `Record._bind`, which a keyword or a
    # default field goes through, is never called, and the fields are those
    # a keyword-built result of the same verdict holds
    _, _, path = _refute_input(tmp_path)
    lang = importlib.import_module("ineqcert.lang")
    prove = importlib.import_module("ineqcert.prove")
    record = importlib.import_module("ineqcert._record")
    interval = importlib.import_module("ineqcert.interval")
    spec = lang.parse_corpus(path.read_text())[0]
    lo, hi = lang.eval_endpoint(spec.lo_expr), lang.eval_endpoint(spec.hi_expr)
    assert lo.lo == lo.hi and (lo.lo * 64).denominator == (hi.hi * 64).denominator == 1
    opts, binds = prove.ProveOptions(), []
    bind = record.Record._bind.__func__
    monkeypatch.setattr(record.Record, "_bind", classmethod(
        lambda cls, args, kwargs: binds.append(cls) or bind(cls, args, kwargs)))
    res = prove.verify_inequality(spec, opts)
    assert binds == []
    monkeypatch.undo()
    mid = (lo.lo + hi.lo) / 2
    value = prove._enclose(interval.get_ctx(192), spec.difference(), mid, mid)[0]
    want = prove.ProofResult("Refuted", witness=interval.Interval.point(mid),
                             witness_value=value, ms=res.ms, findings=res.findings,
                             bisected=spec.difference())
    fields = prove.ProofResult._fields
    assert len(fields) == 14 and len(res.findings) == 1 and value.hi < 0
    assert {n: getattr(res, n) for n in fields} == {n: getattr(want, n) for n in fields}
