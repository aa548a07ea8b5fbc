"""The traced benchmark rebinds `ineqcert` module attributes by name
(`perfbench/spans.py`, `perfbench/child.py`); a renamed function there would
silently lose its span or counter, so the names are checked here."""

import importlib
import importlib.util
import inspect
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


def test_taylor_products_go_through_module_imul(monkeypatch, corpus_specs):
    # `core.imul.calls` counts the products by rebinding `_core.imul`; a copy
    # of the product inlined into the Taylor ops would hide its work there
    core = importlib.import_module("ineqcert._core")
    ctx = core.Ctx(192)
    node = next(s for s in corpus_specs if s.name == "WILKER").difference()
    xvec = core._tvar(ctx, ctx.lo_of(Fraction(1, 4)), ctx.lo_of(Fraction(1, 2)))
    vec = core.eval_taylor(ctx, node, xvec, core.TAYLOR_ORDER)
    calls = []
    imul = core.imul

    def counting(*args):
        calls.append(args)
        return imul(*args)

    monkeypatch.setattr(core, "imul", counting)
    assert core.eval_taylor(ctx, node, xvec, core.TAYLOR_ORDER) == vec
    assert len(calls) > 0
    # and each Taylor op on its own
    for op, args in [(core._tmul, (xvec, xvec)), (core._tdiv, (xvec, xvec)),
                     (core._tsincos, (xvec, False))]:
        calls.clear()
        op(ctx, *args)
        assert len(calls) > 0, op.__name__
