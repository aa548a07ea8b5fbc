"""The argument checks of the library's public and internal entry points,
one case each: a bad argument raises, and the rarely taken branches return
what they should."""

import os
from fractions import Fraction

import pytest

from ineqcert import _core
from ineqcert.cli import run_command
from ineqcert.errors import DomainError, EvalError
from ineqcert.interval import Interval, elem_enclose, get_ctx, pi_enclose
from ineqcert.lang import Call, VarX, eval_expr
from ineqcert.prove import scan_extremum
from ineqcert.series import eval_series, get_series

F = Fraction
_CTX = get_ctx(64)
_FOO = Call("foo", VarX())      # built by hand: the parser refuses the name


# id -> (call, expected value, None) or (call, exception type, message pattern)
_CHECKS = {
    "interval-float-end": (lambda: Interval(0.5, 1), TypeError, "float"),
    "interval-reversed": (lambda: Interval(2, 1), ValueError, "lo=2 > hi=1"),
    "interval-rsub": (lambda: 2 - Interval(0, 1), Interval(1, 2), None),
    "interval-rtruediv": (lambda: 1 / Interval(2, 4), Interval(F(1, 4), F(1, 2)), None),
    "interval-fraction-power": (lambda: Interval(1, 2) ** F(1, 2),
                                TypeError, "integer exponent"),
    "interval-repr": (lambda: repr(Interval(F(1, 2), 3)), "Interval(1/2, 3)", None),
    "pi-enclose-zero-width": (lambda: pi_enclose(0), DomainError, "positive"),
    "elem-enclose-unknown": (lambda: elem_enclose("foo", Interval(0, 1), F(1, 10)),
                             DomainError, "unknown function 'foo'"),
    "elem-enclose-zero-width": (lambda: elem_enclose("sin", Interval(0, 1), 0),
                                DomainError, "positive"),
    "series-unknown": (lambda: get_series("NOPE"),
                       DomainError, "unknown series kind 'NOPE'"),
    "series-below-start": (lambda: eval_series("COT", Interval(F(1, 10), F(1, 5)), 0),
                           DomainError, "N=0 below start index"),
    "scan-unknown-theorem": (
        lambda: scan_extremum("T9", Interval(F(1, 10), 1), F(1, 10 ** 6)),
        DomainError, "unknown theorem id 'T9'"),
    # the ratio functions divide by sin, sinh or x: no scan may start at 0
    "scan-lo-zero": (lambda: scan_extremum("T3.1", Interval(0, 1), F(1, 10 ** 6)),
                     DomainError, "T3.1: lo=0 must be above 0"),
    "ctx-precision-tiny": (lambda: _core.Ctx(8), ValueError, "too small"),
    "taylor-power-zero": (
        lambda: _core._tpow(_CTX, _core._tvar(_CTX, 0, _CTX.one, 3), 0),
        _core._tconst((_CTX.one, _CTX.one), 3), None),
    "eval-expr-unknown-call": (lambda: eval_expr(_FOO, Interval(0, 1)),
                               EvalError, "unknown function foo"),
    # without _tcall's check this would be cos(x), silently
    "eval-taylor-unknown-call": (
        lambda: _core.eval_taylor(_CTX, _FOO, _core._tvar(_CTX, 0, _CTX.one, 3), 3),
        DomainError, "unknown function foo"),
    # no expect_seq tag in the corpus: the violation at n=2 is not expected
    "sequences-untagged": (lambda: run_command(
        ["sequences", "--id", "S_T33_C", "--mode", "increasing", "--nmax", "5",
         "--corpus", os.devnull, "--out", os.devnull]), 1, None),
}


@pytest.mark.parametrize("call,expected,match", _CHECKS.values(), ids=_CHECKS.keys())
def test_library_check(call, expected, match):
    if match is None:
        assert call() == expected
    else:
        with pytest.raises(expected, match=match):
            call()
