"""Acceptance gate: one test per criterion, each printing a PASS line.

Exact claims are checked with zero tolerance (rational equality); enclosure
claims pin the stated widths.  Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import random
from fractions import Fraction

import pytest

from ineqcert.cli import run_command
from ineqcert.errors import PoleError
from ineqcert.exact import bernoulli
from ineqcert.interval import Interval, elem_enclose
from ineqcert.lang import eval_expr, format_expr, parse_expression
from ineqcert.prove import (THEOREM_CLAIMS, ProveOptions, _pick_N,
                            identity_check, limit_report,
                            near_zero_certificate, prove_positive,
                            reverify_certificate, sequence_check,
                            verify_inequality)
from ineqcert.series import LEMMA_KINDS, get_series, lemma_coeff, theorem_coeff

from oracles import LemmaSeriesOracle, bernoulli_recurrence, series_claim_form

F = Fraction


@pytest.fixture(scope="module")
def corpus_report_jobs4(tmp_path_factory):
    out = tmp_path_factory.mktemp("report4") / "corpus4.json"
    code = run_command(["prove", "--jobs", "4", "--out", str(out)])
    return code, out.read_bytes()


def test_acceptance_1_bernoulli_exactness():
    oracle = bernoulli_recurrence(40)
    for n in range(21):
        assert bernoulli(2 * n) == oracle[2 * n], n
    for n in range(1, 101):
        assert (-1) ** (n - 1) * bernoulli(2 * n) > 0, n
    print("ACCEPTANCE 1: PASS - Bernoulli numbers exact (n<=20) and sign law (n<=100)")


def test_acceptance_2_lemma_coefficients():
    oracle = LemmaSeriesOracle(44)
    for kind in LEMMA_KINDS:
        start = get_series(kind).start_index
        for n in range(start, 21):
            assert lemma_coeff(kind, n) == oracle.lemma_coeff(kind, n), (kind, n)
    assert [lemma_coeff("X_OVER_SIN", n) for n in (1, 2, 3)] == \
           [F(1, 6), F(7, 360), F(31, 15120)]
    print("ACCEPTANCE 2: PASS - all eight lemma expansions match the exact "
          "series-algebra oracle for n<=20")


def test_acceptance_3_sharp_constants_at_zero():
    expected = {"T3.1": F(1, 60), "T3.2": F(17, 720), "T3.3": F(3, 20),
                "T3.4": F(23, 720), "T3.5": F(1, 10)}
    for thm, val in expected.items():
        rep = limit_report(thm, "zero")
        assert rep.value_exact == val, thm
        assert rep.matches_paper
    print("ACCEPTANCE 3: PASS - zero-endpoint sharp constants exact: "
          "1/60, 17/720, 3/20, 23/720, 1/10")


def test_acceptance_4_sharp_constants_at_pi_half():
    brackets = {
        "T3.1": (F("0.0365326"), F("0.0365327")),
        "T3.2": (F("0.0484151"), F("0.0484152")),
        "T3.5": (F("0.1838051"), F("0.1838052")),
    }
    for thm, (lo, hi) in brackets.items():
        rep = limit_report(thm, "right")
        enc = rep.value_enclosure
        assert enc.width <= F(1, 10 ** 9), thm
        assert lo <= enc.lo and enc.hi <= hi, thm
    print("ACCEPTANCE 4: PASS - pi/2 sharp-constant enclosures within 1e-9: "
          "0.0365326..., 0.0484151..., 0.1838051...")


def test_acceptance_5_interval_proofs(corpus_specs):
    by_name = {s.name: s for s in corpus_specs}
    names = ("THM31_LO", "THM31_HI", "THM32_LO", "THM32_HI",
             "THM35_LO", "THM35_HI", "THM34")
    opts = ProveOptions()
    for name in names:
        r = verify_inequality(by_name[name], opts)
        assert r.status == "Proved", (name, r.reason)
        assert 0 < r.leaves <= 50_000, name
    for thm in ("T3.1", "T3.2", "T3.4", "T3.5"):
        assert near_zero_certificate(thm, F(1, 1000)).status == "Proved", thm
        if thm != "T3.4":
            assert near_zero_certificate(thm, F(1, 1000), side="upper").status \
                == "Proved", thm
    print("ACCEPTANCE 5: PASS - two-sided sharp bounds proved on their "
          "compact cores (<= 5e4 leaves) with near-zero certificates")


def test_acceptance_6_honest_refutation(corpus_specs):
    by_name = {s.name: s for s in corpus_specs}
    r = verify_inequality(by_name["THM33"], ProveOptions())
    assert r.status == "Refuted"
    assert r.witness_value.hi < 0
    assert F(1, 1000) <= r.witness.lo and r.witness.hi <= F(1, 500)
    ratio_at_2 = eval_expr(
        parse_expression("(2*sinh(x)/x + tanh(x)/x - 3)/(x^3*tanh(x))"),
        Interval.point(2))
    assert ratio_at_2.hi < F(3, 20)
    assert ratio_at_2.lo <= F("0.143781441112624")
    assert F("0.143781441112623") <= ratio_at_2.hi

    nz = near_zero_certificate("T3.3", F(1, 10))
    assert nz.status == "Refuted"
    assert nz.series_certificate["leading"] == F(-1, 40)
    assert nz.witness_value.hi < 0

    seq = sequence_check("S_T33_C", "increasing", 500)
    assert not seq.all_pass
    assert seq.first_violation == (2, F(-3, 140))

    ident = identity_check("ID_T33_CDIFF", 500)
    assert ident.holds
    assert ident.positivity["numerator"] == (2, F(-27))
    print("ACCEPTANCE 6: PASS - the 3/20 hyperbolic bound is refuted "
          "(witness at the core's left end, ratio at x=2 below 3/20, leading "
          "coefficient -1/40, c-sequence breaks "
          "at n=2 by -3/140) while the difference identity itself holds")


def test_acceptance_7_proof_step_identities():
    bd = identity_check("ID_T32_BDIFF", 500)
    assert bd.holds and bd.positivity["difference"] is None
    assert theorem_coeff("T3.2", "b", 3) - theorem_coeff("T3.2", "b", 2) == 169

    fd = identity_check("ID_T34_FDECOMP", 200)
    assert fd.holds
    assert all(fd.positivity[k] is None for k in ("f1", "f2", "f3", "f4"))

    po = identity_check("ID_T34_POLYS", 200)
    assert po.holds
    assert all(v is None for v in po.positivity.values())

    seq = sequence_check("S_T34_C", "increasing", 200)
    assert seq.all_pass
    assert theorem_coeff("T3.4", "c", 6) == F(416488, 6177600)
    assert theorem_coeff("T3.4", "c", 5) < theorem_coeff("T3.4", "c", 6)
    print("ACCEPTANCE 7: PASS - proof-step identities hold exactly "
          "(b-difference 2..500, decomposition and rewrites 6..200, "
          "c-sequence increasing 3..200 including c_5 < c_6)")


_SECTION1 = ("HUY_TRIG", "HUY_HYP", "CHAIN_1_3_A", "CHAIN_1_3_B",
             "CHAIN_1_4_A", "CHAIN_1_4_B", "NS_QUARTIC", "COS_HUY", "WILKER",
             "WILKER_HI", "WILKER_LO", "CHAIN_1_7_A", "CHAIN_1_7_B",
             "CHAIN_1_7_C", "CHAIN_1_8_A", "CHAIN_1_8_B", "CHAIN_1_8_C",
             "CHAIN_1_8_D", "CHAIN_1_9_A", "CHAIN_1_9_B")


def test_acceptance_8_corpus_regression(corpus_report):
    code, raw, rep = corpus_report
    assert code == 0
    claims = {c["name"]: c for c in rep["claims"]}
    for name in _SECTION1:
        assert claims[name]["status"] == "Proved", name
    assert claims["THM33"]["status"] == "Refuted"
    print("ACCEPTANCE 8: PASS - every introductory inequality proved on its "
          "compact core; whole-corpus run exits 0")


_DOMAINS = {"sin": (-4, 4), "cos": (-4, 4), "tan": (0, F(14, 10)),
            "sinh": (-32, 32), "cosh": (-32, 32), "tanh": (-32, 32)}


def test_acceptance_9_soundness(corpus_specs, corpus_report, corpus_report_jobs4):
    rng = random.Random(31415)
    wt_box = F(1, 10 ** 10)
    wt_pt = F(1, 10 ** 18)
    grain = 2048
    for fn, (lo, hi) in _DOMAINS.items():
        lo, hi = F(lo), F(hi)
        step = (hi - lo) / grain
        checked = 0
        while checked < 10_000:
            # random boxes and interior points drawn from a fine dyadic grid
            i = rng.randint(0, grain)
            j = rng.randint(i, grain)
            a, b = lo + step * i, lo + step * j
            p = lo + step * rng.randint(i, j)
            try:
                box = elem_enclose(fn, Interval(a, b), wt_box)
            except PoleError:
                continue
            pt = elem_enclose(fn, Interval.point(p), wt_pt)
            assert box.lo <= pt.lo and pt.hi <= box.hi, (fn, a, b, p)
            checked += 1

    # Proved certificates re-verify at doubled precision
    by_name = {s.name: s for s in corpus_specs}
    for name in ("HUY_TRIG", "WILKER"):
        spec = by_name[name]
        expr = spec.difference()
        r = prove_positive(expr, Interval(F(1, 100), F(3, 2)))
        assert r.status == "Proved"
        assert reverify_certificate(expr, r, precision=384)
    claim = THEOREM_CLAIMS["THM31_LO"]
    r = verify_inequality(by_name["THM31_LO"], ProveOptions())
    n2 = _pick_N(claim.series_id, F(157, 100)).N + 24
    ev2 = series_claim_form(claim, n2)
    for leaf in r.certificate:
        assert ev2(Interval(leaf.lo, leaf.hi)).lo > 0

    # byte-identical reports with --jobs 1 and --jobs 4
    code1, raw1, _ = corpus_report
    code4, raw4 = corpus_report_jobs4
    assert code1 == code4 == 0
    assert raw1 == raw4
    print("ACCEPTANCE 9: PASS - 10^4 containment checks per elementary "
          "function, certificates re-verify at doubled precision, reports "
          "byte-identical across --jobs 1 and --jobs 4")


def test_acceptance_10_parser():
    fixtures = [
        "2*sin(x)+tan(x)-3*x",
        "3 + (1/60)*x^3*sin(x)",
        "2 + (2/pi)^4*x^3*tan(x)",
        "x/sin(x) + ((x/2)/tan(x/2))^2",
        "2*sinh(x)/x + tanh(x)/x - (3 + (3/20)*x^3*tanh(x))",
        "-x^2",
    ]
    for src in fixtures:
        a = parse_expression(src)
        assert parse_expression(format_expr(a)) == a, src
    v = eval_expr(parse_expression("1+2*3^2"), Interval.point(0))
    assert v == Interval(19, 19)
    from ineqcert.lang import Lit, Neg, PowInt, VarX
    assert parse_expression("-x^2") == Neg(PowInt(VarX(), 2))
    assert parse_expression("0.15") == Lit(F(3, 20))
    print("ACCEPTANCE 10: PASS - parser round-trips, precedence fixtures, "
          "and exact decimal literals")
