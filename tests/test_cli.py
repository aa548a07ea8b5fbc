import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ineqcert
from ineqcert import cli, lang, prove
from ineqcert.cli import _ENGINE_OPTIONS, default_corpus_path, run_command
from ineqcert.interval import pi_enclose
from ineqcert.lang import FUNCTIONS, TAG_KEYS
from ineqcert.prove import THEOREM_CLAIMS, ProofResult


def test_bernoulli_csv(tmp_path, capsys):
    code = run_command(["bernoulli", "--upto", "12"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,value"
    assert out[1] == "0,1"
    assert out[2] == "1,-1/2"
    assert out[-1] == "12,-691/2730"


def test_series_csv(capsys):
    code = run_command(["series", "--kind", "X_OVER_SIN", "--nmax", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,exponent,coefficient"
    assert lines[1] == "0,0,1"
    assert lines[2] == "1,2,1/6"
    assert lines[3] == "2,4,7/360"
    assert lines[4] == "3,6,31/15120"


def test_largest_series_count_prints(capsys):
    # the coefficients at the --nmax cap still fit Python's limit on printing
    # an integer (4,300 digits); past n = 777 they would exit 4 instead
    assert run_command(["series", "--kind", "SINH", "--nmax", "750"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("750,1501,1/")


def test_series_theorem_role(capsys):
    code = run_command(["series", "--thm", "T3.3", "--role", "c", "--nmax", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "2,4,3/20"
    assert lines[2] == "3,6,9/70"
    assert run_command(["series", "--thm", "T3.2", "--role", "b", "--nmax", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2,4,17"


@pytest.mark.parametrize("thm,role,kind", [
    ("T3.1", "f", "T3.1_F"), ("T3.2", "g", "T3.2_G"), ("T3.5", "f", "T3.5_F")])
def test_series_role_prints_its_series_exponent(capsys, thm, role, kind):
    # the x^0 coefficient of F's series is its limit at 0
    assert run_command(["series", "--thm", thm, "--role", role, "--nmax", "4"]) == 0
    by_role = capsys.readouterr().out
    assert run_command(["series", "--kind", kind, "--nmax", "4"]) == 0
    assert by_role == capsys.readouterr().out
    assert by_role.splitlines()[1].startswith("2,0,")


@pytest.mark.parametrize("extra", [["--thm", "T3.1"], ["--role", "f"],
                                   ["--thm", "T3.1", "--role", "f"]])
def test_series_kind_with_thm_or_role_is_a_usage_error(capsys, extra):
    assert run_command(["series", "--kind", "T3.1_F", "--nmax", "4", *extra]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "ineqcert: error: series takes --kind, or --thm with --role, not both\n")


@pytest.mark.parametrize("nmax", ["0", "1", "3"])
def test_series_unknown_role_is_a_usage_error_at_every_nmax(capsys, nmax):
    # T3.1 starts at n = 2: below it no row would reach the role's lookup
    assert run_command(["series", "--thm", "T3.1", "--role", "zz",
                        "--nmax", nmax]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "ineqcert: error: no sequence for theorem 'T3.1' role 'zz'\n")


def test_missing_corpus_is_usage_error(capsys):
    assert run_command(["prove", "--corpus", "nosuch.ineq"]) == 3
    assert "cannot read corpus" in capsys.readouterr().err


def _stanza(domain="[1, 2]", lhs="x", body="  relation = >\n  rhs      = 0\n",
            header="inequality P {", end="}\n"):
    return f"{header}\n  domain   = {domain}\n  lhs      = {lhs}\n{body}{end}"


@pytest.mark.parametrize("text,message", [
    (_stanza(lhs="x x"), "unexpected token 'x'"),
    (_stanza(lhs="2*"), "unexpected end of input"),
    (_stanza(lhs="2*)"), "unexpected token ')'"),
    (_stanza(domain="1, 2"), "stanza P: malformed domain '1, 2'"),
    (_stanza(domain="(1)"), "stanza P: domain needs two endpoints"),
    (_stanza(header="inequality P"), "expected 'inequality NAME {', got"),
    (_stanza(header="inequality 9P {"), "bad inequality name '9P'"),
    (_stanza(body="  relation >\n  rhs = 0\n"),
     "stanza P: malformed line 'relation >'"),
    (_stanza(body="  relation = >\n  rhs = 0\n  rhs = 1\n"),
     "stanza P: duplicate key 'rhs'"),
    (_stanza(end=""), "stanza P: missing closing '}'"),
    (_stanza(body="  relation = >=\n  rhs = 0\n"),
     "stanza P: relation must be < or >, got '>='"),
], ids=["trailing-token", "ends-early", "stray-rparen", "domain-unbracketed",
        "domain-one-endpoint", "bad-header", "bad-name", "line-without-equals",
        "duplicate-key", "missing-brace", "relation-not-strict"])
def test_a_malformed_corpus_is_one_error_line(tmp_path, capsys, text, message):
    corpus = tmp_path / "bad.ineq"
    corpus.write_text(text)
    assert run_command(["prove", "--corpus", str(corpus)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: error:") and err.count("\n") == 1
    assert message in err


def test_unknown_flag_rejected(capsys):
    assert run_command(["prove", "--frobnicate"]) == 3


def test_bad_precision_rejected(capsys):
    assert run_command(["prove", "--precision", "32"]) == 3


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--max-depth", "abc")])
def test_bad_count_flag_is_usage_error(capsys, flag, value):
    # exit 1 means "refuted against expectation"; a bad count must not
    # crash into it or run with a meaningless value
    assert run_command(["prove", "--name", "HUY_TRIG", flag, value]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["+4_0", "٤٠", "4.5"],
                         ids=["underscore", "arabic-indic", "fraction"])
@pytest.mark.parametrize("argv", [
    ["prove", "--name", "HUY_TRIG", "--max-depth"],
    ["prove", "--name", "HUY_TRIG", "--precision"],
    ["prove", "--name", "HUY_TRIG", "--jobs"],
    ["bernoulli", "--upto"],
    ["series", "--kind", "COT", "--nmax"],
    ["sequences", "--id", "S_T33_C", "--mode", "increasing", "--nmax", "5",
     "--nmin"],
], ids=lambda argv: argv[-1])
def test_counts_are_read_as_lang_integers(capsys, argv, value):
    # int() would take `+4_0` and Arabic-Indic digits as 40; lang's grammar
    # reads neither, and a count must have an integer value
    assert run_command(argv + [value]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ineqcert: error: argument {argv[-1]}: expected an "
                          f"integer") and err.count("\n") == 1


def test_a_count_takes_any_integer_constant(capsys):
    argv = ["prove", "--name", "HUY_TRIG", "--format", "text", "--max-depth"]
    assert _outputs(argv + ["4e1"], capsys) == _outputs(argv + ["40"], capsys)


@pytest.mark.parametrize("flag", ["--lo", "--hi"])
def test_a_bad_scan_end_names_its_flag(capsys, flag):
    ends = {"--lo": "1/10", "--hi": "1", flag: "abc"}
    argv = ["scan", "--thm", "T3.1", "--lo", ends["--lo"], "--hi", ends["--hi"]]
    assert run_command(argv) == 3
    assert capsys.readouterr().err == (
        f"ineqcert: error: argument {flag}: not an exact rational: 'abc': "
        f"unknown identifier abc (at offset 0)\n")


@pytest.mark.parametrize("thm,lo", [("T3.1", "0"), ("T3.1", "-1"), ("T3.3", "0"),
                                    ("T3.4", "-1")])
def test_a_scan_from_0_or_below_names_lo(capsys, thm, lo):
    # the ratio functions are undefined at 0: refused up front, not at an
    # offset into an internal expression or at a float sample
    assert run_command(["scan", "--thm", thm, "--lo", lo, "--hi", "1"]) == 3
    assert capsys.readouterr().err == (
        f"ineqcert: error: scan needs --lo above 0, got --lo {lo}\n")


@pytest.mark.parametrize("argv", [
    ["sequences", "--id", "S_T33_C", "--mode", "increasing", "--nmax", "5",
     "--nmin", "abc"],
    ["scan", "--thm", "T3.1", "--lo", "1", "--hi", "1/2"],
    ["scan", "--thm", "T3.1", "--lo", "0", "--hi", "1"],
    ["scan", "--thm", "T3.1", "--lo", "-1", "--hi", "1"],
    ["bernoulli", "--upto", "-3"],
    ["series", "--kind", "COT", "--nmax", "-5"],
    ["prove", "--name", "HUY_TRIG", "--eps", "-1"],
    ["scan", "--thm", "T3.1", "--lo", "1/10", "--hi", "1", "--tol", "0"],
    ["scan", "--thm", "T3.1", "--lo", "1/10", "--hi", "1", "--tol", "-1"],
    ["prove", "--name", "HUY_HYP", "--xmax", "-1"],
    ["prove", "--name", "HUY_TRIG", "--xmax", "0"],
    ["scan", "--thm", "T3.1", "--lo", "1/10", "--hi", "2", "--tol", "1e-300"],
    ["prove", "--corpus", "<lhs=x^1000000>"],
    ["prove", "--corpus", "<lhs=3000 nested parentheses>"],
    ["prove", "--corpus", "<lhs=((x^64)^64)^64>"],
    ["bernoulli", "--upto", "2001"],
    ["bernoulli", "--upto", "10" * 50],
    ["series", "--kind", "COT", "--nmax", "751"],
    ["sequences", "--id", "S_T33_C", "--mode", "increasing", "--nmax", "10" * 50],
    ["identities", "--id", "ID_T33_CDIFF", "--nmax", "751"],
    ["prove", "--name", "HUY_TRIG", "--precision", "20000"],
    ["series", "--kind", "COT", "--format", "json"],
    ["prove", "--name", "HUY_TRIG", "--format", "csv"],
    ["scan", "--thm", "T3.3", "--lo", "1", "--hi", "1000"],
    ["scan", "--thm", "T3.1", "--lo", "1/10", "--hi", "4"],
    ["prove", "--name", "HUY_TRIG", "--eps", "1/0"],
    ["prove", "--name", "HUY_TRIG", "--min-width", "0/0"],
    ["scan", "--thm", "T3.1", "--lo", "1/10", "--hi", "1", "--tol", "1/0"],
    ["prove", "--name", "HUY_TRIG", "--eps", "0." + "1" * 5000],
    ["prove", "--corpus", "<lhs=a 5001-digit literal>"],
    ["prove", "--name", "HUY_TRIG", "--eps", "1e-99999"],
    ["prove", "--corpus", "<tags=eps_lo:1e-99999>"],
    ["prove", "--name", "HUY_HYP", "--xmax", "1e999999999"],
    ["prove", "--name", "HUY_TRIG", "--min-width", "1e-5000"],
    ["prove", "--name", "NOPE"],
    ["series"],
    ["prove", "--name", "HUY_TRIG", "--eps", "abc"],
    ["series", "--kind", "COT", "--nmax", "abc"],
    ["sequences", "--id", "S_T33_C", "--mode", "increasing", "--nmax", "5",
     "--nmin", "1"],
    ["prove", "--name", "HUY_TRIG", "--eps", "1e" + "9" * 5001],
    ["prove", "--name", "HUY_TRIG", "--eps", "pi"],
    ["prove", "--name", "HUY_TRIG", "--eps", "x"],
    ["prove", "--name", "HUY_TRIG", "--eps", "+1/1000"],
    ["prove", "--corpus", "<lhs=1e999999999>"],
    ["prove", "--corpus", "<tags=x_max:1e999999999>"],
    ["prove", "--name", "HUY_TRIG", "--eps", "1e4000*1e4000"],
    ["prove", "--corpus", "<domain=[1, (a 4000-digit literal squared)^64]>"],
    ["prove", "--name", "HUY_TRIG", "--eps", "-1/1000"],
    ["prove", "--name", "HUY_TRIG", "--eps", "-1e-3"],
    ["scan", "--thm", "T3.4", "--lo", "-1/2", "--hi", "1"],
], ids=["nmin-abc", "scan-lo-above-hi", "scan-lo-zero", "scan-lo-negative",
        "upto-negative", "nmax-negative",
        "eps-negative", "tol-zero", "tol-negative", "xmax-negative",
        "xmax-zero", "tol-tiny", "exponent-huge", "nesting-deep",
        "powers-nested", "upto-above-cap", "upto-huge", "series-nmax-above-cap",
        "sequences-nmax-huge", "identities-nmax-above-cap", "precision-huge",
        "series-format", "prove-format-csv", "scan-float-overflow",
        "scan-past-the-series-limit", "eps-over-zero", "min-width-zero-over-zero",
        "tol-over-zero", "eps-5001-digits", "literal-5001-digits",
        "eps-exponent-tiny", "tag-eps-lo-exponent-tiny", "xmax-exponent-huge",
        "min-width-5001-digits", "name-unknown", "series-bare", "eps-abc",
        "series-nmax-abc", "nmin-below-start", "eps-exponent-text-past-the-limit",
        "eps-pi", "eps-x", "eps-leading-plus", "literal-exponent-huge",
        "tag-xmax-exponent-huge", "eps-product-past-the-limit",
        "domain-end-power-past-the-limit", "eps-negative-fraction",
        "eps-negative-exponent", "scan-lo-negative-fraction"])
def test_hostile_argv_is_usage_error(capsys, tmp_path, argv):
    # none of these may crash with a traceback (exit 1), print an empty
    # table, refute a claim outside its stated domain, or run unbounded.  A
    # corpus placeholder names one edit of _FIXTURE_MISMATCH: (old, new).
    hostile = {"<lhs=x^1000000>": ("cos(x)", "x^1000000"),
               "<lhs=3000 nested parentheses>": ("cos(x)", "(" * 3000 + "x" + ")" * 3000),
               "<lhs=((x^64)^64)^64>": ("cos(x)", "((x^64)^64)^64"),
               "<lhs=a 5001-digit literal>": ("cos(x)", "1" * 5001),
               "<tags=eps_lo:1e-99999>": ("expected:proved", "eps_lo:1e-99999"),
               "<lhs=1e999999999>": ("cos(x)", "1e999999999"),
               "<tags=x_max:1e999999999>": ("expected:proved", "x_max:1e999999999"),
               "<domain=[1, (a 4000-digit literal squared)^64]>": (
                   "[1/10, 3/2]", "[1, ({0}*{0})^64]".format("7" * 4000))}
    if argv[-1] in hostile:
        corpus = tmp_path / "hostile.ineq"
        corpus.write_text(_FIXTURE_MISMATCH.replace(*hostile[argv[-1]]))
        argv = argv[:-1] + [str(corpus)]
    start = time.monotonic()
    assert run_command(argv) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: error:") and err.count("\n") == 1


def _outputs(argv, capsys):
    code = run_command(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("flag,value,reason", [
    ("--eps", "-1/1000", "margins must be non-negative"),
    ("--eps", "-1e-3", "margins must be non-negative"),
    ("--lo", "-1/2", "scan needs --lo above 0")])
def test_a_negative_value_as_its_own_word_reads_as_after_equals(
        capsys, flag, value, reason):
    # argparse takes `-1/1000` and `-1e-3` for options, not values: the flag
    # must still get the word, and its error be the one `--flag=word` gives
    rest = (["prove", "--name", "HUY_TRIG"] if flag == "--eps"
            else ["scan", "--thm", "T3.4", "--hi", "1"])
    errs = []
    for words in ([flag, value], [f"{flag}={value}"]):
        assert run_command(rest + words) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and reason in errs[0]


def test_scan_ends_take_exponents_like_every_other_number(capsys):
    # --lo and --hi are read by the same grammar as --tol and the prove flags
    argv = ["scan", "--thm", "T3.1", "--hi", "1", "--format", "text", "--lo"]
    assert _outputs(argv + ["1e-3"], capsys) == _outputs(argv + ["1/1000"], capsys)


def test_a_flag_takes_constant_arithmetic(capsys):
    # a flag accepts any pi-free constant a domain endpoint accepts
    argv = ["prove", "--name", "HUY_TRIG", "--eps"]
    code, out = _outputs(argv + ["1/2000+1/2000"], capsys)
    assert code == 0 and (code, out) == _outputs(argv + ["1/1000"], capsys)


# Seeded fuzz of the exit-code contract, all in this process: random
# one-stanza corpora, then shipped stanzas under edge option values.  The
# counts keep it near 5 s on a 2-vCPU machine (the 4096-bit runs cost most).
_FUZZ_ATOMS = ("x", "x", "x/2", "1", "2", "1/3", "0", "pi", "2.5", "1/1000000000",
               "1e-3", "2.5E1", "tan(x)", "tan(x/2)^2", "tan(pi/2 - x)")
# in increasing order, so a pair drawn in index order is a domain in order
_FUZZ_ENDS = ("-pi", "-1", "0", "1/1000", "1e-2", "pi/4", "1", "pi/2", "3*pi/4",
              "3", "1000", "inf")
_FUZZ_TAGS = ("expected:proved", "expected:refuted", "eps_lo:0", "eps_hi:0",
              "eps_lo:1", "x_max:3", "x_max:1e400", "max_depth:1",
              "min_width:1e-300", "theorem:T3.1", "bogus:1",
              "expect_seq.S_T31.positive:pass", "x_max:2e1", "eps_lo:1e-2")
# whitespace to Python's str.isspace, but not to the corpus grammar; the
# last three end a line for str.splitlines
_UNICODE_SPACES = ("\u00a0", "\u2003", "\u3000", "\x1c", "\x85", "\u2028")
_FUZZ_OPTIONS = {
    "--eps": ("0", "1e-300", "1", "-1", "1e-3"),
    "--eps-lo": ("0", "1e-300", "1/3", "1.5", "8.1", "1e9", "-1", "1/2000+1/2000"),
    "--eps-hi": ("0", "1e-300", "1.5", "2", "-0"),
    "--xmax": ("1e-9", "0", "1/1000", "300", "1e400", "-5", "abc"),
    "--max-depth": ("0", "1", "256", "257", "1.5"),
    "--min-width": ("0", "1e-300", "1e9", "-1"),
    "--precision": ("63", "64", "4096", "4097", "x"),
}


def _fuzz_expr(rng, depth, sep=""):
    # sep goes around each binary operator; nested powers may multiply past
    # the parser's cap
    r = rng.random()
    if depth == 0 or r < 0.25:
        return rng.choice(_FUZZ_ATOMS)
    if r < 0.55:
        return f"{rng.choice(FUNCTIONS)}({_fuzz_expr(rng, depth - 1, sep)})"
    if r < 0.85:
        return (f"({_fuzz_expr(rng, depth - 1, sep)}){sep}{rng.choice('+-*/')}{sep}"
                f"({_fuzz_expr(rng, depth - 1, sep)})")
    if r < 0.93:
        return (f"(({_fuzz_expr(rng, depth - 1, sep)})^{rng.randint(-3, 9)})"
                f"^{rng.randint(-9, 9)}")
    return f"({_fuzz_expr(rng, depth - 1, sep)})^{rng.randint(-3, 9)}"


def _fuzz_stanza(rng):
    i, j = sorted(rng.sample(range(len(_FUZZ_ENDS)), 2))
    if rng.random() < 0.1:
        i, j = j, i                       # ends out of order, now and then
    tags = ", ".join(rng.sample(_FUZZ_TAGS, rng.randint(0, 2)))
    sep = rng.choice(("", "", " ", "\t"))   # tokens apart by tabs, now and then
    return (f"inequality FUZZ {{\n"
            f"  domain   = {rng.choice('([')}{_FUZZ_ENDS[i]}, {_FUZZ_ENDS[j]}"
            f"{rng.choice(')]')}\n"
            f"  lhs      = {_fuzz_expr(rng, 3, sep)}\n"
            f"\trelation\t=\t{rng.choice('<>')}\n"
            f"  rhs      = {_fuzz_expr(rng, 2, sep)}\n"
            + (f"  tags     = {tags}\n" if tags else "") + "}\n")


def test_fuzzed_corpora_and_options_keep_the_exit_code_contract(tmp_path, capsys):
    # exit 1 means refuted against expectation, so a crash must exit 4 and
    # say so; none of these legal or hostile inputs may reach it
    rng = random.Random(20)
    corpus, out = tmp_path / "fuzz.ineq", str(tmp_path / "o.json")
    names = sorted(prove._shipped_stanzas())
    codes = set()
    for k in range(360):
        spaced = k % 60 == 59 and k < 300   # Unicode whitespace between tokens
        if k < 300:
            what = _fuzz_stanza(rng)
            if spaced:
                what = what.replace("lhs      = ", "lhs = 0" + rng.choice(_UNICODE_SPACES)
                                    + "+ ")
            corpus.write_text(what, encoding="utf-8")
            argv = ["prove", "--corpus", str(corpus), "--out", out]
        else:
            argv = ["prove", "--name", rng.choice(names), "--out", out]
            for flag in rng.sample(sorted(_FUZZ_OPTIONS), rng.randint(1, 2)):
                argv += [flag, rng.choice(_FUZZ_OPTIONS[flag])]
            what = " ".join(argv)
        code = run_command(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and "internal error" not in err, (what, err)
        assert code == 3 or not spaced, what
        codes.add(code)
    assert codes == {0, 1, 2, 3}


def test_unicode_whitespace_is_a_usage_error(tmp_path, capsys):
    # only ASCII whitespace separates tokens: an em space and a no-break
    # space around a count's digits, or between two corpus tokens, used to
    # be skipped
    corpus = tmp_path / "nbsp.ineq"
    corpus.write_text(_FIXTURE_TOUCH.replace("(x - 1)^2", "(x - 1)\u00a0^2"),
                      encoding="utf-8")
    for argv in (["prove", "--name", "HUY_TRIG", "--max-depth", "\u2003 40\u00a0"],
                 ["prove", "--corpus", str(corpus)]):
        assert run_command(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("ineqcert: error:") and err.count("\n") == 1, err


# --- one parse of a corpus text per process ----------------------------------

@pytest.fixture
def corpus_parses(monkeypatch):
    """The texts the uncached corpus parser reads, from an empty memo."""
    texts, parse = [], lang._parse_corpus
    monkeypatch.setattr(lang, "_PARSED", {})
    monkeypatch.setattr(lang, "_parse_corpus", lambda text: texts.append(text) or parse(text))
    return texts


def test_a_default_prove_parses_the_corpus_once(corpus_parses, monkeypatch, tmp_path):
    # THM31_LO's registration check reads the shipped stanzas as well
    shipped, lookups = prove._shipped_stanzas, []
    monkeypatch.setattr(prove, "_shipped_stanzas", lambda: lookups.append(1) or shipped())
    assert run_command(["prove", "--name", "THM31_LO", "--out", str(tmp_path / "o.json")]) == 0
    assert lookups and len(corpus_parses) == 1


def test_sequences_commands_parse_the_corpus_once(corpus_parses, tmp_path):
    out = str(tmp_path / "s.json")
    for seq_id, mode in (("S_T31", "positive"), ("S_T33_C", "increasing")):
        assert run_command(["sequences", "--id", seq_id, "--mode", mode,
                            "--nmax", "10", "--out", out]) == 0
    assert len(corpus_parses) == 1


def test_a_corpus_error_is_raised_on_every_call(corpus_parses, tmp_path, capsys):
    corpus = tmp_path / "bad.ineq"
    corpus.write_text(_FIXTURE_TOUCH.replace("(x - 1)^2", "(x - 1^2"))
    for _ in range(2):
        assert run_command(["prove", "--corpus", str(corpus)]) == 3
        assert "expected RPAREN" in capsys.readouterr().err
    assert len(corpus_parses) == 2


def test_the_corpus_memo_hands_out_new_lists(corpus_parses):
    first = lang.parse_corpus(_FIXTURE_TWO)
    names = [s.name for s in first]
    first.clear()
    again = lang.parse_corpus(_FIXTURE_TWO)
    assert [s.name for s in again] == names and len(corpus_parses) == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer printing limit in this Python")
def test_a_new_digit_limit_parses_again(corpus_parses):
    # the limit decides which literals parse, so it is part of the memo's key
    saved = sys.get_int_max_str_digits()
    try:
        lang.parse_corpus(_FIXTURE_TWO)
        sys.set_int_max_str_digits(640)
        lang.parse_corpus(_FIXTURE_TWO)
    finally:
        sys.set_int_max_str_digits(saved)
    assert len(corpus_parses) == 2


_FIXTURE_TOUCH = """
inequality TOUCH {
  domain   = [0, 2]
  lhs      = (x - 1)^2
  relation = >
  rhs      = 0
  tags     = expected:proved
}
"""


@pytest.mark.parametrize("tags,flags", [
    (", max_depth:abc", []), (", max_depth:-3", []), (", min_width:-1", []),
    (", min_width:0", []), ("", ["--max-depth", "100000"]),
    ("", ["--min-width", "0"]), (", eps_lo:pi", []), (", eps_lo:-1", []),
    (", x_max:1/0", []), (", max_depth:4.5", []),
], ids=["tag-depth-abc", "tag-depth-negative", "tag-width-negative",
        "tag-width-zero", "flag-depth-huge", "flag-width-zero", "tag-eps-lo-pi",
        "tag-eps-lo-negative", "tag-xmax-over-zero", "tag-depth-fraction"])
def test_hostile_engine_option_is_usage_error(capsys, tmp_path, tags, flags):
    # tags are checked like the flags, and a depth or width that would let
    # bisection of a touching claim run without bound is refused up front;
    # a bad tag names its stanza
    corpus = tmp_path / "touch.ineq"
    corpus.write_text(_FIXTURE_TOUCH.replace("proved", "proved" + tags))
    start = time.monotonic()
    assert run_command(["prove", "--corpus", str(corpus), *flags]) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: error:") and err.count("\n") == 1
    assert err.startswith("ineqcert: error: stanza TOUCH:") == bool(tags)


@pytest.mark.parametrize("tags", [
    ", max_dpeth:5", ", precision:32", "",
], ids=["misspelt-key", "flag-only-option", "misspelt-value"])
def test_unknown_tag_is_usage_error(capsys, tmp_path, tags):
    # a misspelt or unsupported tag used to be ignored: the run went on at the
    # defaults, and a misspelt expectation turned a proof into exit 1
    text = _FIXTURE_TOUCH.replace("proved", "proved" + tags)
    if not tags:
        text = text.replace("expected:proved", "expected:proveed")
    corpus = tmp_path / "tags.ineq"
    corpus.write_text(text)
    assert run_command(["prove", "--corpus", str(corpus)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: error: stanza TOUCH:") and err.count("\n") == 1


def test_tagged_engine_options_are_known_tag_keys():
    tagged = {name for name, _, is_tagged in _ENGINE_OPTIONS if is_tagged}
    assert tagged and tagged <= set(TAG_KEYS)
    assert "precision" not in TAG_KEYS


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer printing limit in this Python")
def test_precision_bounded_by_live_int_max_str_digits(capsys):
    # under a lower printing limit a precision whose report integers would
    # not print is a usage error, not an internal error after the run
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_command(["prove", "--name", "HUY_TRIG",
                            "--precision", "4096"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ineqcert: error:") and err.count("\n") == 1
        assert "limit of 640 digits" in err
        assert run_command(["prove", "--name", "HUY_TRIG",
                            "--precision", "192"]) == 0
    finally:
        sys.set_int_max_str_digits(saved)


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    # exit 1 means "refuted against expectation", so a crash gets its own code
    def broken(spec, opts=None):
        raise AssertionError("intersection of two certified enclosures is empty")

    monkeypatch.setattr("ineqcert.cli.verify_inequality", broken)
    assert run_command(["prove", "--name", "HUY_TRIG"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: internal error in stanza HUY_TRIG: "
                          "AssertionError: intersection of two certified")
    assert err.count("\n") == 1


_FIXTURE_TWO = """
inequality HUY_TRIG {
  domain   = (0, pi/2)
  lhs      = 2*sin(x) + tan(x)
  relation = >
  rhs      = 3*x
  tags     = expected:proved
}

inequality COSH_ABOVE_ONE {
  domain   = [1/10, 1]
  lhs      = cosh(x)
  relation = >
  rhs      = 1
  tags     = expected:proved
}
"""


def test_internal_error_names_the_stanza_run_out_of_file_order(monkeypatch, capsys,
                                                              tmp_path):
    # stanzas run grouped by domain: WILKER, third in the file, runs second,
    # right after HUY_TRIG on (0, pi/2), and the exit-4 line names it
    p = tmp_path / "three.ineq"
    p.write_text(_FIXTURE_TWO + """
inequality WILKER {
  domain   = (0, pi/2)
  lhs      = (sin(x)/x)^2 + tan(x)/x
  relation = >
  rhs      = 2
}
""")
    ran = []

    def broken(spec, opts=None):
        ran.append(spec.name)
        if spec.name == "WILKER":
            raise AssertionError("enclosures do not meet")
        return ProofResult("Proved")

    monkeypatch.setattr("ineqcert.cli.verify_inequality", broken)
    assert run_command(["prove", "--corpus", str(p)]) == 4
    assert ran == ["HUY_TRIG", "WILKER"]
    err = capsys.readouterr().err
    assert err == ("ineqcert: internal error in stanza WILKER: "
                   "AssertionError: enclosures do not meet\n")


def test_empty_intersection_is_a_stanza_unknown(monkeypatch, tmp_path):
    # a Taylor form far above the plain range contradicts it: the stanza
    # that needs the form is Unknown, naming the box, and the run goes on
    from ineqcert import _core
    monkeypatch.setattr(_core, "_term",
                        lambda c, rs, j: (1 << 10000, 1 << 10000))
    corpus, out = tmp_path / "two.ineq", tmp_path / "o.json"
    corpus.write_text(_FIXTURE_TWO)
    assert run_command(["prove", "--corpus", str(corpus), "--out", str(out)]) == 2
    claims = {c["name"]: c for c in json.loads(out.read_text())["claims"]}
    assert claims["COSH_ABOVE_ONE"]["status"] == "Proved"
    huy = claims["HUY_TRIG"]
    assert huy["status"] == "Unknown"
    reasons = [f for f in huy["findings"] if f.startswith("reason: ")]
    assert len(reasons) == 1
    assert reasons[0].startswith("reason: internal inconsistency: ")
    assert " on [" in reasons[0]


def test_negative_margin_tag_is_usage_error(tmp_path, capsys):
    p = tmp_path / "neg.ineq"
    p.write_text(_FIXTURE_MISMATCH.replace("expected:proved",
                                           "expected:proved, eps_hi:-1/10"))
    assert run_command(["prove", "--corpus", str(p)]) == 3
    assert "non-negative" in capsys.readouterr().err


def test_zero_margin_is_used_as_given(tmp_path):
    out = tmp_path / "o.json"
    run_command(["prove", "--name", "HUY_TRIG", "--eps", "0", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rep["config"]["eps_lo"] == "0"
    # the core starts at 0, so no left margin is listed; it ends below the
    # irrational pi/2, so [hi_core, hi) is
    (u,) = rep["claims"][0]["uncovered"]
    assert u.endswith("hi) uncovered (margin eps_hi=0)")


def test_flag_beats_tag_beats_eps(tmp_path):
    corpus = tmp_path / "tagged.ineq"
    corpus.write_text(_FIXTURE_TWO.replace(
        "= 3*x\n  tags     = expected:proved",
        "= 3*x\n  tags     = expected:proved, eps_hi:1/100"))

    def uncovered(*flags):
        # a zero margin reaches the touching point 0 or the pole at pi/2,
        # so the verdict may be Unknown; only the margins are checked here
        out = tmp_path / "o.json"
        run_command(["prove", "--corpus", str(corpus), "--name", "HUY_TRIG",
                     *flags, "--out", str(out)])
        return json.loads(out.read_text())["claims"][0]["uncovered"]

    # --eps 0 reaches eps_lo: the core starts at 0 and lists no left margin
    assert not any(u.startswith("(lo, ") for u in uncovered("--eps", "0"))
    assert any("eps_hi=1/100)" in u for u in uncovered("--eps", "0"))
    assert any("eps_hi=0)" in u for u in uncovered("--eps-hi", "0"))


def test_config_margins_are_canonical(tmp_path):
    # the report prints the margin's value, not the spelling of the flag
    reports = []
    for flags in (["--eps", "1e-3"], ["--eps", "1/1000"], []):
        out = tmp_path / "o.json"
        assert run_command(["prove", "--name", "HUY_TRIG", *flags,
                            "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["config"]["eps_lo"] == "1/1000"


def test_memoised_parser_carries_no_state_between_calls(tmp_path, capsys):
    # one argparse tree serves every call in a process; each call's output
    # must equal the same call's made first, with a freshly built tree
    out = tmp_path / "o.txt"
    calls = [
        ["prove", "--name", "HUY_TRIG", "--jobs", "0"],      # usage error
        ["prove", "--name", "HUY_TRIG"],
        ["prove"],
        ["sequences", "--id", "S_T33_C", "--mode", "increasing",
         "--nmax", "40"],
    ]

    def run(argv):
        out.unlink(missing_ok=True)
        code = run_command([*argv, "--out", str(out)])
        report = out.read_bytes() if out.exists() else None
        return code, *capsys.readouterr(), report

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert fresh[0][0] == 3 and "--jobs" in fresh[0][2]
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert cli._build_parser() is cli._build_parser()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(ineqcert.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ineqcert", "bernoulli", "--upto", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "n,value\n0,1\n1,-1/2\n2,1/6\n"
    proc = subprocess.run(
        [sys.executable, "-m", "ineqcert", "prove", "--name", "HUY_TRIG",
         "--format", "text"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "HUY_TRIG       Proved" in proc.stdout.splitlines()


def test_inconclusive_near_zero_certificate_gives_its_reason(tmp_path, monkeypatch):
    # a series bound of 0 settles nothing on (0, 1]; the raw difference
    # still proves the core, and the margin names why it stays open
    monkeypatch.setattr(prove, "_left_lower_bound", lambda *a: Fraction(0))
    out = tmp_path / "o.json"
    assert run_command(["prove", "--name", "THM31_LO", "--eps-lo", "1",
                        "--out", str(out)]) == 0
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["status"] == "Proved"
    assert claim["uncovered"][0] == (
        "(lo, 1] uncovered (near-zero certificate inconclusive: "
        "series bound 0 does not settle the sign on (0, 1])")


@pytest.mark.parametrize("eps_lo,bound", [("8.1", "-32.65"), ("15.1", "-1.0996e+06")])
def test_a_wide_left_margin_prints_its_bound_as_a_decimal(tmp_path, eps_lo, bound):
    # at eps 4.1 the exact series bound already has about 8,000 digits, past
    # the printing limit (exit 4 once); the reason prints it to 6 digits.
    # The core [eps, 20] is proved, against the stanza's expected:refuted
    out = tmp_path / "o.json"
    assert run_command(["prove", "--name", "THM33", "--eps-lo", eps_lo,
                        "--out", str(out)]) == 1
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["status"] == "Proved"
    assert claim["uncovered"][0].endswith(
        f"(near-zero certificate inconclusive: series bound {bound} does not "
        f"settle the sign on (0, {eps_lo}])")


@pytest.mark.parametrize("x_max,finding", [
    ("300", "series form T3.4_DIFF (N=145) on (0, 300]: bound about -2^1243 "
            "does not prove the core;"),
    ("1e400", "series form T3.4_DIFF on (0, about 2^1328]: T3.4_DIFF: tail "
              "does not contract at x=1000"),
])
def test_a_value_past_float_range_prints_as_a_power_of_2(tmp_path, x_max, finding):
    # THM34's bound at x_max 300, and x_max 1e400 itself, are past any
    # float (exit 4 once); the core ends Unknown at the sinh argument limit
    out = tmp_path / "o.json"
    assert run_command(["prove", "--name", "THM34", "--xmax", x_max,
                        "--out", str(out)]) == 2
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["status"] == "Unknown"
    assert claim["findings"][0].startswith(finding)
    assert claim["findings"][0].endswith("the raw difference was bisected instead")


def test_a_witness_past_float_range_prints_as_a_power_of_2(tmp_path):
    # a constant claim, false on the whole core: the witness, the core's
    # midpoint near 5e399, lies past any float (exit 4 once), so both its
    # ends print as 2^k
    corpus = tmp_path / "far.ineq"
    corpus.write_text("inequality FAR {\n  domain   = (0, inf)\n"
                      "  lhs      = sin(1/3)\n  relation = >\n"
                      "  rhs      = 1\n  tags     = x_max:1e400\n}\n")
    out = tmp_path / "o.json"
    assert run_command(["prove", "--corpus", str(corpus), "--out", str(out)]) == 1
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["status"] == "Refuted"
    (finding,) = claim["findings"]
    assert re.fullmatch(r"difference on \[about 2\^\d+, about 2\^\d+\] certified "
                        r"< 0; at x=about 2\^\d+ within \[\S+, \S+\]", finding)


def test_a_series_bound_that_fails_leaves_one_bisection(tmp_path, monkeypatch):
    # at eps_hi = 0 the series bound at pi/2 is not > 0: the raw difference
    # is bisected once, with no series bisection before it.  It proves to
    # the dyadic just below pi/2, since x/tan(x) is divided as
    # (x cos x)/sin x, which does not grow there
    calls = []
    bisect = prove._bisect_positive
    monkeypatch.setattr(prove, "_bisect_positive",
                        lambda *args: calls.append(args) or bisect(*args))
    out = tmp_path / "o.json"
    assert run_command(["prove", "--name", "THM31_HI", "--eps-hi", "0",
                        "--out", str(out)]) == 0
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["status"] == "Proved" and claim["leaves"] == 15
    assert claim["max_depth"] == 12
    assert claim["uncovered"][-1].endswith(", hi) uncovered (margin eps_hi=0)")
    assert len(calls) == 1


def test_sequences_expectation_from_corpus(tmp_path, capsys):
    code = run_command(["sequences", "--id", "S_T33_C", "--mode", "increasing",
                        "--nmax", "500", "--out", str(tmp_path / "s.json")])
    # the shipped corpus tags this violation as expected, so exit 0
    assert code == 0
    rep = json.loads((tmp_path / "s.json").read_text())
    claim = rep["claims"][0]
    assert claim["status"] == "violation"
    assert claim["first_violation"] == {"n": 2, "value": "-3/140"}


def test_sequences_pass_expectation(tmp_path):
    code = run_command(["sequences", "--id", "S_T32_B", "--mode", "increasing",
                        "--nmax", "100", "--out", str(tmp_path / "s.json")])
    assert code == 0


def test_sequences_unreadable_corpus_writes_no_report(tmp_path, capsys):
    argv = ["sequences", "--id", "S_T31", "--mode", "positive", "--nmax", "10",
            "--corpus", str(tmp_path / "nosuch.ineq")]
    out = tmp_path / "s.json"
    assert run_command([*argv, "--out", str(out)]) == 3
    assert not out.exists()
    assert run_command(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read corpus" in captured.err


def test_identities_cli(tmp_path):
    code = run_command(["identities", "--id", "ID_T33_CDIFF", "--nmax", "500",
                        "--out", str(tmp_path / "i.json")])
    assert code == 0
    rep = json.loads((tmp_path / "i.json").read_text())
    claim = rep["claims"][0]
    assert claim["status"] == "holds"
    assert claim["sign_violations"]["numerator"] == {"n": 2, "value": "-27"}


def test_limits_cli(tmp_path):
    code = run_command(["limits", "--thm", "T3.1", "--endpoint", "zero",
                        "--out", str(tmp_path / "l.json")])
    assert code == 0
    rep = json.loads((tmp_path / "l.json").read_text())
    assert rep["claims"][0]["value_exact"] == "1/60"
    code = run_command(["limits", "--thm", "T3.5", "--endpoint", "right",
                        "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_scan_cli(tmp_path):
    code = run_command(["scan", "--thm", "T3.3", "--lo", "1/10", "--hi", "10",
                        "--tol", "1e-6", "--out", str(tmp_path / "scan.json")])
    assert code == 0
    rep = json.loads((tmp_path / "scan.json").read_text())
    claim = rep["claims"][0]
    assert not claim["sampled_monotone"]
    assert 1.5 < claim["location_float"] < 2.5


def test_scan_accepts_pi_endpoints(tmp_path):
    code = run_command(["scan", "--thm", "T3.1", "--lo", "1/1000",
                        "--hi", "pi/2 - 1/1000", "--tol", "1e-6",
                        "--out", str(tmp_path / "scan.json")])
    assert code == 0
    rep = json.loads((tmp_path / "scan.json").read_text())
    assert rep["claims"][0]["sampled_monotone"]


def test_prove_single_stanza(tmp_path):
    out = tmp_path / "r.json"
    code = run_command(["prove", "--name", "THM31_LO", "--eps", "1e-3",
                        "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    claims = {c["name"]: c for c in rep["claims"]}
    assert claims["THM31_LO"]["status"] == "Proved"
    assert claims["THM31_LO"]["sharp"]["match"] is True
    assert claims["THM31_LO"]["ms"] == 0


def test_prove_text_format(capsys):
    code = run_command(["prove", "--name", "THM35_LO", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "THM35_LO" in out and "Proved" in out


_FIXTURE_MISMATCH = """
inequality FALSE_CLAIM {
  domain   = [1/10, 3/2]
  lhs      = cos(x)
  relation = >
  rhs      = 1/2
  tags     = expected:proved
}
"""

_FIXTURE_UNKNOWN = """
inequality TOUCHES_ZERO {
  domain   = [-1, 1]
  lhs      = x^2
  relation = >
  rhs      = 0
}
"""


def test_exit_code_mismatch(tmp_path):
    p = tmp_path / "bad.ineq"
    p.write_text(_FIXTURE_MISMATCH)
    assert run_command(["prove", "--corpus", str(p),
                        "--out", str(tmp_path / "o.json")]) == 1


def test_exit_code_unknown(tmp_path):
    p = tmp_path / "unk.ineq"
    p.write_text(_FIXTURE_UNKNOWN)
    assert run_command(["prove", "--corpus", str(p), "--max-depth", "16",
                        "--out", str(tmp_path / "o.json")]) == 2


def test_expected_refutation_matches(tmp_path):
    p = tmp_path / "ref.ineq"
    p.write_text(_FIXTURE_MISMATCH.replace("expected:proved", "expected:refuted"))
    assert run_command(["prove", "--corpus", str(p),
                        "--out", str(tmp_path / "o.json")]) == 0


_FIXTURE_SUBSET = """
inequality HUY_TRIG {
  domain   = (0, pi/2)
  lhs      = 2*sin(x) + tan(x)
  relation = >
  rhs      = 3*x
}
inequality THM33 {
  domain   = (0, inf)
  lhs      = 2*sinh(x)/x + tanh(x)/x
  relation = >
  rhs      = 3 + (3/20)*x^3*tanh(x)
  tags     = expected:refuted, theorem:3.3
}
inequality WILKER {
  domain   = (0, pi/2)
  lhs      = (sin(x)/x)^2 + tan(x)/x
  relation = >
  rhs      = 2
}
inequality CHAIN_1_8_D {
  domain   = (0, pi/2)
  lhs      = x/sin(x) + ((x/2)/tan(x/2))^2
  relation = >
  rhs      = 2
}
"""


def test_reports_byte_identical_across_jobs(tmp_path):
    p = tmp_path / "subset.ineq"
    p.write_text(_FIXTURE_SUBSET)
    out1 = tmp_path / "r1.json"
    out4 = tmp_path / "r4.json"
    assert run_command(["prove", "--corpus", str(p), "--jobs", "1",
                        "--out", str(out1)]) == 0
    assert run_command(["prove", "--corpus", str(p), "--jobs", "4",
                        "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_report_does_not_depend_on_earlier_pi_enclose(tmp_path):
    # pi_enclose only ever tightens its shared bracket; the pi/2 endpoint,
    # and so the core and its margin, must come out as in a fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(ineqcert.__file__).parents[1]))
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ineqcert", "prove", "--name", "HUY_TRIG",
         "--out", str(fresh)], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0
    pi_enclose(Fraction(1, 10 ** 80))
    assert run_command(["prove", "--name", "HUY_TRIG", "--out", str(here)]) == 0
    assert here.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("rhs", ["1/2000", "0"])
def test_theorem_names_on_other_claims(tmp_path, rhs):
    # each theorem's name on x > rhs: no near-zero certificate, no series
    # route and no sharp constant.  x > 1/2000 is false on (0, 1/2000], so
    # no series may cover that margin; x > 0 is true, so THM33's
    # refutation must not carry over
    p = tmp_path / "impostors.ineq"
    p.write_text("".join(
        f"inequality {name} {{\n"
        f"  domain = {'(0, inf)' if name in ('THM33', 'THM34') else '(0, pi/2)'}\n"
        f"  lhs = x\n  relation = >\n  rhs = {rhs}\n"
        f"  tags = expected:proved\n}}\n" for name in THEOREM_CLAIMS))
    out = tmp_path / "o.json"
    assert run_command(["prove", "--corpus", str(p), "--out", str(out)]) == 0
    claims = json.loads(out.read_text())["claims"]
    assert len(claims) == 8
    for c in claims:
        assert c["status"] == "Proved" and c["sharp"] is None, c["name"]
        assert c["findings"] == [] and c["witness"] is None
        assert c["uncovered"][0].startswith("(lo, ")
        assert c["uncovered"][0].endswith("(margin eps_lo=1/1000; no registered series)")


def test_full_corpus_exits_zero(corpus_report):
    code, raw, rep = corpus_report
    assert code == 0
    assert len(rep["claims"]) == 28


def test_shuffled_corpus_gives_the_same_report(tmp_path, corpus_report):
    # stanzas run grouped by core, in an order that follows the file's, and
    # share _core's Taylor memo: neither may show in the report, which is
    # byte-identical to the shipped corpus's
    code, raw, _ = corpus_report
    text = Path(default_corpus_path()).read_text(encoding="utf-8")
    stanzas = re.findall(r"^inequality .*?^\}", text, re.M | re.S)
    assert len(stanzas) == 28
    random.Random(15).shuffle(stanzas)
    p = tmp_path / "shuffled.ineq"
    p.write_text("\n\n".join(stanzas) + "\n", encoding="utf-8")
    out = tmp_path / "o.json"
    assert run_command(["prove", "--corpus", str(p), "--out", str(out)]) == code
    assert out.read_bytes() == raw


# sha256 of the canonical corpus report
_REPORT_SHA256 = "a1bbba36eb1d2593bc5f56e944ecc9bbd8f0b3e17a1ef94ea1c3d744da8d8925"


def test_canonical_report_is_pinned(corpus_report):
    """The shipped corpus's report, byte for byte, wherever the checkout is.

    A change that alters the report on purpose updates _REPORT_SHA256 and
    explains each changed leaf count or verdict in CHANGES.md."""
    _, raw, _ = corpus_report
    assert hashlib.sha256(raw).hexdigest() == _REPORT_SHA256


# sha256 of the report on the benchmark's seed-1 refute input: 108 shipped
# claims reversed on sub-domains, each refuted
_REFUTE_SHA256 = "1f3323f18ba67f26d3d42f8d60782112aae2e426b53832b3affdc2936f84d5f9"
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.skipif(not _WORKLOADS.exists(), reason="no perfbench/ in this checkout")
def test_refute_report_is_pinned(tmp_path):
    """The report on the seed-1 refute input, byte for byte.

    A change that alters it on purpose updates _REFUTE_SHA256 and explains
    each changed verdict, witness or leaf count in CHANGES.md."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.build("refute", 1, _WORKLOADS.parents[1], tmp_path, 2, 1)
    (path,) = tmp_path.glob("input-b*.ineq")
    out = tmp_path / "refute.json"
    assert run_command(["prove", "--corpus", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _REFUTE_SHA256


# sha256 of the hold-out corpus's report at default options
_HOLDOUT_SHA256 = "677b5e3dec7d21e2b8b6c657b432bb3a27c9bc9fc6b23c8714aed4803b33d51f"


def test_holdout_report_is_pinned(tmp_path):
    """The hold-out corpus's report, byte for byte, leaf counts and all.

    A change that alters it on purpose updates _HOLDOUT_SHA256 and explains
    each changed verdict, margin or leaf count in CHANGES.md."""
    holdout = Path(__file__).parent / "data" / "holdout.ineq"
    out = tmp_path / "holdout.json"
    assert run_command(["prove", "--corpus", str(holdout), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _HOLDOUT_SHA256


# the exact path's 18 commands at --nmax 500: each sequence check the corpus
# tags, each identity and each limit, in this order
_EXACT_COMMANDS = (
    [["sequences", "--id", seq_id, "--mode", mode, "--nmax", "500"]
     for seq_id, mode in (("S_T31", "positive"), ("S_T32_B", "increasing"),
                          ("S_T32_G", "positive"), ("S_T33_C", "increasing"),
                          ("S_T34_C", "increasing"), ("S_T35", "positive"))]
    + [["identities", "--id", identity_id, "--nmax", "500"]
       for identity_id in ("ID_T32_BDIFF", "ID_T33_CDIFF", "ID_T34_FDECOMP",
                           "ID_T34_POLYS")]
    + [["limits", "--thm", thm, "--endpoint", endpoint]
       for thm, endpoint in (("T3.1", "zero"), ("T3.2", "zero"),
                             ("T3.3", "zero"), ("T3.4", "zero"),
                             ("T3.5", "zero"), ("T3.1", "right"),
                             ("T3.2", "right"), ("T3.5", "right"))])
# sha256 of their JSON reports, one after another
_EXACT_SHA256 = "14372537fed52db6532264800c3c20626ace9d168e607e021a0876c456713adc"


def test_exact_reports_are_pinned(capsys):
    """The exact path's reports, byte for byte.

    A change that alters one on purpose updates _EXACT_SHA256 and says in
    CHANGES.md which report changed and why."""
    digest = hashlib.sha256()
    for argv in _EXACT_COMMANDS:
        assert run_command(argv + ["--format", "json"]) == 0, argv
        digest.update(capsys.readouterr().out.encode())
    assert len(_EXACT_COMMANDS) == 18
    assert digest.hexdigest() == _EXACT_SHA256


@pytest.mark.parametrize("name", ["THM31_HI", "THM32_HI", "THM35_HI"])
def test_zero_right_margin_of_a_sharp_upper_claim_ends_without_a_crash(name, capsys):
    # at eps_hi = 0 a bisected series form's last box once straddled 0, and
    # its reason printed the exact enclosure, whose integers were past the
    # 4,300-digit printing limit (exit 4).  The raw difference decides a
    # core that the series bound does not prove.
    code = run_command(["prove", "--name", name, "--eps-hi", "0",
                        "--format", "text"])
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert code == 0


def test_margins_that_meet_leave_an_empty_core(capsys):
    # eps 1 on each side of HUY_TRIG's (0, pi/2) leaves no core to bisect
    assert run_command(["prove", "--name", "HUY_TRIG", "--eps", "1"]) == 2
    (claim,) = json.loads(capsys.readouterr().out)["claims"]
    assert claim["status"] == "Unknown" and claim["leaves"] == 0
    assert claim["findings"] == ["reason: empty core after margins"]


def test_unknown_below_the_precision_suggests_a_higher_one(tmp_path):
    # NS_QUARTIC's difference is about 7/320 x^8: 2e-74 at x = 1e-9, below
    # 2^-192, so at the default precision the boxes at its left end straddle
    # 0 within rounding error, and the reason says so; 384 bits prove it
    out = tmp_path / "o.json"
    argv = ["prove", "--name", "NS_QUARTIC", "--eps-lo", "1e-9", "--out", str(out)]
    assert run_command(argv) == 2
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["status"] == "Unknown"
    assert claim["findings"][0].endswith(
        " straddles 0; it lies within 2^-128 of 0, where 192-bit rounding "
        "may hide the sign: try a higher --precision (an identically zero "
        "difference ends so at any)")
    assert run_command(argv + ["--precision", "384"]) == 0
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["status"] == "Proved"
