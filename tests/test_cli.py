import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ineqcert
from ineqcert.cli import run_command


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


def test_missing_corpus_is_usage_error(capsys):
    assert run_command(["prove", "--corpus", "nosuch.ineq"]) == 3
    assert "cannot read corpus" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    assert run_command(["prove", "--frobnicate"]) == 3


def test_bad_precision_rejected(capsys):
    assert run_command(["prove", "--precision", "32"]) == 3


@pytest.mark.parametrize("flag,value", [
    ("--grid", "0"), ("--grid", "-5"), ("--jobs", "0"), ("--max-depth", "abc"),
])
def test_bad_count_flag_is_usage_error(capsys, flag, value):
    # exit 1 means "refuted against expectation"; a bad count must not
    # crash into it or run with a meaningless value
    assert run_command(["prove", "--name", "HUY_TRIG", flag, value]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sequences", "--id", "S_T33_C", "--mode", "increasing", "--nmax", "5",
     "--nmin", "abc"],
    ["scan", "--thm", "T3.1", "--lo", "1", "--hi", "1/2"],
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
], ids=["nmin-abc", "scan-lo-above-hi", "upto-negative", "nmax-negative",
        "eps-negative", "tol-zero", "tol-negative", "xmax-negative",
        "xmax-zero", "tol-tiny", "exponent-huge", "nesting-deep",
        "powers-nested", "upto-above-cap", "upto-huge", "series-nmax-above-cap",
        "sequences-nmax-huge", "identities-nmax-above-cap"])
def test_hostile_argv_is_usage_error(capsys, tmp_path, argv):
    # none of these may crash with a traceback (exit 1), print an empty
    # table, refute a claim outside its stated domain, or run unbounded
    hostile_lhs = {"<lhs=x^1000000>": "x^1000000",
                   "<lhs=3000 nested parentheses>": "(" * 3000 + "x" + ")" * 3000,
                   "<lhs=((x^64)^64)^64>": "((x^64)^64)^64"}
    if argv[-1] in hostile_lhs:
        corpus = tmp_path / "hostile.ineq"
        corpus.write_text(_FIXTURE_MISMATCH.replace("cos(x)", hostile_lhs[argv[-1]]))
        argv = argv[:-1] + [str(corpus)]
    start = time.monotonic()
    assert run_command(argv) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ineqcert: error:") and err.count("\n") == 1


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
    uncovered = rep["claims"][0]["uncovered"]
    assert any("eps_lo=0;" in u for u in uncovered)
    assert any("eps_hi=0)" in u for u in uncovered)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(ineqcert.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ineqcert", "bernoulli", "--upto", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "n,value\n0,1\n1,-1/2\n2,1/6\n"


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


def test_full_corpus_exits_zero(corpus_report):
    code, raw, rep = corpus_report
    assert code == 0
    assert len(rep["claims"]) == 28
