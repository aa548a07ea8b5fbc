import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ineqcert import cli  # noqa: E402
from ineqcert.cli import default_corpus_path, run_command  # noqa: E402
from ineqcert.lang import parse_corpus  # noqa: E402


@pytest.fixture(scope="session")
def corpus_specs():
    with open(default_corpus_path(), "r", encoding="utf-8") as fh:
        return parse_corpus(fh.read())


@pytest.fixture(scope="session")
def _corpus_run(tmp_path_factory):
    """One full CLI run over the shipped corpus: exit code, raw bytes, JSON,
    and each stanza with the ProofResult the run made for it."""
    out = tmp_path_factory.mktemp("report") / "corpus.json"
    results = []
    verify = cli.verify_inequality

    def recording(spec, opts=None):
        res = verify(spec, opts)
        results.append((spec, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "verify_inequality", recording)
        code = run_command(["prove", "--out", str(out)])
    raw = out.read_bytes()
    return code, raw, json.loads(raw), results


@pytest.fixture(scope="session")
def corpus_report(_corpus_run):
    """The full corpus run's exit code, raw bytes and JSON."""
    return _corpus_run[:3]


@pytest.fixture(scope="session")
def corpus_results(_corpus_run):
    """(spec, ProofResult) for each stanza of the full corpus run."""
    return _corpus_run[3]
