"""The mutation check's anchors, checked without running a mutant."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_anchor_is_once_in_its_file():
    # `python tests/mutants.py` exits 2 when an anchor text is gone, after
    # minutes; a refactor that moves an anchored line fails here at once
    mutants = _mutants()
    assert len({label for label, *_ in mutants}) == len(mutants)
    for label, path, old, new in mutants:
        assert old != new, label
        assert (ROOT / path).read_text().count(old) == 1, label
