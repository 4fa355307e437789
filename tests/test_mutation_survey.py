"""The mutation survey's list stays current with the code it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_survey():
    spec = importlib.util.spec_from_file_location("mutation_survey", ROOT / "tests" / "mutation_survey.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_at_exactly_one_place():
    mutants = load_survey().MUTANTS
    stale = [m.note for m in mutants if (ROOT / m.file).read_text().count(m.old) != 1]
    assert stale == []
    assert all((ROOT / t).is_file() for m in mutants for t in m.tests)
