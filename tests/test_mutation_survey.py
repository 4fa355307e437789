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


def test_the_survey_fails_on_a_verdict_other_than_the_expected_one(monkeypatch):
    survey = load_survey()
    plain = survey.Mutant("f", "a", "b", ("t",), "a real fault")
    equivalent = survey.Mutant("f", "a", "b", ("t",), "equivalent: the same program")
    monkeypatch.setattr(survey, "MUTANTS", [plain, equivalent])
    for verdicts, code in [
        (("killed", "survived"), 0),
        (("survived", "survived"), 1),  # a fault the tests miss
        (("killed", "killed"), 1),  # an equivalent that is killed is no equivalent
        (("stale", "survived"), 1),
    ]:
        given = dict(zip((plain, equivalent), verdicts))
        monkeypatch.setattr(survey, "survey", lambda m, _tests: given.get(m, "survived"))
        assert survey.main([]) == code
    monkeypatch.setattr(survey, "survey", lambda m, _tests: "killed")  # the control fails
    assert survey.main([]) == 1
