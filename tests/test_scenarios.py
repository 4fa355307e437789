"""Scenario kinds and demos that no other suite runs."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from costlab import generate
from costlab.core import additive_cost
from costlab.scenarios import SCENARIOS, Scenario, run_implication

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("kind", ["prompt-existence", "solovay", "diagonalization", "divergence"])
def test_scenario_passes_at_defaults(kind):
    assert kind in SCENARIOS
    result = Scenario(kind, 0, {}).run()
    assert result.checks
    for line in result.checks:
        assert line.ok, line.render()


def test_every_demo_is_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    assert text
    # the demos print their verdicts as booleans
    assert "False" not in text


def test_implication_premise_fails_on_a_pair_that_fails_at_one_cell(monkeypatch):
    # over 2^-24, c's increments are all 1 and d's all 0 but N at stage 17:
    # N c(x, s) = N (s - x) exceeds d(x, s) = N [x < 17 <= s] on every x < s
    # cell but (16, 17), where the two are equal
    S = 40

    def pair(_rng, S, N):
        c = additive_cost("c", range(S + 1), 1 << generate.SCALE, proper=True)
        d = additive_cost("d", (N * (t >= 17) for t in range(S + 1)), 1 << generate.SCALE)
        return c, d

    for N in range(1, 5):
        c, d = pair(None, S, N)
        cells = [(x, s) for s in range(S + 1) for x in range(s) if not N * c(x, s) > d(x, s)]
        assert cells == [(16, 17)]
    monkeypatch.setattr(generate, "dominated_cost_pair", pair)
    lines = {line.label: line.render() for line in run_implication(0, count=2, S=S).checks}
    for label in ("instance 0 premise", "instance 1 premise", "domination premise verified pointwise"):
        assert lines[label].startswith("[FAIL]")
