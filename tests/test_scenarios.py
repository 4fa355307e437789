"""Scenario kinds and demos that no other suite runs."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from costlab.scenarios import SCENARIOS, Scenario

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
