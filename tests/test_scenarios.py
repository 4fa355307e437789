"""Scenario kinds and demos that no other suite runs."""

import contextlib
import dataclasses
import io
import itertools
import runpy
from pathlib import Path

import pytest

from costlab import generate, scenarios
from costlab.core import ApproximationTrace, additive_cost, cost_fn
from costlab.scenarios import (
    SCENARIOS,
    Scenario,
    run_additive_algebra,
    run_conjunction,
    run_dual,
    run_implication,
)

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
        c = additive_cost("c", range(S + 1), 1 << generate.SCALE)
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


def _failing_on(calls, fn, spoil):
    """fn, with its result spoiled on the calls at the given positions."""
    position = itertools.count()

    def wrapped(*args):
        out = fn(*args)
        return spoil(out) if next(position) in calls else out

    return wrapped


def test_additive_algebra_reports_a_real_that_fails_additivity(monkeypatch):
    # the second real's cost is one unit off at (5, 40), beyond the bound 24 of
    # real_from_additive's own check and off the column c(0, s) it reads back
    def bend(c):
        def ev(x, s):
            return c.eval_fn(x, s) + ((x, s) == (5, 40))

        return cost_fn("bent", c.horizon, ev, den=c.den, additive=True)

    monkeypatch.setattr(
        scenarios, "additive_from_real", _failing_on({1}, scenarios.additive_from_real, bend)
    )
    res = run_additive_algebra(0, count=3, bound=40)
    assert [line.render()[:7] + line.label for line in res.checks] == [
        "[FAIL] real 1 additivity",
        "[FAIL] exact additivity on all triples",
        "[PASS] real <-> cost roundtrip identity",
        "[PASS] runtime < 10 s",
    ]
    assert res.checks[0].detail == "bent: c(0,5) + c(5,40) != c(0,40)"


def test_conjunction_reports_a_failing_instance_and_its_checks(monkeypatch):
    # the second instance misses its bound and ends on a set no generated pair has
    def spoil(r):
        trace = ApproximationTrace(r.trace.horizon, [(1, 999, 1)])
        return dataclasses.replace(r, trace=trace, output_total=r.bound + 1)

    monkeypatch.setattr(scenarios, "conjoin", _failing_on({1}, scenarios.conjoin, spoil))
    res = run_conjunction(0, count=3, S=200)
    assert [line.render()[:7] + line.label for line in res.checks] == [
        "[FAIL] instance 1 bound",
        "[FAIL] instance 1 final",
        "[FAIL] (c+d)-ledger <= 4 + c-ledger + d-ledger",
        "[FAIL] final-set equality exhaustive",
        "[PASS] runtime < 30 s",
    ]
    assert res.summary().endswith("\nFAILURES PRESENT\n")


def test_dual_fails_exactly_the_checks_whose_instances_failed(monkeypatch):
    # run 1's held totals and run 0's diagonalization fail; no run adds a line
    held = _failing_on({1}, scenarios.audit_dual, lambda a: dataclasses.replace(a, held_ok=False))
    monkeypatch.setattr(scenarios, "audit_dual", held)
    diag = _failing_on({0}, scenarios.audit_diagonalization, lambda ok: False)
    monkeypatch.setattr(scenarios, "audit_diagonalization", diag)
    res = run_dual(0, count=2, S=2000)
    assert [line.render()[:7] + line.label for line in res.checks] == [
        "[FAIL] per-e held totals <= 3^-e at every stage end",
        "[PASS] gamma nondecreasing in t on the grid",
        "[PASS] halting-set ledger <= 3/2 exactly",
        "[FAIL] every activated requirement diagonalized",
        "[PASS] runtime per run < 60 s",
    ]
    assert not res.ok
