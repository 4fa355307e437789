"""Mutation survey: does the test suite see a deliberately broken program?

Each mutant is (file, old text, new text, tests), the tests named by file
or by test id (``file::test``).  For each one the survey copies ``src/``,
``tests/``, ``demos/`` and ``pyproject.toml`` into a temporary directory,
replaces the one occurrence of the old text in the copy, runs the named
tests there with pytest and prints ``killed`` when they fail or
``survived`` when they pass.  An unmutated control run
comes first, since a kill means nothing when the tests fail anyway.  A
mutant whose note starts with ``equivalent:`` is expected to survive and
every other one to be killed; the survey exits 1 when a verdict differs.
pytest does not collect this file; CI runs it in a job of its own.

Run from the root of a checkout:

    python3 tests/mutation_survey.py          # every mutant
    python3 tests/mutation_survey.py 2 5      # the mutants at these positions
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    note: str = ""


SEPARATION_REFERENCE = "tests/test_constructions.py::test_separation_matches_reference_loop"

MUTANTS = [
    Mutant(
        "src/costlab/machine.py",
        "for a, b in zip(ordered, ordered[1:]):",
        "for a, b in zip(ordered, ordered[1:-1]):",
        ("tests/test_machine.py",),
        "check_prefix_free skips the last sorted pair",
    ),
    Mutant(
        "src/costlab/core.py",
        "if s < S and rows[x][s] > rows[x][s + 1]:",
        "if False:",
        ("tests/test_core.py",),
        "check_monotone's stage axis never reports",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "if stage == w + 1:",
        "if stage >= w + 1:",
        ("tests/test_complexity.py",),
        "every improvement row taken for a prompt row",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "- rows.prompt_prefix[bisect.bisect_right(prompt, x + 1)]",
        "- rows.prompt_prefix[bisect.bisect_right(prompt, x + 2)]",
        ("tests/test_complexity.py",),
        "sum_at's prompt window starts one stage late",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "lo = bisect.bisect_right(prompt, x + 1)\n        hi",
        "lo = bisect.bisect_right(prompt, x + 2)\n        hi",
        ("tests/test_complexity.py",),
        "min_at's prompt window starts one stage late",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "first, last = -(-lo // _BLOCK), hi // _BLOCK",
        "first, last = lo // _BLOCK, hi // _BLOCK",
        ("tests/test_complexity.py",),
        "min_at reads the block that holds the window's first row whole",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "window += rows.prompt_minima[first:last]",
        "window += []",
        ("tests/test_complexity.py",),
        "min_at leaves out the whole blocks",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "lo = bisect.bisect_right(rows.delayed_stages, x + 1)",
        "lo = bisect.bisect_right(rows.delayed_stages, x + 2)",
        ("tests/test_complexity.py",),
        "equivalent: a delayed row made at stage x + 2 has its target at or below x",
    ),
    Mutant(
        "src/costlab/dual.py",
        "total <= Fraction(1, 3**e) for _s, e, total in st.held_history",
        "total <= Fraction(2, 3**e) for _s, e, total in st.held_history",
        ("tests/test_dual.py",),
        "audit_dual's held cap 1/3^e doubled",
    ),
    Mutant(
        "src/costlab/dual.py",
        "total <= Fraction(3, 2), justified",
        "total <= Fraction(2), justified",
        ("tests/test_dual.py",),
        "audit_dual's halting-cost bound 3/2 raised to 2",
    ),
    Mutant(
        "src/costlab/dual.py",
        "            if x < n:\n                continue",
        "            if x <= n:\n                continue",
        ("tests/test_stage_loop_references.py",),
        "stale removal keeps the unheld wishes at x = n",
    ),
    Mutant(
        "src/costlab/dual.py",
        "if i > e and any(y >= v for y in px):",
        "if False:",
        ("tests/test_stage_loop_references.py",),
        "a stronger takeover leaves the weaker holders' held totals as they were",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "if k_conv is not None or beta_units[s] != beta_units[s - 1]:",
        "if k_conv is not None:",
        ("tests/test_stage_loop_references.py",),
        "the failing markers found at action stages only",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "            killed.clear()\n",
        "",
        ("tests/test_stage_loop_references.py", "tests/test_constructions.py"),
        "equivalent: a live axiom issued again repeats its use, its count below the use and its value",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "g = math.gcd(den, *units)",
        "g = 1",
        ("tests/test_catalog.py",),
        "a left-c.e. real is not reduced to lowest terms",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "any(map(operator.gt, (0, *units), units))",
        "any(b < a - 1 for a, b in zip((0, *units), units))",
        ("tests/test_catalog.py",),
        "a left-c.e. real's validation misses a drop of one unit",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "if i and lengths[i - 1] <= length:",
        "if False:",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "merge keeps a description that improves nothing",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "while hi < len(stages) and lengths[hi] >= length:",
        "while False:",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "merge keeps the later events a new description supersedes",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "if lost == self.scale:",
        "if False:",
        ("tests/test_complexity.py",),
        "merge keeps the scale of a superseded longest event",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "lhs >= rhs for _p, _r, lhs, rhs in self.claim_checks",
        "lhs >= 0 for _p, _r, lhs, rhs in self.claim_checks",
        ("tests/test_constructions.py",),
        "claim_ok accepts any nonnegative claim",
    ),
    Mutant(
        "src/costlab/transforms.py",
        "stages: StageSeq\n    output_total: Fraction\n    bound: Fraction\n\n    @property\n"
        "    def ok(self) -> bool:\n        return self.output_total <= self.bound",
        "stages: StageSeq\n    output_total: Fraction\n    bound: Fraction\n\n    @property\n"
        "    def ok(self) -> bool:\n        return self.output_total <= 2 * self.bound",
        ("tests/test_transforms.py",),
        "LookAheadResult.ok allows twice the bound",
    ),
    Mutant(
        "src/costlab/transforms.py",
        "exceptions: frozenset[int] | None\n    output_total: Fraction\n    bound: Fraction\n\n"
        "    @property\n    def ok(self) -> bool:\n        return self.output_total <= self.bound",
        "exceptions: frozenset[int] | None\n    output_total: Fraction\n    bound: Fraction\n\n"
        "    @property\n    def ok(self) -> bool:\n        return self.output_total <= 2 * self.bound",
        ("tests/test_transforms.py",),
        "SameRealResult.ok allows twice the bound",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "if qm > total:",
        "if False:",
        ("tests/test_complexity.py",),
        "the domination grid's c_max check never reports",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "while x >= 0 and cmx[x] < weight:",
        "while x >= max(0, w - 50) and cmx[x] < weight:",
        ("tests/test_complexity.py",),
        "the domination grid's c_max walk stops 50 cells below the target",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "                    last = cur + 2\n",
        "",
        ("tests/test_constructions.py",),
        "the separation game does not record its greedy grant's stage",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "last = live.events[-1][0] if live.events else 0",
        "last = 0",
        ("tests/test_constructions.py",),
        "the separation game's last starts at 0, not at the index's last event",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "        live.merge([(xv + 1, k + d, cur + 1)])\n",
        "        live.merge([(xv + 1, k + d, cur + 1)])\n        last = max(last, cur + 1, xv + 2)\n",
        ("tests/test_constructions.py",),
        "equivalent: every check of a round comes after the builder's request takes effect",
    ),
    Mutant(
        "src/costlab/scenarios.py",
        "if not np.all(N * c.grid[0][tri] > d.grid[0][tri]):",
        "if False:",
        ("tests/test_scenarios.py",),
        "criterion 5's premise check never reports",
    ),
    Mutant(
        "src/costlab/core.py",
        "reaches = lambda s: units(x, s) << n >= den",
        "reaches = lambda s: units(x, s) << n > den",
        ("tests/test_core.py",),
        "a benignity chain link needs a cost above 2^-n, not at least 2^-n",
    ),
    Mutant(
        "src/costlab/core.py",
        "if u < 0:",
        "if u < -1:",
        ("tests/test_cost_units.py",),
        "the cost screen lets a cost of minus one unit through",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "if units(x, s) << e <= den:",
        "if units(x, s) << e < den:",
        ("tests/test_constructions.py", "tests/test_stage_loop_references.py"),
        "a simplicity candidate needs a cost below 2^-e, not at most 2^-e",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "weights[row] = [1 << (scale - w_lengths[0])]",
        "weights[row] = weights[row] or [1 << (scale - w_lengths[0])]",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "a replaced prompt row keeps its old weight",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "stages[i] == w + 1 else i)",
        "stages[i] == w + 1 else i + 1)",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "an inserted prompt row overwrites the row after its place",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "if rows is None or self._touched:",
        "if rows is None:",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "a query after a merge reads the last tables as they were",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "delayed.append((stage, w, length, weight_change(scale, old, length)))",
        "delayed.append((stage, w, length, weight_change(scale, None, length)))",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "a spliced delayed row is weighed as its target's first row",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "if row[1] not in touched",
        "if True",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "a touched target's old delayed rows stay beside its new ones",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "delayed.sort()",
        "pass",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "the constructor leaves spliced delayed rows out of stage order",
    ),
    Mutant(
        "src/costlab/machine.py",
        "map(per_stage.get, range(self.horizon + 1), repeat(0))",
        "map(per_stage.get, range(-1, self.horizon), repeat(0))",
        ("tests/test_machine.py",),
        "the omega column counts the grants before each stage, not at or before it",
    ),
    Mutant(
        "src/costlab/core.py",
        "return self.cost.fraction(sum(u for _s, _x, u in self.units))",
        "return self.cost.fraction(sum(u for _s, _x, u in self.units[1:]))",
        ("tests/test_core.py",),
        "the ledger's total leaves out its first charge",
    ),
    Mutant(
        "src/costlab/machine.py",
        "total += one >> r",
        "total += one >> r if i else 0",
        ("tests/test_machine.py",),
        "a request set's weight leaves out its first request",
    ),
    Mutant(
        "src/costlab/machine.py",
        "or stage < last:",
        "or stage <= last:",
        ("tests/test_machine.py::test_request_set_rejects_decreasing_stage",),
        "a request set rejects a stage equal to the last",
    ),
    Mutant(
        "src/costlab/machine.py",
        "if total > one:",
        "if total >= one:",
        ("tests/test_machine.py::test_request_set_rejects_weight_above_one",),
        "a request set rejects a weight of exactly 1",
    ),
    Mutant(
        "src/costlab/serialize.py",
        "line_nos[exc.position]",
        "line_nos[exc.position - 1]",
        ("tests/test_serialize_cli.py::test_schedule_error_names_its_line_after_a_run_of_good_lines",),
        "a schedule's request error names the line before its entry's",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "hm = max(hmax[-1], bound)",
        "hm = bound",
        ("tests/test_complexity.py",),
        "the domination grid's idle stage forgets the cells below it",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "                    if q[x] > qm:\n                        qm = q[x]\n                    x -= 1\n",
        "                    x -= 1\n",
        ("tests/test_complexity.py",),
        "the domination grid's c_max walk leaves the maximum of q as it was",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "if new >= claim_caps[0]:",
        "if new >= claim_caps[-1]:",
        ("tests/test_constructions.py",),
        "the separation claim ledger skips the caps for a length between them",
    ),
    Mutant(
        "src/costlab/machine.py",
        "l = (free & ((2 << L) - 1)).bit_length() - 1",
        "l = (free & ((1 << L) - 1)).bit_length() - 1",
        ("tests/test_machine.py",),
        "the allocator skips a free piece of exactly the requested length",
    ),
    Mutant(
        "src/costlab/machine.py",
        "taken = pos.pop(l) << (L - l)\n        free ^= (2 << L) - (1 << l)",
        "taken = pos[l] << (L - l)\n        free |= (2 << L) - (2 << l)",
        ("tests/test_machine.py",),
        "the allocator keeps the piece it takes free",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "r + (u << r < den)",
        "r + (u << r <= den)",
        ("tests/test_catalog.py",),
        "an additive request is one bit longer when its increment is exactly 2^-r",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "events.append((stage, w, old, length))",
        "events.append((stage, w, None, length))",
        ("tests/test_complexity.py",),
        "KIndex records every event as its target's first",
    ),
    Mutant(
        "src/costlab/complexity.py",
        "events[at] = (stages[hi], w, length, lengths[hi])",
        "pass",
        ("tests/test_complexity.py", "tests/test_machine.py"),
        "merge leaves the old length of the target's next event as it was",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "t, w, old, new = events[at]\n",
        "t, w, _old, new = events[at]\n            old = None\n",
        ("tests/test_constructions.py",),
        "the separation walk takes every change as its target's first",
    ),
    Mutant(
        "src/costlab/scenarios.py",
        '    if J < 1:\n        raise ValueError("at least one interval is needed")\n    p = baseline_provider(',
        "    p = baseline_provider(",
        ("tests/test_serialize_cli.py",),
        "run_slow_enum sizes its provider before it refuses J < 1",
    ),
    Mutant(
        "src/costlab/dual.py",
        "active[e] = floor = v",
        "active[e] = v",
        ("tests/test_stage_loop_references.py", "tests/test_dual.py"),
        "the dual's activation floor is not raised by an activation at the same stage",
    ),
    Mutant(
        "src/costlab/dual.py",
        "if stop_once_all_activated and len(ever) == E:",
        "if stop_once_all_activated and len(ever) == E - 1:",
        ("tests/test_stage_loop_references.py",),
        "the dual's early stop fires once all but one requirement have activated",
    ),
    Mutant(
        "src/costlab/dual.py",
        "ordered[: bisect.bisect_right(ordered, upto)]",
        "ordered[: bisect.bisect_left(ordered, upto)]",
        ("tests/test_stage_loop_references.py",),
        "a scripted functional's support leaves out the member at its bound",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "if b and last > cur:",
        "if last > cur:",
        ("tests/test_constructions.py",),
        "the separation game at b = 0 waits for a grant before testing impossibility",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "*phi_by_stage, *(t + 1 for t in phi_by_stage)}",
        "*phi_by_stage}",
        ("tests/test_stage_loop_references.py", "tests/test_constructions.py"),
        "the complete model does not visit the bump stage after a convergence",
    ),
    Mutant(
        "src/costlab/machine.py",
        "if weight * budget_used.denominator > budget_used.numerator << self.max_length:",
        "if weight * budget_used.denominator >= budget_used.numerator << self.max_length:",
        ("tests/test_machine.py",),
        "a provider refuses grants that weigh exactly its stated budget",
    ),
    Mutant(
        "src/costlab/scenarios.py",
        "self._failed.add(check)",
        "pass",
        ("tests/test_scenarios.py",),
        "a failing instance leaves its check's summary line passing",
    ),
    Mutant(
        "src/costlab/scenarios.py",
        "self.add(label, False, detail)",
        "pass",
        ("tests/test_scenarios.py",),
        "a failing instance adds no line of its own",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "1 << (scale - new) > cap:",
        "1 << (scale - new) > 2 * cap:",
        ("tests/test_complexity.py",),
        "equivalent: a run that takes a rising weight leaves c_max low below it, but a later "
        "walk stops short there only at a weight at least its own that is plain, so counted "
        "in c_K, or was carried down already; so no c_max violation changes",
    ),
    Mutant(
        "src/costlab/catalog.py",
        " and all(map(operator.le, hrun[1:], bounds)):",
        ":",
        ("tests/test_complexity.py",),
        "the domination grid applies a run whose measure check fails inside it",
    ),
    Mutant(
        "src/costlab/catalog.py",
        "if max(qm, q[a - 2] + weights[0]) <= T[1] and all(",
        "if all(",
        ("tests/test_complexity.py",),
        "the domination grid applies a run whose c_max check fails inside it",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "min(last - 1, cur + V - used)",
        "min(last, cur + V - used)",
        (SEPARATION_REFERENCE,),
        "the separation wait jumps to last, past its check",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "if wait and (best[-1] is None or new < best[-1]):",
        "if wait and w > xl and (best[-1] is None or new < best[-1]):",
        (SEPARATION_REFERENCE,),
        "the separation wait jumps past an event at or below the last element",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "(best[-1] is None or new < best[-1])",
        "best[-1] is None",
        (SEPARATION_REFERENCE,),
        "the separation wait jumps past a length shorter than the last element's best",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "min(last - 1, cur + V - used)",
        "min(last - 1, cur + V - used + 1)",
        (SEPARATION_REFERENCE,),
        "the separation wait jumps one stage past the budget",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "seg[-1] = [v + (run << (top - scale)) for v in seg[-1]]",
        "seg[-1] = [v for v in seg[-1]]",
        (SEPARATION_REFERENCE,),
        "the separation walk's bulk step skips the last segment's claim sums",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "floor = max(claim_caps[0], scale + 1",
        "floor = max(0, scale + 1",
        (SEPARATION_REFERENCE,),
        "the separation walk's bulk step takes a length the first claim cap clips",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "if new >= floor and w > xl:",
        "if new >= floor and w > x0:",
        (SEPARATION_REFERENCE,),
        "the separation walk's bulk step takes an event at or below the last element",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "if 1 << (scale + b - k - d) > room:",
        "if 1 << (scale + b - k - d) >= room:",
        (SEPARATION_REFERENCE,),
        "the separation game refuses a request the measure left just covers",
    ),
    Mutant(
        "src/costlab/constructions.py",
        "elif 1 << (scale + b - L) > room:",
        "elif 1 << (scale + b - L) >= room:",
        (SEPARATION_REFERENCE,),
        "the separation game refuses a grant the measure left just covers",
    ),
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> bool:
    """Whether the named tests pass in the copy."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": str(copy / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def survey(mutant: Mutant | None, tests: tuple[str, ...]) -> str:
    """killed, survived or stale (the old text is not found exactly once)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return "stale"
            path.write_text(text.replace(mutant.old, mutant.new))
        return "survived" if run_tests(copy, tests) else "killed"


def expected(mutant: Mutant) -> str:
    """The verdict a current suite gives: only a proven equivalent survives."""
    return "survived" if mutant.note.startswith("equivalent:") else "killed"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    files = tuple(sorted({t for i in chosen for t in MUTANTS[i].tests}))
    if survey(None, files) != "survived":
        print("control: the unmutated tests fail; no verdict")
        return 1
    wrong = 0
    for i in chosen:
        m = MUTANTS[i]
        verdict = survey(m, m.tests)
        wrong += verdict != expected(m)
        print(f"{i}\t{verdict}\t{m.file}\t{m.note}", flush=True)
    if wrong:
        print(f"{wrong} verdicts differ from the expected ones")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
