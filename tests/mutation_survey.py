"""Mutation survey: does the test suite see a deliberately broken program?

Each mutant is (file, old text, new text, test files).  For each one the
survey copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, replaces the one occurrence of the old text in the copy, runs
the named test files there with pytest and prints ``killed`` when they
fail or ``survived`` when they pass.  An unmutated control run comes
first, since a kill means nothing when the tests fail anyway.  pytest does
not collect this file, and CI does not run it.

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
        "                if old is not None and new >= old:\n                    continue\n",
        "",
        ("tests/test_complexity.py",),
        "the tables keep events that improve nothing",
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
        "equivalent: a live axiom issued again repeats its use, snapshot and value",
    ),
    Mutant(
        "src/costlab/util.py",
        "groupby(seq, id)",
        "groupby(seq, lambda v: v.denominator)",
        ("tests/test_catalog.py",),
        "runs keyed by denominator: a decrease within one denominator is skipped",
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
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> bool:
    """Whether the named test files pass in the copy."""
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
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return "stale"
            path.write_text(text.replace(mutant.old, mutant.new))
        return "survived" if run_tests(copy, tests) else "killed"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    files = tuple(sorted({t for i in chosen for t in MUTANTS[i].tests}))
    if survey(None, files) != "survived":
        print("control: the unmutated tests fail; no verdict")
        return 1
    for i in chosen:
        m = MUTANTS[i]
        print(f"{i}\t{survey(m, m.tests)}\t{m.file}\t{m.note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
