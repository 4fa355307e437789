"""Self-test: the benchmark's instances against costlab's scenario runners.

For each workload, runs its first k instances and the matching scenario
runners with count=k on the same seed; both must pass every check, and the
artifacts both write must match byte for byte.  Then runs each workload
twice in fresh processes and compares their output digests.

    python3 perfbench/run.py --self-test [--seed N]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from costlab import generate, machine, scenarios, serialize

from spans import NullTracer
from workloads import WORKLOADS, registered_provider

K = 2


def _instances(name: str, seed: int, rotations: int) -> list:
    w = WORKLOADS[name]()
    tr = NullTracer()
    return [w.run(tr, seed, i) for i in range(rotations * w.rotation)]


def check_stage_loops(seed: int):
    outs = _instances("stage-loops", seed, K)
    exist = scenarios.run_existence(seed, count=K)
    cm = scenarios.run_complete_model(seed, count=K)
    du = scenarios.run_dual(seed, count=K)
    yield "benchmark instances pass", all(o.ok for o in outs)
    yield "existence, complete-model, dual scenarios pass", exist.ok and cm.ok and du.ok
    yield "existence trace matches", outs[0].texts[0] == exist.artifacts["existence_trace.txt"]
    yield "existence ledger matches", outs[0].texts[1] == exist.artifacts["existence_ledger.csv"]
    yield "dual wishes match", outs[2].texts[0] == du.artifacts["dual_wishes.csv"]


def check_ledger_algebra(seed: int):
    outs = _instances("ledger-algebra", seed, K)
    runs = [
        scenarios.run_additive_algebra(seed, count=K, bound=200),
        scenarios.run_changeset_join(seed, count=K),
        scenarios.run_conjunction(seed, count=K),
        scenarios.run_implication(seed, count=K),
    ]
    yield "benchmark instances pass", all(o.ok for o in outs)
    yield "additive-algebra, changeset-join, conjunction, implication scenarios pass", all(
        r.ok for r in runs
    )


def check_provider_churn(seed: int):
    outs = _instances("provider-churn", seed, K)
    res = scenarios.run_kraft_audit(seed)
    p = registered_provider(generate.rng_for(seed, "kraft"), 128)
    yield "benchmark instances pass", all(o.ok for o in outs)
    yield "kraft-audit scenario passes", res.ok
    yield "registered schedule matches", (
        serialize.dump_schedule(p.request_schedule()) == res.artifacts["registered_schedule.txt"]
    )


def check_complexity_queries(seed: int):
    w = WORKLOADS["complexity-queries"]()
    outs = _instances("complexity-queries", seed, K)
    S = w.S
    base = w.queries(NullTracer(), generate.rng_for(seed, "query-base"), machine.baseline_provider(S), True)
    sep = scenarios.run_separation(seed, b=w.SEPARATION_B, d=w.SEPARATION_D, S=S)
    yield "benchmark instances pass", all(o.ok for o in outs) and base.ok
    yield "domination, benignity, separation (b=1) scenarios pass", (
        scenarios.run_domination(seed, S=S).ok and scenarios.run_benignity(seed, S=S).ok and sep.ok
    )
    yield "separation requests match", base.texts[0] == sep.artifacts["separation_requests.txt"]


def digest_of_fresh_run(name: str, seed: int) -> str:
    run_py = Path(__file__).resolve().with_name("run.py")
    res = subprocess.run(
        [sys.executable, str(run_py), "--workload", name, "--seed", str(seed), "--seconds", "0"],
        cwd=run_py.parent.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(res.stdout.splitlines()[-2])["facts"]["digest"]


CHECKS = {
    "stage-loops": check_stage_loops,
    "ledger-algebra": check_ledger_algebra,
    "provider-churn": check_provider_churn,
    "complexity-queries": check_complexity_queries,
}


def main(seed: int) -> int:
    failures = 0
    for name, check in CHECKS.items():
        results = list(check(seed))
        first, second = digest_of_fresh_run(name, seed), digest_of_fresh_run(name, seed)
        results.append(("digest repeats across processes", first == second))
        for label, ok in results:
            failures += not ok
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label}")
    print("ALL PASS" if not failures else f"{failures} FAILURES")
    return 1 if failures else 0
