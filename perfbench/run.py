"""costlab benchmark: a closed loop of verified instances, one workload per run.

One client runs instances back to back; the next starts only after the
previous one is generated, built, charged, audited and checked.  Instances
come in rotations (see workloads.py) and a run always ends on a whole
rotation, so every run holds the same mix.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds T]
    python3 perfbench/run.py --self-test [--seed N]

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it replays each rotation once untraced and once traced and reports the
per-layer metrics.  End-to-end instance times are host-normalized (see
hostspeed.py); set-up and per-layer times are wall-clock.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Run from the root of a checkout: the program is imported from
``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
# digest and per-layer counts cover this many leading rotations, so they
# repeat exactly however many rotations a run completes
WINDOW_ROTATIONS = 2
WORKLOAD_NAMES = ("stage-loops", "ledger-algebra", "provider-churn", "complexity-queries")


def import_lab():
    """Import numpy, costlab and the workloads from the checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import costlab  # noqa: F401
    import workloads

    return workloads


def setup_probe(name: str) -> None:
    """Child process: time the imports and the workload's shared fixtures."""
    t0 = time.perf_counter()
    workloads = import_lab()
    workloads.WORKLOADS[name]()
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str) -> float:
    """Median set-up time over fresh processes.

    Wall time: import time does not follow the host-speed reference.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(res.stdout.split()[-1]))
    return statistics.median(samples)


def run_instance(workload, tr, seed: int, i: int):
    """Run one instance; a CostLabError counts as a failed instance."""
    from costlab.errors import CostLabError
    from workloads import Outcome

    try:
        return workload.run(tr, seed, i)
    except CostLabError:
        out = Outcome()
        out.check(False)
        return out


def instance_digest(out) -> str:
    h = hashlib.sha256()
    for text in out.texts:
        h.update(text.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


def window_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def facts(workload, seed: int, **extra) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines(),
        "kinds": list(workload.kinds),
        "rotation_size": workload.rotation,
        **extra,
    }


def end_to_end(workload, seed: int, seconds: float) -> dict:
    from spans import NullTracer

    setup_s = measure_setup(workload.name)
    tr = NullTracer()
    times: list[float] = []  # per instance, in rotation order
    digests: list[str] = []
    refs = [hostspeed.reference_time()]  # before, between and after rotations
    failed = 0
    start = time.perf_counter()
    r = 0
    while r < WINDOW_ROTATIONS or time.perf_counter() - start < seconds:
        for m in range(workload.rotation):
            i = r * workload.rotation + m
            t0 = time.perf_counter()
            out = run_instance(workload, tr, seed, i)
            times.append(time.perf_counter() - t0)
            failed += not out.ok
            if r < WINDOW_ROTATIONS:
                digests.append(instance_digest(out))
        refs.append(hostspeed.reference_time())
        r += 1

    # a run is a pure function of (workload, seed): replaying the first
    # rotation in the same process must give the same artifacts
    replay = [instance_digest(run_instance(workload, tr, seed, i)) for i in range(workload.rotation)]
    deterministic = replay == digests[: workload.rotation]

    n, k = len(times), workload.rotation
    wall_ms = [t * 1000 for t in times]
    rotation_scale = hostspeed.scales(refs)
    ms = [t * rotation_scale[idx // k] for idx, t in enumerate(wall_ms)]
    # The median is taken over rotations of their mean instance time: kinds
    # in a rotation differ several-fold in cost, and a median over single
    # instances would fall in the gap between two kinds' clusters.
    rotation_ms = [sum(ms[q : q + k]) / k for q in range(0, n, k)]
    info = facts(
        workload, seed, trace=0, instances=n, rotations=r,
        digest=window_digest(digests), digest_instances=len(digests),
        deterministic=deterministic, failed_share=failed / n,
        kind_p50_ms={m: statistics.median(ms[m::k]) for m in range(k)},
        reference_ms=statistics.median(refs) * 1000,
        wall_instances_per_s=n / sum(times),
        wall_instance_ms_p50=statistics.median(sum(wall_ms[q : q + k]) / k for q in range(0, n, k)),
    )
    if n >= 100:
        info["instance_ms.p90"] = statistics.quantiles(ms, n=10)[-1]
    print(json.dumps({"facts": info}))
    metrics = {
        "instances_per_s": (1000 * n / sum(ms), "1/s"),
        "instance_ms.p50": (statistics.median(rotation_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return result(failed == 0 and deterministic, n, failed, metrics)


def traced(workload, seed: int, seconds: float) -> dict:
    from spans import NullTracer, Tracer
    from workloads import span_table

    null, tracer = NullTracer(), Tracer()
    table = span_table()
    plain_s = traced_s = 0.0
    failed = n = 0
    window_end = 0
    counts = {}
    start = time.perf_counter()
    r = 0
    while r < WINDOW_ROTATIONS or time.perf_counter() - start < seconds:
        # alternate which pass runs first, so neither gains from the other
        for tracing in ((False, True) if r % 2 == 0 else (True, False)):
            for m in range(workload.rotation):
                i = r * workload.rotation + m
                if tracing:
                    with tracer.patched(table):
                        t0 = time.perf_counter()
                        with tracer.span("bench.self"):
                            out = run_instance(workload, tracer, seed, i)
                        traced_s += time.perf_counter() - t0
                    n += 1
                    failed += not out.ok
                else:
                    t0 = time.perf_counter()
                    run_instance(workload, null, seed, i)
                    plain_s += time.perf_counter() - t0
            if tracing and r == WINDOW_ROTATIONS - 1:
                window_end = len(tracer.spans)
                counts = dict(tracer.counts)
        r += 1

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv")
    selfs, _ = tracer.self_times()
    _, calls = tracer.self_times(window_end)

    def per_instance(name: str) -> tuple[float, str]:
        return selfs[name] / n, "s"

    def count(name: str) -> tuple[int, str]:
        return counts.get(name, 0), "count"

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    metrics = {
        "machine.build_s": per_instance("machine.build"),
        "machine.materialize_s": per_instance("machine.materialize"),
        "machine.audit_s": per_instance("machine.audit"),
        "machine.descriptions": count("machine.descriptions"),
        "core.eval_s": per_instance("core.eval"),
        "core.evals": count("core.evals"),
        "core.ledger_s": per_instance("core.ledger"),
        "core.ledger_charges": count("core.ledger_charges"),
        "core.chain_s": per_instance("core.chain"),
        "core.chain_links": count("core.chain_links"),
        "catalog.complexity_s": per_instance("catalog.complexity"),
        "catalog.domination_s": per_instance("catalog.domination"),
        "catalog.grid_points": count("catalog.grid_points"),
        "catalog.additive_s": per_instance("catalog.additive"),
        "transforms.busy_s": per_instance("transforms.busy"),
        "transforms.calls": (tracer.entries_into("transforms", window_end), "count"),
        "transforms.output_events": count("transforms.output_events"),
        "constructions.simple_s": per_instance("constructions.simple"),
        "constructions.complete_model_s": per_instance("constructions.complete_model"),
        "constructions.separation_s": per_instance("constructions.separation"),
        "constructions.separation_stages": count("constructions.separation_stages"),
        "constructions.met_ratio": ratio(
            counts.get("constructions.met", 0), counts.get("constructions.candidates", 0)
        ),
        "dual.construct_s": per_instance("dual.construct"),
        "dual.construct_calls": (calls["dual.construct"], "count"),
        "dual.audit_s": per_instance("dual.audit"),
        "dual.passes_per_run": ratio(calls["dual.construct"], counts.get("dual.instances", 0)),
        "generate.self_s": per_instance("generate.self"),
        "generate.calls": (tracer.entries_into("generate", window_end), "count"),
        "serialize.busy_s": per_instance("serialize.busy"),
        "serialize.bytes": count("serialize.bytes"),
        "bench.self_s": per_instance("bench.self"),
        "trace.instance_s": (traced_s / n, "s"),
        "trace.overhead_share": ratio(traced_s - plain_s, plain_s),
    }
    layer_sum = sum(selfs.values()) / n
    print(json.dumps({"facts": facts(
        workload, seed, trace=1, instances=n, rotations=r,
        count_instances=WINDOW_ROTATIONS * workload.rotation,
        self_time_sum_s=layer_sum,
    )}))
    return result(failed == 0, n, failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    """Run every workload untraced and traced; print each metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            res = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if res.returncode != 0:
                print(f"{name} trace {trace}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
                status = 1
                continue
            lines = res.stdout.strip().splitlines()
            info = json.loads(lines[-2])["facts"]
            out = json.loads(lines[-1])
            status |= not out["correct"]
            print(f"# {name} trace={trace} correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']} "
                  f"digest={info.get('digest', '-')}")
            for metric, mv in out["metrics"].items():
                print(f"{name}\t{metric}\t{mv['value']:.6g}\t{mv['unit']}")
            if "instance_ms.p90" in info:
                print(f"{name}\tinstance_ms.p90\t{info['instance_ms.p90']:.6g}\tms"
                      f"\t(n={info['instances']})")
            if trace == 0:
                print(f"{name}\tfailed_share\t{info['failed_share']:.6g}\tratio")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, print every metric")
    ap.add_argument("--self-test", action="store_true", help="cross-check against the scenario runners")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    try:
        workloads = import_lab()
    except ImportError as exc:
        print(f"cannot import costlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, int(args.seconds))
    if args.self_test:
        import crosscheck

        return crosscheck.main(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload]()
    run = traced if args.trace else end_to_end
    out = run(workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
