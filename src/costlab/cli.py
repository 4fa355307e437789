"""Command-line scenario runner and artifact tooling.

Subcommands: ``run`` executes a scenario descriptor into a run directory,
``generate`` produces serialized inputs from a seed, ``check`` validates
serialized artifacts, and ``export`` converts traces to ledgers or CSV.
Outputs are a pure function of (descriptor, seed): reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, generate
from .catalog import additive_from_real, additive_requests, cost_k
from .core import cost_of_trace, geometric_cost
from .errors import CostLabError, ParseError
from .machine import baseline_provider, check_prefix_free, kc_machine
from .scenarios import SCENARIOS, parse_scenario
from .serialize import (
    dump_events_csv,
    dump_ledger_csv,
    dump_real,
    dump_schedule,
    dump_trace,
    load_real,
    load_schedule,
    load_trace,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CostLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costlab",
        description="exact-arithmetic cost-function laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(required=True)

    p_run = sub.add_parser("run", help="execute a scenario descriptor")
    p_run.add_argument("descriptor", type=Path)
    p_run.add_argument("-o", "--outdir", type=Path, required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("generate", help="produce serialized inputs")
    p_gen.add_argument(
        "kind", choices=["trace", "enumeration", "real", "schedule", "scenario"]
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--horizon", type=int, default=200)
    p_gen.add_argument("--width", type=int, default=48)
    p_gen.add_argument("--count", type=int, default=8)
    p_gen.add_argument("--scenario-kind", default="kraft-audit")
    p_gen.add_argument("-o", "--out", type=Path, required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_check = sub.add_parser("check", help="validate a serialized artifact")
    p_check.add_argument("kind", choices=["schedule", "trace", "enumeration", "real"])
    p_check.add_argument("path", type=Path)
    p_check.set_defaults(func=_cmd_check)

    p_export = sub.add_parser("export", help="convert artifacts to CSV")
    p_export.add_argument("what", choices=["ledger", "events"])
    p_export.add_argument("--trace", type=Path, required=True)
    p_export.add_argument(
        "--cost",
        default="geometric",
        choices=["geometric", "complexity-sum", "real"],
        help="cost function for ledger export",
    )
    p_export.add_argument("--real", type=Path, help="left-c.e. real backing --cost real")
    p_export.add_argument("-o", "--out", type=Path, required=True)
    p_export.set_defaults(func=_cmd_export)
    return parser


def _check_seed(seed: int | None) -> None:
    """A seed given on the command line is a natural, as in a descriptor's seed line."""
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be a natural, not {seed}")


def _cmd_run(args) -> int:
    _check_seed(args.seed)
    text = args.descriptor.read_text()
    scenario = parse_scenario(text)
    if args.seed is not None:
        scenario = type(scenario)(scenario.kind, args.seed, scenario.params)
    result = scenario.run()
    outdir: Path = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = (
        f"costlab {__version__}\n"
        f"scenario {scenario.kind}\n"
        f"seed {scenario.seed}\n"
        + "".join(f"param {k} {v}\n" for k, v in sorted(scenario.params.items()))
    )
    (outdir / "manifest.txt").write_text(manifest)
    (outdir / "summary.txt").write_text(result.summary())
    for name, content in sorted(result.artifacts.items()):
        (outdir / name).write_text(content)
    print(result.summary(), end="")
    return 0 if result.ok else 2


def _cmd_generate(args) -> int:
    _check_seed(args.seed)
    rng = generate.rng_for(args.seed, args.kind)
    if args.kind == "trace":
        art = dump_trace(
            generate.approximation_trace(rng, args.horizon, args.width, args.count)
        )
    elif args.kind == "enumeration":
        art = dump_trace(
            generate.enumeration_trace(rng, args.horizon, args.width, args.count)
        )
    elif args.kind == "real":
        art = dump_real(generate.left_ce_real(rng, args.horizon))
    elif args.kind == "schedule":
        b = generate.left_ce_real(rng, args.horizon)
        art = dump_schedule(additive_requests(additive_from_real(b)))
    else:
        if args.scenario_kind not in SCENARIOS:
            raise ValueError(f"unknown scenario kind {args.scenario_kind!r}")
        art = f"scenario {args.scenario_kind}\nseed {args.seed}\n"
    args.out.write_text(art)
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    text = args.path.read_text()
    try:
        if args.kind == "schedule":
            rs = load_schedule(text)
            machine = kc_machine(rs, 0)
            conflicts = check_prefix_free(machine.domain())
            print(f"entries {len(rs)} weight {rs.weight} prefix-conflicts {len(conflicts)}")
            if conflicts:
                return 2
        elif args.kind in ("trace", "enumeration"):
            tr = load_trace(text, enumeration=args.kind == "enumeration")
            print(
                f"horizon {tr.horizon} events {len(tr.events)} "
                f"final {sorted(tr.final_set())}"
            )
        else:
            real = load_real(text)
            print(f"stages {real.horizon + 1} limit {real.at(real.horizon)}")
    except ParseError as exc:
        print(f"invalid {args.kind}: {exc}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def _cmd_export(args) -> int:
    trace = load_trace(args.trace.read_text())
    if args.what == "events":
        args.out.write_text(dump_events_csv(trace))
    else:
        if args.cost == "geometric":
            c = geometric_cost(trace.horizon)
        elif args.cost == "complexity-sum":
            c = cost_k(baseline_provider(trace.horizon))
        else:
            if args.real is None:
                raise ValueError("--cost real needs --real")
            c = additive_from_real(load_real(args.real.read_text(), cap=Fraction(10)))
        args.out.write_text(dump_ledger_csv(cost_of_trace(c, trace)))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
