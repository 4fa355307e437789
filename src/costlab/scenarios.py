"""Named scenario runners: one per acceptance-grade property of the lab.

A scenario is a pure function of (params, seed).  Each runner returns a
result whose check lines carry exact rationals; the CLI writes them to a run
directory, and the test suite asserts them directly.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import generate
from .catalog import (
    additive_from_real,
    cost_k,
    domination_grid_report,
    real_from_additive,
    solovay_translate,
)
from .constructions import (
    build_complete_model,
    build_prompt_simple,
    build_simple,
    separation_run,
    slow_enum_N,
)
from .core import CostFn, benign_witness, cost_fn, cost_of_trace, geometric_cost
from .dual import audit_diagonalization, audit_dual, dual_construct
from .errors import ParseError
from .machine import baseline_provider, check_prefix_free
from .serialize import _lines, _nat, dump_ledger_csv, dump_schedule, dump_trace, dump_wishes_csv
from .transforms import (
    change_set,
    conjoin,
    decode_change_set,
    implication_transfer,
    join,
)


# Runtime gates keep their verdict but not the measured seconds, so that two
# runs of one descriptor write byte-identical summaries.
_UNRECORDED = "wall clock, figure not recorded"


@dataclass(frozen=True)
class CheckLine:
    label: str
    ok: bool
    detail: str

    def render(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.label}: {self.detail}"


@dataclass
class ScenarioResult:
    name: str
    seed: int
    checks: list[CheckLine] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str) -> None:
        self.checks.append(CheckLine(label, bool(ok), detail))

    def summary(self) -> str:
        head = f"scenario {self.name} seed {self.seed}\n"
        body = "\n".join(c.render() for c in self.checks)
        verdict = "ALL PASS" if self.ok else "FAILURES PRESENT"
        return head + body + f"\n{verdict}\n"


def run_existence(seed: int, count: int = 100, sets: int = 32, S: int = 10_000) -> ScenarioResult:
    """Simple-set construction: exact cost bound and met-requirement rate."""
    res = ScenarioResult("existence", seed)
    c = geometric_cost(S)
    worst_time = 0.0
    cost_ok = True
    met_ok = True
    for i in range(count):
        rng = generate.rng_for(seed, f"universe{i}")
        u = generate.universe(rng, sets, S)
        t0 = time.perf_counter()
        trace, ledger = build_simple(c, u, S)
        dt = time.perf_counter() - t0
        worst_time = max(worst_time, dt)
        costs = cost_of_trace(c, trace)
        if costs.total > 2:
            cost_ok = False
            res.add(f"universe {i} total", False, f"{costs.total} > 2")
        frac = ledger.met_fraction_of_candidates()
        if frac < Fraction(9, 10):
            met_ok = False
            res.add(f"universe {i} met rate", False, str(frac))
        if i == 0:
            res.artifacts["existence_trace.txt"] = dump_trace(trace)
            res.artifacts["existence_ledger.csv"] = dump_ledger_csv(costs)
    res.add("total cost <= 2 on all universes", cost_ok, f"{count} universes")
    res.add("met >= 90% of requirements with candidates", met_ok, f"{count} universes")
    res.add("runtime per universe < 5 s", worst_time < 5.0, _UNRECORDED)
    return res


def run_prompt_existence(seed: int, count: int = 20, sets: int = 16, S: int = 2000) -> ScenarioResult:
    res = ScenarioResult("prompt-existence", seed)
    c = geometric_cost(S)
    ok_cost = True
    ok_witness = True
    for i in range(count):
        rng = generate.rng_for(seed, f"prompt{i}")
        u = generate.universe(rng, sets, S)
        trace, ledger = build_prompt_simple(c, u, S)
        if cost_of_trace(c, trace).total > 2:
            ok_cost = False
        for rec in ledger.records:
            if rec.met and rec.witness is not None:
                stage, x = rec.witness
                arrived = u.sets[rec.index].stages_of(x)
                if arrived and arrived[0] != stage:
                    ok_witness = False
    res.add("prompt total cost <= 2", ok_cost, f"{count} universes")
    res.add("promptness witness at appearance stage", ok_witness, f"{count} universes")
    return res


def run_domination(seed: int = 0, S: int = 4096) -> ScenarioResult:
    """Exhaustive pointwise domination on the full grid, exact arithmetic."""
    res = ScenarioResult("domination", seed)
    t0 = time.perf_counter()
    p = baseline_provider(S)
    rep = domination_grid_report(p)
    dt = time.perf_counter() - t0
    res.add(
        "complexity-sum <= domain-measure difference",
        not rep.omega_violations,
        f"{rep.grid_points} grid points, {len(rep.omega_violations)} violations",
    )
    res.add(
        "complexity-max <= complexity-sum",
        not rep.max_violations,
        f"{rep.grid_points} grid points, {len(rep.max_violations)} violations",
    )
    res.add("runtime < 60 s", dt < 60.0, _UNRECORDED)
    return res


def run_additive_algebra(seed: int, count: int = 100, bound: int = 200) -> ScenarioResult:
    """Exact additivity on all triples and the real <-> cost roundtrip."""
    res = ScenarioResult("additive-algebra", seed)
    t0 = time.perf_counter()
    triples_ok = True
    roundtrip_ok = True
    for i in range(count):
        rng = generate.rng_for(seed, f"real{i}")
        b = generate.left_ce_real(rng, bound)
        c = additive_from_real(b)
        ev = c.eval_fn
        # units over a den of at most 2^SCALE: the grid fits int64
        grid = np.zeros((bound + 1, bound + 1), dtype=np.int64)
        for x in range(bound + 1):
            grid[x, x:] = [ev(x, s) for s in range(x, bound + 1)]
        # c(x,y) + c(y,z) == c(x,z) for every x < y < z, sliced per middle y
        for y in range(1, bound):
            lhs = grid[:y, y][:, None] + grid[y, y + 1 :][None, :]
            if not np.array_equal(lhs, grid[:y, y + 1 :]):
                triples_ok = False
                res.add(f"real {i} additivity", False, f"violated at middle {y}")
                break
        back = real_from_additive(c, cap=b.cap)
        if back.seq != b.seq:
            roundtrip_ok = False
            res.add(f"real {i} roundtrip", False, "sequences differ")
    dt = time.perf_counter() - t0
    res.add("exact additivity on all triples", triples_ok, f"{count} reals, bound {bound}")
    res.add("real <-> cost roundtrip identity", roundtrip_ok, f"{count} reals")
    res.add("runtime < 10 s", dt < 10.0, _UNRECORDED)
    return res


def run_conjunction(seed: int, count: int = 100, S: int = 1000) -> ScenarioResult:
    """Conjunction bound with exhaustive final-set equality."""
    res = ScenarioResult("conjunction", seed)
    t0 = time.perf_counter()
    ok_bound = True
    ok_final = True
    for i in range(count):
        rng = generate.rng_for(seed, f"conj{i}")
        e, f, final = generate.same_final_pair(rng, S)
        c = generate.additive_grid_cost(rng, S, "conj-c")
        d = generate.additive_grid_cost(rng, S, "conj-d")
        r = conjoin(e, f, c, d)
        if not r.ok:
            ok_bound = False
            res.add(f"instance {i} bound", False, f"{r.output_total} > {r.bound}")
        if r.trace.final_set() != final:
            ok_final = False
            res.add(f"instance {i} final", False, "final set changed")
    dt = time.perf_counter() - t0
    res.add("(c+d)-ledger <= 4 + c-ledger + d-ledger", ok_bound, f"{count} instances")
    res.add("final-set equality exhaustive", ok_final, f"{count} instances")
    res.add("runtime < 30 s", dt < 30.0, _UNRECORDED)
    return res


def run_implication(seed: int, count: int = 100, S: int = 1000) -> ScenarioResult:
    """Implication transfer bound under pointwise-verified domination."""
    res = ScenarioResult("implication", seed)
    t0 = time.perf_counter()
    ok_bound = True
    ok_premise = True
    tri = np.triu_indices(S + 1, k=1)  # every x < s cell of the (S+1)-square grids
    for i in range(count):
        rng = generate.rng_for(seed, f"impl{i}")
        N = rng.randint(1, 4)
        c, d = generate.dominated_cost_pair(rng, S, N)
        if not np.all(N * c.grid[0][tri] > d.grid[0][tri]):
            ok_premise = False
            res.add(f"instance {i} premise", False, "domination fails on the grid")
            continue
        a = generate.trace_with_final(
            rng, S, frozenset(rng.sample(range(40), 6)), 40, S // 2
        )
        r = implication_transfer(a, c, d, N)
        if not r.ok or r.trace.final_set() != a.final_set():
            ok_bound = False
            res.add(f"instance {i} bound", False, f"{r.output_total} > {r.bound}")
    dt = time.perf_counter() - t0
    res.add("domination premise verified pointwise", ok_premise, f"{count} instances")
    res.add("d-ledger(output) <= N * c-ledger(input)", ok_bound, f"{count} instances")
    res.add("runtime < 30 s", dt < 30.0, _UNRECORDED)
    return res


def run_changeset_join(seed: int, count: int = 100, S: int = 1000) -> ScenarioResult:
    """Change-set and join ledger inequalities plus exact decoding."""
    res = ScenarioResult("changeset-join", seed)
    ok_cs = True
    ok_decode = True
    ok_join = True
    for i in range(count):
        rng = generate.rng_for(seed, f"csj{i}")
        c = generate.monotone_cost(rng, S)
        a = generate.approximation_trace(rng, S, 40, rng.randint(2, 10))
        b = generate.approximation_trace(rng, S, 40, rng.randint(2, 10))
        cs = change_set(a)
        if cost_of_trace(c, cs).total > cost_of_trace(c, a).total:
            ok_cs = False
            res.add(f"instance {i} change-set ledger", False, "inequality violated")
        if decode_change_set(cs) != a.final_set():
            ok_decode = False
            res.add(f"instance {i} decode", False, "decode mismatch")
        jt = join(a, b)
        if (
            cost_of_trace(c, jt).total
            > cost_of_trace(c, a).total + cost_of_trace(c, b).total
        ):
            ok_join = False
            res.add(f"instance {i} join ledger", False, "inequality violated")
    res.add("change-set ledger <= source ledger", ok_cs, f"{count} instances")
    res.add("decode(change_set) == final set", ok_decode, f"{count} instances")
    res.add("join ledger <= sum of ledgers", ok_join, f"{count} instances")
    return res


def run_kraft_audit(seed: int, S: int = 512) -> ScenarioResult:
    """Every machine this lab builds is prefix-free with Kraft sum <= 1."""
    res = ScenarioResult("kraft-audit", seed)
    providers = {
        "baseline-small": baseline_provider(64),
        "baseline": baseline_provider(S),
    }
    rng = generate.rng_for(seed, "kraft")
    from .catalog import additive_requests
    from .machine import register_requests

    b = generate.left_ce_real(rng, 100)
    extra = additive_requests(additive_from_real(b))
    providers["registered"] = register_requests(baseline_provider(128), extra, 3)

    for name, p in providers.items():
        machine = p.machine()
        conflicts = check_prefix_free(machine.domain())
        kraft = machine.kraft_sum()
        omega = p.omega(p.horizon)
        res.add(f"{name}: prefix-free", not conflicts, f"{len(machine.descriptions)} descriptions")
        res.add(f"{name}: kraft <= 1", kraft <= 1, f"sum {kraft}")
        res.add(
            f"{name}: omega equals honored-request sum",
            omega == kraft,
            f"omega {omega}",
        )
        if name == "registered":
            res.artifacts["registered_schedule.txt"] = dump_schedule(
                p.request_schedule()
            )
    return res


def run_slow_enum(seed: int = 0, J: int = 12) -> ScenarioResult:
    """Slow enumeration of the naturals: per-interval cost at least 1."""
    res = ScenarioResult("slow-enum", seed)
    cfg_horizon = (1 << (J + 1)) + (1 << (J - 1)) + 1
    p = baseline_provider(cfg_horizon)
    trace, ledger = slow_enum_N(p, J)
    per_ok = all(v >= 1 for v in ledger.per_interval.values())
    res.add(
        "per-interval cost >= 1",
        per_ok,
        "; ".join(f"j={j}: {v}" for j, v in ledger.per_interval.items()),
    )
    res.add(
        "total >= J - j0",
        ledger.total >= J - ledger.j0,
        f"total {ledger.total}, j0 {ledger.j0}",
    )
    res.artifacts["slow_enum_trace.txt"] = dump_trace(trace)
    return res


def run_benignity(seed: int = 0, S: int = 4096, n_max: int = 10) -> ScenarioResult:
    """Greedy interval chains stay within the geometric benignity bound."""
    res = ScenarioResult("benignity", seed)
    p = baseline_provider(S)
    ck = cost_k(p)
    ok_k = True
    details = []
    for n in range(n_max + 1):
        chain = benign_witness(ck, n, S)
        details.append(f"n={n}: k={chain.k}")
        if chain.k > (1 << n):
            ok_k = False
    res.add("complexity-sum chains: k <= 2^n", ok_k, "; ".join(details))
    rng = generate.rng_for(seed, "benign")
    b = generate.left_ce_real(rng, S, cap=Fraction(1))
    ca = additive_from_real(b)
    ok_a = True
    for n in range(n_max + 1):
        chain = benign_witness(ca, n, S)
        if chain.k > (1 << n):
            ok_a = False
    res.add("additive chains (cap 1): k <= 2^n", ok_a, f"n <= {n_max}")
    return res


def run_complete_model(seed: int, count: int = 50, S: int = 2000, markers: int = 14) -> ScenarioResult:
    """Movable-marker coding: invariant, cost bound 4, exact decoding."""
    res = ScenarioResult("complete-model", seed)
    ok_inv = True
    ok_cost = True
    ok_decode = True
    for i in range(count):
        rng = generate.rng_for(seed, f"cm{i}")
        halting, phis = generate.halting_schedule(rng, S, markers)
        out = build_complete_model(halting, phis, S)
        if out.invariant_violations:
            ok_inv = False
            res.add(f"run {i} invariant", False, str(out.invariant_violations[:3]))
        if out.total > 4:
            ok_cost = False
            res.add(f"run {i} cost", False, str(out.total))
        want = out.halting_final
        if any(out.decoded[k] != (1 if k in want else 0) for k in out.decoded):
            ok_decode = False
            res.add(f"run {i} decode", False, "mismatch")
    res.add("stage invariant at every stage", ok_inv, f"{count} runs")
    res.add("total cost <= 4 exactly", ok_cost, f"{count} runs")
    res.add("halting-set decode exact at horizon", ok_decode, f"{count} runs")
    return res


def run_separation(
    seed: int = 0, b: int = 0, d: int = 1, budget: int = 100_000, S: int = 4096
) -> ScenarioResult:
    """Bounded separation game with claim ledger; the full contradiction
    (a sequence of 2^k elements) is reported as out of reach, not attempted."""
    res = ScenarioResult("separation", seed)
    p = baseline_provider(S)
    out = separation_run(b, p, d, budget)
    res.add(
        "claim inequality on completed pairs (r <= 2)",
        out.claim_ok,
        f"{len(out.claim_checks)} pairs checked",
    )
    res.add(
        "declared model size 2^k not attempted",
        len(out.sequence) < out.declared_model_size,
        f"k={out.k}, sequence {len(out.sequence)} elements, status {out.status}",
    )
    # at b = 0 no run can reach a third element (proof in separation_run)
    if b == 0:
        res.add(
            "b = 0: response impossible within 2 sequence elements",
            out.status == "response_impossible" and len(out.sequence) <= 2,
            f"{len(out.sequence)} elements (status {out.status})",
        )
    else:
        res.add(
            "completes >= 3 sequence elements",
            len(out.sequence) >= 3,
            f"{len(out.sequence)} elements at b={b} (status {out.status})",
        )
    res.artifacts["separation_requests.txt"] = dump_schedule(out.requests)
    return res


def run_dual(seed: int, count: int = 50, S: int = 10_000, requirements: int = 5) -> ScenarioResult:
    """Dual construction: held budgets, monotone decoding, cheap halting set."""
    res = ScenarioResult("dual", seed)
    ok_held = True
    ok_mono = True
    ok_total = True
    ok_diag = True
    worst = 0.0
    for i in range(count):
        rng = generate.rng_for(seed, f"dual{i}")
        order, phis, c = generate.dual_inputs_scripted(rng, 30, requirements, S)
        t0 = time.perf_counter()
        st = dual_construct(c, order, phis, S)
        audit = audit_dual(st)
        worst = max(worst, time.perf_counter() - t0)
        if not audit.held_ok:
            ok_held = False
        if not audit.gamma_monotone:
            ok_mono = False
        if not audit.halting_bound_ok:
            ok_total = False
        if not audit_diagonalization(st, phis):
            ok_diag = False
        if i == 0:
            res.artifacts["dual_wishes.csv"] = dump_wishes_csv(st.wishes)
    res.add("per-e held totals <= 3^-e at every stage end", ok_held, f"{count} runs")
    res.add("gamma nondecreasing in t on the grid", ok_mono, f"{count} runs")
    res.add("halting-set ledger <= 3/2 exactly", ok_total, f"{count} runs")
    res.add("every activated requirement diagonalized", ok_diag, f"{count} runs")
    res.add("runtime per run < 60 s", worst < 60.0, _UNRECORDED)
    return res


def quartic_and_halving(S: int) -> tuple[CostFn, CostFn]:
    """The diagonalization scenario's pair at horizon S, for x <= min(s, S):
    c(x, s) = 2^-(2x + 2) over den 2^(2S + 2) and d(x, s) = 2^-x over 2^S."""
    c = cost_fn(
        "quartic", S, lambda x, s: 1 << 2 * (S - x) if x <= min(s, S) else 0,
        den=1 << (2 * S + 2), monotone_main=True, monotone_stage=True,
    )
    d = cost_fn(
        "halving", S, lambda x, s: 1 << (S - x) if x <= min(s, S) else 0,
        den=1 << S, monotone_main=True, monotone_stage=True,
    )
    return c, d


def run_diagonalization(seed: int, count: int = 20, S: int = 400) -> ScenarioResult:
    """Obey one cost while defeating tracking adversaries under another."""
    from .constructions import diagonalize_nonimplication
    from .util import pow2

    res = ScenarioResult("diagonalization", seed)
    ok_cost = True
    ok_epochs = True
    ok_met = True
    c, d = quartic_and_halving(S)
    for i in range(count):
        rng = generate.rng_for(seed, f"diag{i}")
        phis = generate.adversary_mix(rng, rng.randint(1, 3))
        out = diagonalize_nonimplication(c, d, phis, S)
        if out.total > 4:
            ok_cost = False
        for rec in out.ledger.records:
            b = 0
            for epoch in rec.alpha_epochs:
                if epoch > 2 * pow2(b + rec.index):
                    ok_epochs = False
                b += 1
        for idx, adv in enumerate(phis):
            if adv.name.startswith("copycat") and out.ledger.records[idx].met:
                if out.adversary_totals[idx] <= 1:
                    ok_met = False
    res.add("output obeys the priced cost (total <= 4)", ok_cost, f"{count} runs")
    res.add("per-epoch progress within 2^-(b+e)+1 budget", ok_epochs, f"{count} runs")
    res.add("met requirements drive tracking adversaries above 1", ok_met, f"{count} runs")
    return res


def run_divergence(seed: int = 0, R: int = 5, S: int = 600) -> ScenarioResult:
    """Summed limit prices over an infinite set grow without bound."""
    from .constructions import infinite_ce_divergence

    res = ScenarioResult("divergence", seed)
    p = baseline_provider(S)
    rs, sums = infinite_ce_divergence(list(range(4 * (1 << R))), R, p, 1)
    res.add(
        "shifted request schedule within the unit budget",
        rs.weight <= 1,
        f"weight {rs.weight}",
    )
    res.add(
        "partial sums strictly increasing",
        all(a < b for a, b in zip(sums, sums[1:])),
        "; ".join(str(v) for v in sums),
    )
    res.artifacts["divergence_requests.txt"] = dump_schedule(rs)
    return res


def run_solovay(seed: int, count: int = 50, S: int = 200) -> ScenarioResult:
    res = ScenarioResult("solovay", seed)
    ok_self = True
    for i in range(count):
        rng = generate.rng_for(seed, f"sol{i}")
        a = generate.left_ce_real(rng, S)
        cert = solovay_translate(a, a, 2)
        if not cert.ok:
            ok_self = False
    res.add("self-translation with N=2 has no violations", ok_self, f"{count} reals")
    return res


SCENARIOS = {
    "existence": run_existence,
    "prompt-existence": run_prompt_existence,
    "domination": run_domination,
    "additive-algebra": run_additive_algebra,
    "conjunction": run_conjunction,
    "implication": run_implication,
    "changeset-join": run_changeset_join,
    "kraft-audit": run_kraft_audit,
    "slow-enum": run_slow_enum,
    "benignity": run_benignity,
    "complete-model": run_complete_model,
    "separation": run_separation,
    "dual": run_dual,
    "solovay": run_solovay,
    "diagonalization": run_diagonalization,
    "divergence": run_divergence,
}


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    params: dict[str, int]

    def run(self) -> ScenarioResult:
        runner = SCENARIOS[self.kind]
        return runner(seed=self.seed, **self.params)


def parse_scenario(text: str) -> Scenario:
    """Parse the line-oriented scenario descriptor.

    Lines: `scenario <kind>`, `seed <n>`, `param <name> <n>`, n natural and name a keyword of
    the kind's runner; blank lines and `#` comments are ignored.  Errors report line positions.
    """
    kind = seed = None
    params: dict[str, tuple[int, int]] = {}  # name: (line, value)
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "scenario":
            if kind is not None or len(parts) != 2:
                raise ParseError(no, "misplaced scenario line")
            kind = parts[1]
            if kind not in SCENARIOS:
                raise ParseError(no, f"unknown scenario kind {kind!r}")
        elif parts[0] == "seed":
            if len(parts) != 2:
                raise ParseError(no, "seed takes one integer")
            if seed is not None:
                raise ParseError(no, "repeated seed line")
            seed = _nat(no, parts[1])
        elif parts[0] == "param":
            if len(parts) != 3:
                raise ParseError(no, "param takes a name and an integer")
            if parts[1] in params:
                raise ParseError(no, f"repeated param {parts[1]!r}")
            params[parts[1]] = (no, _nat(no, parts[2]))
        else:
            raise ParseError(no, f"unknown directive {parts[0]!r}")
    if kind is None:
        raise ParseError(1, "missing scenario line")
    keywords = inspect.signature(SCENARIOS[kind]).parameters.keys() - {"seed"}
    for name, (no, _value) in params.items():
        if name not in keywords:
            raise ParseError(no, f"{kind} takes no param {name!r}")
    return Scenario(kind, seed or 0, {name: value for name, (_no, value) in params.items()})
