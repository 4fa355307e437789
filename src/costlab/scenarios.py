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
    additive_requests,
    check_additivity,
    cost_k,
    domination_grid_report,
    real_from_additive,
    solovay_translate,
)
from .constructions import (
    build_complete_model,
    build_prompt_simple,
    build_simple,
    diagonalize_nonimplication,
    infinite_ce_divergence,
    separation_run,
    slow_enum_N,
)
from .core import CostFn, benign_witness, cost_fn, cost_of_trace, geometric_cost
from .dual import audit_diagonalization, audit_dual, dual_construct
from .errors import NonAdditive, ParseError
from .machine import baseline_provider, check_prefix_free, register_requests, shortcut_stage
from .serialize import _lines, _nat, dump_ledger_csv, dump_schedule, dump_trace, dump_wishes_csv
from .transforms import (
    change_set,
    conjoin,
    decode_change_set,
    implication_transfer,
    join,
)
from .util import pow2


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
    _failed: set[str] = field(default_factory=set, init=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str) -> None:
        self.checks.append(CheckLine(label, bool(ok), detail))

    def expect(self, check: str, ok: bool, label: str | None = None, detail: str = "") -> None:
        """One instance's outcome for `check`: a failure fails the check's
        verdict and, given a label, adds the instance's own failing line."""
        if not ok:
            self._failed.add(check)
            if label is not None:
                self.add(label, False, detail)

    def verdict(self, check: str, detail: str) -> None:
        """`check`'s summary line: it fails if any instance of it failed."""
        self.add(check, check not in self._failed, detail)

    def summary(self) -> str:
        head = f"scenario {self.name} seed {self.seed}\n"
        body = "\n".join(c.render() for c in self.checks)
        verdict = "ALL PASS" if self.ok else "FAILURES PRESENT"
        return head + body + f"\n{verdict}\n"


def run_existence(seed: int, count: int = 100, sets: int = 32, S: int = 10_000) -> ScenarioResult:
    """Simple-set construction: exact cost bound and met-requirement rate."""
    res = ScenarioResult("existence", seed)
    cost_check = "total cost <= 2 on all universes"
    met_check = "met >= 90% of requirements with candidates"
    c = geometric_cost(S)
    worst_time = 0.0
    for i in range(count):
        rng = generate.rng_for(seed, f"universe{i}")
        u = generate.universe(rng, sets, S)
        t0 = time.perf_counter()
        trace, ledger = build_simple(c, u, S)
        dt = time.perf_counter() - t0
        worst_time = max(worst_time, dt)
        costs = cost_of_trace(c, trace)
        res.expect(cost_check, costs.total <= 2, f"universe {i} total", f"{costs.total} > 2")
        frac = ledger.met_fraction_of_candidates()
        res.expect(met_check, frac >= Fraction(9, 10), f"universe {i} met rate", str(frac))
        if i == 0:
            res.artifacts["existence_trace.txt"] = dump_trace(trace)
            res.artifacts["existence_ledger.csv"] = dump_ledger_csv(costs)
    res.verdict(cost_check, f"{count} universes")
    res.verdict(met_check, f"{count} universes")
    res.add("runtime per universe < 5 s", worst_time < 5.0, _UNRECORDED)
    return res


def run_prompt_existence(seed: int, count: int = 20, sets: int = 16, S: int = 2000) -> ScenarioResult:
    res = ScenarioResult("prompt-existence", seed)
    cost_check = "prompt total cost <= 2"
    witness_check = "promptness witness at appearance stage"
    c = geometric_cost(S)
    for i in range(count):
        rng = generate.rng_for(seed, f"prompt{i}")
        u = generate.universe(rng, sets, S)
        trace, ledger = build_prompt_simple(c, u, S)
        res.expect(cost_check, cost_of_trace(c, trace).total <= 2)
        for rec in ledger.records:
            if rec.met and rec.witness is not None:
                stage, x = rec.witness
                arrived = u.sets[rec.index].stages_of(x)
                res.expect(witness_check, not arrived or arrived[0] == stage)
    res.verdict(cost_check, f"{count} universes")
    res.verdict(witness_check, f"{count} universes")
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
    triples_check = "exact additivity on all triples"
    roundtrip_check = "real <-> cost roundtrip identity"
    t0 = time.perf_counter()
    for i in range(count):
        rng = generate.rng_for(seed, f"real{i}")
        b = generate.left_ce_real(rng, bound)
        c = additive_from_real(b)
        try:
            check_additivity(c, bound)
        except NonAdditive as exc:
            res.expect(triples_check, False, f"real {i} additivity", str(exc))
        back = real_from_additive(c, cap=b.cap)
        res.expect(roundtrip_check, back.seq == b.seq, f"real {i} roundtrip", "sequences differ")
    dt = time.perf_counter() - t0
    res.verdict(triples_check, f"{count} reals, bound {bound}")
    res.verdict(roundtrip_check, f"{count} reals")
    res.add("runtime < 10 s", dt < 10.0, _UNRECORDED)
    return res


def run_conjunction(seed: int, count: int = 100, S: int = 1000) -> ScenarioResult:
    """Conjunction bound with exhaustive final-set equality."""
    res = ScenarioResult("conjunction", seed)
    bound_check = "(c+d)-ledger <= 4 + c-ledger + d-ledger"
    final_check = "final-set equality exhaustive"
    t0 = time.perf_counter()
    for i in range(count):
        rng = generate.rng_for(seed, f"conj{i}")
        e, f, final = generate.same_final_pair(rng, S)
        c = generate.additive_grid_cost(rng, S, "conj-c")
        d = generate.additive_grid_cost(rng, S, "conj-d")
        r = conjoin(e, f, c, d)
        if not r.ok:
            res.expect(bound_check, False, f"instance {i} bound", f"{r.output_total} > {r.bound}")
        res.expect(
            final_check, r.trace.final_set() == final, f"instance {i} final", "final set changed"
        )
    dt = time.perf_counter() - t0
    res.verdict(bound_check, f"{count} instances")
    res.verdict(final_check, f"{count} instances")
    res.add("runtime < 30 s", dt < 30.0, _UNRECORDED)
    return res


def run_implication(seed: int, count: int = 100, S: int = 1000) -> ScenarioResult:
    """Implication transfer bound under pointwise-verified domination."""
    res = ScenarioResult("implication", seed)
    premise_check = "domination premise verified pointwise"
    bound_check = "d-ledger(output) <= N * c-ledger(input)"
    t0 = time.perf_counter()
    tri = np.triu_indices(S + 1, k=1)  # every x < s cell of the (S+1)-square grids
    for i in range(count):
        rng = generate.rng_for(seed, f"impl{i}")
        N = rng.randint(1, 4)
        c, d = generate.dominated_cost_pair(rng, S, N)
        if not np.all(N * c.grid[0][tri] > d.grid[0][tri]):
            res.expect(
                premise_check, False, f"instance {i} premise", "domination fails on the grid"
            )
            continue
        a = generate.trace_with_final(
            rng, S, frozenset(rng.sample(range(40), 6)), 40, S // 2
        )
        r = implication_transfer(a, c, d, N)
        if not r.ok or r.trace.final_set() != a.final_set():
            res.expect(bound_check, False, f"instance {i} bound", f"{r.output_total} > {r.bound}")
    dt = time.perf_counter() - t0
    res.verdict(premise_check, f"{count} instances")
    res.verdict(bound_check, f"{count} instances")
    res.add("runtime < 30 s", dt < 30.0, _UNRECORDED)
    return res


def run_changeset_join(seed: int, count: int = 100, S: int = 1000) -> ScenarioResult:
    """Change-set and join ledger inequalities plus exact decoding."""
    res = ScenarioResult("changeset-join", seed)
    cs_check = "change-set ledger <= source ledger"
    decode_check = "decode(change_set) == final set"
    join_check = "join ledger <= sum of ledgers"
    for i in range(count):
        rng = generate.rng_for(seed, f"csj{i}")
        c = generate.monotone_cost(rng, S)
        a = generate.approximation_trace(rng, S, 40, rng.randint(2, 10))
        b = generate.approximation_trace(rng, S, 40, rng.randint(2, 10))
        cs = change_set(a)
        a_total = cost_of_trace(c, a).total
        res.expect(
            cs_check, cost_of_trace(c, cs).total <= a_total,
            f"instance {i} change-set ledger", "inequality violated",
        )
        res.expect(
            decode_check, decode_change_set(cs) == a.final_set(),
            f"instance {i} decode", "decode mismatch",
        )
        jt = join(a, b)
        res.expect(
            join_check, cost_of_trace(c, jt).total <= a_total + cost_of_trace(c, b).total,
            f"instance {i} join ledger", "inequality violated",
        )
    res.verdict(cs_check, f"{count} instances")
    res.verdict(decode_check, f"{count} instances")
    res.verdict(join_check, f"{count} instances")
    return res


def run_kraft_audit(seed: int, S: int = 512) -> ScenarioResult:
    """Every machine this lab builds is prefix-free with Kraft sum <= 1."""
    res = ScenarioResult("kraft-audit", seed)
    providers = {
        "baseline-small": baseline_provider(64),
        "baseline": baseline_provider(S),
    }
    rng = generate.rng_for(seed, "kraft")
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
    if J < 1:
        raise ValueError("at least one interval is needed")
    p = baseline_provider(shortcut_stage(J) + (1 << (J - 1)) + 1)
    trace, ledger = slow_enum_N(p, J)
    res.add(
        "per-interval cost >= 1",
        all(v >= 1 for v in ledger.per_interval.values()),
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
    k_check = "complexity-sum chains: k <= 2^n"
    details = []
    for n in range(n_max + 1):
        chain = benign_witness(ck, n, S)
        details.append(f"n={n}: k={chain.k}")
        res.expect(k_check, chain.k <= 1 << n)
    res.verdict(k_check, "; ".join(details))
    rng = generate.rng_for(seed, "benign")
    b = generate.left_ce_real(rng, S, cap=Fraction(1))
    ca = additive_from_real(b)
    a_check = "additive chains (cap 1): k <= 2^n"
    for n in range(n_max + 1):
        res.expect(a_check, benign_witness(ca, n, S).k <= 1 << n)
    res.verdict(a_check, f"n <= {n_max}")
    return res


def run_complete_model(seed: int, count: int = 50, S: int = 2000, markers: int = 14) -> ScenarioResult:
    """Movable-marker coding: invariant, cost bound 4, exact decoding."""
    res = ScenarioResult("complete-model", seed)
    inv_check = "stage invariant at every stage"
    cost_check = "total cost <= 4 exactly"
    decode_check = "halting-set decode exact at horizon"
    for i in range(count):
        rng = generate.rng_for(seed, f"cm{i}")
        halting, phis = generate.halting_schedule(rng, S, markers)
        out = build_complete_model(halting, phis, S)
        res.expect(
            inv_check, not out.invariant_violations,
            f"run {i} invariant", str(out.invariant_violations[:3]),
        )
        res.expect(cost_check, out.total <= 4, f"run {i} cost", str(out.total))
        want = out.halting_final
        exact = all(out.decoded[k] == (1 if k in want else 0) for k in out.decoded)
        res.expect(decode_check, exact, f"run {i} decode", "mismatch")
    res.verdict(inv_check, f"{count} runs")
    res.verdict(cost_check, f"{count} runs")
    res.verdict(decode_check, f"{count} runs")
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
    held_check = "per-e held totals <= 3^-e at every stage end"
    mono_check = "gamma nondecreasing in t on the grid"
    total_check = "halting-set ledger <= 3/2 exactly"
    diag_check = "every activated requirement diagonalized"
    worst = 0.0
    for i in range(count):
        rng = generate.rng_for(seed, f"dual{i}")
        order, phis, c = generate.dual_inputs_scripted(rng, 30, requirements, S)
        t0 = time.perf_counter()
        st = dual_construct(c, order, phis, S)
        audit = audit_dual(st)
        worst = max(worst, time.perf_counter() - t0)
        res.expect(held_check, audit.held_ok)
        res.expect(mono_check, audit.gamma_monotone)
        res.expect(total_check, audit.halting_bound_ok)
        res.expect(diag_check, audit_diagonalization(st, phis))
        if i == 0:
            res.artifacts["dual_wishes.csv"] = dump_wishes_csv(st.wishes)
    for check in (held_check, mono_check, total_check, diag_check):
        res.verdict(check, f"{count} runs")
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
    res = ScenarioResult("diagonalization", seed)
    cost_check = "output obeys the priced cost (total <= 4)"
    epochs_check = "per-epoch progress within 2^-(b+e)+1 budget"
    met_check = "met requirements drive tracking adversaries above 1"
    c, d = quartic_and_halving(S)
    for i in range(count):
        rng = generate.rng_for(seed, f"diag{i}")
        phis = generate.adversary_mix(rng, rng.randint(1, 3))
        out = diagonalize_nonimplication(c, d, phis, S)
        res.expect(cost_check, out.total <= 4)
        for rec in out.ledger.records:
            for b, epoch in enumerate(rec.alpha_epochs):
                res.expect(epochs_check, epoch <= 2 * pow2(b + rec.index))
        for idx, adv in enumerate(phis):
            if adv.name.startswith("copycat") and out.ledger.records[idx].met:
                res.expect(met_check, out.adversary_totals[idx] > 1)
    for check in (cost_check, epochs_check, met_check):
        res.verdict(check, f"{count} runs")
    return res


def run_divergence(seed: int = 0, R: int = 5, S: int = 600) -> ScenarioResult:
    """Summed limit prices over an infinite set grow without bound."""
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
    check = "self-translation with N=2 has no violations"
    for i in range(count):
        rng = generate.rng_for(seed, f"sol{i}")
        a = generate.left_ce_real(rng, S)
        res.expect(check, solovay_translate(a, a, 2).ok)
    res.verdict(check, f"{count} reals")
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
