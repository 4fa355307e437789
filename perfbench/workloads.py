"""The benchmark's workloads: instance loops replayed from costlab.scenarios.

Each workload runs in rotations of a fixed list of instance kinds.  The j-th
instance of a kind draws its inputs from ``generate.rng_for(seed, salt + j)``
with the salt of the matching scenario runner, so it is exactly instance j of
that scenario, and it runs the scenario's exact checks (the scenarios'
wall-clock gates excepted: the benchmark measures time instead of gating
on it).  Every instance serializes what it built; the texts feed the run's
output digest.

Layer functions are called through their module (``machine.baseline_provider``
and so on), never through names bound here, so that a traced run sees them.
"""

from __future__ import annotations

import numpy as np
from fractions import Fraction

from costlab import catalog, constructions, core, dual, generate, machine, serialize, transforms

from spans import public_functions


class Outcome:
    """Result of one instance: whether every check held, and its artifacts."""

    __slots__ = ("ok", "texts")

    def __init__(self):
        self.ok = True
        self.texts: list[str] = []

    def check(self, cond) -> None:
        self.ok = self.ok and bool(cond)


def _dump(tr, out: Outcome, fn, obj) -> str:
    text = fn(obj)
    tr.count("serialize.bytes", len(text))
    out.texts.append(text)
    return text


class StageLoops:
    """Existence universe, complete-model run and dual run, in rotation."""

    name = "stage-loops"
    kinds = ("existence", "complete-model", "dual")
    rotation = len(kinds)
    EXIST_S, EXIST_SETS = 10_000, 32
    CM_S, CM_MARKERS = 2000, 14
    DUAL_S, DUAL_ENTRANTS, DUAL_REQUIREMENTS = 10_000, 30, 5

    def __init__(self):
        self.geometric = core.geometric_cost(self.EXIST_S)

    def run(self, tr, seed: int, i: int) -> Outcome:
        j, k = divmod(i, self.rotation)
        return (self.existence, self.complete_model, self.dual)[k](tr, seed, j)

    def existence(self, tr, seed: int, j: int) -> Outcome:
        out = Outcome()
        S, c = self.EXIST_S, self.geometric
        rng = generate.rng_for(seed, f"universe{j}")
        u = generate.universe(rng, self.EXIST_SETS, S)
        trace, ledger = constructions.build_simple(c, u, S)
        costs = core.cost_of_trace(c, trace)
        tr.count("core.ledger_charges", len(costs.charges))
        out.check(costs.total <= 2)
        out.check(ledger.met_fraction_of_candidates() >= Fraction(9, 10))
        tr.count("constructions.candidates", sum(r.had_candidate for r in ledger.records))
        tr.count("constructions.met", sum(r.met and r.had_candidate for r in ledger.records))
        text = _dump(tr, out, serialize.dump_trace, trace)
        _dump(tr, out, serialize.dump_ledger_csv, costs)
        if j == 0:
            back = serialize.load_trace(text, enumeration=True)
            out.check(back.events == trace.events and back.initial == trace.initial)
        return out

    def complete_model(self, tr, seed: int, j: int) -> Outcome:
        out = Outcome()
        rng = generate.rng_for(seed, f"cm{j}")
        halting, phis = generate.halting_schedule(rng, self.CM_S, self.CM_MARKERS)
        res = constructions.build_complete_model(halting, phis, self.CM_S)
        out.check(not res.invariant_violations)
        out.check(res.total <= 4)
        want = res.halting_final
        out.check(all(res.decoded[k] == (1 if k in want else 0) for k in res.decoded))
        text = _dump(tr, out, serialize.dump_trace, res.trace)
        real = _dump(tr, out, serialize.dump_real, res.beta)
        if j == 0:
            out.check(serialize.load_trace(text, enumeration=True).events == res.trace.events)
            out.check(serialize.load_real(real, cap=res.beta.cap) == res.beta)
        return out

    def dual(self, tr, seed: int, j: int) -> Outcome:
        out = Outcome()
        S = self.DUAL_S
        rng = generate.rng_for(seed, f"dual{j}")
        order, phis, c = generate.dual_inputs_scripted(
            rng, self.DUAL_ENTRANTS, self.DUAL_REQUIREMENTS, S
        )
        st = dual.dual_construct(c, order, phis, S)
        audit = dual.audit_dual(st)
        out.check(audit.held_ok and audit.gamma_monotone and audit.halting_bound_ok)
        out.check(dual.audit_diagonalization(st, phis))
        tr.count("dual.instances")
        _dump(tr, out, serialize.dump_wishes_csv, st.wishes)
        text = _dump(tr, out, serialize.dump_trace, st.d_trace)
        _dump(tr, out, serialize.dump_trace, st.f_trace)
        if j == 0:
            out.check(serialize.load_trace(text, enumeration=True).events == st.d_trace.events)
        return out


class LedgerAlgebra:
    """Additive-algebra real, change-set/join, conjunction and implication."""

    name = "ledger-algebra"
    kinds = ("additive-algebra", "changeset-join", "conjunction", "implication")
    rotation = len(kinds)
    S, BOUND = 1000, 200

    def __init__(self):
        # the implication premise compares the two grids above the diagonal
        self.upper = np.triu_indices(self.S + 1, k=1)

    def run(self, tr, seed: int, i: int) -> Outcome:
        j, k = divmod(i, self.rotation)
        return (self.additive, self.changeset_join, self.conjunction, self.implication)[k](
            tr, seed, j
        )

    def additive(self, tr, seed: int, j: int) -> Outcome:
        out = Outcome()
        bound = self.BOUND
        rng = generate.rng_for(seed, f"real{j}")
        b = generate.left_ce_real(rng, bound)
        c = catalog.additive_from_real(b)
        scale = 1 << generate.SCALE
        ev = c.eval_fn
        grid = np.zeros((bound + 1, bound + 1), dtype=np.int64)
        with tr.span("core.eval"):
            for x in range(bound + 1):
                row = grid[x]
                for s in range(x, bound + 1):
                    v = ev(x, s)
                    row[s] = v.numerator * (scale // v.denominator)
        tr.count("core.evals", (bound + 1) * (bound + 2) // 2)
        # c(x,y) + c(y,z) == c(x,z) for every x < y < z, sliced per middle y
        for y in range(1, bound):
            lhs = grid[:y, y][:, None] + grid[y, y + 1 :][None, :]
            if not np.array_equal(lhs, grid[:y, y + 1 :]):
                out.check(False)
                break
        back = catalog.real_from_additive(c, cap=b.cap)
        out.check(back.seq == b.seq)
        text = _dump(tr, out, serialize.dump_real, b)
        if j == 0:
            out.check(serialize.load_real(text, cap=b.cap) == b)
        return out

    def changeset_join(self, tr, seed: int, j: int) -> Outcome:
        out = Outcome()
        S = self.S
        rng = generate.rng_for(seed, f"csj{j}")
        c = generate.monotone_cost(rng, S)
        a = generate.approximation_trace(rng, S, 40, rng.randint(2, 10))
        b = generate.approximation_trace(rng, S, 40, rng.randint(2, 10))
        cs = transforms.change_set(a)
        led_cs, led_a = core.cost_of_trace(c, cs), core.cost_of_trace(c, a)
        out.check(led_cs.total <= led_a.total)
        out.check(transforms.decode_change_set(cs) == a.final_set())
        jt = transforms.join(a, b)
        led_b, led_jt = core.cost_of_trace(c, b), core.cost_of_trace(c, jt)
        out.check(led_jt.total <= led_a.total + led_b.total)
        for led in (led_cs, led_a, led_b, led_jt):
            tr.count("core.ledger_charges", len(led.charges))
        tr.count("transforms.output_events", len(cs.events) + len(jt.events))
        text = _dump(tr, out, serialize.dump_trace, cs)
        _dump(tr, out, serialize.dump_trace, jt)
        _dump(tr, out, serialize.dump_ledger_csv, led_cs)
        _dump(tr, out, serialize.dump_ledger_csv, led_jt)
        if j == 0:
            out.check(serialize.load_trace(text, enumeration=True).events == cs.events)
        return out

    def conjunction(self, tr, seed: int, j: int) -> Outcome:
        out = Outcome()
        S = self.S
        rng = generate.rng_for(seed, f"conj{j}")
        e, f, final = generate.same_final_pair(rng, S)
        c = generate.additive_grid_cost(rng, S, "conj-c")
        d = generate.additive_grid_cost(rng, S, "conj-d")
        r = transforms.conjoin(e, f, c, d)
        out.check(r.ok)
        out.check(r.trace.final_set() == final)
        tr.count("transforms.output_events", len(r.trace.events))
        text = _dump(tr, out, serialize.dump_trace, r.trace)
        if j == 0:
            out.check(serialize.load_trace(text).events == r.trace.events)
        return out

    def implication(self, tr, seed: int, j: int) -> Outcome:
        out = Outcome()
        S = self.S
        rng = generate.rng_for(seed, f"impl{j}")
        N = rng.randint(1, 4)
        c, d = generate.dominated_cost_pair(rng, S, N)
        (gc, _sc), (gd, _sd) = c.grid, d.grid
        if not np.all(N * gc[self.upper] > gd[self.upper]):
            out.check(False)  # the scenario stops this instance here
            return out
        a = generate.trace_with_final(rng, S, frozenset(rng.sample(range(40), 6)), 40, S // 2)
        r = transforms.implication_transfer(a, c, d, N)
        out.check(r.ok and r.trace.final_set() == a.final_set())
        tr.count("transforms.output_events", len(r.trace.events))
        text = _dump(tr, out, serialize.dump_trace, r.trace)
        if j == 0:
            out.check(serialize.load_trace(text).events == r.trace.events)
        return out


def registered_provider(rng, S: int):
    """The kraft-audit scenario's registered provider, at horizon S.

    The baseline schedule plus the description requests of a random
    additive cost, registered with coding constant 3.
    """
    b = generate.left_ce_real(rng, 100)
    extra = catalog.additive_requests(catalog.additive_from_real(b))
    return machine.register_requests(machine.baseline_provider(S), extra, 3)


class ProviderChurn:
    """Write side of the machine layer: build, register, materialize, audit."""

    name = "provider-churn"
    kinds = ("provider",)
    SIZES = (128, 256, 512)
    rotation = len(SIZES)

    def run(self, tr, seed: int, i: int) -> Outcome:
        r, m = divmod(i, self.rotation)
        # one of each size per rotation, in a seeded order
        sizes = list(self.SIZES)
        generate.rng_for(seed, f"sizes{r}").shuffle(sizes)
        return self.provider(tr, generate.rng_for(seed, f"kraft{i}"), sizes[m])

    def provider(self, tr, rng, S: int) -> Outcome:
        out = Outcome()
        p = registered_provider(rng, S)
        m = p.machine()
        tr.count("machine.descriptions", len(m.descriptions))
        out.check(not machine.check_prefix_free(m.domain()))
        kraft = m.kraft_sum()
        out.check(kraft <= 1)
        out.check(p.omega(p.horizon) == kraft)
        out.texts.append("".join(f"{sigma} {y}\n" for sigma, y in m.descriptions))
        ck = catalog.cost_k(p)
        a = generate.approximation_trace(rng, S, 40, 8)
        led = core.cost_of_trace(ck, a)
        tr.count("core.ledger_charges", len(led.charges))
        with tr.span("core.eval"):
            out.check(all(ck(x, s) == amount for s, x, amount in led.charges))
        tr.count("core.evals", len(led.charges))
        _dump(tr, out, serialize.dump_ledger_csv, led)
        return out


class ComplexityQueries:
    """Read side: queries against one registered provider, no materialization."""

    name = "complexity-queries"
    kinds = ("queries",)
    rotation = 1
    S = 2048
    CHAIN_LEVELS = 11
    TRACE_WIDTH, TRACE_POSITIONS = 400, 100  # about 200 changes
    POINTS = 40
    SEPARATION_B, SEPARATION_D, SEPARATION_BUDGET = 1, 1, 100_000

    def run(self, tr, seed: int, i: int) -> Outcome:
        rng = generate.rng_for(seed, f"query{i}")
        return self.queries(tr, rng, registered_provider(rng, self.S), first=i == 0)

    def queries(self, tr, rng, p, first: bool) -> Outcome:
        out = Outcome()
        S = p.horizon
        rep = catalog.domination_grid_report(p)
        out.check(rep.ok)
        tr.count("catalog.grid_points", rep.grid_points)
        ck, cm = catalog.cost_k(p), catalog.cost_max(p)
        for n in range(self.CHAIN_LEVELS):
            chain = core.benign_witness(ck, n, S)
            out.check(chain.k <= 1 << n)
            tr.count("core.chain_links", chain.k)
        a = generate.approximation_trace(rng, S, self.TRACE_WIDTH, self.TRACE_POSITIONS)
        led = core.cost_of_trace(ck, a)
        tr.count("core.ledger_charges", len(led.charges))
        points = [(rng.randint(0, S), rng.randint(0, S)) for _ in range(self.POINTS)]
        sampled = led.charges[:: max(1, len(led.charges) // self.POINTS)]
        with tr.span("core.eval"):
            out.check(all(cm(x, s) <= ck(x, s) for x, s in points))
            out.check(all(ck(x, s) == amount for s, x, amount in sampled))
        tr.count("core.evals", 2 * len(points) + len(sampled))
        sep = constructions.separation_run(
            self.SEPARATION_B, p, self.SEPARATION_D, self.SEPARATION_BUDGET
        )
        out.check(sep.claim_ok)
        out.check(len(sep.sequence) < sep.declared_model_size)
        out.check(len(sep.sequence) >= 3)
        tr.count("constructions.separation_stages", sep.stages_used)
        text = _dump(tr, out, serialize.dump_schedule, sep.requests)
        _dump(tr, out, serialize.dump_ledger_csv, led)
        if first:
            out.check(serialize.load_schedule(text).entries == sep.requests.entries)
        return out


WORKLOADS = {w.name: w for w in (StageLoops, LedgerAlgebra, ProviderChurn, ComplexityQueries)}


def span_table():
    """Span name -> (owner, attribute, kind) entries traced in a traced run."""

    def calls(owner, *attrs):
        return [(owner, a, "call") for a in attrs]

    return {
        "machine.build": calls(machine, "baseline_provider", "register_requests"),
        "machine.materialize": calls(machine.KProvider, "machine"),
        "machine.audit": calls(machine, "check_prefix_free")
        + calls(machine.PrefixMachine, "kraft_sum", "domain")
        + calls(machine.KProvider, "omega"),
        "core.ledger": calls(core, "cost_of_trace"),
        "core.chain": calls(core, "benign_witness"),
        "catalog.complexity": [(catalog, "cost_k", "cost"), (catalog, "cost_max", "cost")],
        "catalog.domination": calls(catalog, "domination_grid_report"),
        "catalog.additive": calls(catalog, "additive_from_real", "real_from_additive", "additive_requests"),
        "transforms.busy": calls(transforms, *public_functions(transforms)),
        "constructions.simple": calls(constructions, "build_simple"),
        "constructions.complete_model": calls(constructions, "build_complete_model"),
        "constructions.separation": calls(constructions, "separation_run"),
        "dual.construct": calls(dual, "dual_construct"),
        "dual.audit": calls(dual, "audit_dual", "audit_diagonalization"),
        "generate.self": calls(generate, *public_functions(generate)),
        "serialize.busy": calls(serialize, *public_functions(serialize)),
    }
