"""From-scratch construction engines.

Every engine is a deterministic stage loop over explicit finite mock inputs
(universes, adversary approximations, halting-set schedules) and returns its
full event log next to exact requirement ledgers, so each claimed bound can
be replayed and audited.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import neg
from typing import Callable, Sequence

from .catalog import LeftCEReal, additive_from_real, cost_from_approx, cost_k, cost_max
from .core import (
    ApproximationTrace,
    CostFn,
    EnumerationTrace,
    cost_of_trace,
    limit_estimate,
)
from .errors import (
    BudgetExceeded,
    NotErasing,
    NoWitness,
    ScheduleInsufficient,
)
from .machine import KProvider, RequestSet, kc_add, register_requests, request_set, shortcut_stage
from .util import ZERO, bits_to_nat, drop_trailing_zeros, pow2


@dataclass(frozen=True)
class Universe:
    """Explicit finite stand-in for an effective listing of c.e. sets."""

    sets: tuple[EnumerationTrace, ...]

    @property
    def size(self) -> int:
        return len(self.sets)


@dataclass
class RequirementRecord:
    index: int
    met: bool = False
    witness: tuple[int, int] | None = None  # (stage, element)
    init_count: int = 0
    init_stage: int = 0
    alpha: Fraction = ZERO
    alpha_epochs: list[Fraction] = field(default_factory=list)
    had_candidate: bool = False


@dataclass(frozen=True)
class RequirementLedger:
    records: tuple[RequirementRecord, ...]

    def met_fraction_of_candidates(self) -> Fraction:
        with_candidates = [r for r in self.records if r.had_candidate]
        if not with_candidates:
            return Fraction(1)
        return Fraction(sum(1 for r in with_candidates if r.met), len(with_candidates))


def _run_simplicity(
    c: CostFn,
    u: Universe,
    S: int,
    prompt: bool,
) -> tuple[EnumerationTrace, RequirementLedger]:
    """Event-driven stage loop shared by the plain and prompt variants.

    Requirement e first looks at its set at stage e + 1, so an element that
    arrives at stage t is fresh for e at max(t, e + 1); in prompt mode it
    qualifies only if that is its own arrival stage.  Under a stage-monotone
    cost a candidate that failed at some stage fails at every later one, so
    only fresh elements are tested and only stages with arrivals are visited.
    Other costs retest every accumulated candidate of each unmet requirement
    at every stage.
    """
    records = [RequirementRecord(e) for e in range(u.size)]
    arrivals = [sorted((s, x) for s, x, _v in w.events) for w in u.sets]
    fresh_at: dict[int, dict[int, list[int]]] = {}  # stage -> e -> fresh elements
    for e, arr in enumerate(arrivals):
        for stage_in, x in arr:
            s = max(stage_in, e + 1)
            if s <= S and x >= 2 * e and (not prompt or stage_in == s):
                fresh_at.setdefault(s, {}).setdefault(e, []).append(x)
    only_fresh = prompt or c.props.monotone_stage
    candidates: dict[int, list[int]] = {}  # unmet e -> elements seen so far
    events = []
    in_a: set[int] = set()
    units, den = c.units, c.den

    for s in (sorted(fresh_at) if only_fresh else range(1, S + 1)):
        fresh = fresh_at.get(s, {})
        if only_fresh:
            pools = sorted(fresh.items())
        else:
            for e, xs in fresh.items():
                if not records[e].met:
                    candidates.setdefault(e, []).extend(xs)
            pools = sorted(candidates.items())
        for e, pool in pools:
            rec = records[e]
            if rec.met:
                continue
            for x in sorted(pool):
                if units(x, s) << e <= den:  # c(x, s) <= 2^-e
                    rec.met = True
                    rec.had_candidate = True
                    rec.witness = (s, x)
                    candidates.pop(e, None)
                    if x not in in_a:
                        in_a.add(x)
                        events.append((s, x, 1))
                    break
    # a starved requirement may still have had a qualifying pair at some stage
    for e, rec in enumerate(records):
        if not rec.met and not rec.had_candidate:
            for stage_in, x in arrivals[e]:
                if x >= 2 * e and units(x, stage_in) << e <= den:
                    rec.had_candidate = True
                    break
    trace = EnumerationTrace(S, events)
    return trace, RequirementLedger(tuple(records))


def build_simple(
    c: CostFn, u: Universe, S: int
) -> tuple[EnumerationTrace, RequirementLedger]:
    """Meet the simplicity requirements under the cost restraint.

    At each stage, every still-unmet requirement e < s takes the least
    element x >= 2e of its set whose current cost is within 2^-e.  At most
    one element enters per requirement, so the total cost stays below 2.
    """
    return _run_simplicity(c, u, S, prompt=False)


def build_prompt_simple(
    c: CostFn, u: Universe, S: int
) -> tuple[EnumerationTrace, RequirementLedger]:
    """Prompt variant: elements qualify only at their appearance stage."""
    if not c.props.monotone_stage:
        raise ValueError("prompt simplicity needs a stage-monotone cost function")
    return _run_simplicity(c, u, S, prompt=True)


@dataclass(frozen=True)
class IntervalLedger:
    """Cost charged to each delayed interval j0..J, held as units over the cost's den."""

    j0: int
    J: int
    cost: CostFn = field(repr=False)
    units: dict[int, int]

    @cached_property
    def per_interval(self) -> dict[int, Fraction]:
        return {j: self.cost.fraction(u) for j, u in self.units.items()}

    @cached_property
    def total(self) -> Fraction:
        return self.cost.fraction(sum(self.units.values()))


def slow_enum_N(p: KProvider, J: int) -> tuple[EnumerationTrace, IntervalLedger]:
    """Enumerate the naturals in order, but so slowly that the cost diverges.

    Elements of the dyadic interval ending at 2^j wait until
    ``shortcut_stage(j)``, when the baseline's shortcut description of 2^j
    is in place, so each such enumeration is charged at least the shortcut
    weight; the per-interval ledger certifies a cost of at least 1 per
    delayed interval.  A provider with no such shortcuts in time raises
    ``ScheduleInsufficient``.
    """
    if J < 1:
        raise ValueError("at least one interval is needed")
    j0 = None
    for j in range(1, J + 1):
        ok = True
        for jj in range(j, J + 1):
            kv = p.k(1 << jj, shortcut_stage(jj))
            if kv is None or kv > jj - 1:
                ok = False
                break
        if ok:
            j0 = j
            break
    if j0 is None:
        raise ScheduleInsufficient(
            f"no interval up to {J} has its power-of-two shortcut in time"
        )
    top_stage = shortcut_stage(J) + (1 << (J - 1))
    if top_stage > p.horizon:
        raise ScheduleInsufficient(
            f"horizon {p.horizon} cannot cover the delayed schedule ({top_stage})"
        )

    events = []
    for x in range(0, (1 << (j0 - 1)) + 1):
        events.append((x + 1, x, 1))
    for j in range(j0, J + 1):
        base = 1 << (j - 1)
        for offset, x in enumerate(range(base + 1, (1 << j) + 1)):
            events.append((shortcut_stage(j) + 1 + offset, x, 1))
    events.sort(key=lambda e: e[0])
    trace = EnumerationTrace(p.horizon, events)

    ck = cost_k(p)
    per = dict.fromkeys(range(j0, J + 1), 0)
    for _s, x, u in cost_of_trace(ck, trace).units:
        if x > (1 << (j0 - 1)):
            j = max(x - 1, 1).bit_length()
            if j in per:
                per[j] += u
    return trace, IntervalLedger(j0, J, ck, per)


def infinite_ce_divergence(
    f: Sequence[int], R: int, p: KProvider, d: int = 1
) -> tuple[RequestSet, list[Fraction]]:
    """Requests witnessing that limit costs summed over an infinite set diverge.

    For each r the request targets the largest value of f below index 2^(r+1),
    with length r + 1 (shifted by one so the raw schedule meets the unit
    budget).  The partial sums of limit costs over the enumerated range,
    taken against the provider extended by this set, grow with R.
    """
    needed = (1 << (R + 1)) + 1
    if len(f) < needed:
        raise ValueError(f"function table must cover indices up to {needed - 1}")
    if len(set(f[:needed])) != needed:
        raise ValueError("function table must be injective")
    rs = RequestSet()
    for r in range(R + 1):
        y = max(f[i] for i in range(0, (1 << (r + 1)) + 1))
        rs = kc_add(rs, r + 1, y, r + 1)
    extended = register_requests(p, rs, d)
    ck = cost_k(extended)
    sums = []
    for r in range(R + 1):
        members = sorted(set(f[i] for i in range(0, (1 << (r + 1)) + 1)))
        sums.append(sum((limit_estimate(ck, x) for x in members), ZERO))
    return rs, sums


class Adversary:
    """Scripted computable approximation competing against the diagonalization.

    ``step`` is called once per stage with read access to the current
    approximation and must return the adversary's stage-s finite set.
    """

    def __init__(
        self, name: str, step: Callable[[int, Callable[[int], int]], frozenset[int]]
    ):
        self.name = name
        self.step = step


def copycat_adversary(width: int = 64) -> Adversary:
    """Tracks the construction's approximation below a fixed width."""

    def step(s: int, value: Callable[[int], int]) -> frozenset[int]:
        return frozenset(x for x in range(width) if value(x) == 1)

    return Adversary(f"copycat-{width}", step)


def stubborn_adversary(members: frozenset[int] = frozenset()) -> Adversary:
    snapshot = frozenset(members)

    def step(s: int, value: Callable[[int], int]) -> frozenset[int]:
        return snapshot

    return Adversary("stubborn", step)


@dataclass(frozen=True)
class DiagonalizationResult:
    trace: ApproximationTrace
    ledger: RequirementLedger
    total: Fraction
    adversary_traces: tuple[ApproximationTrace, ...]
    adversary_totals: tuple[Fraction, ...]  # d-ledgers of the adversaries


def diagonalize_nonimplication(
    c: CostFn,
    d: CostFn,
    phis: Sequence[Adversary],
    S: int,
) -> DiagonalizationResult:
    """Build an approximation obeying c that defeats each tracking adversary under d.

    Requirement e acts at its expansionary stages, flipping the least cheap
    position where d towers over c by the factor 2^(b+e); the erasing flips
    force any adversary that keeps agreeing with the approximation to spend
    d-cost above 1.
    """
    E = len(phis)
    records = [RequirementRecord(e) for e in range(E)]
    last_exp = [0] * E
    exp_snapshot: list[frozenset[int]] = [frozenset()] * E
    seen_agreement = [False] * E
    produced: list[list[frozenset[int]]] = [[] for _ in range(E)]

    values: dict[int, int] = {}
    ones: set[int] = set()
    events: list[tuple[int, int, int]] = []

    def value(x: int) -> int:
        return values.get(x, 0)

    acted = False
    for s in range(1, S + 1):
        for i, adv in enumerate(phis):
            produced[i].append(adv.step(s, value))

        chosen_e = None
        for e in range(min(E, s)):
            rec = records[e]
            if rec.alpha > pow2(rec.init_count + e):
                continue
            if s == rec.init_stage or seen_agreement[e]:
                chosen_e = e
                break
        if chosen_e is not None:
            e = chosen_e
            rec = records[e]
            b = rec.init_count
            bound = pow2(b + e)
            x_found = None
            cv_found = None
            for x in range(rec.init_stage, s):
                cv = c(x, s)
                if cv < bound and (1 << (b + e)) * cv < d(x, s):
                    x_found = x
                    cv_found = cv
                    break
            if x_found is not None:
                acted = True
                flip = 1 - value(x_found)
                values[x_found] = flip
                (ones.add if flip else ones.discard)(x_found)
                events.append((s, x_found, flip))
                for y in sorted(yy for yy in ones if x_found < yy < s):
                    values[y] = 0
                    ones.discard(y)
                    events.append((s, y, 0))
                rec.alpha += cv_found
                if rec.alpha > bound and not rec.met:
                    rec.met = True
                    rec.witness = (s, x_found)
                rec.had_candidate = True
                last_exp[e] = s
                exp_snapshot[e] = frozenset(x for x in ones if x < s)
                seen_agreement[e] = False
                for i in range(e + 1, E):
                    records[i].alpha_epochs.append(records[i].alpha)
                    records[i].alpha = ZERO
                    records[i].init_count += 1
                    records[i].init_stage = s
                    records[i].met = False
                    last_exp[i] = s
                    exp_snapshot[i] = frozenset(x for x in ones if x < s)
                    seen_agreement[i] = False

        # agreement witnessed by this stage's adversary sets counts from the
        # next stage on (the t < s convention)
        for i in range(E):
            u = last_exp[i]
            if frozenset(x for x in produced[i][s - 1] if x < u) == exp_snapshot[i]:
                seen_agreement[i] = True

    if not acted and E > 0:
        witnessed = any(
            c(x, s) < 1 and c(x, s) < d(x, s)
            for s in range(1, S + 1)
            for x in range(0, s)
        )
        if not witnessed:
            raise NoWitness(
                "the domination-failure premise has no witness on this grid"
            )

    trace = ApproximationTrace(S, events)
    for rec in records:
        rec.alpha_epochs.append(rec.alpha)
    adv_traces = []
    adv_totals = []
    for i in range(E):
        ev = []
        prev: frozenset[int] = frozenset()
        for t, members in enumerate(produced[i], start=1):
            for x in sorted(members - prev):
                ev.append((t, x, 1))
            for x in sorted(prev - members):
                ev.append((t, x, 0))
            prev = members
        at = ApproximationTrace(S, ev)
        adv_traces.append(at)
        adv_totals.append(cost_of_trace(d, at).total)
    return DiagonalizationResult(
        trace,
        RequirementLedger(tuple(records)),
        cost_of_trace(c, trace).total,
        tuple(adv_traces),
        tuple(adv_totals),
    )


@dataclass(frozen=True)
class CompleteModelResult:
    beta: LeftCEReal
    trace: EnumerationTrace
    marker_log: tuple[tuple[int, int, int, int], ...]  # (stage, k, old, new)
    invariant_violations: tuple[tuple[int, int], ...]  # (stage, k)
    decoded: dict[int, int]
    halting_final: frozenset[int]
    total: Fraction
    requirement_actions: tuple[tuple[int, int], ...]  # (stage, k)


def _failing_markers(markers: dict[int, int], beta: list[int], s: int, K_max: int) -> list[int]:
    """The k whose marker m sees bumps over 2^-k in (m, s], beta in units of 2^-K_max."""
    b_s = beta[s]
    return [kk for kk, m in markers.items() if b_s - beta[m if m < s else s] > 1 << (K_max - kk)]


def build_complete_model(
    halting: EnumerationTrace,
    phis: dict[int, int],
    S: int,
) -> CompleteModelResult:
    """Movable-marker coding of a mock halting set into a cheap enumeration.

    Diagonalization bumps the real by 2^-k when the k-th mock computation
    converges (taking effect at the next stage), moving all weaker markers to
    fresh positions; the stage invariant keeps every marker enumeration
    affordable, for a total cost of at most 4, and the axiom log decodes the
    halting set exactly.

    The invariant bounds the bumps in (m, s] beyond marker k's position m by
    2^-k.  No consistent input breaks it: a bump 2^-j with j <= k moves marker
    k past the bump's stage, and each j > k bumps once, so the bumps beyond k
    total less than 2^-k.  The loop visits only stage 1, the entries, the
    convergences and the bump stage after each, which alone change anything.
    It finds the failing markers where beta bumps or a marker moves and
    carries them and beta over the runs between; only the axioms that an
    enumeration killed are issued again.
    """
    if halting.horizon > S:
        raise ValueError("halting-set horizon exceeds the run horizon")
    by_stage: dict[int, int] = {}
    for s, kk, _v in halting.events:
        if s in by_stage:
            raise ValueError("the mock halting set must enter one element per stage")
        by_stage[s] = kk
    phi_by_stage: dict[int, int] = {}
    for kk, s in phis.items():
        if s in phi_by_stage:
            raise ValueError("at most one mock computation may converge per stage")
        phi_by_stage[s] = kk

    K_max = max([kk for kk in phis] + [kk for _s, kk, _v in halting.events] + [0])
    markers = {kk: kk for kk in range(K_max + 1)}
    high_water = K_max
    # beta in units of 2^-K_max: every bump 2^-k has k <= K_max
    beta_units = [0]
    next_bump = 0
    in_a: set[int] = set()
    events: list[tuple[int, int, int]] = []
    marker_log: list[tuple[int, int, int, int]] = []
    actions: list[tuple[int, int]] = []
    # per k: (use, |A below use|, value) of each axiom issued; as A only grows,
    # it applies at the end when no element below its use entered since
    axioms: dict[int, list[tuple[int, int, int]]] = {kk: [] for kk in range(K_max + 1)}
    axiom_use = [0] * (K_max + 1)  # use of each k's live axiom
    killed = set(range(K_max + 1))  # k whose axiom is issued at this stage
    halting_so_far: set[int] = set()
    violations: list[tuple[int, int]] = []
    failing: list[int] = []

    def enumerate_element(x: int, s: int) -> None:
        if x in in_a:
            return
        in_a.add(x)
        events.append((s, x, 1))
        killed.update(kk for kk, use in enumerate(axiom_use) if x < use)

    visits = {1, *by_stage, *phi_by_stage, *(t + 1 for t in phi_by_stage)}
    for s in sorted(v for v in visits if 1 <= v <= S) + [S + 1]:
        idle = range(len(beta_units), s)  # stages that change nothing
        beta_units += [beta_units[-1]] * len(idle)
        if failing:
            violations.extend((t, kk) for t in idle for kk in failing)
        if s > S:
            break
        beta_units.append(beta_units[-1] + next_bump)
        next_bump = 0

        k_conv = phi_by_stage.get(s)
        if k_conv is not None and k_conv <= K_max:
            enumerate_element(markers[k_conv], s)
            actions.append((s, k_conv))
            next_bump = 1 << (K_max - k_conv)  # takes effect at the next stage
            high_water = max(high_water, s, *markers.values())
            for i in range(k_conv, K_max + 1):
                high_water += 1
                marker_log.append((s, i, markers[i], high_water))
                markers[i] = high_water

        n = by_stage.get(s)
        if n is not None:
            halting_so_far.add(n)
            if n <= K_max:
                enumerate_element(markers[n], s)

        if killed:
            for kk in sorted(killed):
                use = axiom_use[kk] = markers[kk] + 1
                val = 1 if kk in halting_so_far else 0
                axioms[kk].append((use, sum(x < use for x in in_a), val))
            killed.clear()

        if k_conv is not None or beta_units[s] != beta_units[s - 1]:
            failing = _failing_markers(markers, beta_units, s, K_max)
        if failing:
            violations.extend((s, kk) for kk in failing)

    beta = LeftCEReal(tuple(beta_units), 1 << K_max, cap=Fraction(beta_units[-1], 1 << K_max) + 1)
    trace = EnumerationTrace(S, events)  # appended in stage order
    total = cost_of_trace(additive_from_real(beta), trace).total

    decoded: dict[int, int] = {}
    final = sorted(in_a)
    for kk in range(K_max + 1):
        applicable = {v for use, below, v in axioms[kk] if below == bisect.bisect_left(final, use)}
        if len(applicable) != 1:
            violations.append((S, kk))
        decoded[kk] = max(applicable) if applicable else 0
    return CompleteModelResult(
        beta,
        trace,
        tuple(marker_log),
        tuple(violations),
        decoded,
        frozenset(halting_so_far),
        total,
        tuple(actions),
    )


@dataclass(frozen=True)
class SjtReport:
    cost_total: Fraction
    weight: Fraction
    e0: int | None
    s0: int | None
    checked: tuple[int, ...]
    violations: tuple[int, ...]


def sjt_reduction(
    y: ApproximationTrace,
    h: Callable[[int], int],
    a: ApproximationTrace,
    u: int,
    d: int,
) -> tuple[RequestSet, SjtReport]:
    """Request-set builder for the identity-use reduction to a changing oracle.

    Each change of the approximation buys a description of the oracle's
    current prefix up to the least recently-changed oracle position; the
    budget precondition keeps the request set bounded.
    """
    if u < 0 or d < 0:
        raise ValueError("budget exponent and coding constant are naturals")
    cfn = cost_from_approx(y, h)
    ledger = cost_of_trace(cfn, a)
    if ledger.total > (1 << u):
        raise BudgetExceeded(
            f"trace cost {ledger.total} exceeds the declared budget 2^{u}"
        )
    rs = RequestSet()
    for s, x, _v in a.events:
        e_found = x
        for e in range(0, x):
            if any(x <= t < s for t in y.stages_of(e)):
                e_found = e
                break
        prefix = "".join(str(y.value(i, s)) for i in range(e_found))
        rs = kc_add(rs, u + h(e_found), bits_to_nat(prefix), s)

    e0 = next((e for e in range(y.horizon + 1) if h(e) > u + d), None)
    s0 = None
    if e0 is not None:
        s0 = 1
        for s, e, _v in y.events:
            if e < e0:
                s0 = max(s0, s)
    checked = []
    violations = []
    if s0 is not None:
        final_bits = [y.value(i, y.horizon) for i in range(y.horizon + 1)]
        for x in range(s0, min(a.horizon, y.horizon) + 1):
            t = next(
                (
                    t
                    for t in range(1, y.horizon + 1)
                    if all(y.value(i, t) == final_bits[i] for i in range(x))
                ),
                None,
            )
            if t is None:
                continue
            checked.append(x)
            if a.value(x, t) != a.value(x, a.horizon):
                violations.append(x)
    return rs, SjtReport(
        ledger.total, rs.weight, e0, s0, tuple(checked), tuple(violations)
    )


@dataclass(frozen=True)
class WeakTrivialityReport:
    weight: Fraction
    drop_requests: int
    change_requests: int
    cmax_total: Fraction
    omega_weight: Fraction


def weak_ktrivial_requests(
    a: ApproximationTrace, p: KProvider
) -> tuple[RequestSet, WeakTrivialityReport]:
    """Bounded requests describing trimmed prefixes of an erasing approximation.

    Complexity drops buy the trimmed prefix below the dropped target; changes
    buy the trimmed prefix at the change, priced by the current max cost.
    """
    top = max(a.positions(), default=0)
    for s, x, _v in a.events:
        for yy in range(x + 1, min(s, top) + 1):
            if a.value(yy, s) != 0:
                raise NotErasing(f"change at ({x}, {s}) leaves position {yy} set")
    cm = cost_max(p)
    entries: list[tuple[int, int, int]] = []
    drops = 0
    for stage, n, _old, length in p.index.changes(a.horizon):
        prefix = "".join(str(a.value(i, stage)) for i in range(n))
        entries.append((length + 1, bits_to_nat(drop_trailing_zeros(prefix)), stage))
        drops += 1
    changes = 0
    for s, x, _v in a.events:
        r = p.index.min_at(x, min(s, p.horizon))  # c_max = 2^-r
        if r is None:
            continue
        prefix = "".join(str(a.value(i, s)) for i in range(x + 1))
        entries.append((r + 1, bits_to_nat(drop_trailing_zeros(prefix)), s))
        changes += 1
    entries.sort(key=lambda e: e[2])
    rs = request_set(entries)
    ledger_total = cost_of_trace(cm, a).total
    return rs, WeakTrivialityReport(
        rs.weight, drops, changes, ledger_total, p.omega(p.horizon)
    )


@dataclass(frozen=True)
class SeparationResult:
    k: int
    declared_model_size: int  # 2^k: reported, never attempted
    sequence: tuple[int, ...]
    requests: RequestSet
    grants: tuple[tuple[int, int, int], ...]  # (effect stage, target, length)
    status: str
    claim_checks: tuple[tuple[int, int, Fraction, Fraction], ...]  # (p, r, lhs, rhs)
    stages_used: int

    @property
    def claim_ok(self) -> bool:
        return all(lhs >= rhs for _p, _r, lhs, rhs in self.claim_checks)


def _grant_length(b: int, need: int, scale: int) -> int | None:
    """The greedy opponent's cheapest self-consistent grant for a positive
    need of need / 2^scale.

    2^b * 2^-L must cover the sum including the grant's own weight, so L is
    the largest length with 2^L * need <= 2^b - 1; None when there is none,
    which is always the case at b = 0.
    """
    q = (((1 << b) - 1) << scale) // need
    return q.bit_length() - 1 if q else None


def separation_run(
    b: int,
    p: KProvider,
    d: int,
    V: int,
    *,
    x0: int | None = None,
    greedy: bool = True,
) -> SeparationResult:
    """Bounded run of the sum-versus-max separation game.

    The builder repeatedly buys cost beyond the last sequence element and
    waits for single descriptions to dominate the accumulated sums by the
    factor 2^b.  The greedy opponent (``greedy``) plays the absurd domination
    hypothesis for as long as the unit measure allows; without it the wait
    exhausts the stage budget, the expected outcome for honest providers.
    A failing check waits while an event of the provider's index or a grant
    is still to take effect, even a grant that improves nothing; then the
    greedy opponent grants target cur + 1 from stage cur + 2.  The builder's
    requests take effect before every check, so they never hold it up.
    The declared full-contradiction length 2^k is reported, never attempted.

    At b = 0 the sequence never reaches a third element, whatever the
    provider or the opponent.  Each element x_i must be answered by one
    description w > x_i with 2^-K_s(w) >= c_K(x_i, s), and a sum of
    nonnegative terms is at most one of its own terms only if at most one
    term is positive.  From round two on the builder's own requests at
    x_0 + 1 and x_1 + 1 put two positive terms beyond x_0, so the check at
    x_0 fails for good.  The greedy grant search agrees: its condition
    2^b * 2^-L >= need + 2^-L has no solution at b = 0 when need > 0, and
    has one for every b >= 1.  The run stops with status
    ``response_impossible`` as soon as the sum beyond an element exceeds
    its largest term, without waiting for grants to take effect.  The bound
    of two elements is attained by a provider with no schedule of its own; a
    provider that already describes x_0 + 2 when x_0 is first checked, such
    as the baseline, stops at one.
    """
    k = 1 << (b + d + 1)
    declared = 1 << k
    # the game's own copy of K_s: it merges the builder's requests and the
    # opponent's grants as it plays
    live = p.index.copy()
    # the idle rule's stage: the latest at which an event of the provider's
    # index or a grant takes effect, whether or not the grant improves anything
    last = live.events[-1][0] if live.events else 0
    measure = p.budget_used

    if x0 is None:
        probe = 1
        # c_K(probe, horizon) > 2^-min(k + d + 2, 60), on ints over 2^scale
        while probe < p.horizon and (
            p.index.sum_at(probe, p.horizon) << min(k + d + 2, 60) > 1 << p.index.scale
        ):
            probe <<= 1
        if probe >= p.horizon:
            raise ScheduleInsufficient("no cheap starting point below the horizon")
        x0 = probe

    # The game's state in complement form, as integers scaled by 2^scale:
    # - total is the weight of the described targets beyond x0 and low[i] that
    #   weight at or below seq[i], so the sum beyond seq[i] is total - low[i],
    #   as c_K(x, s) = P_s(s) - P_s(x);
    # - best[i], the least K_s(w) over w > seq[i], is nondecreasing in i;
    # - element i passes its check when total <= cap[i] = low[i] +
    #   2^(scale - best[i] + b), and cap[i] = low[i] - 1 fails while best[i]
    #   is None; least[i] is the least cap up to i.
    # A change at w > x0 adds to total and to the lows at or above w (none in
    # the served traffic, whose descriptions land beyond every element),
    # lowers best on the run of elements below w whose best exceeds it, and
    # recomputes least from the least element whose cap moved: O(1) beyond
    # the elements it moves.  A stage passes when total <= least[-1], in
    # O(1), and a failing one finds its first failing element by bisection
    # on the nonincreasing least.
    # One scale serves the whole run: every element has its request of length
    # k + d beyond it by its first check, so a failing check has best <= k + d
    # and need > 2^(b - best), and the grant it asks for is shorter than k + d.
    scale = max(live.scale, k + d)
    seq, low, best, cap, least, total = [x0], [0], [None], [-1], [-1], 0
    # The claim ledger sums min(2^-K_s(w), 2^-cap) = 2^-max(K_s(w), cap) as
    # integers scaled by 2^top, per cap and per segment (seq[i], seq[i + 1]]:
    # a change moves one sum per cap.  The check that ends at a new element
    # reads at most four of them when it is appended, as the element itself
    # is not described yet; they are final then, since later descriptions
    # take effect beyond its stage.
    top = max(scale, k + b + d)
    claim_caps = [k + b + d - r for r in range(min(2, k) + 1)]
    seg, checks = [[0] * len(claim_caps)], [[] for _ in claim_caps]

    # by position: a merge lands beyond the frontier, past the events walked
    events, at = live.events, 0

    def walk(s: int) -> None:
        nonlocal total, at
        live.frontier = s
        n = lo = len(seq)  # lo: the least element whose cap moved
        end = len(events)
        while at < end and events[at][0] <= s:
            _stage, w, old, new = events[at]
            at += 1
            if w <= x0:
                continue  # no element lies below w
            delta = 1 << (scale - new)
            if old is not None:
                delta -= 1 << (scale - old)
            total += delta
            pos = bisect.bisect_left(seq, w)
            for i in range(pos, n):
                low[i] += delta
                cap[i] += delta
            i = pos - 1
            while i >= 0 and (best[i] is None or new < best[i]):
                best[i] = new
                cap[i] = low[i] + (1 << (scale - new + b))
                i -= 1
            if i < lo:
                lo = i + 1
            sums = seg[pos - 1]  # w lies in (seq[pos - 1], seq[pos]]
            if new >= claim_caps[0]:  # no cap clips either length: each sum moves by delta
                change = delta << (top - scale)
                for r in range(len(sums)):
                    sums[r] += change
            else:
                for r, c in enumerate(claim_caps):
                    gone = 0 if old is None else 1 << (top - max(old, c))
                    sums[r] += (1 << (top - max(new, c))) - gone
        for i in range(lo, n):
            least[i] = min(least[i - 1], cap[i]) if i else cap[0]

    requests = RequestSet()
    grants: list[tuple[int, int, int]] = []
    cur = x0 + 1
    walk(cur)
    status = "running"
    used = 0

    while used < V and len(seq) - 1 < declared:
        xv = seq[-1]
        if requests.weight + pow2(k) > 1 or measure + pow2(k + d) > 1:
            status = "measure_exhausted"
            break
        requests = kc_add(requests, k, xv + 1, cur)
        # it takes effect by cur + 2, as xv <= cur, and last leaves it out:
        # nothing beyond xv is described yet, so the wait walks a stage and
        # the check loop another, and the walk has passed it at every check
        live.merge([(xv + 1, k + d, cur + 1)])
        measure += pow2(k + d)
        while total - low[-1] < 1 << (scale - k - d) and used < V:
            cur += 1
            used += 1
            walk(cur)
        if total - low[-1] < 1 << (scale - k - d):
            status = "budget_exhausted"
            break
        responded = False
        while used < V:
            cur += 1
            used += 1
            walk(cur)
            if total <= least[-1]:
                # nothing beyond the current stage is described yet
                seq.append(cur)
                low.append(total)
                best.append(None)
                cap.append(total - 1)
                least.append(total - 1)
                seg.append([0] * len(claim_caps))
                m = len(seq) - 1
                for r, c in enumerate(claim_caps):
                    pi = m - (1 << r)
                    if pi >= 0:
                        acc = sum(t[r] for t in seg[pi:m])
                        checks[r].append((pi, r, Fraction(acc, 1 << top), (r + 1) * pow2(c + 1)))
                responded = True
                break
            if b and last > cur:
                continue  # let earlier descriptions register before adding more
            i = bisect.bisect_right(least, -total, key=neg)  # the first failing element
            if b == 0 and best[i] is not None:
                # the sum beyond seq[i] exceeds its largest term: two positive
                # terms lie there and never shrink, so this check never passes
                status = "response_impossible"
            elif last > cur:
                pass  # b = 0 waits too, once the impossibility test has passed
            elif not greedy:
                status = "budget_exhausted"  # nothing can change anymore
            else:
                L = _grant_length(b, total - low[i], scale)
                if L is None:
                    status = "response_impossible"
                elif pow2(L) > 1 - measure:
                    status = "measure_exhausted"
                else:
                    live.merge([(cur + 1, L, cur + 2)])
                    last = cur + 2
                    measure += pow2(L)
                    grants.append((cur + 2, cur + 1, L))
            if status != "running":
                break
        if status != "running":
            break
        if not responded:
            status = "budget_exhausted"
            break
    if status == "running":
        status = "budget_exhausted" if used >= V else "completed"

    return SeparationResult(
        k,
        declared,
        tuple(seq),
        requests,
        tuple(grants),
        status,
        tuple(c for per_cap in checks for c in per_cap),
        used,
    )
