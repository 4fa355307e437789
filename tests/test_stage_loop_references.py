"""The stage loops against their per-stage, Fraction and scanning references.

The references below are the straightforward forms of the three stage loops:
simplicity visits every (stage, requirement) pair, the complete model holds
beta as Fractions, and the dual construction and its decoded values rescan
the entries, entrants and wishes at each query.  The scripted pass loop's
reference runs every construction in full.  The engines in ``costlab``
must reproduce them exactly.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

from costlab import constructions, dual, generate
from costlab.catalog import LeftCEReal, additive_from_real
from costlab.constructions import (
    CompleteModelResult,
    RequirementLedger,
    RequirementRecord,
    Universe,
    build_complete_model,
    build_prompt_simple,
    build_simple,
)
from costlab.core import CostFn, EnumerationTrace, cost_of_trace, geometric_cost
from costlab.dual import (
    DualAudit,
    DualState,
    PhiMock,
    TotalCostFunctional,
    Wish,
    audit_dual,
    blank_phi,
    dual_construct,
    gamma_eval,
    halting_cost,
    scripted_phi,
    sensitive_phi,
)
from costlab.generate import (
    dual_inputs,
    dual_inputs_scripted,
    enumeration_trace,
    halting_schedule,
    monotone_cost,
    rng_for,
    universe,
)
from costlab.util import ZERO, pow2, triple_pair
from unit_costs import units_cost


def reference_run_simplicity(
    c: CostFn,
    u: Universe,
    S: int,
    prompt: bool,
) -> tuple[EnumerationTrace, RequirementLedger]:
    """Per-stage loop: every unmet requirement e < s at every stage s."""
    records = [RequirementRecord(e) for e in range(u.size)]
    arrivals: list[list[tuple[int, int]]] = []  # per e: (stage, x) sorted by stage
    for w in u.sets:
        arrivals.append(sorted((s, x) for s, x, _v in w.events))
    pointers = [0] * u.size
    candidates: list[list[int]] = [[] for _ in range(u.size)]
    events = []
    in_a: set[int] = set()
    threshold = [pow2(e) for e in range(u.size)]

    for s in range(1, S + 1):
        for e in range(min(u.size, s)):
            rec = records[e]
            arr = arrivals[e]
            fresh = []
            while pointers[e] < len(arr) and arr[pointers[e]][0] <= s:
                stage_in, x = arr[pointers[e]]
                pointers[e] += 1
                if x >= 2 * e and (not prompt or stage_in == s):
                    fresh.append(x)
            if rec.met:
                continue
            if prompt:
                pool = sorted(fresh)
            elif c.props.monotone_stage:
                pool = sorted(candidates[e] + fresh)
            else:
                candidates[e].extend(fresh)
                pool = sorted(candidates[e])
            chosen = None
            survivors = []
            for x in pool:
                if c(x, s) <= threshold[e]:
                    chosen = x
                    rec.had_candidate = True
                    break
                survivors.append(x)
            if not prompt and c.props.monotone_stage:
                candidates[e] = [] if chosen is not None else survivors
            if chosen is not None:
                rec.met = True
                rec.witness = (s, chosen)
                if chosen not in in_a:
                    in_a.add(chosen)
                    events.append((s, chosen, 1))
    # a starved requirement may still have had a qualifying pair at some stage
    for e, rec in enumerate(records):
        if not rec.met and not rec.had_candidate:
            for stage_in, x in arrivals[e]:
                if x >= 2 * e and c(x, stage_in) <= threshold[e]:
                    rec.had_candidate = True
                    break
    trace = EnumerationTrace(S, events)
    return trace, RequirementLedger(tuple(records))


def reference_complete_model(
    halting: EnumerationTrace,
    phis: dict[int, int],
    S: int,
) -> CompleteModelResult:
    """Movable-marker loop holding beta as Fractions throughout."""
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
    beta_steps = [ZERO]
    pending_bump = ZERO
    in_a: set[int] = set()
    events: list[tuple[int, int, int]] = []
    marker_log: list[tuple[int, int, int, int]] = []
    actions: list[tuple[int, int]] = []
    axiom_log: list[tuple[int, int, frozenset[int], int]] = []  # (k, use, snap, value)
    live_axiom: dict[int, tuple[int, int] | None] = {kk: None for kk in range(K_max + 1)}
    halting_so_far: set[int] = set()
    violations: list[tuple[int, int]] = []

    def enumerate_element(x: int, s: int) -> None:
        if x in in_a:
            return
        in_a.add(x)
        events.append((s, x, 1))
        for kk, ax in live_axiom.items():
            if ax is not None and x < ax[0]:
                live_axiom[kk] = None

    for s in range(1, S + 1):
        beta_steps.append(beta_steps[-1] + pending_bump)
        pending_bump = ZERO

        k_conv = phi_by_stage.get(s)
        if k_conv is not None and k_conv <= K_max:
            enumerate_element(markers[k_conv], s)
            actions.append((s, k_conv))
            pending_bump = pow2(k_conv)  # takes effect at the next stage
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

        for kk in range(K_max + 1):
            if live_axiom[kk] is None:
                use = markers[kk] + 1
                val = 1 if kk in halting_so_far else 0
                axiom_log.append(
                    (kk, use, frozenset(x for x in in_a if x < use), val)
                )
                live_axiom[kk] = (use, val)

        for kk in range(K_max + 1):
            anchor = min(markers[kk], s)
            if beta_steps[s] - beta_steps[anchor] > pow2(kk):
                violations.append((s, kk))

    beta = LeftCEReal.of(tuple(beta_steps), cap=beta_steps[-1] + 1)
    trace = EnumerationTrace(S, sorted(events, key=lambda e: e[0]))
    total = cost_of_trace(additive_from_real(beta), trace).total

    decoded: dict[int, int] = {}
    final = frozenset(in_a)
    for kk in range(K_max + 1):
        applicable = {
            v
            for ax_k, ax_use, ax_snap, v in axiom_log
            if ax_k == kk and ax_snap == frozenset(x for x in final if x < ax_use)
        }
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


def reference_dual_construct(
    c: TotalCostFunctional,
    zp: Sequence[int],
    phis: Sequence[PhiMock],
    S: int,
) -> DualState:
    """Dual stage loop that rescans entries, entrants and F at each query."""
    E = len(phis)
    wishes: list[Wish] = []
    live_by_x: dict[int, list[Wish]] = {}
    d_members: set[int] = set()
    d_events: list[tuple[int, int, int]] = []
    f_members: set[int] = set()
    f_events: list[tuple[int, int, int]] = []
    halting: set[int] = set()
    halting_entries: list[tuple[int, int]] = []
    active: dict[int, int] = {}  # requirement -> its guess v
    activations: list[tuple[int, int, int, int]] = []
    cancellations: list[tuple[int, int, int, int]] = []
    held_history: list[tuple[int, int, Fraction]] = []
    ever_activated: set[int] = set()
    visited: list[int] = []
    high_water = max([S and 0, E] + list(zp))

    def d_bit(i: int) -> int:
        return 1 if i in d_members else 0

    def held_total(e: int) -> Fraction:
        per_x: dict[int, Fraction] = {}
        for w in wishes:
            if w.holder == e and w.removed is None:
                per_x[w.x] = max(per_x.get(w.x, ZERO), w.alpha)
        return sum(per_x.values(), ZERO)

    def remove_wish(w: Wish, s: int) -> None:
        w.removed = s
        key = w.u - 1
        if key not in d_members:
            d_members.add(key)
            d_events.append((s, key, 1))
        live_by_x[w.x].remove(w)

    def halting_changed_below(born: int, s: int, x: int) -> bool:
        return any(
            born < stage <= s and n <= x for stage, n in halting_entries
        )

    stage = 1
    zp_idx = 0
    while stage <= S and zp_idx < len(zp):
        s = stage
        visited.append(s)
        n = zp[zp_idx]
        zp_idx += 1
        if n in halting:
            raise ValueError("halting-set entrants must be distinct")
        halting.add(n)
        halting_entries.append((s, n))
        high_water = max(high_water, s, n)

        # 1. cancel requirements whose guess was overtaken
        for e, v in sorted(active.items()):
            if v > n:
                cancellations.append((s, e, v, n))
                for w in wishes:
                    if w.holder == e and w.removed is None:
                        w.holder = None
                del active[e]

        # 2. remove stale unheld wishes
        for ws in [list(ws) for ws in live_by_x.values()]:
            for w in ws:
                if w.removed is None and w.holder is None:
                    if halting_changed_below(w.born, s, w.x):
                        remove_wish(w, s)

        # 3. add wishes at the current relative prices
        x_top = min(s, (c.support_bound + 1) if c.support_bound is not None else s)
        for x in range(x_top):
            units, use = c.eval_fn(d_bit, x, s)
            alpha = Fraction(units, c.den)
            if alpha <= 0:
                continue
            current = live_by_x.get(x, [])
            if current and max(w.alpha for w in current) >= alpha:
                continue
            u = high_water + 2
            high_water = u
            w = Wish(x, alpha, u, s, use)
            wishes.append(w)
            live_by_x.setdefault(x, []).append(w)

        # 4. activate requirements
        for e in range(E):
            if e in active:
                continue
            floor = max(
                (v for i, v in active.items() if i < e), default=-1
            )
            chosen = None
            for v in range(e, n + 1):
                if v <= floor:
                    continue
                if Fraction(c.eval_fn(d_bit, v, s)[0], c.den) > Fraction(1, 2 * 3**e):
                    continue
                m = sum(1 for kk in halting if kk < v)
                x = triple_pair(e, v, m)
                if phis[e].support(d_bit, x) != frozenset(
                    y for y in f_members if y <= x
                ):
                    continue
                takeover = [
                    w
                    for ws in live_by_x.values()
                    for w in ws
                    if w.x >= v and (w.holder is None or w.holder > e)
                ]
                per_x: dict[int, Fraction] = {}
                for w in takeover:
                    per_x[w.x] = max(per_x.get(w.x, ZERO), w.alpha)
                if sum(per_x.values(), ZERO) > Fraction(1, 3**e):
                    continue
                chosen = (v, x, takeover)
                break
            if chosen is not None:
                v, x, takeover = chosen
                for w in takeover:
                    w.holder = e
                active[e] = v
                ever_activated.add(e)
                activations.append((s, e, v, x))
                if x not in f_members:
                    f_members.add(x)
                    f_events.append((s, x, 1))
                high_water = max(high_water, x, v)

        for e in sorted(active):
            held_history.append((s, e, held_total(e)))

        stage = high_water + 1
        high_water = stage

    d_trace = EnumerationTrace(S, sorted(d_events, key=lambda ev: ev[0]))
    f_trace = EnumerationTrace(S, sorted(f_events, key=lambda ev: ev[0]))
    starved = tuple(e for e in range(E) if e not in ever_activated)
    return DualState(
        S,
        d_trace,
        f_trace,
        tuple(wishes),
        tuple(visited),
        tuple(halting_entries),
        tuple(activations),
        tuple(cancellations),
        tuple(held_history),
        starved,
        tuple(m.name for m in phis),
    )


def reference_gamma_eval(st: DualState, x: int, t: int) -> Fraction:
    """Scanning form of ``gamma_eval``: every D entry, then every wish."""
    s_star = 0
    for s, xx in st.d_entry_stages():
        if xx < t:
            s_star = max(s_star, s)
    best = ZERO
    for w in st.wishes:
        if w.x == x and w.u <= t and w.born <= s_star:
            if w.removed is None or w.removed > s_star:
                best = max(best, w.alpha)
    return best


def reference_halting_cost(st: DualState) -> Fraction:
    return sum((reference_gamma_eval(st, n, s) for s, n in st.halting_entries), ZERO)


def reference_audit_dual(st: DualState) -> DualAudit:
    held_ok = all(total <= Fraction(1, 3**e) for _s, e, total in st.held_history)
    gamma_monotone = True
    for x in {w.x for w in st.wishes}:
        grid = sorted({w.u for w in st.wishes if w.x == x} | {st.horizon})
        prev = ZERO
        for t in grid:
            g = reference_gamma_eval(st, x, t)
            if g < prev:
                gamma_monotone = False
            prev = g
    total = reference_halting_cost(st)
    justified = all(n < v for _s, _e, v, n in st.cancellations)
    return DualAudit(held_ok, gamma_monotone, total, total <= Fraction(3, 2), justified)


# ---- simplicity -----------------------------------------------------------


def _early_universe(seed: int, size: int, S: int) -> Universe:
    """Sets whose elements may arrive before requirement e first looks (e + 1)."""
    rng = rng_for(seed, "early")
    return Universe(
        tuple(enumeration_trace(rng, S, 3 * size, rng.randint(1, 2 * size)) for _ in range(size))
    )


def _jumpy_cost(S: int) -> CostFn:
    """Not stage-monotone: geometric, but 4 on every third stage."""
    return units_cost("jumpy", S, lambda x, s: Fraction(4) if s % 3 == 0 else pow2(x), 1 << 2 * S)


def _wobbly_cost(S: int) -> CostFn:
    """Not stage-monotone: a candidate may fail, pass later, then fail again."""
    return units_cost("wobbly", S, lambda x, s: pow2(max(0, x // 2 - (s * 7) % 5)), 1 << S)


def _same_simplicity(got, want) -> None:
    (trace, ledger), (ref_trace, ref_ledger) = got, want
    assert trace.events == ref_trace.events
    assert trace.horizon == ref_trace.horizon
    assert ledger.records == ref_ledger.records


@pytest.mark.parametrize("seed", range(6))
def test_simplicity_matches_per_stage_reference(seed):
    S = 1500
    u = universe(rng_for(seed, "universe"), 24, S)
    early = _early_universe(seed, 30, 60)
    for c, uu, SS in (
        (geometric_cost(S), u, S),
        (geometric_cost(60), early, 60),
        (monotone_cost(rng_for(seed, "monotone"), 60), early, 60),
    ):
        _same_simplicity(build_simple(c, uu, SS), reference_run_simplicity(c, uu, SS, False))
        _same_simplicity(
            build_prompt_simple(c, uu, SS), reference_run_simplicity(c, uu, SS, True)
        )
    for c in (_jumpy_cost(60), _wobbly_cost(60)):
        _same_simplicity(build_simple(c, early, 60), reference_run_simplicity(c, early, 60, False))


def test_simplicity_early_arrivals_caught_up_at_first_visit():
    # x = 5 arrives at stage 1, before requirement 2 first looks at stage 3
    u = Universe((EnumerationTrace(10, []), EnumerationTrace(10, []), EnumerationTrace(10, [(1, 5, 1)])))
    c = geometric_cost(10)
    trace, ledger = build_simple(c, u, 10)
    assert trace.events == ((3, 5, 1),)
    assert ledger.records[2].witness == (3, 5)
    _, prompt_ledger = build_prompt_simple(c, u, 10)
    assert not prompt_ledger.records[2].met  # not fresh at its own arrival stage


# ---- complete model -------------------------------------------------------


def _same_complete_model(got: CompleteModelResult, want: CompleteModelResult) -> None:
    assert got.beta == want.beta
    assert got.trace.events == want.trace.events
    assert got.marker_log == want.marker_log
    assert got.invariant_violations == want.invariant_violations
    assert got.decoded == want.decoded
    assert got.halting_final == want.halting_final
    assert got.total == want.total
    assert got.requirement_actions == want.requirement_actions


@pytest.mark.parametrize("seed", range(8))
def test_complete_model_matches_fraction_reference(seed):
    halting, phis = halting_schedule(rng_for(seed, "cm"), 400, 12)
    _same_complete_model(
        build_complete_model(halting, phis, 400), reference_complete_model(halting, phis, 400)
    )


def test_complete_model_beyond_int64_scale():
    # marker indices above 70: beta's integer scale 2^-75 exceeds int64
    halting = EnumerationTrace(300, [(5, 72, 1), (9, 3, 1), (40, 75, 1)])
    phis = {74: 12, 71: 30, 2: 50, 75: 80}
    got = build_complete_model(halting, phis, 300)
    _same_complete_model(got, reference_complete_model(halting, phis, 300))
    assert got.beta.seq[-1] == pow2(74) + pow2(71) + pow2(2) + pow2(75)


def test_complete_model_carries_violations_between_events(monkeypatch):
    # No consistent input breaks the marker invariant, so a tighter bound
    # 2^-(k+3) is injected: a bump 2^-j then fails the markers k in {j-2, j-1}
    # below it from the bump stage until they move.  The engine finds the
    # failing markers at bump and action stages only; a replay from the
    # result's beta and marker log checks every (stage, k) with Fractions.
    def tight(markers, beta, s, K_max):
        return [kk for kk, m in markers.items() if beta[s] - beta[min(m, s)] > (1 << K_max - kk) >> 3]

    monkeypatch.setattr(constructions, "_failing_markers", tight)
    S = 400
    halting, phis = halting_schedule(rng_for(0, "cm"), S, 12)
    got = build_complete_model(halting, phis, S)
    K_max = max([*phis, *(kk for _s, kk, _v in halting.events)])
    markers = list(range(K_max + 1))
    moves: dict[int, list[tuple[int, int]]] = {}
    for s, kk, _old, new in got.marker_log:
        moves.setdefault(s, []).append((kk, new))
    beta = got.beta.seq
    want = []
    for s in range(1, S + 1):
        for kk, new in moves.get(s, ()):
            markers[kk] = new
        for kk, m in enumerate(markers):
            if beta[s] - beta[min(m, s)] > pow2(kk + 3):
                want.append((s, kk))
    assert got.invariant_violations == tuple(want)
    # some marker fails over a run of stages without an event
    events = {s for s, _k in got.requirement_actions} | {s + 1 for s, _k in got.requirement_actions}
    assert any((s + 1, kk) in want and s + 1 not in events for s, kk in want)


# ---- dual -----------------------------------------------------------------


def _held_cap_edge(extra: int):
    """One requirement whose takeover sum meets its held cap 1 or exceeds it by 2^-72.

    At the first stage only guess 0 is open, and its price 1 is above the cap
    1/2.  At the second, guess 1 is priced exactly at 1/2 and the wishes at
    x >= 1 sum to 1 + extra * 2^-72, so it is taken when extra is 0; otherwise
    guess 2 is priced above the cap and guess 3 takes nothing.
    """
    prices = (1 << 72, 1 << 71, (1 << 71) + extra, 0)
    def ev(bit, x, s):
        return (prices[x], 1) if x < 4 else (0, 0)

    edge = TotalCostFunctional(f"edge-{extra}", ev, 1 << 72, support_bound=3)
    return [0, 5, 1, 2, 3, 4], [blank_phi(0)], edge, 10_000


def test_dual_takeover_at_and_above_the_held_cap():
    for extra, guess in ((0, 1), (1, 3)):
        order, phis, c, S = _held_cap_edge(extra)
        st = dual_construct(c, order, phis, S)
        second = st.visited_stages[1]
        assert [(s, e, v) for s, e, v, _x in st.activations] == [(second, 0, guess)]
        assert st.held_history[0] == (second, 0, 1 - extra)


def _release_case():
    """One requirement cancelled while it holds wishes.

    Positions 0 and 1 are priced 1, above the value cap 1/2, so the first
    open guess is 2.  At stage 5 (entrant 2) guess 2 takes over the wishes at
    x = 2 and 3; at stage 14 the entrant 1 < 2 cancels it, and the released
    wishes lie above 1, so that same stage removes them.
    """

    def ev(bit, x, s):
        if x > 3:
            return 0, 0
        return (32 if x < 2 else 1 << (3 - x)), 1

    steep = TotalCostFunctional("steep", ev, 32, support_bound=3)
    return [0, 2, 1], [blank_phi(0)], steep, 200


def test_dual_cancellation_releases_held_wishes_at_its_stage():
    order, phis, c, S = _release_case()
    st = dual_construct(c, order, phis, S)
    assert [(s, e, v) for s, e, v, _x in st.activations] == [(5, 0, 2)]
    assert st.cancellations == ((14, 0, 2, 1),)
    assert st.held_history == ((5, 0, Fraction(3, 32)),)  # 1/16 at x = 2 and 1/32 at x = 3
    taken = [(w.x, w.born, w.removed, w.holder) for w in st.wishes if w.born <= 5 and w.x >= 2]
    assert taken == [(2, 5, 14, None), (3, 5, 14, None)]
    _same_dual(st, reference_dual_construct(c, order, phis, S))


def _takeover_case():
    """A stronger requirement takes over part of a weaker holder's wishes.

    Requirement 0 answers 1 everywhere until its probe 29 enters D, so it
    disagrees with the empty F until then.  Requirement 1 takes guess 1 at
    stage 9 with the wishes at x = 1..6.  From stage 22 every price rises,
    and x = 0 and 1 cost 1, above the value cap 1/2.  At stage 37 the
    entrant 3 removes the new unheld wishes at x >= 3, entering the key 29.
    Requirement 0 then takes guess 2 with every wish at x >= 2, and
    requirement 1 keeps only its wish at x = 1.
    """

    def until_probe(bit, upto):
        return frozenset() if bit(29) else frozenset(range(upto + 1))

    late = PhiMock("until-0-29", lambda bit, y: (0 if bit(29) else 1, 30), until_probe)

    def ev(bit, x, s):
        if x > 6:
            return 0, 0
        if x < 2 and s >= 22:
            return 256, 1
        return 1 << (6 - x + (s >= 22)), 1

    rising = TotalCostFunctional("rising", ev, 256, support_bound=6)
    return [0, 5, 6, 3, 4], [late, blank_phi(1)], rising, 500


def test_dual_stronger_activation_takes_over_a_weaker_holders_wishes():
    order, phis, c, S = _takeover_case()
    st = dual_construct(c, order, phis, S)
    assert st.activations == ((9, 1, 1, 19), (37, 0, 2, 13))
    assert st.cancellations == ()
    after = {e: total for s, e, total in st.held_history if s == 37}
    assert after == {0: Fraction(31, 128), 1: Fraction(1, 8)}  # 1 keeps 1/8 at x = 1
    assert all(total == after[e] for s, e, total in st.held_history if s > 37)
    _same_dual(st, reference_dual_construct(c, order, phis, S))


def _dual_cases():
    S = 10_000
    # prices every x < s from the first stage on, and functionals that never
    # agree with F leave every wish unheld, so each one meets every later entrant
    # 2^-(x+2) in units of 2^-40: the activation scan prices v up to 29
    flat = TotalCostFunctional(
        "flat", lambda bit, x, s: (1 << (38 - x), 1), 1 << 40, support_bound=24
    )
    never = [scripted_phi(e, frozenset({0})) for e in range(4)]
    yield _held_cap_edge(0)
    yield _held_cap_edge(1)
    for seed in range(4):
        yield random.Random(seed).sample(range(30), 30), never, flat, S
        yield dual_inputs(rng_for(seed, "dual"), 30, 5) + (S,)
        yield dual_inputs_scripted(rng_for(seed, "dual-scripted"), 30, 5, S) + (S,)
        rng = random.Random(seed)
        order, _phis, c = dual_inputs(rng, 25, 4)
        yield order, [blank_phi(e) for e in range(4)], c, S
        yield order, [sensitive_phi(e, rng.randint(0, 24)) for e in range(4)], c, S
        yield order, [scripted_phi(e, frozenset(rng.sample(range(60), 4))) for e in range(4)], c, S


def _same_dual(st: DualState, ref: DualState) -> None:
    assert st.d_trace.events == ref.d_trace.events
    assert st.f_trace.events == ref.f_trace.events
    assert st.wishes == ref.wishes
    assert st.visited_stages == ref.visited_stages
    assert st.halting_entries == ref.halting_entries
    assert st.activations == ref.activations
    assert st.cancellations == ref.cancellations
    assert st.held_history == ref.held_history
    assert st.starved == ref.starved
    assert st.phi_names == ref.phi_names
    assert audit_dual(st) == reference_audit_dual(ref)
    assert halting_cost(st) == reference_halting_cost(ref)
    for w in st.wishes[:40]:
        for t in (w.u - 1, w.u, w.u + 1, st.horizon):
            assert gamma_eval(st, w.x, t) == reference_gamma_eval(st, w.x, t)


def _same_prefix(cut: DualState, full: DualState) -> None:
    """A state cut short once every requirement activated is the full run's up to the cut."""
    E = len(full.phi_names)
    first_all = None  # the first stage by whose end every requirement has activated
    activated: set[int] = set()
    for s, e, _v, _x in full.activations:
        activated.add(e)
        if len(activated) == E:
            first_all = s
            break
    if first_all is None:
        assert cut.visited_stages == full.visited_stages
    else:
        assert cut.visited_stages[-1] == first_all
        assert cut.starved == ()
    last = cut.visited_stages[-1] if cut.visited_stages else 0

    def upto(rows):
        return tuple(r for r in rows if r[0] <= last)

    def seen_by(w: Wish):
        # holders may change after the cut; a removal after it is not seen
        removed = w.removed if w.removed is not None and w.removed <= last else None
        return w.x, w.alpha, w.u, w.born, w.context_use, removed

    assert cut.visited_stages == full.visited_stages[: len(cut.visited_stages)]
    assert cut.halting_entries == upto(full.halting_entries)
    assert cut.activations == upto(full.activations)
    assert cut.cancellations == upto(full.cancellations)
    assert cut.held_history == upto(full.held_history)
    assert cut.d_trace.events == upto(full.d_trace.events)
    assert cut.f_trace.events == upto(full.f_trace.events)
    assert [seen_by(w) for w in cut.wishes] == [seen_by(w) for w in full.wishes if w.born <= last]
    assert cut.starved == full.starved
    assert cut.horizon == full.horizon and cut.phi_names == full.phi_names


def test_dual_matches_scanning_reference():
    cut_short = 0
    for order, phis, c, S in _dual_cases():
        st = dual_construct(c, order, phis, S)
        _same_dual(st, reference_dual_construct(c, order, phis, S))
        cut = dual_construct(c, order, phis, S, stop_once_all_activated=True)
        _same_prefix(cut, st)
        cut_short += len(cut.visited_stages) < len(st.visited_stages)
    assert cut_short


@hst.composite
def _wide_staircase(draw):
    """(E, support, cost functional, entrant order, S) over den = 2^70 * 3^k, beyond int64.

    Each position is priced from a jump stage on: a staircase step
    2^-(x+2), a value next to one of the caps 1/(2*3^j) and 1/3^j, or 0.
    """
    E = draw(hst.integers(1, 4))
    den = (1 << 70) * 3 ** draw(hst.integers(0, 5))
    support = draw(hst.integers(0, 12))
    units = []
    for x in range(support + 1):
        j = draw(hst.integers(0, E - 1))
        near = draw(hst.sampled_from([den // (2 * 3**j), den // 3**j])) + draw(hst.integers(-1, 1))
        units.append(draw(hst.sampled_from([den >> (x + 2), near, 0])))
    jump_at = [draw(hst.integers(1, 3 * (x + 1))) for x in range(support + 1)]

    def ev(bit, x, s):
        if x > support:
            return 0, 0
        return (units[x] if s >= jump_at[x] else 0), 1

    bound = draw(hst.sampled_from([support, None]))
    c = TotalCostFunctional("wide-staircase", ev, den, support_bound=bound)
    order = draw(hst.permutations(range(draw(hst.integers(1, 30)))))
    S = draw(hst.one_of(hst.integers(1, 300), hst.just(10_000)))
    return E, support, c, order, S


@hst.composite
def _wide_dual_inputs(draw):
    """Wide staircases with mixed functionals, some scripted as the pass loop would."""
    E, support, c, order, S = draw(_wide_staircase())
    phis = [
        draw(
            hst.sampled_from(
                [
                    blank_phi(e),
                    scripted_phi(e, frozenset(draw(hst.sets(hst.integers(0, 400), max_size=4)))),
                    sensitive_phi(e, draw(hst.integers(0, support + 2))),
                ]
            )
        )
        for e in range(E)
    ]
    # as in dual_inputs_scripted, script a starved requirement with the final F
    for _ in range(draw(hst.integers(0, 4))):
        ref = reference_dual_construct(c, order, phis, S)
        if not ref.starved:
            break
        e = ref.starved[0]
        phis[e] = scripted_phi(e, ref.f_trace.final_set())
    return order, phis, c, S


@settings(max_examples=60, deadline=None)
@given(_wide_dual_inputs())
def test_dual_integer_prices_match_fraction_reference_beyond_int64(case):
    order, phis, c, S = case
    st = dual_construct(c, order, phis, S)
    _same_dual(st, reference_dual_construct(c, order, phis, S))
    _same_prefix(dual_construct(c, order, phis, S, stop_once_all_activated=True), st)


# ---- scripted pass loop and the early stop ----------------------------------

EVERYWHERE = 1 << 64  # a support bound above every witness


def reference_dual_scripts(
    c: TotalCostFunctional, order: Sequence[int], requirements: int, S: int
) -> tuple[list[frozenset[int]], str]:
    """dual_inputs_scripted's pass loop with every pass run in full.

    Returns the final scripts and why the loop ended: "settled" (nothing
    starved), "unchanged" (the starved requirement's script did not change)
    or "ran out" (of passes).
    """
    scripts = [frozenset() for _ in range(requirements)]
    for _ in range(max(6, requirements + 1)):
        st = dual_construct(c, order, [scripted_phi(e, scripts[e]) for e in range(requirements)], S)
        if not st.starved:
            return scripts, "settled"
        e = st.starved[0]
        updated = st.f_trace.final_set()
        if scripts[e] == updated:
            return scripts, "unchanged"
        scripts[e] = updated
    return scripts, "ran out"


def _scripted_with(order, c, requirements: int, S: int) -> list[frozenset[int]]:
    """The scripts dual_inputs_scripted settles on for a given staircase and order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generate, "dual_inputs", lambda _rng, _entrants, _reqs: (order, [], c))
        _order, phis, _c = dual_inputs_scripted(random.Random(0), len(order), requirements, S)
    return [phi.support(None, EVERYWHERE) for phi in phis]


def test_scripted_pass_loop_matches_full_passes():
    S = 10_000
    for seed in range(10):
        order, phis, c = dual_inputs_scripted(rng_for(seed, "dual-scripted"), 30, 5, S)
        scripts, _end = reference_dual_scripts(c, order, 5, S)
        assert [phi.support(None, EVERYWHERE) for phi in phis] == scripts


def test_scripted_pass_loop_matches_full_passes_when_a_script_stays():
    # 1/4 everywhere: requirement 0 (value cap 1/2) activates, requirement 1
    # (cap 1/6) never does, so its script is F both times
    quarter = TotalCostFunctional("quarter", lambda bit, x, s: (1, 1), 4, support_bound=8)
    order = random.Random(7).sample(range(20), 20)
    scripts, end = reference_dual_scripts(quarter, order, 2, 10_000)
    assert end == "unchanged" and scripts[0] == frozenset() and scripts[1]
    assert _scripted_with(order, quarter, 2, 10_000) == scripts


@settings(max_examples=60, deadline=None)
@given(_wide_staircase())
def test_scripted_pass_loop_matches_full_passes_on_wide_inputs(case):
    E, _support, c, order, S = case
    scripts, end = reference_dual_scripts(c, order, E, S)
    event(end)
    assert _scripted_with(order, c, E, S) == scripts


@pytest.mark.parametrize("requirements", [2, 5, 8])
def test_scripted_pass_loop_ends_when_its_passes_run_out(monkeypatch, requirements):
    # a stub construction that starves requirement 0 with a fresh F on every
    # pass: the loop never settles and never sees a script stay, so it ends
    # after max(6, requirements + 1) constructions with the last F as 0's script
    seen = []

    def starving(_c, _order, phis, _S, **_flags):
        seen.append([phi.support(None, EVERYWHERE) for phi in phis])
        n = len(seen)
        return SimpleNamespace(starved=(0,), f_trace=SimpleNamespace(final_set=lambda: {n}))

    monkeypatch.setattr(dual, "dual_construct", starving)
    _order, phis, _c = dual_inputs_scripted(rng_for(0, "pass-cap"), 10, requirements, 100)
    passes = max(6, requirements + 1)
    blank = [frozenset()] * (requirements - 1)
    scripts_of_0 = [frozenset(), *(frozenset({n}) for n in range(1, passes))]
    assert seen == [[script, *blank] for script in scripts_of_0]
    assert [phi.support(None, EVERYWHERE) for phi in phis] == [frozenset({passes}), *blank]


# The activation scan stops at the first guess v whose witness disagrees with
# F; that is exact because the witness grows with v and agreement holds on a
# prefix of the witness.


@settings(max_examples=200, deadline=None)
@given(hst.integers(0, 10), hst.sets(hst.integers(0, 80), max_size=30))
def test_dual_witness_strictly_increases_with_guess(e, halting):
    h = sorted(halting)
    xs = [triple_pair(e, v, bisect.bisect_left(h, v)) for v in range(100)]
    assert all(a < b for a, b in zip(xs, xs[1:]))


@settings(max_examples=200, deadline=None)
@given(hst.integers(0, 5), hst.sets(hst.integers(0, 60)))
@example(0, set())
def test_scripted_support_matches_the_filter(e, members):
    phi = scripted_phi(e, frozenset(members))
    for upto in range(-1, max(members, default=0) + 2):
        assert phi.support(None, upto) == frozenset(y for y in members if y <= upto)


@settings(max_examples=200, deadline=None)
@given(
    hst.integers(0, 5),
    hst.sets(hst.integers(0, 40)),
    hst.sets(hst.integers(0, 40)),
    hst.integers(0, 40),
    hst.sampled_from(["members", "all", "none"]),
    hst.integers(0, 45),
    hst.sets(hst.integers(0, 40)),
)
def test_phi_agreement_with_f_holds_on_a_prefix(e, members, d, probe, base, cut, extra):
    # F agrees with a script below the cut and is arbitrary from it on
    below = {"members": members, "all": set(range(41)), "none": set()}[base]
    f = {y for y in below if y < cut} | {y for y in extra if y >= cut}

    def bit(i):
        return 1 if i in d else 0

    for phi in (blank_phi(e), scripted_phi(e, frozenset(members)), sensitive_phi(e, probe)):
        agree = [phi.support(bit, x) == frozenset(y for y in f if y <= x) for x in range(45)]
        assert agree == sorted(agree, reverse=True), phi.name
