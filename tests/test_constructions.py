"""Construction engines: stage-loop replays against their claimed ledgers."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costlab.catalog import additive_from_real, additive_requests, cost_from_approx, cost_k, cost_max
from costlab.complexity import KIndex
from costlab.constructions import (
    SeparationResult,
    Universe,
    _grant_length,
    build_complete_model,
    build_prompt_simple,
    build_simple,
    copycat_adversary,
    diagonalize_nonimplication,
    infinite_ce_divergence,
    separation_run,
    sjt_reduction,
    slow_enum_N,
    stubborn_adversary,
    weak_ktrivial_requests,
)
from costlab.core import (
    ApproximationTrace,
    EnumerationTrace,
    cost_of_trace,
    geometric_cost,
    obeys_at_horizon,
)
from costlab.errors import (
    BudgetExceeded,
    NotErasing,
    NoWitness,
    ScheduleInsufficient,
)
from costlab.generate import halting_schedule, left_ce_real, rng_for, universe
from costlab.machine import (
    KProvider,
    RequestSet,
    baseline_provider,
    provider_from_requests,
    register_requests,
    request_set,
    shortcut_stage,
)
from costlab.util import ZERO, bits_to_nat, pow2
from unit_costs import units_cost


def test_simple_empty_universe():
    c = geometric_cost(50)
    trace, ledger = build_simple(c, Universe(()), 50)
    assert trace.final_set() == frozenset()
    assert cost_of_trace(c, trace).total == 0


def test_simple_single_fast_set():
    evens = EnumerationTrace(50, [(s + 1, 2 * s, 1) for s in range(20)])
    c = geometric_cost(50)
    trace, ledger = build_simple(c, Universe((evens,)), 50)
    rec = ledger.records[0]
    assert rec.met and rec.witness == (1, 0)
    assert cost_of_trace(c, trace).total == 1  # the single charge c(0, 1)


def test_simple_bounds_and_spacing():
    c = geometric_cost(400)
    for seed in range(10):
        rng = rng_for(seed, "simple")
        u = universe(rng, 12, 400)
        trace, ledger = build_simple(c, u, 400)
        assert cost_of_trace(c, trace).total <= 2
        for rec in ledger.records:
            if rec.met:
                _stage, x = rec.witness
                assert x >= 2 * rec.index
        # coinfiniteness witness: at most e elements below 2e
        final = trace.final_set()
        for e in range(12):
            assert len([x for x in final if x < 2 * e]) <= e


def test_prompt_simple_witness_at_appearance():
    c = geometric_cost(300)
    for seed in range(6):
        rng = rng_for(seed, "prompt")
        u = universe(rng, 8, 300)
        trace, ledger = build_prompt_simple(c, u, 300)
        assert cost_of_trace(c, trace).total <= 2
        for rec in ledger.records:
            if rec.met:
                stage, x = rec.witness
                arrived = min(
                    s for s, xx, _v in u.sets[rec.index].events if xx == x
                )
                assert stage == arrived


def test_prompt_starvation_reported():
    flat = units_cost(
        "flat", 60, lambda x, s: Fraction(1) if x <= s else ZERO, 1,
        monotone_main=True, monotone_stage=True,
    )
    w = EnumerationTrace(60, [(10, 6, 1), (20, 8, 1)])
    _trace, ledger = build_prompt_simple(flat, Universe((w, w)), 60)
    assert not ledger.records[1].met  # threshold 1/2 < 1 = cost
    assert not ledger.records[1].had_candidate


def test_slow_enum_interval_ledger():
    p = baseline_provider(10_241)
    trace, ledger = slow_enum_N(p, 12)
    assert ledger.j0 == 12
    assert all(v >= 1 for v in ledger.per_interval.values())
    assert ledger.total >= 12 - ledger.j0
    # the slow schedule does not obey the complexity-sum cost within the
    # interval budget, while the stage-x-enters-at-x schedule is free
    assert not obeys_at_horizon(
        cost_k(p), trace, Fraction(12 - ledger.j0)
    )
    fast = EnumerationTrace(p.horizon, [(x + 1, x, 1) for x in range(100)])
    assert obeys_at_horizon(cost_k(p), fast, Fraction(0))
    # delayed elements enter one per stage, strictly after the delay stage
    for s, x, _v in trace.events:
        if x > 2048:
            assert s > shortcut_stage(12)


def test_separation_names_the_starting_bound_it_could_not_meet():
    # b = 2, d = 1: k = 16, so the start needs c_K(x0, S) <= 2^-19
    message = (
        "no cheap starting point below the horizon: c_K(x, 4096) > 2^-19"
        " at every power of two x below 4096"
    )
    with pytest.raises(ScheduleInsufficient) as err:
        separation_run(2, baseline_provider(4096), 1, 100)
    assert str(err.value) == message


def test_slow_enum_requires_shortcuts():
    with pytest.raises(ScheduleInsufficient):
        slow_enum_N(baseline_provider(2000), 9)


def test_slow_enum_horizon_guard():
    with pytest.raises(ScheduleInsufficient):
        slow_enum_N(baseline_provider(4096), 12)


def test_divergence_requests_and_sums():
    p = baseline_provider(600)
    rs, sums = infinite_ce_divergence(list(range(200)), 4, p, 1)
    assert [(r, y) for r, y, _s in rs.entries] == [
        (r + 1, 1 << (r + 1)) for r in range(5)
    ]
    assert all(a < b for a, b in zip(sums, sums[1:]))
    rs0, sums0 = infinite_ce_divergence(list(range(10)), 0, p, 1)
    assert len(rs0) == 1 and len(sums0) == 1


def test_divergence_requires_injectivity():
    with pytest.raises(ValueError):
        infinite_ce_divergence([0, 0, 1, 2, 3], 1, baseline_provider(64), 1)


def _quartic_and_halving(S):
    c = units_cost(
        "quartic", S, lambda x, s: pow2(2 * x + 2) if x <= s else ZERO, 1 << (2 * S + 2),
        monotone_main=True, monotone_stage=True,
    )
    d = units_cost(
        "halving", S, lambda x, s: pow2(x) if x <= s else ZERO, 1 << S,
        monotone_main=True, monotone_stage=True,
    )
    return c, d


def test_diagonalization_defeats_copycat():
    c, d = _quartic_and_halving(400)
    out = diagonalize_nonimplication(c, d, [copycat_adversary(64)], 400)
    rec = out.ledger.records[0]
    assert rec.met
    assert out.adversary_totals[0] > 1
    assert out.total <= 4


def test_diagonalization_alpha_epoch_bound():
    c, d = _quartic_and_halving(400)
    out = diagonalize_nonimplication(
        c, d, [copycat_adversary(64), copycat_adversary(64)], 400
    )
    for rec in out.ledger.records:
        b = 0
        for epoch_alpha in rec.alpha_epochs:
            assert epoch_alpha <= pow2(b + rec.index - 1) if b + rec.index >= 1 else 2
            b += 1


def test_diagonalization_unresponsive_adversary():
    c, d = _quartic_and_halving(200)
    out = diagonalize_nonimplication(
        c, d, [stubborn_adversary(frozenset({63}))], 200
    )
    # the stubborn adversary never recovers, so the requirement stays cheap
    assert out.total <= Fraction(1, 2)


def test_diagonalization_no_witness():
    S = 60
    c = geometric_cost(S)
    with pytest.raises(NoWitness):
        diagonalize_nonimplication(c, c, [copycat_adversary(16)], S)


def test_diagonalization_erasing_output():
    c, d = _quartic_and_halving(300)
    out = diagonalize_nonimplication(c, d, [copycat_adversary(32)], 300)
    a = out.trace
    for s, x, _v in a.events:
        for y in range(x + 1, min(s, max(a.positions(), default=0)) + 1):
            assert a.value(y, s) == 0


def test_complete_model_quiet_inputs():
    halting = EnumerationTrace(100)
    out = build_complete_model(halting, {}, 100)
    assert out.beta.at(100) == 0
    assert out.trace.final_set() == frozenset()
    assert out.total == 0


def test_complete_model_single_convergence():
    halting = EnumerationTrace(100)
    out = build_complete_model(halting, {3: 40}, 100)
    assert out.requirement_actions == ((40, 3),)
    assert out.beta.at(100) == Fraction(1, 8)
    assert 3 in out.trace.final_set()  # the old marker position of 3


def test_complete_model_randomized_claims():
    for seed in range(12):
        rng = rng_for(seed, "cm")
        halting, phis = halting_schedule(rng, 400, 10)
        out = build_complete_model(halting, phis, 400)
        assert not out.invariant_violations
        assert out.total <= 4
        assert all(
            out.decoded[k] == (1 if k in out.halting_final else 0)
            for k in out.decoded
        )


def test_sjt_reduction_quiet_trace():
    y = ApproximationTrace(60, [(5, 2, 1)])
    a = ApproximationTrace(60)
    rs, report = sjt_reduction(y, lambda e: e + 1, a, 2, 1)
    assert len(rs) == 0
    assert report.cost_total == 0


def test_sjt_reduction_single_change_rule():
    # oracle changes at position 1 at stage 6; the approximation changes at
    # x=4 at stage 8, so the least changed oracle position in [4, 8) ... is
    # found by the e-search: position 1 changed at stage 6 in [4, 8)
    y = ApproximationTrace(60, [(6, 1, 1)])
    a = ApproximationTrace(60, [(8, 4, 1)])
    h = lambda e: e + 2
    rs, report = sjt_reduction(y, h, a, 3, 1)
    assert len(rs) == 1
    r, target, stage = rs.entries[0]
    assert r == 3 + h(1) and stage == 8
    assert target == bits_to_nat("0")  # Y_8 restricted below 1 is the bit 0...
    assert report.e0 is not None


def test_sjt_reduction_oracle_window_is_half_open():
    # the e-search sees an oracle change at stage t only for x <= t < s: the
    # oracle's change at t = 5 is missed by a change at s = 5 and seen by a
    # change at x = 5
    y = ApproximationTrace(10, [(5, 0, 1)])
    h = lambda e: e
    rs, _ = sjt_reduction(y, h, ApproximationTrace(10, [(5, 2, 1)]), 0, 1)
    assert rs.entries == ((2, 5, 5),)
    rs, _ = sjt_reduction(y, h, ApproximationTrace(10, [(7, 5, 1)]), 1, 1)
    assert rs.entries == ((1, 0, 7),)


def test_sjt_reduction_weight_bound_on_permitted_instances():
    # instances where every change follows an oracle change below it
    for seed in range(8):
        rng = rng_for(seed, "sjt")
        S = 120
        y_events = sorted(
            ((rng.randint(1, S // 2), e, 1) for e in rng.sample(range(6), 3)),
            key=lambda ev: ev[0],
        )
        y = ApproximationTrace(S, y_events)
        h = lambda e: e + 2
        a_events = []
        stage = S // 2 + 1
        for x in rng.sample(range(8, 30), 5):
            a_events.append((stage, x, 1))
            stage += 1
        a = ApproximationTrace(S, sorted(a_events, key=lambda ev: ev[0]))
        u = 2
        cfn = cost_from_approx(y, h)
        ledger = cost_of_trace(cfn, a)
        if ledger.total > (1 << u) or ledger.total == 0:
            continue
        rs, report = sjt_reduction(y, h, a, u, 1)
        assert rs.weight <= pow2(u) * (1 << u)  # bounded request set
        assert rs.weight <= 1


def test_sjt_budget_exceeded():
    # two unit-cost changes give a ledger of 2 against a budget of 2^0 = 1
    y = ApproximationTrace(40, [(5, 0, 1), (15, 0, 0)])
    a = ApproximationTrace(40, [(10, 3, 1), (20, 4, 1)])
    with pytest.raises(BudgetExceeded):
        sjt_reduction(y, lambda e: 0, a, 0, 1)


def test_weak_ktrivial_quiet_trace_only_drops():
    p = provider_from_requests(request_set([(3, 5, 1), (2, 5, 6)]), 0, 20)
    a = ApproximationTrace(20)
    rs, report = weak_ktrivial_requests(a, p)
    assert report.change_requests == 0
    assert report.drop_requests == 2
    assert rs.weight == pow2(4) + pow2(3)


def test_weak_ktrivial_drops_every_improvement_of_a_stage():
    # targets 5 and 6 both improve at stage 7; each drop buys its own request
    p = provider_from_requests(request_set([(3, 5, 6), (4, 6, 6)]), 0, 20)
    rs, report = weak_ktrivial_requests(ApproximationTrace(20), p)
    assert report.drop_requests == 2
    assert sorted(r for r, _y, _s in rs.entries) == [4, 5]


def test_weak_ktrivial_change_request_rule():
    p = provider_from_requests(request_set([(3, 5, 1)]), 0, 20)
    a = ApproximationTrace(20, [(7, 2, 1)])  # c_max(2, 7) = 2^-3
    rs, report = weak_ktrivial_requests(a, p)
    assert report.change_requests == 1
    lengths = sorted(r for r, _y, _s in rs.entries)
    assert 4 in lengths  # r + 1 with c_max = 2^-3
    assert report.weight <= (report.omega_weight + report.cmax_total)


def test_weak_ktrivial_rejects_non_erasing():
    p = provider_from_requests(request_set([(3, 5, 1)]), 0, 20)
    a = ApproximationTrace(20, [(4, 3, 1), (9, 2, 1)])  # change below a set position
    with pytest.raises(NotErasing):
        weak_ktrivial_requests(a, p)


def test_separation_constants_reported():
    p = baseline_provider(512)
    out = separation_run(1, p, 1, 4000)
    assert out.k == 2 ** (1 + 1 + 1)
    assert out.declared_model_size == 2**out.k
    assert len(out.sequence) < out.declared_model_size


def test_separation_game_progress_with_opponent():
    p = baseline_provider(2048)
    out = separation_run(1, p, 1, 50_000)
    assert len(out.sequence) >= 3
    assert out.claim_ok
    # base-case claim: a completed pair always carries at least the bought cost
    for pi, r, lhs, rhs in out.claim_checks:
        if r == 0:
            assert lhs >= pow2(out.k + 1 + 1)  # 2^-(k+b+d) with b=d=1


def test_separation_honest_provider_stalls():
    p = baseline_provider(1024)
    out = separation_run(1, p, 1, 3000, greedy=False)
    assert out.status == "budget_exhausted"
    assert len(out.sequence) <= 2


def test_separation_b0_response_impossible():
    # at b = 0 the response needs the whole tail to be one description; the
    # baseline already describes x_0 + 1 and x_0 + 2 at the first response
    # check, so the run stops after one element (any provider stops by two)
    p = baseline_provider(1024)
    out = separation_run(0, p, 1, 50_000)
    assert out.status == "response_impossible"
    assert len(out.sequence) < 3


def test_separation_b0_stops_once_two_terms_lie_beyond():
    # once the sum beyond an element exceeds its largest term, the b = 0 check
    # there can never pass again: the run stops instead of walking the schedule
    out = separation_run(0, baseline_provider(4096), 1, 100_000)
    assert out.status == "response_impossible"
    assert out.stages_used < 16


def test_separation_live_view_beyond_scale_62():
    # a legal provider with a length-70 description: the live view's integer
    # scale grows to cover it instead of failing on a negative shift
    rs = request_set([(70, 5, 3)] + [(12, y, y) for y in range(6, 300)])
    out = separation_run(1, provider_from_requests(rs, 0, 4096), 1, 100_000, x0=2)
    assert out.status in ("measure_exhausted", "budget_exhausted", "completed")
    assert len(out.sequence) >= 3
    assert out.claim_ok


def _registered_provider(seed: int, S: int, name: str = "query0") -> KProvider:
    extra = additive_requests(additive_from_real(left_ce_real(rng_for(seed, name), 100)))
    return register_requests(baseline_provider(S), extra, 3)


def _late_descriptions(*desc):
    """A provider whose only descriptions are ``desc``, (length, target, stage)
    triples; from x0 = 2 they arrive while the game is played."""
    return provider_from_requests(request_set(desc), 0, 1024)


@pytest.mark.parametrize(
    "provider, b, V, kw",
    [
        (lambda: baseline_provider(2048), 1, 100_000, {}),
        (lambda: _registered_provider(11, 2048), 1, 100_000, {}),
        (lambda: _late_descriptions((6, 1, 40)), 1, 3000, {"x0": 2}),
        (lambda: _late_descriptions((10, 1, 12), (10, 6, 20), (10, 8, 25)), 1, 3000, {"x0": 2}),
        (lambda: _SCHEDULE_FREE, 2, 3000, {"x0": 2}),
    ],
    ids=["baseline", "registered", "described below x0 late", "described element late",
         "schedule-free b=2"],
)
def test_separation_claim_ledger_matches_reference_provider(provider, b, V, kw):
    # the claim audit reads the run's live view; recompute every lhs from a
    # provider holding the same descriptions, with a horizon past the last element
    d = 1
    p = provider()
    out = separation_run(b, p, d, V, **kw)
    q = register_requests(p, out.requests, d)
    q = register_requests(
        q, request_set((length, w, stage - 1) for stage, w, length in out.grants), 0
    )
    q = KProvider(max(q.horizon, out.sequence[-1] + 1), q.grants, q.budget_used)
    assert len(out.sequence) >= 3 and out.claim_checks
    for pi, r, lhs, _rhs in out.claim_checks:
        s = out.sequence[pi + (1 << r)]
        expected = ZERO
        for w in range(out.sequence[pi] + 1, s + 1):
            kw = q.k(w, s)
            if kw is not None:
                expected += min(pow2(kw), pow2(out.k + b + d - r))
        assert lhs == expected, (pi, r)


def test_separation_shift_invariant_past_the_old_view_size():
    # a provider with no schedule of its own gives the game nothing that
    # depends on where it starts: a run from x0 = 16383 is the x0 = 2 run
    # shifted, well past any fixed size of the live view
    p = provider_from_requests(RequestSet(), 0, 1024)
    shift = 16381
    near = separation_run(1, p, 1, 3000, x0=2)
    far = separation_run(1, p, 1, 3000, x0=2 + shift)
    assert len(near.sequence) > 3 and near.grants
    assert far.status == near.status and far.stages_used == near.stages_used
    assert far.sequence == tuple(x + shift for x in near.sequence)
    assert far.grants == tuple((e + shift, w + shift, n) for e, w, n in near.grants)
    assert far.requests.entries == tuple(
        (r, y + shift, t + shift) for r, y, t in near.requests.entries
    )
    assert [c[2:] for c in far.claim_checks] == [c[2:] for c in near.claim_checks]


def _grant_length_ref(b, need):
    # unbounded search for the largest L with 2^b * 2^-L >= need + 2^-L; the
    # condition holds for every L up to the answer and fails beyond it
    best, cand = None, 0
    while pow2(cand) * (1 << b) >= need + pow2(cand):
        best, cand = cand, cand + 1
    return best


def test_grant_length_closed_form_matches_unbounded_search():
    for b in (0, 1, 2, 5, 9):
        for e in (0, 1, 2, 5, 61, 62, 63, 64, 129, 200):
            for need in (
                pow2(e),
                pow2(e) - pow2(e + 70),
                pow2(e) + pow2(e + 70),
                pow2(e) * Fraction(3, 4),
                pow2(e) * Fraction(5, 4),
                pow2(e) * Fraction(31, 32),
            ):
                if 0 < need <= 1:
                    scale = need.denominator.bit_length() - 1
                    assert _grant_length(b, need.numerator, scale) == _grant_length_ref(b, need), (b, need)


def test_separation_b5_grants_beyond_the_old_cap():
    # at b = 5, d = 1 each request has length k + d = 129, so the cheapest
    # covering grant is far longer than 61; recompute every grant from the
    # need a provider holding the run's descriptions shows at its stage
    b, d = 5, 1
    p = provider_from_requests(RequestSet(), 0, 1024)
    out = separation_run(b, p, d, 300, x0=2)
    assert out.claim_ok and out.grants
    assert out.declared_model_size == 2**out.k
    q = register_requests(p, out.requests, d)
    q = register_requests(
        q, request_set((length, w, stage - 1) for stage, w, length in out.grants), 0
    )
    q = KProvider(max(q.horizon, out.sequence[-1] + 3), q.grants, q.budget_used)
    ck, cm = cost_k(q), cost_max(q)
    for stage, _w, length in out.grants:
        c = stage - 2  # the stage whose response check asked for the grant
        x = next(x for x in out.sequence if x < c and cm(x, c) * (1 << b) < ck(x, c))
        assert length == _grant_length_ref(b, ck(x, c)) >= 64


def test_separation_lists_only_honored_requests():
    # the run ends measure_exhausted at the request step: the request the live
    # view refused is not listed, so the provider can hold everything listed
    b, d = 1, 1
    p = _registered_provider(11, 2048)
    out = separation_run(b, p, d, 100_000)
    assert out.status == "measure_exhausted"
    total = (
        p.budget_used
        + sum(pow2(r + d) for r, _y, _t in out.requests.entries)
        + sum(pow2(length) for _s, _w, length in out.grants)
    )
    assert total <= 1
    # one request per element but the last, just beyond it
    assert [y for _r, y, _t in out.requests.entries] == [x + 1 for x in out.sequence[:-1]]
    q = register_requests(p, out.requests, d)
    q = register_requests(
        q, request_set((length, w, stage - 1) for stage, w, length in out.grants), 0
    )
    assert q.budget_used == total
    q = KProvider(max(q.horizon, out.sequence[-1] + 1), q.grants, q.budget_used)
    for r, y, t in out.requests.entries:
        assert q.k(y, max(t + 1, y + 1)) <= r + d


def sum_value(index, x, s):
    """``sum_at``'s units as the rational they stand for."""
    return Fraction(index.sum_at(x, s), 1 << index.scale)


def reference_separation_run(b, p, d, V, *, x0=None, greedy=True):
    """The separation loop that asks the live index for each element's sum and
    least length beyond it at every check, with Fraction comparisons.  It
    records the stage of the provider's last event and the stage from which
    each description it makes, request or grant, takes effect, and idles
    while the latest lies beyond the current stage."""
    k = 1 << (b + d + 1)
    live = KIndex((g.target, g.length, g.omega_stage) for g in p.grants)
    stages = [stage for stage, _w, _old, _n in live.events[-1:]]

    def describe(w, n, t):
        live.merge([(w, n, t)])
        stages.append(max(t, w + 1))

    measure = p.budget_used
    if x0 is None:
        probe = 1
        while probe < p.horizon and sum_value(p.index, probe, p.horizon) > pow2(min(k + d + 2, 60)):
            probe <<= 1
        if probe >= p.horizon:
            raise ScheduleInsufficient("no cheap starting point below the horizon")
        x0 = probe
    seq = [x0]
    requests = []
    grants = []
    cur = x0 + 1
    status = "running"
    used = 0

    def pending():
        return max(stages, default=0) > cur

    while used < V and len(seq) - 1 < 1 << k:
        xv = seq[-1]
        if request_set(requests).weight + pow2(k) > 1 or measure + pow2(k + d) > 1:
            status = "measure_exhausted"
            break
        requests.append((k, xv + 1, cur))
        describe(xv + 1, k + d, cur + 1)
        measure += pow2(k + d)
        while sum_value(live, xv, cur) < pow2(k + d) and used < V:
            cur += 1
            used += 1
        if sum_value(live, xv, cur) < pow2(k + d):
            status = "budget_exhausted"
            break
        responded = False
        while used < V:
            cur += 1
            used += 1
            ok = True
            for x in seq:
                need = sum_value(live, x, cur)
                best = live.min_at(x, cur)
                if best is not None and pow2(best) * (1 << b) >= need:
                    continue
                ok = False
                if b == 0 and best is not None:
                    status = "response_impossible"
                    break
                if not greedy:
                    if not pending():
                        status = "budget_exhausted"
                    break
                if pending():
                    break
                L = _grant_length_ref(b, need)
                if L is None:
                    status = "response_impossible"
                    break
                if pow2(L) > 1 - measure:
                    status = "measure_exhausted"
                    break
                describe(cur + 1, L, cur + 2)
                measure += pow2(L)
                grants.append((cur + 2, cur + 1, L))
                break
            if status != "running":
                break
            if ok:
                seq.append(cur)
                responded = True
                break
        if status != "running":
            break
        if not responded:
            status = "budget_exhausted"
            break
    if status == "running":
        status = "budget_exhausted" if used >= V else "completed"
    checks = []
    for r in range(min(2, k) + 1):
        cap = k + b + d - r
        for pi in range(len(seq) - (1 << r)):
            s = seq[pi + (1 << r)]
            kws = (live.k(w, s) for w in range(seq[pi] + 1, s))
            lhs = sum((pow2(max(kw, cap)) for kw in kws if kw is not None), ZERO)
            checks.append((pi, r, lhs, (r + 1) * pow2(cap + 1)))
    return SeparationResult(
        k, 1 << k, tuple(seq), request_set(requests), tuple(grants), status, tuple(checks), used
    )


_SCHEDULE_FREE = provider_from_requests(RequestSet(), 0, 1024)


def _registered_baseline(*desc):
    """The baseline at horizon 1024 with ``desc`` registered, (length,
    target, stage) triples."""
    return register_requests(baseline_provider(1024), request_set(desc), 0)


@pytest.mark.parametrize(
    "case",
    [
        *[(f"baseline{S} b={b} d={d}", lambda S=S: baseline_provider(S), b, d, 100_000, {})
          for S in (1024, 4096) for b in (0, 1) for d in (0, 1)],
        *[(f"queries{i}", lambda i=i: _registered_provider(0, 2048, f"query{i}"), 1, 1, 100_000, {})
          for i in range(8)],
        ("registered11", lambda: _registered_provider(11, 2048), 1, 1, 100_000, {}),
        ("schedule-free b=0", lambda: _SCHEDULE_FREE, 0, 1, 3000, {"x0": 2}),
        ("schedule-free b=1", lambda: _SCHEDULE_FREE, 1, 1, 3000, {"x0": 2}),
        ("no opponent", lambda: baseline_provider(1024), 1, 1, 3000, {"greedy": False}),
        ("b=5", lambda: _SCHEDULE_FREE, 5, 1, 300, {"x0": 2}),
        ("x0=16383", lambda: _SCHEDULE_FREE, 1, 1, 3000, {"x0": 16383}),
        # a description of the element itself lies not beyond it
        ("described x0", lambda: provider_from_requests(request_set([(20, 2, 1)]), 0, 1024),
         0, 1, 3000, {"x0": 2}),
        # a target beyond x0 improves: its weight changes by the difference
        ("improved beyond x0", lambda: provider_from_requests(
            request_set([(6, 3, 1), (2, 3, 4)]), 0, 1024
        ), 0, 1, 3000, {"x0": 2}),
        ("length 70", lambda: provider_from_requests(
            request_set([(70, 5, 3)] + [(12, y, y) for y in range(6, 300)]), 0, 4096
        ), 1, 1, 100_000, {"x0": 2}),
        ("schedule-free b=2", lambda: _SCHEDULE_FREE, 2, 1, 3000, {"x0": 2}),
        # a description of a target below x0 arrives after x0 is chosen
        ("described below x0 late", lambda: _late_descriptions((6, 1, 40)), 1, 1, 3000,
         {"x0": 2}),
        # descriptions below x0 and between the elements 5 and 8, then of 8 itself
        ("described element late", lambda: _late_descriptions(
            (10, 1, 12), (10, 6, 20), (10, 8, 25)
        ), 1, 1, 3000, {"x0": 2}),
        # from x0 = 512 a b = 1 game on this baseline waits from stage 518 for
        # its last event, at stage 1024, in one jump; these cut the jump short
        ("jump cut by the budget", lambda: baseline_provider(1024), 1, 1, 300, {}),
        # 514, between the elements 512 and 515, gets length 3 at stage 601
        ("jump cut by an event below the last element", lambda: _registered_baseline(
            (3, 514, 600)
        ), 1, 1, 100_000, {"x0": 512}),
        # 700 gets length 3 from stage 701, shorter than the best 9 beyond 515
        ("jump cut by a shorter length", lambda: _registered_baseline((3, 700, 600)),
         1, 1, 100_000, {"x0": 512}),
        # the walk adds a run of baseline descriptions beyond the last element,
        # 515, in one step; each event below interrupts such a run and takes the
        # per-event body: 700 gets length 9 from stage 701, which the first
        # claim cap, 10, clips
        ("run holds a clipped length", lambda: _registered_baseline((9, 700, 600)),
         1, 1, 100_000, {"x0": 512}),
        # 514, between the elements 512 and 515, gets length 10 from stage 601
        ("run holds an event below the last element", lambda: _registered_baseline(
            (10, 514, 600)
        ), 1, 1, 100_000, {"x0": 512}),
        # 300, below x0, gets length 9 from stage 600
        ("run holds an event below x0", lambda: _registered_baseline((9, 300, 600)),
         1, 1, 100_000, {"x0": 512}),
        # at stage 1030, 1002 gets length 4 amid lengths 12 beyond the last
        # element: the jump stops before it, and the walk of stage 1030 takes
        # it in the body and the rest as a run
        ("run holds a shorter length", lambda: _registered_baseline(
            *[(4 if y == 1002 else 12, y, 1030) for y in range(1000, 1006)], (12, 1100, 1200)
        ), 1, 1, 100_000, {"x0": 512}),
        # the last ten events, at stage 1030, form one run
        ("run reaches the end of the events", lambda: _registered_baseline(
            *[(12, y, 1030) for y in range(1000, 1010)]
        ), 1, 1, 100_000, {"x0": 512}),
        # the measure left is 1/3 of a unit of 2^-10 above the weight of a
        # request, then of a grant, when the run asks for it: the floored room
        # grants it as the rational does
        ("measure at a request's boundary", lambda: KProvider(
            1024, (), 1 - Fraction(49, 3072)
        ), 1, 1, 3000, {"x0": 2}),
        ("measure at a grant's boundary", lambda: KProvider(
            1024, (), 1 - Fraction(43, 3072)
        ), 1, 1, 3000, {"x0": 2}),
        ("budget 1/3", lambda: KProvider(1024, (), Fraction(1, 3)), 1, 1, 3000, {"x0": 2}),
    ],
    ids=lambda case: case[0],
)
def test_separation_matches_reference_loop(case):
    _name, provider, b, d, V, kw = case
    p = provider()
    assert separation_run(b, p, d, V, **kw) == reference_separation_run(b, p, d, V, **kw)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(6, 40), st.integers(0, 40), st.integers(0, 60)), max_size=12),
    st.integers(0, 2),
    st.booleans(),
)
# the second description of 0 improves nothing: no event is left pending for it
@example(schedule=[(6, 0, 0), (6, 0, 11)], b=1, greedy=True)
def test_separation_matches_reference_loop_on_random_schedules(schedule, b, greedy):
    # from x0 = 2 the descriptions land below x0, between elements, on
    # elements and beyond the last one while the game is played
    p = provider_from_requests(request_set(sorted(schedule, key=lambda e: e[2])), 0, 64)
    kw = {"x0": 2, "greedy": greedy}
    assert separation_run(b, p, 1, 200, **kw) == reference_separation_run(b, p, 1, 200, **kw)


def test_claim_ok_fails_on_a_claim_one_unit_short():
    res = separation_run(1, baseline_provider(1024), 1, 20_000)
    assert res.claim_ok and res.claim_checks
    p, r, _lhs, rhs = res.claim_checks[-1]
    head = res.claim_checks[:-1]
    assert replace(res, claim_checks=head + ((p, r, rhs, rhs),)).claim_ok
    assert not replace(res, claim_checks=head + ((p, r, rhs - pow2(60), rhs),)).claim_ok


def test_separation_deterministic():
    p = baseline_provider(1024)
    a = separation_run(1, p, 1, 20_000)
    b = separation_run(1, p, 1, 20_000)
    assert a == b


def test_constructions_deterministic():
    c = geometric_cost(300)
    rng1 = rng_for(4, "det")
    rng2 = rng_for(4, "det")
    u1 = universe(rng1, 8, 300)
    u2 = universe(rng2, 8, 300)
    t1, _ = build_simple(c, u1, 300)
    t2, _ = build_simple(c, u2, 300)
    assert t1.events == t2.events
