"""Cost functions, traces, ledgers, and the finite-horizon property checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costlab.catalog import LeftCEReal, additive_from_real, cost_k, cost_omega
from costlab.constructions import build_simple
from costlab.core import (
    ApproximationTrace,
    CostLedger,
    EnumerationTrace,
    benign_witness,
    check_monotone,
    check_proper,
    cost_of_trace,
    geometric_cost,
    limit_estimate,
    obeys_at_horizon,
)
from costlab.generate import approximation_trace, left_ce_real, monotone_cost, rng_for, universe
from costlab.machine import baseline_provider
from costlab.util import ZERO, pow2
from unit_costs import units_cost


def max_chain_brute(c, n, S):
    """Exhaustive longest-chain search: the small-instance oracle for the greedy."""
    threshold = pow2(n)
    best = {s: 0 for s in range(S + 1)}
    for x in range(S, -1, -1):
        for s in range(x + 1, S + 1):
            if c(x, s) >= threshold:
                best[x] = max(best[x], 1 + best[s])
    return best[0] if best else 0


def test_empty_trace_costs_nothing():
    c = geometric_cost(10)
    ledger = cost_of_trace(c, ApproximationTrace(10))
    assert ledger.total == 0 and ledger.charges == ()
    assert obeys_at_horizon(c, ApproximationTrace(10), Fraction(0))


def test_least_position_charged_once_per_stage():
    c = geometric_cost(10)
    a = ApproximationTrace(10, [(6, 2, 1), (6, 5, 1)])
    ledger = cost_of_trace(c, a)
    assert ledger.charges == ((6, 2, Fraction(1, 4)),)
    assert ledger.total == Fraction(1, 4)


def test_additive_single_change_total():
    # oracle by hand: beta_3 - beta_0 = (1 - 1/8) - 0 = 7/8
    beta = LeftCEReal.of(tuple(1 - pow2(s) for s in range(11)))
    c = additive_from_real(beta)
    a = ApproximationTrace(10, [(3, 0, 1)])
    assert cost_of_trace(c, a).total == Fraction(7, 8)


def test_change_at_diagonal_is_free():
    c = geometric_cost(10)
    a = ApproximationTrace(10, [(4, 4, 1), (4, 7, 1)])
    assert cost_of_trace(c, a).total == 0


def test_ledger_replay_reproduces_total():
    rng = rng_for(1)
    c = monotone_cost(rng, 60)
    a = approximation_trace(rng, 60, 30, 8)
    ledger = cost_of_trace(c, a)
    assert sum((amt for _s, _x, amt in ledger.charges), ZERO) == ledger.total
    assert ledger.partial(60) == ledger.total


def test_monotone_horizon_extension_never_cheaper():
    rng = rng_for(2)
    events = approximation_trace(rng, 40, 20, 6).events
    c = geometric_cost(100)
    small = cost_of_trace(c, ApproximationTrace(40, events))
    large = cost_of_trace(c, ApproximationTrace(80, events))
    assert large.total >= small.total


def test_negative_cost_rejected_at_construction():
    with pytest.raises(ValueError):
        units_cost("bad", 8, lambda x, s: Fraction(s - x), 1, monotone_stage=False)


def test_nonzero_above_diagonal_rejected_when_declared():
    with pytest.raises(ValueError):
        units_cost("bad", 8, lambda x, s: Fraction(1), 1, monotone_stage=True)


def test_check_monotone_geometric_passes():
    report = check_monotone(geometric_cost(24), 24, 24)
    assert report.ok and report.checked == 25 * 25


def test_check_monotone_reports_a_single_fall_in_s():
    # c falls by 4/64 a step in x and rises by 1/64 a step in s, except at
    # (2, 4), set 2/64 low: below c(2, 3) and still above c(3, 4)
    def ev(x, s):
        if x > s:
            return ZERO
        return Fraction(4 * (7 - x) + s - (2 if (x, s) == (2, 4) else 0), 64)

    report = check_monotone(units_cost("one-fall", 6, ev, 64), 6, 6)
    assert report.stage_violations == ((2, 3),)
    assert report.main_violations == () and report.diagonal_violations == ()


def test_check_monotone_complexity_sum_passes():
    from costlab.catalog import cost_k

    p = baseline_provider(24)
    assert check_monotone(cost_k(p), 24, 24).ok


def test_check_proper_geometric_witness():
    report = check_proper(geometric_cost(16), 10)
    assert report.all_witnessed
    assert all(report.witnesses[x] == x for x in range(11))


def test_check_proper_zero_unwitnessed():
    c = units_cost("zero", 16, lambda x, s: ZERO, 1, monotone_main=True, monotone_stage=True)
    report = check_proper(c, 8)
    assert not report.all_witnessed
    assert all(t is None for t in report.witnesses.values())


def test_check_proper_strict_additive():
    beta = LeftCEReal.of(tuple(Fraction(s, 32) for s in range(17)), Fraction(1))
    report = check_proper(additive_from_real(beta), 10)
    assert all(report.witnesses[x] == x + 1 for x in range(11))


def test_limit_estimate_geometric():
    c = geometric_cost(32)
    assert limit_estimate(c, 5) == pow2(5)
    assert limit_estimate(c, 32) == 0
    assert limit_estimate(c, 100) == 0


def test_limit_estimate_domain_measure():
    p = baseline_provider(32)
    co = cost_omega(p)
    assert limit_estimate(co, 4) == p.omega(32) - p.omega(4)


def test_limit_estimate_antitone_for_monotone():
    rng = rng_for(3)
    c = monotone_cost(rng, 40)
    values = [limit_estimate(c, x) for x in range(20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_limit_estimate_tail_window_for_nonmonotone():
    def ev(x, s):
        return Fraction(1, 2) if s % 2 == 0 else Fraction(1, 4)

    c = units_cost("wobble", 16, ev, 4)
    assert limit_estimate(c, 3) == Fraction(1, 4)


def test_benign_zero_cost_chain_empty():
    c = units_cost("zero", 16, lambda x, s: ZERO, 1, monotone_main=True, monotone_stage=True)
    assert benign_witness(c, 3, 16).k == 0


def test_benign_greedy_matches_brute_force():
    for seed in range(8):
        rng = rng_for(seed, "benign")
        c = additive_from_real(left_ce_real(rng, 14))
        for n in range(4):
            greedy = benign_witness(c, n, 14).k
            assert greedy == max_chain_brute(c, n, 14)


def test_benign_chain_matches_scanning_greedy():
    # reference: scan from every link up to S, without the c(x, S) test
    def scanning_greedy(c, n, S):
        chain = [0]
        while True:
            x = chain[-1]
            nxt = next((s for s in range(x + 1, S + 1) if c(x, s) >= pow2(n)), None)
            if nxt is None:
                return tuple(chain)
            chain.append(nxt)

    costs = [geometric_cost(8), geometric_cost(40), cost_k(baseline_provider(300))]
    costs += [monotone_cost(rng_for(seed, "chain"), 120) for seed in range(2)]
    costs += [additive_from_real(left_ce_real(rng_for(seed, "chain"), 60)) for seed in range(4)]
    for c in costs:
        for S in (c.horizon, c.horizon // 2):
            for n in range(10):
                assert benign_witness(c, n, S).chain == scanning_greedy(c, n, S)


@pytest.mark.parametrize(
    "gap, S",
    [(23, 23), (5, 23), (1, 9), (7, 64), (64, 64), (3, 4)],
    ids=["one link at S", "last probe at S misses", "gap 1", "gap 7", "gap 64", "gap 3 to 4"],
)
def test_benign_chain_gallops_within_its_evaluation_bound(gap, S):
    # c(x, s) = 1 exactly when s - x >= gap, so at n = 0 the chain steps by
    # gap and ends where fewer than gap stages remain before S
    evals = []

    def ev(x, s):
        evals.append((x, s))
        return Fraction(int(s - x >= gap))

    c = units_cost("gap", S, ev, 1, monotone_main=True, monotone_stage=True)
    evals.clear()
    chain = benign_witness(c, 0, S).chain
    assert chain == tuple(range(0, S + 1, gap))
    # a link with gap g takes at most 2 ceil(log2 g) + 1 evaluations, and the
    # miss at S that ends a chain short of S ceil(log2(S - x)) + 1
    bound = (len(chain) - 1) * (2 * (gap - 1).bit_length() + 1)
    if chain[-1] < S:
        bound += (S - chain[-1] - 1).bit_length() + 1
    assert len(evals) <= bound
    assert all(x in chain and x < s <= S for x, s in evals)


def test_trace_rejects_noop_events():
    with pytest.raises(ValueError):
        ApproximationTrace(10, [(2, 1, 0)])
    with pytest.raises(ValueError):
        ApproximationTrace(10, [(2, 1, 1), (3, 1, 1)])


def test_trace_from_values_normalizes():
    a = ApproximationTrace.from_values(10, [(2, 1, 1), (3, 1, 1), (5, 1, 0)])
    assert a.events == ((2, 1, 1), (5, 1, 0))
    assert a.final_set() == frozenset()


def test_enumeration_rejects_removal():
    with pytest.raises(ValueError):
        EnumerationTrace(10, [(2, 1, 1), (4, 1, 0)])


def test_snapshot_and_value_agree():
    a = ApproximationTrace(10, [(2, 3, 1), (4, 3, 0), (5, 1, 1)], initial={7})
    for s in range(11):
        snap = a.snapshot(s)
        for x in (0, 1, 3, 7):
            assert (x in snap) == (a.value(x, s) == 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ledger_totals_are_exact_sums(seed):
    rng = rng_for(seed, "hyp-ledger")
    c = additive_from_real(left_ce_real(rng, 30))
    a = approximation_trace(rng, 30, 16, 5)
    ledger = cost_of_trace(c, a)
    assert sum((amt for _s, _x, amt in ledger.charges), ZERO) == ledger.total
    assert all(x < s for s, x, _amt in ledger.charges)


def test_ledger_check_sees_one_unit_of_its_finest_charge_at_den_2_10000():
    # the existence scenario's ledger: geometric cost over den 2^10000
    c = geometric_cost(10_000)
    trace, _ = build_simple(c, universe(rng_for(1, "universe7"), 32, 10_000), 10_000)
    ledger = cost_of_trace(c, trace)
    unit = Fraction(1, max(a.denominator for _s, _x, a in ledger.charges))
    assert unit == Fraction(1, 2**2441)  # the finest of the 16 seed-1 universes
    assert CostLedger(ledger.charges, ledger.total) == ledger
    for off in (unit, -unit, unit / 2, Fraction(1, 3)):
        with pytest.raises(ValueError, match="ledger total does not match the charges"):
            CostLedger(ledger.charges, ledger.total + off)


def test_ledger_check_over_mixed_denominators():
    charges = ((2, 0, Fraction(1, 3)), (3, 1, Fraction(1, 4)), (5, 2, Fraction(5, 6)))
    assert CostLedger(charges, Fraction(17, 12)).total == Fraction(17, 12)
    for total in (Fraction(17, 12) + Fraction(1, 12), Fraction(17, 16), Fraction(3, 2)):
        with pytest.raises(ValueError, match="ledger total does not match the charges"):
            CostLedger(charges, total)


amounts = st.builds(
    Fraction,
    st.integers(0, 2**70),
    st.one_of(st.integers(0, 200).map(lambda k: 2**k), st.integers(1, 10**6)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(amounts, max_size=12), st.integers(0, 250))
def test_ledger_check_is_the_exact_sum(values, k):
    charges = tuple((s + 1, s, a) for s, a in enumerate(values))
    total = sum(values, ZERO)
    assert CostLedger(charges, total).total == total
    with pytest.raises(ValueError, match="ledger total does not match the charges"):
        CostLedger(charges, total + Fraction(1, 2**k))
