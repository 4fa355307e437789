"""Look-ahead transformations: rule replays and dual-ledger comparisons."""

from dataclasses import replace
from fractions import Fraction

import pytest

from costlab.catalog import LeftCEReal, additive_from_real, cost_k, cost_omega
from costlab.core import (
    ApproximationTrace,
    EnumerationTrace,
    cost_of_trace,
    geometric_cost,
)
from costlab.errors import Mismatch, NoWitness, StageSeqExhausted
from costlab.generate import (
    additive_grid_cost,
    approximation_trace,
    dominated_cost_pair,
    left_ce_real,
    monotone_cost,
    rng_for,
    strict_left_ce_real,
    trace_with_final,
)
from costlab.machine import baseline_provider
from costlab.transforms import (
    IbTFunctional,
    change_set,
    conjoin,
    constant_functional,
    decide_from_cost,
    decode_change_set,
    ibT_transfer,
    identity_functional,
    implication_transfer,
    join,
    normalize_zero_before_diagonal,
    omega_ce_bound,
    same_real_transfer,
    to_enumeration,
    trim,
)
from costlab.util import ZERO, pow2
from unit_costs import units_cost


def test_trim_identity_when_already_cheap():
    c = geometric_cost(20)
    a = ApproximationTrace(20, [(5, 10, 1)])
    assert trim(a, c, Fraction(1)) is a
    empty = ApproximationTrace(20)
    assert trim(empty, c, Fraction(1, 100)) is empty


def test_trim_removes_expensive_low_change():
    c = geometric_cost(20)
    a = ApproximationTrace(20, [(3, 0, 1)])
    t = trim(a, c, Fraction(1, 2))
    assert t.final_set() == a.final_set()
    assert cost_of_trace(c, t).total == 0
    assert t.initial == frozenset({0})


def test_trim_achieves_any_epsilon():
    # the epsilon fact: same final set below any positive bound
    for seed in range(10):
        rng = rng_for(seed, "trim")
        c = additive_from_real(left_ce_real(rng, 60))
        a = approximation_trace(rng, 60, 24, 8)
        for eps in (Fraction(1, 4), Fraction(1, 64), Fraction(1, 2**12)):
            t = trim(a, c, eps)
            assert t.final_set() == a.final_set()
            assert cost_of_trace(c, t).total < eps


def test_trim_succeeds_even_under_flat_costs():
    # every charged position lies below the horizon, so a cutoff above the
    # last charge always exists; the CutoffNotFound branch is defensive
    flat = units_cost(
        "flat", 20, lambda x, s: Fraction(1) if x <= s else ZERO, 1,
        monotone_main=True, monotone_stage=True,
    )
    a = ApproximationTrace(20, [(5, 3, 1), (9, 6, 1)])
    t = trim(a, flat, Fraction(1, 2))
    assert cost_of_trace(flat, t).total == 0
    assert t.final_set() == a.final_set()


def test_to_enumeration_identity_case():
    b = EnumerationTrace(20, [(3, 1, 1), (7, 4, 1)])
    out = to_enumeration(b, b)
    assert out.final_set() == b.final_set()
    assert out.is_enumeration


def test_to_enumeration_flicker_settles_once():
    a = ApproximationTrace(20, [(2, 3, 1), (4, 3, 0), (6, 3, 1)])
    b = EnumerationTrace(20, [(10, 3, 1)])
    out = to_enumeration(a, b)
    assert out.final_set() == frozenset({3})
    assert out.change_count(3) == 1


def test_to_enumeration_keeps_initial_positions_without_events():
    # x = 3 is in the set from stage 0 on, so the enumeration needs no event for it
    out = to_enumeration(ApproximationTrace(10, [], {3}), EnumerationTrace(10, [], {3}))
    assert out.initial == frozenset({3}) and out.events == ()
    a = ApproximationTrace(10, [(2, 3, 0), (4, 3, 1), (5, 6, 1)], {3})
    out = to_enumeration(a, EnumerationTrace(10, [(7, 6, 1)], {3}))
    assert out.final_set() == frozenset({3, 6}) and out.events == ((5, 6, 1),)


def test_to_enumeration_never_costlier():
    for seed in range(12):
        rng = rng_for(seed, "toenum")
        c = monotone_cost(rng, 80)
        final = frozenset(rng.sample(range(30), 6))
        a = trace_with_final(rng, 80, final, 30, 40)
        stages = sorted(rng.sample(range(41, 80), len(final)))
        b = EnumerationTrace(
            80, sorted(((s, x, 1) for s, x in zip(stages, sorted(final))), key=lambda e: e[0])
        )
        out = to_enumeration(a, b)
        assert out.final_set() == final
        assert cost_of_trace(c, out).total <= cost_of_trace(c, a).total


def test_to_enumeration_mismatch():
    a = ApproximationTrace(10, [(2, 1, 1)])
    b = EnumerationTrace(10, [(2, 2, 1)])
    with pytest.raises(Mismatch):
        to_enumeration(a, b)


def test_change_set_rule_replay():
    from costlab.util import cantor_pair

    assert len(change_set(ApproximationTrace(10)).events) == 0
    a = ApproximationTrace(10, [(2, 4, 1), (5, 4, 0)])
    cs = change_set(a)
    assert cs.final_set() == {cantor_pair(4, 0), cantor_pair(4, 1)}
    assert decode_change_set(cs) == a.final_set() == frozenset()


def test_change_set_ledger_and_decode_randomized():
    for seed in range(15):
        rng = rng_for(seed, "cs")
        c = monotone_cost(rng, 60)
        a = approximation_trace(rng, 60, 24, 7)
        cs = change_set(a)
        assert decode_change_set(cs) == a.final_set()
        assert cost_of_trace(c, cs).total <= cost_of_trace(c, a).total


def test_join_even_coding():
    a = ApproximationTrace(10, [(2, 3, 1)])
    empty = ApproximationTrace(10)
    j = join(a, empty)
    assert j.final_set() == frozenset({6})
    both = join(a, ApproximationTrace(10, [(4, 5, 1)]))
    assert both.final_set() == frozenset({6, 11})


def test_join_ledger_inequality_randomized():
    for seed in range(15):
        rng = rng_for(seed, "join")
        c = monotone_cost(rng, 60)
        a = approximation_trace(rng, 60, 20, 6)
        b = approximation_trace(rng, 60, 20, 6)
        j = join(a, b)
        assert (
            cost_of_trace(c, j).total
            <= cost_of_trace(c, a).total + cost_of_trace(c, b).total
        )


def test_ibt_identity_functional_cost_bounded():
    for seed in range(10):
        rng = rng_for(seed, "ibt")
        c = monotone_cost(rng, 120)
        b = trace_with_final(rng, 120, frozenset(rng.sample(range(30), 5)), 30, 60)
        r = ibT_transfer(identity_functional(), b, c)
        assert r.ok
        assert r.trace.final_set() == b.final_set()


def test_ibt_constant_functional_zero_cost():
    rng = rng_for(3, "ibt-const")
    c = geometric_cost(60)
    b = approximation_trace(rng, 60, 20, 5)
    r = ibT_transfer(constant_functional(0), b, c)
    assert cost_of_trace(c, r.trace).total == 0
    assert r.trace.final_set() == frozenset()


def test_ibt_windowed_table_functional():
    def rule(bit, x):
        return (bit(x) ^ (bit(max(x - 1, 0)) & 1)) & 1

    g = IbTFunctional("xor-window", rule, lambda x: x + 1, window=1)
    for seed in range(8):
        rng = rng_for(seed, "ibt-win")
        c = monotone_cost(rng, 100)
        b = trace_with_final(rng, 100, frozenset(rng.sample(range(25), 4)), 25, 50)
        r = ibT_transfer(g, b, c)
        assert r.ok


def test_ibt_stage_seq_exhausted():
    g = IbTFunctional("slow", lambda bit, x: 0, lambda x: 10**6, window=0)
    b = ApproximationTrace(20, [(2, 1, 1)])
    with pytest.raises(StageSeqExhausted):
        ibT_transfer(g, b, geometric_cost(20))


def test_conjoin_same_trace_bound():
    rng = rng_for(4, "conj")
    c = additive_grid_cost(rng, 80, "c")
    d = additive_grid_cost(rng, 80, "d")
    e = trace_with_final(rng, 80, frozenset({2, 5}), 20, 40)
    r = conjoin(e, e, c, d)
    assert r.ok
    assert r.output_total <= 4 + cost_of_trace(c, e).total + cost_of_trace(d, e).total


def test_look_ahead_ok_holds_at_the_bound_and_fails_one_unit_over():
    rng = rng_for(4, "conj")
    c = additive_grid_cost(rng, 80, "c")
    d = additive_grid_cost(rng, 80, "d")
    e = trace_with_final(rng, 80, frozenset({2, 5}), 20, 40)
    r = conjoin(e, e, c, d)
    assert r.bound >= 4
    assert replace(r, output_total=r.bound).ok
    assert not replace(r, output_total=r.bound + pow2(60)).ok


def test_conjoin_empty_final_zero_cost():
    rng = rng_for(5, "conj-empty")
    c = additive_grid_cost(rng, 60, "c")
    d = additive_grid_cost(rng, 60, "d")
    e = trace_with_final(rng, 60, frozenset(), 16, 30)
    f = trace_with_final(rng, 60, frozenset(), 16, 30)
    r = conjoin(e, f, c, d)
    assert r.trace.final_set() == frozenset()
    assert r.ok


def test_conjoin_adversarial_flicker():
    events_e = []
    events_f = []
    for s in range(1, 30, 2):
        events_e.append((s, 0, 1))
        events_e.append((s + 1, 0, 0))
    events_e.append((31, 0, 1))
    for s in range(2, 30, 2):
        events_f.append((s, 0, 1))
        events_f.append((s + 1, 0, 0))
    events_f.append((32, 0, 1))
    e = ApproximationTrace(40, events_e)
    f = ApproximationTrace(40, events_f)
    c = geometric_cost(40)
    r = conjoin(e, f, c, c)
    assert r.ok and r.trace.final_set() == frozenset({0})


def test_conjoin_mismatch():
    e = ApproximationTrace(10, [(2, 1, 1)])
    f = ApproximationTrace(10, [(2, 2, 1)])
    with pytest.raises(Mismatch):
        conjoin(e, f, geometric_cost(10), geometric_cost(10))


def test_normalization_is_cost_neutral():
    for seed in range(10):
        rng = rng_for(seed, "norm")
        c = monotone_cost(rng, 50)
        a = approximation_trace(rng, 50, 20, 6)
        n = normalize_zero_before_diagonal(a)
        assert n.final_set() == a.final_set()
        assert cost_of_trace(c, n).total == cost_of_trace(c, a).total
        for x in n.positions():
            for s in range(min(x, 50)):
                assert n.value(x, s) == 0


def test_implication_same_cost_doubled():
    rng = rng_for(6, "impl")
    c, _ = dominated_cost_pair(rng, 80, 2)
    a = trace_with_final(rng, 80, frozenset({1, 4}), 16, 40)
    r = implication_transfer(a, c, c, 2)
    assert r.ok
    assert r.output_total <= 2 * cost_of_trace(c, a).total


def test_implication_zero_target():
    zero = units_cost(
        "zero", 60, lambda x, s: ZERO, 1, monotone_main=True, monotone_stage=True
    )
    rng = rng_for(7, "impl0")
    c, _ = dominated_cost_pair(rng, 60, 1)
    a = trace_with_final(rng, 60, frozenset({2}), 10, 30)
    r = implication_transfer(a, c, zero, 1)
    assert r.output_total == 0


def test_implication_exhausts_without_domination():
    p = baseline_provider(48)
    ck, co = cost_k(p), cost_omega(p)
    a = ApproximationTrace(48, [(30, 2, 1)])
    with pytest.raises(StageSeqExhausted):
        implication_transfer(a, ck, co, 1)


def test_omega_ce_bound_geometric():
    c = geometric_cost(30)
    a = ApproximationTrace(30, [(1, 0, 1)])  # total cost exactly 1
    assert cost_of_trace(c, a).total == 1
    out = omega_ce_bound(a, c, 10)
    assert out.ok
    assert all(out.bound(x) == 2**x for x in range(11))


def test_omega_ce_bound_no_changes():
    out = omega_ce_bound(ApproximationTrace(20), geometric_cost(20), 8)
    assert out.ok and all(v == 0 for v in out.bounds.values())


def test_omega_ce_bound_randomized():
    for seed in range(10):
        rng = rng_for(seed, "wce")
        c = additive_from_real(strict_left_ce_real(rng, 50))
        a = approximation_trace(rng, 50, 20, 6)
        assert omega_ce_bound(a, c, 20).ok


def test_same_real_identity():
    rng = rng_for(8, "sr")
    a = left_ce_real(rng, 60)
    ta = EnumerationTrace(60, [(10, 2, 1), (20, 5, 1)])
    out = same_real_transfer(a, a, ta)
    assert out.ok
    assert out.exceptions is not None


def test_same_real_ok_holds_at_the_bound_and_fails_one_unit_over():
    rng = rng_for(8, "sr")
    a = left_ce_real(rng, 60)
    out = same_real_transfer(a, a, EnumerationTrace(60, [(10, 2, 1), (20, 5, 1)]))
    assert out.bound > 0
    assert replace(out, output_total=out.bound).ok
    assert not replace(out, output_total=out.bound + pow2(60)).ok


def test_same_real_shifted():
    rng = rng_for(9, "sr2")
    base = left_ce_real(rng, 61)
    a = LeftCEReal.of(base.seq[:61], base.cap)
    b = LeftCEReal.of(base.seq[1:62], base.cap)  # runs one stage ahead
    ta = EnumerationTrace(60, [(15, 3, 1), (30, 8, 1)])
    out = same_real_transfer(a, b, ta)
    assert out.ok
    ks = sorted(out.f)
    assert all(out.f[i] < out.f[j] for i, j in zip(ks, ks[1:]))


def test_same_real_ledger_randomized():
    for seed in range(10):
        rng = rng_for(seed, "sr3")
        a = left_ce_real(rng, 80)
        b = a  # same approximation: sequence trivially synchronizes
        ta = approximation_trace(rng, 80, 20, 5)
        out = same_real_transfer(a, b, ta)
        assert out.ok


def test_decide_from_cost_cases():
    c = geometric_cost(40)
    a = ApproximationTrace(40, [(5, 2, 1), (9, 6, 1)])
    total = cost_of_trace(c, a).total
    assert decide_from_cost(c, a, total, 2) == 1
    assert decide_from_cost(c, a, total, 3) == 0
    with pytest.raises(ValueError):
        decide_from_cost(c, a, total + 1, 2)


def test_decide_from_cost_changing_position():
    c = geometric_cost(40)
    a = ApproximationTrace(40, [(3, 1, 1), (6, 1, 0), (7, 5, 1)])
    total = cost_of_trace(c, a).total
    assert decide_from_cost(c, a, total, 1) == 0


def test_decide_from_cost_no_witness():
    zero = units_cost(
        "zero", 20, lambda x, s: ZERO, 1, monotone_main=True, monotone_stage=True
    )
    a = ApproximationTrace(20, [(2, 1, 1)])
    with pytest.raises(NoWitness):
        decide_from_cost(zero, a, ZERO, 1)
