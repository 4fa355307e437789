"""Oracle-relative cost machinery and the dual construction."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from costlab.core import EnumerationTrace
from costlab.dual import (
    CostFunctional,
    TotalCostFunctional,
    Wish,
    audit_diagonalization,
    audit_dual,
    dual_construct,
    gamma_eval,
    halting_cost,
    hat_sup,
    nondeficiency_stages,
    oracle_from_set,
    totalize,
)
from costlab.generate import dual_inputs, dual_inputs_scripted, rng_for
from costlab.util import pow2


def test_totalize_already_total():
    c = CostFunctional("base", lambda bit, x, t: (1 << (15 - x), 1, 0), 1 << 16)
    tc = totalize(c)
    assert tc.value(oracle_from_set(frozenset()), 3, 10) == pow2(4)


def test_totalize_never_converging():
    c = CostFunctional("never", lambda bit, x, t: None, 1)
    tc = totalize(c)
    for s in range(6):
        assert tc.value(oracle_from_set(frozenset()), 2, s) == 0


def test_totalize_delayed_convergence():
    def fn(bit, x, t):
        return (1, 1, 5)  # value 1/4 known, but only after 5 steps

    tc = totalize(CostFunctional("delayed", fn, 4))
    bit = oracle_from_set(frozenset())
    assert tc.value(bit, 0, 4) == 0
    assert tc.value(bit, 0, 5) == Fraction(1, 4)
    assert tc.value(bit, 0, 9) == Fraction(1, 4)


def test_nondeficiency_increasing_enumeration():
    d = EnumerationTrace(20, [(2, 1, 1), (5, 3, 1), (9, 7, 1)])
    assert nondeficiency_stages(d) == {2, 5, 9}


def test_nondeficiency_out_of_order_entry():
    d = EnumerationTrace(20, [(2, 5, 1), (6, 1, 1)])
    assert nondeficiency_stages(d) == {6}


def test_hat_sup_restrains_use_below_least_entry():
    # stage 3 enters 6 and 2, so a use of 4 is restrained there; stage 7 enters 8
    d = EnumerationTrace(10, [(3, 6, 1), (3, 2, 1), (7, 8, 1)])
    den = math.lcm(*range(1, 11))
    c = TotalCostFunctional("inverse-stage", lambda bit, x, s: (den // s, 4), den)
    assert nondeficiency_stages(d) == {3, 7}
    assert hat_sup(c, d, 0) == Fraction(1, 7)


def test_nondeficiency_empty():
    assert nondeficiency_stages(EnumerationTrace(20)) == frozenset()


@settings(max_examples=200, deadline=None)
@given(
    hst.lists(
        hst.tuples(hst.integers(1, 12), hst.integers(0, 30)),
        max_size=20,
        unique_by=lambda entry: entry[1],
    )
)
def test_nondeficiency_stages_match_definition(entries):
    # a stage qualifies when no later stage enters an element below the least
    # element entering at it
    d = EnumerationTrace(12, sorted((s, x, 1) for s, x in entries))
    expected = {
        s
        for s, _x in entries
        if all(
            xx >= min(y for ss, y in entries if ss == s)
            for ss, xx in entries
            if ss > s
        )
    }
    assert nondeficiency_stages(d) == expected


def test_hat_sup_oracle_free():
    c = TotalCostFunctional("plain", lambda bit, x, s: ((1 << (7 - x)) * min(s, 4), 0), 1 << 8)
    d = EnumerationTrace(20, [(2, 1, 1), (8, 3, 1)])
    assert hat_sup(c, d, 1) == pow2(2) * 4


def test_hat_sup_respects_use_discipline():
    # wide computations are not hat-valid at stages entering small elements
    d = EnumerationTrace(20, [(2, 10, 1), (8, 20, 1)])
    wide = TotalCostFunctional("wide", lambda bit, x, s: (16 - s, 16), 8)
    assert hat_sup(wide, d, 0) == Fraction(1)  # only the stage entering 20 counts
    narrow = TotalCostFunctional("narrow", lambda bit, x, s: (16 - s, 1), 8)
    assert hat_sup(narrow, d, 0) == Fraction(14, 8)


def test_hat_sup_empty_domain():
    c = TotalCostFunctional("plain", lambda bit, x, s: (1, 0), 1)
    assert hat_sup(c, EnumerationTrace(20), 0) == 0


def _simple_dual(seed=0, entrants=24, reqs=4, S=8000):
    rng = rng_for(seed, "dual-test")
    order, phis, c = dual_inputs_scripted(rng, entrants, reqs, S)
    return dual_construct(c, order, phis, S), phis


def test_dual_live_wishes_strictly_improve():
    st, _phis = _simple_dual()
    surviving = {}
    for w in st.wishes:
        if w.removed is None:
            surviving.setdefault(w.x, []).append((w.born, w.alpha))
    for x, pairs in surviving.items():
        alphas = [a for _b, a in sorted(pairs)]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))


def test_dual_held_budget_every_stage():
    for seed in range(6):
        st, _ = _simple_dual(seed)
        for _s, e, total in st.held_history:
            assert total <= Fraction(1, 3**e)


def test_dual_gamma_examples():
    st, _ = _simple_dual(1)
    # no wishes about an unpriced position
    assert gamma_eval(st, 4000, st.horizon) == 0
    granted = [w for w in st.wishes if w.removed is None]
    if granted:
        w = max(granted, key=lambda w: w.alpha)
        assert gamma_eval(st, w.x, st.horizon) >= w.alpha


def test_dual_gamma_monotone_grid():
    for seed in range(6):
        st, _ = _simple_dual(seed)
        assert audit_dual(st).gamma_monotone


def test_dual_halting_ledger_bound():
    for seed in range(8):
        st, _ = _simple_dual(seed)
        assert halting_cost(st) <= Fraction(3, 2)


def test_dual_diagonalization_and_justified_cancellations():
    for seed in range(6):
        st, phis = _simple_dual(seed)
        assert audit_diagonalization(st, phis)
        assert all(n < v for _s, _e, v, n in st.cancellations)


def test_dual_quiet_halting_set_changes_nothing():
    # entrants far above every priced position: no wish is ever stale
    rng = rng_for(3, "dual-quiet")
    _order, phis, c = dual_inputs(rng, 10, 2)
    order = [1000 + i for i in range(10)]
    st = dual_construct(c, order, phis, 8000)
    assert all(w.removed is None for w in st.wishes)
    assert st.d_trace.final_set() == frozenset()
    assert halting_cost(st) == 0


def test_dual_distinct_entrants_enforced():
    rng = rng_for(4, "dual-dup")
    _order, phis, c = dual_inputs(rng, 6, 2)
    with pytest.raises(ValueError):
        dual_construct(c, [1, 1, 2], phis, 4000)


def test_dual_deterministic():
    a1, _ = _simple_dual(7)
    a2, _ = _simple_dual(7)
    assert a1.wishes == a2.wishes
    assert a1.activations == a2.activations
    assert a1.d_trace.events == a2.d_trace.events


def test_dual_activation_count_finite_per_parameter():
    for seed in range(6):
        st, _ = _simple_dual(seed)
        per_param = {}
        for _s, e, v, _x in st.activations:
            per_param[(e, v)] = per_param.get((e, v), 0) + 1
        # re-activation of the same parameter needs a justifying cancellation
        for (e, v), count in per_param.items():
            cancels = sum(1 for _s, ce, cv, _n in st.cancellations if ce == e)
            assert count <= cancels + 1


# The audit's verdicts on known-bad states: each bound is met exactly and then
# missed by one unit.


def test_audit_flags_a_held_total_one_unit_over_its_cap():
    rng = rng_for(0, "dual-test")
    order, phis, c = dual_inputs_scripted(rng, 24, 4, 8000)
    st = dual_construct(c, order, phis, 8000)
    unit = Fraction(1, math.lcm(c.den, 2 * 3 ** (len(phis) - 1)))  # the held totals' scale
    assert audit_dual(st).held_ok
    holders = sorted({e for _s, e, _total in st.held_history})
    assert holders
    for e in holders:
        cap = Fraction(1, 3**e)
        for total, ok in ((cap, True), (cap + unit, False)):
            bad = dataclasses.replace(st, held_history=((1, e, total),))
            assert audit_dual(bad).held_ok is ok, (e, total)


def test_audit_flags_a_halting_cost_just_above_three_halves():
    # one wish at x = 0, granted from stage 0 on, read once by the entrant 0 at
    # stage 5: D enters nothing, so the halting cost is exactly its alpha
    st, _ = _simple_dual(0)
    assert audit_dual(st).halting_bound_ok
    for alpha, ok in ((Fraction(3, 2), True), (Fraction(3, 2) + pow2(60), False)):
        bad = dataclasses.replace(
            st,
            d_trace=EnumerationTrace(st.horizon, []),
            wishes=(Wish(0, alpha, 1, 0, 0),),
            halting_entries=((5, 0),),
        )
        audit = audit_dual(bad)
        assert audit.halting_total == alpha
        assert audit.halting_bound_ok is ok
