"""Integer-unit cost generators against their Fraction references.

The generated monotone cost is a complexity sum on the K_s index; it is
compared with the prefix-column evaluator it replaced.  The additive
constructor is compared with plain Fraction arithmetic, also through its
per-difference memo in any evaluation order, and its lazy grid with its
pointwise values.  The potential path of ``implication_transfer`` (two
additive costs over one denominator) is compared with its pointwise path,
and it reads no grid.
"""

import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costlab.catalog import (
    LeftCEReal,
    additive_from_real,
    check_additivity,
    cost_g,
    cost_k,
    cost_max,
    cost_omega,
)
from costlab.core import (
    AdditiveCost,
    ApproximationTrace,
    additive_cost,
    cost_fn,
    cost_of_trace,
    geometric_cost,
)
from costlab.errors import NonAdditive, StageSeqExhausted
from costlab.generate import (
    SCALE,
    additive_grid_cost,
    approximation_trace,
    dominated_cost_pair,
    left_ce_real,
    monotone_cost,
    rng_for,
    trace_with_final,
)
from costlab.machine import baseline_provider
from costlab.transforms import implication_transfer
from costlab.util import ZERO, pow2


def monotone_cost_reference(rng: random.Random, S: int):
    """The prefix-column evaluator of ``monotone_cost``, in Fractions.

    Draws from the rng in the same order; defined for 0 <= x <= S.
    """
    width = S + 1
    base_len = [rng.randint(4, 4 + SCALE // 2) for _ in range(width)]
    improved_len = [max(1, L - rng.randint(0, 3)) for L in base_len]
    improve_at = [rng.randint(w + 1, S) if S > w + 1 else S for w in range(width)]

    def weight(w: int, s: int) -> Fraction:
        if s <= w:
            return ZERO
        return pow2(improved_len[w] if s >= improve_at[w] else base_len[w])

    def ev(x: int, s: int) -> Fraction:
        if x >= s:
            return ZERO
        s_eff = min(s, S)
        col = [ZERO] * (width + 1)
        for w in range(width):
            col[w + 1] = col[w] + weight(w, s_eff)
        return col[min(s_eff, width - 1) + 1] - col[x + 1]

    return ev


def _compare_monotone(seed: int, S: int, trace_seed: int):
    c = monotone_cost(rng_for(seed, "mono"), S)
    ref = monotone_cost_reference(rng_for(seed, "mono"), S)
    stages = range(S + 4)  # s beyond the horizon too
    for x in range(S + 1):
        for s in stages:
            assert c(x, s) == ref(x, s), (x, s)
    for x in range(S + 1, S + 4):
        assert all(c(x, s) == 0 for s in stages)
    pairs = sorted(
        ((x, s) for x in range(0, S + 1, 3) for s in range(0, S + 4, 2)), key=lambda q: q[1]
    )
    assert [c(x, s) for x, s in pairs] == [ref(x, s) for x, s in pairs]
    a = approximation_trace(rng_for(trace_seed, "trace"), S, S + 1, max(1, S // 3))
    led = cost_of_trace(c, a)
    assert [v for _s, _x, v in led.charges] == [ref(x, s) for s, x, _v in led.charges]
    assert led.total == sum((ref(x, s) for s, x, _v in led.charges), ZERO)


@pytest.mark.parametrize("seed,S", [(0, 1), (1, 2), (2, 3), (3, 17), (4, 60)])
def test_monotone_cost_matches_prefix_reference_seeded(seed, S):
    _compare_monotone(seed, S, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(0, 10_000))
def test_monotone_cost_matches_prefix_reference(seed, S, trace_seed):
    _compare_monotone(seed, S, trace_seed)


def _fraction_additive(units, den):
    h = len(units) - 1

    def ref(x, s):
        if x > s:
            return ZERO
        return Fraction(units[min(s, h)], den) - Fraction(units[min(x, h)], den)

    return ref


dens = st.one_of(
    st.integers(1, 1000),
    st.integers(0, 100).map(lambda k: 1 << k),
    st.sampled_from([3 << 64, (1 << 63) + 1, 10**30]),
)
columns = st.tuples(
    st.integers(-(1 << 70), 1 << 70),
    st.lists(st.one_of(st.integers(0, 5), st.integers(0, 1 << 80)), min_size=0, max_size=12),
)


@settings(max_examples=80, deadline=None)
@given(columns, dens)
def test_additive_cost_matches_fraction_reference(column, den):
    start, steps = column
    units = [start]
    for step in steps:
        units.append(units[-1] + step)
    c = additive_cost("units", units, den)
    ref = _fraction_additive(units, den)
    h = len(units) - 1
    assert c.horizon == max(h, 1)
    for x in range(h + 3):
        for s in range(h + 3):
            assert c(x, s) == ref(x, s), (x, s)
    matrix, grid_den = c.grid
    assert grid_den == den and matrix.shape == (h + 1, h + 1)
    for x in range(h + 1):
        for s in range(h + 1):
            assert Fraction(int(matrix[x, s]), den) == c(x, s), (x, s)
    with pytest.raises(ValueError, match="stage must be a natural"):
        c(-1, h)


@settings(max_examples=80, deadline=None)
@given(columns, dens, st.randoms(use_true_random=False))
def test_additive_memo_matches_fraction_reference_in_any_order(column, den, rnd):
    start, steps = column
    units = list(accumulate(steps, initial=start))
    h = len(units) - 1
    # one column over two denominators: each cost keeps its own memo
    costs = [
        (additive_cost("units", units, den), _fraction_additive(units, den)),
        (additive_cost("units", units, den + 1), _fraction_additive(units, den + 1)),
    ]
    points = [(x, s) for x in range(h + 3) for s in range(h + 3)] * 2
    rnd.shuffle(points)
    for x, s in points:
        plateau = x > s or units[min(s, h)] == units[min(x, h)]
        for c, ref in costs:
            v, want = c(x, s), ref(x, s)
            assert (v.numerator, v.denominator) == (want.numerator, want.denominator), (x, s)
            if plateau:
                assert v == 0, (x, s)


def test_additive_cost_grid_dtype_and_laziness():
    small = additive_cost("small", [0, 1, 5, 5, 9], 16)
    assert "grid" not in small.__dict__  # built on first read only
    matrix, den = small.grid
    assert matrix.dtype == np.int64 and den == 16
    assert small.grid[0] is matrix
    assert matrix.tolist() == [
        [0, 1, 5, 5, 9],
        [0, 0, 4, 4, 8],
        [0, 0, 0, 0, 4],
        [0, 0, 0, 0, 4],
        [0, 0, 0, 0, 0],
    ]
    big = additive_cost("big", [0, 1 << 70, 1 << 71], 1 << 71)
    matrix, _ = big.grid
    assert matrix.dtype == object and matrix[0, 2] == 1 << 71


def test_additive_cost_rejects_bad_columns():
    with pytest.raises(ValueError, match="must not decrease"):
        additive_cost("down", [0, 3, 2], 4)
    with pytest.raises(ValueError):
        additive_cost("empty", [], 4)
    with pytest.raises(ValueError):
        additive_cost("zero-den", [0, 1], 0)


@pytest.mark.parametrize(
    "g,dtype",
    [
        (lambda w: 60 + w, np.int64),  # den 2^74 with units below 2^13
        (lambda w: 5 * w, object),  # den 2^70 with units near 2^65
    ],
)
def test_cost_g_beyond_int64_matches_reference(g, dtype):
    h = 14
    c = cost_g(g, h)
    assert isinstance(c, AdditiveCost) and c.den == 1 << max(g(w) for w in range(1, h + 1))
    prefix = [ZERO]
    for w in range(1, h + 1):
        prefix.append(prefix[-1] + pow2(g(w)))
    for x in range(h + 3):
        for s in range(h + 3):
            want = prefix[min(s, h)] - prefix[min(x, h)] if x <= s else ZERO
            assert c(x, s) == want
    matrix, den = c.grid
    assert matrix.dtype == dtype
    assert all(
        Fraction(int(matrix[x, s]), den) == c(x, s) for x in range(h + 1) for s in range(h + 1)
    )
    check_additivity(c, h)


def test_cost_omega_is_the_scaled_omega_column():
    p = baseline_provider(64)
    co = cost_omega(p)
    assert co.den == 1 << p.max_length
    for x in range(0, 70, 3):
        for s in range(0, 70, 2):
            want = p.omega(s) - p.omega(x) if x <= s else ZERO
            assert co(x, s) == want


def test_check_additivity_on_exact_ints_over_the_lcm():
    mixed = LeftCEReal.of(tuple(map(Fraction, ("0", "1/7", "1/5", "1/3", "1/2", "2/3", "3/4"))))
    check_additivity(additive_from_real(mixed), 6)
    base = additive_from_real(mixed)
    tiny = Fraction(1, 3 << 80)

    def ev(x, s):  # off by 3^-1 2^-80 on the corner cell only, so every sum falls short
        return base.eval_fn(x, s) + (tiny if (x, s) == (0, 6) else ZERO)

    bent = cost_fn("bent", 6, ev, monotone_main=True, monotone_stage=True, additive=True)
    with pytest.raises(NonAdditive, match=r"c\(0,1\) \+ c\(1,6\) != c\(0,6\)"):
        check_additivity(bent, 6)


def _out_of_domain_costs():
    p = baseline_provider(10)
    c_dom, d_dom = dominated_cost_pair(rng_for(0, "dom"), 10, 2)
    return {
        "cost_g": cost_g(lambda w: w + 1, 10),
        "dominating": c_dom,
        "dominated": d_dom,
        "monotone_cost": monotone_cost(rng_for(0, "mono"), 10),
        "additive_grid_cost": additive_grid_cost(rng_for(0, "grid"), 10),
        "additive_from_real": additive_from_real(left_ce_real(rng_for(0, "real"), 10)),
        "cost_omega": cost_omega(p),
        "cost_k": cost_k(p),
        "cost_max": cost_max(p),
        "geometric": geometric_cost(10),
    }


@pytest.mark.parametrize("name", sorted(_out_of_domain_costs()))
def test_negative_stage_raises_everywhere(name):
    c = _out_of_domain_costs()[name]
    # (-1, 10) used to read 0 and (-1, 5) a negative cost, through x = -1
    # wrapping to the end of a column
    for s in (0, 5, 10, 14):
        with pytest.raises(ValueError, match="stage must be a natural"):
            c(-1, s)


def test_monotone_cost_beyond_the_horizon_is_zero():
    c = monotone_cost(rng_for(0, "mono"), 10)
    assert c(12, 14) == 0  # raised a raw IndexError from the prefix column
    assert c(11, 14) == 0
    assert c(10, 14) == 0
    assert c(0, 14) == c(0, 10) > 0


def _pointwise(c):
    return cost_fn(
        c.name, c.horizon, c.eval_fn, monotone_main=True, monotone_stage=True, additive=True
    )


def _implication_both_ways(a, c, d, N):
    try:
        grid = implication_transfer(a, c, d, N)
    except StageSeqExhausted:
        with pytest.raises(StageSeqExhausted):
            implication_transfer(a, _pointwise(c), _pointwise(d), N)
        return None
    pointwise = implication_transfer(a, _pointwise(c), _pointwise(d), N)
    assert grid.stages == pointwise.stages
    assert grid.trace.events == pointwise.trace.events
    assert (grid.output_total, grid.bound) == (pointwise.output_total, pointwise.bound)
    return grid


def test_implication_transfer_reads_no_grid():
    rng = rng_for(0, "impl-no-grid")
    S, N = 80, 3
    a = trace_with_final(rng, S, frozenset(rng.sample(range(20), 4)), 20, S // 2)
    c, d = dominated_cost_pair(rng, S, N)
    r = implication_transfer(a, c, d, N)
    assert r.ok and len(r.stages.stages) >= 4
    assert "grid" not in c.__dict__ and "grid" not in d.__dict__


def _near_dominated_pair(rng, S, N):
    """Additive pair over 2^-SCALE whose d overtakes N*c on some cells."""
    gamma = [0] + [rng.randint(1, 1 << 8) for _ in range(S)]
    delta = [0] + [rng.randint(0, 2 * N * g) for g in gamma[1:]]
    cum = lambda xs: [sum(xs[: i + 1]) for i in range(len(xs))]  # noqa: E731
    return (
        additive_cost("c", cum(gamma), 1 << SCALE),
        additive_cost("d", cum(delta), 1 << SCALE),
    )


@pytest.mark.parametrize("seed", range(6))
def test_implication_grid_path_matches_pointwise(seed):
    rng = rng_for(seed, "impl-paths")
    S = 120
    N = rng.randint(1, 4)
    a = trace_with_final(rng, S, frozenset(rng.sample(range(30), 5)), 30, S // 2)
    c, d = dominated_cost_pair(rng, S, N)
    r = _implication_both_ways(a, c, d, N)
    assert r is not None and r.ok
    c, d = _near_dominated_pair(rng, S, N)
    r = _implication_both_ways(a, c, d, N)
    assert r is not None and len(r.stages.stages) < S // 2  # stages were skipped


def test_implication_grid_path_without_int64_headroom():
    # N * c exceeds int64 while c itself fits: the grid path must not wrap
    S = 15
    c = additive_cost("c", [w << 58 for w in range(S + 1)], 1 << 60)
    d = additive_cost("d", [3 * (w << 58) for w in range(S + 1)], 1 << 60)
    a = ApproximationTrace(S, [(3, 1, 1), (9, 2, 1), (12, 1, 0)])
    assert c.grid[0].dtype == np.int64
    r = _implication_both_ways(a, c, d, 4)
    assert r is not None and r.ok
