"""The look-ahead transforms against the per-position scans they replaced.

The references below are the straightforward forms of seven transforms:
each finds a position's changes by scanning the event log, and each maps
those changes to blocks by its own bisect loop (``same_real_transfer`` reads
every synchronizing stage).  The transforms in ``costlab`` read the trace's
change index and share one block rule; on every seeded input they must
return the same events, initial set, stage sequence and rule, totals,
bound, displacement and exceptions, or raise the same error.
``reference_first_failures`` is the full-grid ``argmin`` that
``_first_failures`` replaced with a search on the potential N*u_c - u_d.
``reference_trace_with_final`` is the former body of the transforms' input
generator, which must draw the same numbers and emit the same events.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from itertools import accumulate
from typing import Callable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from costlab.catalog import LeftCEReal, additive_from_real, cost_k, cost_omega
from costlab.core import (
    AdditiveCost,
    ApproximationTrace,
    EnumerationTrace,
    additive_cost,
    check_proper,
    cost_of_trace,
    geometric_cost,
    require_same_final_set,
)
from costlab.errors import Mismatch, NoWitness, StageSeqExhausted
from costlab.generate import (
    additive_grid_cost,
    approximation_trace,
    dominated_cost_pair,
    left_ce_real,
    monotone_cost,
    rng_for,
    trace_with_final,
)
from costlab.machine import baseline_provider
from costlab.transforms import (
    IbTFunctional,
    LookAheadResult,
    OmegaCeBound,
    SameRealResult,
    StageSeq,
    _check_final,
    _first_failures,
    conjoin,
    constant_functional,
    ibT_transfer,
    identity_functional,
    implication_transfer,
    normalize_zero_before_diagonal,
    omega_ce_bound,
    same_real_transfer,
    to_enumeration,
)
from costlab.util import pow2
from unit_costs import units_cost


def ref_to_enumeration(a: ApproximationTrace, b: EnumerationTrace) -> EnumerationTrace:
    final = require_same_final_set(a, b)
    if a.horizon != b.horizon:
        raise Mismatch("traces must share a horizon")
    events = []
    for x in sorted((set(a.positions()) | set(b.positions())) & (final - a.initial)):
        bounds = sorted(
            {1}
            | {s for s, y, _v in a.events if y == x}
            | {s for s, y, _v in b.events if y == x}
        )
        flip = None
        for p in bounds:
            t = next(
                (
                    t
                    for t in bounds + [a.horizon]
                    if t >= p and a.value(x, t) == b.value(x, t)
                ),
                None,
            )
            if t is not None and a.value(x, t) == 1:
                flip = p
                break
        if flip is None:
            raise Mismatch(f"position {x} never settles to its final value")
        events.append((flip, x, 1))
    events.sort(key=lambda e: e[0])
    return EnumerationTrace(a.horizon, events, a.initial & final)


def ref_normalize_zero_before_diagonal(a: ApproximationTrace) -> ApproximationTrace:
    events = []
    initial = set()
    for x in sorted(a.positions()):
        stages = sorted({s for s, y, _v in a.events if y == x} | {max(x, 1)})
        prev = a.value(0, 0) if x == 0 else 0
        if x == 0 and prev == 1:
            initial.add(0)
        for s in stages:
            if s < x:
                continue
            v = a.value(x, s)
            if v != prev:
                events.append((s, x, v))
                prev = v
    events.sort(key=lambda e: e[0])
    return ApproximationTrace(a.horizon, events, initial)


def ref_blocks_to_trace(horizon, stages, timelines) -> ApproximationTrace:
    initial = set()
    events = []
    for x, history in timelines.items():
        prev = 0
        for k, v in history:
            if v == prev:
                continue
            if k == 0:
                initial.add(x)
            else:
                events.append((stages[k], x, v))
            prev = v
    events.sort(key=lambda e: e[0])
    return ApproximationTrace(horizon, events, initial)


def ref_ibT_transfer(g, b, c, *, x_bound=None) -> LookAheadResult:
    stages = [0]
    max_delay = 0
    scanned = 0
    while stages[-1] < b.horizon:
        top = stages[-1]
        while scanned < min(top, b.horizon):
            d = g.delay(scanned)
            if d > max_delay:
                max_delay = d
            scanned += 1
        nxt = max(stages[-1] + 1, max_delay)
        if nxt > b.horizon:
            break
        stages.append(nxt)
    if len(stages) < 4:
        raise StageSeqExhausted("functional convergence stages outran the horizon")
    seq = StageSeq(tuple(stages), "functional-convergence")
    K = len(stages) - 1

    if x_bound is None:
        width = g.window if g.window is not None else 0
        x_bound = max([x + width + 1 for x in b.positions()] or [1])
    x_bound = min(x_bound, stages[K - 2])

    width = g.window
    event_stages_by_pos: dict[int, list[int]] = {}
    for s, y, _v in b.events:
        event_stages_by_pos.setdefault(y, []).append(s)

    timelines: dict[int, list[tuple[int, int]]] = {}
    for x in range(x_bound):
        i = seq.block_of(x)
        if i + 2 > K:
            continue
        relevant: set[int] = set()
        if width is None:
            for y, ss in event_stages_by_pos.items():
                if y <= x:
                    relevant.update(ss)
        else:
            for y in range(max(0, x - width), x + 1):
                relevant.update(event_stages_by_pos.get(y, ()))
        ks = {i}
        for t in relevant:
            pos = bisect.bisect_left(stages, t)
            k = pos - 2
            if i < k <= K - 2:
                ks.add(k)
        history = []
        for k in sorted(ks):
            v = g.at(b, x, stages[k + 2])
            if v is None:
                raise StageSeqExhausted(f"functional diverges on input {x}")
            history.append((0 if k == i else k, v))
        timelines[x] = history

    out = ref_blocks_to_trace(b.horizon, stages, timelines)
    expected = frozenset(x for x in range(x_bound) if g.at(b, x, b.horizon) == 1)
    _check_final(out, expected, "functional transfer")
    bound = cost_of_trace(c, b).total
    total = cost_of_trace(c, out).total
    return LookAheadResult(out, seq, total, bound)


def ref_conjoin(e, f, c, d) -> LookAheadResult:
    final = require_same_final_set(e, f)
    if e.horizon != f.horizon:
        raise Mismatch("traces must share a horizon")
    e = ref_normalize_zero_before_diagonal(e)
    f = ref_normalize_zero_before_diagonal(f)

    diff: set[int] = set()
    e_by_stage = e.change_stages()
    f_by_stage = f.change_stages()
    stages = [0]
    for s in range(1, e.horizon + 1):
        for x in e_by_stage.get(s, ()):
            diff.symmetric_difference_update({x})
        for x in f_by_stage.get(s, ()):
            diff.symmetric_difference_update({x})
        if not diff or min(diff) >= stages[-1]:
            stages.append(s)
    if len(stages) < 3:
        raise StageSeqExhausted("agreement stages outran the horizon")
    seq = StageSeq(tuple(stages), "agreement")
    K = len(stages) - 1

    e_events_by_pos: dict[int, list[int]] = {}
    for s, y, _v in e.events:
        e_events_by_pos.setdefault(y, []).append(s)

    timelines: dict[int, list[tuple[int, int]]] = {}
    for x in sorted(e.positions() | f.positions()):
        i = seq.block_of(x)
        j = None
        for cand in range(i, K):
            if e.value(x, stages[cand + 1]) == f.value(x, stages[cand + 1]):
                j = cand
                break
        if j is None:
            raise StageSeqExhausted(f"no agreement on position {x} within the horizon")
        v = e.value(x, stages[j + 1])
        history = [(0 if i == 0 else i, v)]
        ks = set()
        for t in e_events_by_pos.get(x, ()):
            pos = bisect.bisect_left(stages, t)
            k = pos - 1
            if j < k <= K - 1:
                ks.add(k)
        for k in sorted(ks):
            history.append((k, e.value(x, stages[k + 1])))
        timelines[x] = history

    out = ref_blocks_to_trace(e.horizon, stages, timelines)
    _check_final(out, final, "conjunction")
    combined = cost_of_trace(c, out).total + cost_of_trace(d, out).total
    bound = Fraction(4) + cost_of_trace(c, e).total + cost_of_trace(d, f).total
    return LookAheadResult(out, seq, combined, bound)


def reference_first_failures(c, d, N) -> list[int] | None:
    """``_first_failures`` read off the two full grids by one ``argmin`` per stage."""
    if not (isinstance(c, AdditiveCost) and isinstance(d, AdditiveCost)) or c.den != d.den:
        return None
    (mc, _), (md, _) = c.grid, d.grid
    if mc.shape != md.shape:
        return None
    if mc.dtype != object and N * (c.column[-1] - c.column[0]) >= 1 << 63:
        mc = mc.astype(object)  # N * c would wrap around in int64
    return np.argmin(N * mc > md, axis=0).tolist()


def ref_implication_transfer(a, c, d, N) -> LookAheadResult:
    if N < 1:
        raise ValueError("N must be at least 1")
    fails = reference_first_failures(c, d, N)
    stages = [0]
    s = 0
    while s < a.horizon:
        top = stages[-1]
        nxt = None
        for cand in range(top + 1, a.horizon + 1):
            if fails is not None:
                ok = fails[cand] >= top
            else:
                ok = all(N * c(x, cand) > d(x, cand) for x in range(top))
            if ok:
                nxt = cand
                break
        if nxt is None:
            break
        stages.append(nxt)
        s = nxt
    if len(stages) < 4:
        raise StageSeqExhausted(
            "domination stages outran the horizon; the premise is unwitnessed"
        )
    seq = StageSeq(tuple(stages), "domination")
    K = len(stages) - 1

    a_events_by_pos: dict[int, list[int]] = {}
    for s_ev, y, _v in a.events:
        a_events_by_pos.setdefault(y, []).append(s_ev)

    timelines: dict[int, list[tuple[int, int]]] = {}
    for x in sorted(a.positions()):
        i = seq.block_of(x)
        if i + 2 > K:
            continue
        history = [(0, a.value(x, stages[i + 2]))]
        ks = set()
        for t in a_events_by_pos.get(x, ()):
            pos = bisect.bisect_left(stages, t)
            k = pos - 1
            if i + 1 <= k <= K - 1:
                ks.add(k)
        for k in sorted(ks):
            history.append((k, a.value(x, stages[k + 1])))
        timelines[x] = history

    out = ref_blocks_to_trace(a.horizon, stages, timelines)
    _check_final(out, a.final_set(), "implication transfer")
    total = cost_of_trace(d, out).total
    bound = N * cost_of_trace(c, a).total
    return LookAheadResult(out, seq, total, bound)


def ref_omega_ce_bound(a, c, X) -> OmegaCeBound:
    if not c.props.monotone:
        raise ValueError("the change-count bound needs a monotone cost function")
    witnesses = check_proper(c, X)
    if not witnesses.all_witnessed:
        missing = [x for x, t in witnesses.witnesses.items() if t is None]
        raise NoWitness(f"properness unwitnessed at horizon for {missing}")
    total = cost_of_trace(c, a).total
    bounds: dict[int, int] = {}
    counts: dict[int, int] = {}
    bad = []
    for x in range(X + 1):
        g = witnesses.witnesses[x]
        v = c(x, g)
        bounds[x] = int(-(-total // v)) if total > 0 else 0
        counts[x] = sum(1 for s, y, _v in a.events if y == x and s > g)
        if counts[x] > bounds[x]:
            bad.append(x)
    return OmegaCeBound(bounds, dict(witnesses.witnesses), counts, tuple(bad))


def ref_same_real_transfer(a, b, ta) -> SameRealResult:
    horizon = min(a.horizon, b.horizon, ta.horizon)
    stages: list[int] = []
    i = 0
    s = 0
    while True:
        tol = Fraction(1) if i == 0 else pow2(i)
        found = next(
            (cand for cand in range(s, horizon + 1) if abs(a.at(cand) - b.at(cand)) <= tol),
            None,
        )
        if found is None:
            break
        stages.append(found)
        s = found + 1
        i += 1
    if len(stages) < 2:
        raise StageSeqExhausted("synchronizing stages outran the horizon")
    seq = StageSeq(tuple(stages), "real-synchronization")

    f: dict[int, int] = {}
    prev = -1
    for x in sorted(ta.positions() | {0}):
        t = next((t for t in range(horizon + 1) if b.at(t) >= a.at(x)), None)
        if t is None:
            raise StageSeqExhausted(f"f({x}) is unwitnessed at the horizon")
        f[x] = max(t, prev + 1)
        prev = f[x]

    if ta.is_enumeration and not ta.initial:
        events = []
        exceptions = set()
        for s_ev, x, _v in ta.events:
            idx = bisect.bisect_right(stages, s_ev) - 1
            if idx < 0 or f[x] > stages[idx]:
                exceptions.add(x)
                continue
            events.append((max(stages[idx], 1), f[x], 1))
        events.sort(key=lambda e: e[0])
        out: ApproximationTrace = EnumerationTrace(horizon, events)
        expected = frozenset(f[x] for x in ta.final_set() if x not in exceptions)
        _check_final(out, expected, "same-real transfer")
        exc: frozenset[int] | None = frozenset(exceptions)
    else:
        timelines: dict[int, list[tuple[int, int]]] = {}
        for x in sorted(ta.positions()):
            t = next((si for si in stages if si >= f[x]), None)
            if t is None:
                raise StageSeqExhausted(f"no synchronizing stage above f({x})")
            history = [(0, ta.value(x, t))]
            for k, si in enumerate(stages):
                if si >= t and k > 0:
                    history.append((k, ta.value(x, si)))
            timelines[f[x]] = history
        out = ref_blocks_to_trace(horizon, stages, timelines)
        exc = None

    cost_b = additive_from_real(LeftCEReal.of(b.seq[: horizon + 1], b.cap))
    cost_a = additive_from_real(LeftCEReal.of(a.seq[: horizon + 1], a.cap))
    total = cost_of_trace(cost_b, out).total
    bound = cost_of_trace(cost_a, ta).total + 2
    return SameRealResult(out, seq, f, exc, total, bound)


def summary(r):
    """Everything a transform returns, as plain comparable values."""
    if isinstance(r, ApproximationTrace):
        return (type(r).__name__, r.horizon, r.events, r.initial)
    if isinstance(r, OmegaCeBound):
        return r
    out = (summary(r.trace), r.stages.stages, r.stages.rule, r.output_total, r.bound)
    if isinstance(r, SameRealResult):
        out += (r.f, r.exceptions)
    return out


def outcome(fn: Callable, *args, **kwargs):
    try:
        return "ok", summary(fn(*args, **kwargs))
    except Exception as exc:  # the references must fail in exactly the same way
        return "raised", type(exc), str(exc)


def assert_same(fn, ref, *args, **kwargs) -> str:
    """Assert equal outcomes; return "ok" or "raised"."""
    got, want = outcome(fn, *args, **kwargs), outcome(ref, *args, **kwargs)
    assert got == want
    return got[0]


def with_initial(rng: random.Random, a: ApproximationTrace, width: int) -> ApproximationTrace:
    """``a`` started from a random initial snapshot; redundant events drop out."""
    initial = rng.sample(range(width), rng.randint(1, min(4, width)))
    return ApproximationTrace.from_values(a.horizon, a.events, initial)


def flicker(rng: random.Random, S: int, width: int) -> ApproximationTrace:
    """Up to five changes per position, settling by S or S // 2; half start nonempty."""
    settle = rng.choice([S, max(1, S // 2)])
    a = approximation_trace(rng, S, width, rng.randint(1, width), 5, settle)
    return with_initial(rng, a, width) if rng.random() < 0.5 else a


def enumeration_of(rng: random.Random, S: int, a: ApproximationTrace) -> EnumerationTrace:
    """Some enumeration of a's final set, entering part of it at stage 0."""
    final = sorted(a.final_set())
    initial = [x for x in final if rng.random() < 0.2]
    rest = [x for x in final if x not in initial]
    events = sorted(((rng.randint(1, S), x, 1) for x in rest), key=lambda e: e[0])
    return EnumerationTrace(S, events, initial)


def window_functionals() -> list[IbTFunctional]:
    def xor_below(bit, x):
        return (bit(x) ^ bit(max(x - 1, 0))) & 1

    def parity_below(bit, x):
        return sum(bit(y) for y in range(x + 1)) % 2

    def peeks_ahead(bit, x):
        return bit(x + 1) if x == 7 else bit(x)

    return [
        identity_functional(),
        constant_functional(1),
        IbTFunctional("xor-window", xor_below, lambda x: x + 1, window=1),
        IbTFunctional("xor-unbounded", xor_below, lambda x: x + 1, window=None),
        IbTFunctional("parity", parity_below, lambda x: 2 * x + 3, window=None),
        IbTFunctional("slow-identity", lambda bit, x: bit(x), lambda x: x + 4, window=0),
        IbTFunctional("peeks-ahead", peeks_ahead, lambda x: x + 1, window=1),
        IbTFunctional("never", lambda bit, x: 0, lambda x: 10**6, window=0),
    ]


def test_to_enumeration_matches_reference():
    raised = 0
    for i in range(40):
        rng = rng_for(i, "ref-toenum")
        S = rng.randint(2, 40)
        a = flicker(rng, S, min(S, 12))
        b = enumeration_of(rng, S, a)
        if i % 10 == 9:
            # usually another final set
            b = enumeration_of(rng, S, flicker(rng, S, min(S, 12)))
        if i % 10 == 8:
            b = enumeration_of(rng, S + 1, a)
        raised += assert_same(to_enumeration, ref_to_enumeration, a, b) == "raised"
    assert 0 < raised < 40


def test_normalize_zero_before_diagonal_matches_reference():
    for i in range(60):
        rng = rng_for(i, "ref-norm")
        S = rng.randint(1, 30)
        a = flicker(rng, S, min(S, 20))
        assert_same(normalize_zero_before_diagonal, ref_normalize_zero_before_diagonal, a)
    beyond = ApproximationTrace(5, [(2, 1, 1)], initial={0, 9})  # 9 enters at stage 9 > 5
    got = assert_same(normalize_zero_before_diagonal, ref_normalize_zero_before_diagonal, beyond)
    assert got == "raised"


def test_ibT_transfer_matches_reference():
    kinds = set()
    for i in range(24):
        rng = rng_for(i, "ref-ibt")
        S = rng.randint(6, 60)
        b = flicker(rng, S, min(S, 24))
        c = geometric_cost(S) if i % 2 else monotone_cost(rng, S)
        for g in window_functionals():
            x_bound = None if i % 3 else rng.randint(0, 30)
            kinds.add(assert_same(ibT_transfer, ref_ibT_transfer, g, b, c, x_bound=x_bound))
    assert kinds == {"ok", "raised"}


def test_conjoin_matches_reference():
    kinds = set()
    for i in range(24):
        rng = rng_for(i, "ref-conj")
        S = rng.randint(3, 60)
        final = frozenset(rng.sample(range(12), rng.randint(0, 4)))
        e = trace_with_final(rng, S, final, 12, max(2, S // 2), max_flips=4)
        f = trace_with_final(rng, S, final, 12, S, max_flips=4)
        if i % 4 == 1:
            f = with_initial(rng, f, 12)
            e = ApproximationTrace.from_values(S, e.events, f.initial)
        if i % 8 == 3:
            f = trace_with_final(rng, S, final | {13}, 14, S)
        c = additive_grid_cost(rng, S, "c") if i % 2 else geometric_cost(S)
        d = monotone_cost(rng, S)
        kinds.add(assert_same(conjoin, ref_conjoin, e, f, c, d))
        kinds.add(assert_same(conjoin, ref_conjoin, e, e, d, c))
    flick_e = ApproximationTrace(12, [(s, 0, s % 2) for s in range(1, 12)])
    flick_f = ApproximationTrace(12, [(s, 0, 1 - s % 2) for s in range(2, 12)] + [(12, 0, 1)])
    c = geometric_cost(12)
    kinds.add(assert_same(conjoin, ref_conjoin, flick_e, flick_f, c, c))
    short = ApproximationTrace(1, [(1, 0, 1)])  # one agreement stage only
    got = assert_same(conjoin, ref_conjoin, short, short, geometric_cost(1), geometric_cost(1))
    assert got == "raised"
    assert kinds == {"ok", "raised"}


def test_implication_transfer_matches_reference():
    kinds = set()
    for i in range(20):
        rng = rng_for(i, "ref-impl")
        S = rng.randint(8, 80)
        a = flicker(rng, S, min(S, 30))
        N = rng.randint(1, 3)
        if i % 3 == 0:
            c, d = dominated_cost_pair(rng, S, N)  # the grid path
        elif i % 3 == 1:
            c = monotone_cost(rng, S)
            d = units_cost("half", S, lambda x, s, c=c: c(x, s) / 2, 2 * c.den, monotone_main=True)
        else:
            c = d = additive_grid_cost(rng, S, "c")
        kinds.add(assert_same(implication_transfer, ref_implication_transfer, a, c, d, N))
    p = baseline_provider(48)
    a = ApproximationTrace(48, [(30, 2, 1)])
    for d, N in ((cost_omega(p), 1), (cost_k(p), 0)):  # unwitnessed premise; N < 1
        kinds.add(assert_same(implication_transfer, ref_implication_transfer, a, cost_k(p), d, N))
    assert kinds == {"ok", "raised"}


# plateau-heavy columns: most steps are 0, some tiny, some far beyond int64 once scaled by N
_steps = st.one_of(
    st.just(0), st.just(0), st.integers(1, 3), st.integers(1 << 55, 1 << 60), st.integers(0, 1 << 70)
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_failures_by_potential_matches_grid_reference(data):
    n = data.draw(st.integers(0, 24))
    N = data.draw(st.one_of(st.integers(1, 4), st.integers(1, 1 << 20)))
    den = data.draw(st.sampled_from([1, 3, 1 << 24, 1 << 70]))

    def column() -> list[int]:
        start = data.draw(st.one_of(st.just(0), st.integers(-(1 << 70), 1 << 70)))
        return list(accumulate(data.draw(st.lists(_steps, min_size=n, max_size=n)), initial=start))

    c_units = column()
    if data.draw(st.booleans()):
        d_units = column()
    else:  # d at N*c plus a nondecreasing excess: ties and near ties everywhere
        d_units = [N * u + e for u, e in zip(c_units, column())]
    c, d = additive_cost("c", c_units, den), additive_cost("d", d_units, den)
    got = _first_failures(c, d, N)
    assert got is not None and got == reference_first_failures(c, d, N)
    assert all(x <= s for s, x in enumerate(got))
    # a different denominator or column length takes the pointwise path
    for other in (
        additive_cost("d", d_units, den + 1),
        additive_cost("d", d_units + d_units[-1:], den),
    ):
        assert _first_failures(c, other, N) is None
        assert reference_first_failures(c, other, N) is None


def test_omega_ce_bound_matches_reference():
    for i in range(30):
        rng = rng_for(i, "ref-wce")
        S = rng.randint(4, 50)
        a = flicker(rng, S, min(S, 20))
        c = [geometric_cost(S), monotone_cost(rng, S), additive_grid_cost(rng, S)][i % 3]
        X = rng.randint(0, S + 1)
        assert_same(omega_ce_bound, ref_omega_ce_bound, a, c, X)
    flat = units_cost("flat", 10, lambda x, s: Fraction(1, 2), 2)
    got = assert_same(omega_ce_bound, ref_omega_ce_bound, ApproximationTrace(10), flat, 3)
    assert got == "raised"  # not monotone


def test_same_real_transfer_matches_reference():
    kinds = set()
    for i in range(30):
        rng = rng_for(i, "ref-sr")
        S = rng.randint(10, 80)
        a = left_ce_real(rng, S)
        b = [a, left_ce_real(rng, S), LeftCEReal.of(a.seq[1:] + a.seq[-1:], a.cap)][i % 3]
        entries = sorted((rng.randint(1, S), x, 1) for x in rng.sample(range(20), 5))
        enum = EnumerationTrace(S, entries)
        for ta in (flicker(rng, S, 20), enum):
            kinds.add(assert_same(same_real_transfer, ref_same_real_transfer, a, b, ta))
    zero, one = LeftCEReal.of((Fraction(0),) * 21), LeftCEReal.of((Fraction(1),) * 21)
    got = assert_same(same_real_transfer, ref_same_real_transfer, zero, one, flicker(rng, 20, 8))
    assert got == "raised"  # never within 1/2 of each other
    rng = rng_for(0, "ref-sr-short")
    long_real, short_real = left_ce_real(rng, 60), left_ce_real(rng, 30)
    ta = flicker(rng, 45, 12)
    for a, b in ((long_real, short_real), (short_real, long_real), (long_real, long_real)):
        got = assert_same(same_real_transfer, ref_same_real_transfer, a, b, ta)
        assert got == ("raised" if a is short_real or b is short_real else "ok")
    assert kinds == {"ok", "raised"}


def reference_trace_with_final(rng, S, final, width, settle_by, max_flips=3):
    """``generate.trace_with_final`` as first written, with its parity rule
    spelled out case by case."""
    events = []
    for x in range(width):
        target = 1 if x in final else 0
        flips = rng.randint(0, max_flips)
        if flips == 0 and target == 0:
            continue
        n_changes = 2 * flips + (1 if target == 1 else 0)
        if n_changes == 0:
            continue
        n_changes = min(n_changes, settle_by - 1) or (1 if target else 0)
        if n_changes == 0:
            continue
        if target == 1 and n_changes % 2 == 0:
            n_changes -= 1
        if target == 0 and n_changes % 2 == 1:
            n_changes -= 1
        if n_changes <= 0:
            continue
        stages = sorted(rng.sample(range(1, settle_by + 1), n_changes))
        v = 0
        for s in stages:
            v = 1 - v
            events.append((s, x, v))
    events.sort(key=lambda ev: ev[0])
    return ApproximationTrace(S, events)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.integers(0, 16),
    st.integers(1, 40),
    st.integers(0, 6),
    st.sets(st.integers(0, 20)),
)
def test_trace_with_final_matches_reference(seed, S, width, settle_by, max_flips, final):
    settle_by = min(settle_by, S)
    final = frozenset(final)
    rng, ref = random.Random(seed), random.Random(seed)
    a = trace_with_final(rng, S, final, width, settle_by, max_flips)
    b = reference_trace_with_final(ref, S, final, width, settle_by, max_flips)
    assert a.events == b.events
    assert rng.getstate() == ref.getstate()
