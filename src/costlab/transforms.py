"""Look-ahead transformations between computable approximations.

Each transform is deterministic, preserves the final set (verified, not
assumed), and carries an exact ledger comparison documenting the cost bound
it promises.  Stage sequences are built by explicit bounded search; running
out of horizon is an error (StageSeqExhausted), never a silent truncation.

The re-approximations share one block rule (``_change_blocks``).  Along a
stage sequence ``stages``, block k is read at its look-ahead stage
``stages[k + lag]``.  A position's history opens with the read of one block
lo, and gets a further entry only at a block k > lo whose look-ahead stage
is the first to see one of the position's changes.  The lag is 2 in
``ibT_transfer``, 1 in ``conjoin`` and ``implication_transfer``, and 0 in
``same_real_transfer``.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .catalog import LeftCEReal, additive_from_real
from .core import (
    AdditiveCost,
    ApproximationTrace,
    CostFn,
    EnumerationTrace,
    check_proper,
    cost_of_trace,
    require_same_final_set,
)
from .errors import CutoffNotFound, Mismatch, NoWitness, StageSeqExhausted
from .util import ZERO, cantor_pair, cantor_unpair, pow2


@dataclass(frozen=True)
class StageSeq:
    """Strictly increasing stage sequence together with its generating rule."""

    stages: tuple[int, ...]
    rule: str

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.stages, self.stages[1:])):
            raise ValueError("stage sequences are strictly increasing")

    def block_of(self, x: int) -> int:
        """Index i with stages[i] <= x < stages[i+1]."""
        return bisect.bisect_right(self.stages, x) - 1

    def __len__(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class IbTFunctional:
    """Mock Turing functional whose oracle use is bounded by the identity.

    ``rule(bit, x)`` may query the oracle only at positions <= x through the
    supplied lookup; querying beyond raises.  ``delay(x)`` is the stage at
    which the computation on input x converges (oracle-independent for these
    mocks).  ``window`` declares how far below x the rule actually looks,
    which lets transforms skip re-evaluations that cannot change.
    """

    name: str
    rule: Callable[[Callable[[int], int], int], int]
    delay: Callable[[int], int]
    window: int | None = None

    def at(self, oracle: ApproximationTrace, x: int, s: int) -> int | None:
        """Value of the computation at stage s against snapshot s, or None."""
        if s < self.delay(x):
            return None

        def bit(i: int) -> int:
            if i > x:
                raise ValueError(f"{self.name}: oracle query {i} above the use bound {x}")
            return oracle.value(i, s)

        return self.rule(bit, x)


def identity_functional() -> IbTFunctional:
    return IbTFunctional("identity", lambda bit, x: bit(x), lambda x: x + 1, window=0)


def constant_functional(value: int = 0) -> IbTFunctional:
    return IbTFunctional(f"constant-{value}", lambda bit, x: value, lambda x: 1, window=0)


@dataclass(frozen=True)
class LookAheadResult:
    """Output of a look-ahead transform plus its exact ledger comparison."""

    trace: ApproximationTrace
    stages: StageSeq
    output_total: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.output_total <= self.bound


def trim(a: ApproximationTrace, c: CostFn, eps: Fraction) -> ApproximationTrace:
    """Same final set, total cost below eps, by pre-setting a low cutoff.

    Positions below the least sufficient cutoff are pinned to their final
    values from the start; raises CutoffNotFound (with the best residual)
    when no cutoff within the horizon achieves the bound.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cost_of_trace(c, a).total < eps:
        return a
    final = a.final_set()
    candidates = sorted({x + 1 for _s, x, _v in a.events if x + 1 <= a.horizon})
    best_residual = None
    for x0 in candidates:
        events = [(s, x, v) for s, x, v in a.events if x >= x0]
        initial = frozenset(x for x in final if x < x0) | frozenset(
            x for x in a.initial if x >= x0
        )
        trimmed = ApproximationTrace(a.horizon, events, initial)
        total = cost_of_trace(c, trimmed).total
        if total < eps:
            return trimmed
        if best_residual is None or total < best_residual:
            best_residual = total
    raise CutoffNotFound(
        f"no cutoff within horizon {a.horizon} brings the total under {eps}",
        best_residual,
    )


def to_enumeration(a: ApproximationTrace, b: EnumerationTrace) -> EnumerationTrace:
    """Monotone approximation of the same set, never costlier under monotone costs.

    Position x is enumerated at the least stage from which the approximation
    and the witnessing enumeration agree with value 1; once 1, it stays.
    """
    final = require_same_final_set(a, b)
    if a.horizon != b.horizon:
        raise Mismatch("traces must share a horizon")
    events = []
    for x in sorted((set(a.positions()) | set(b.positions())) & (final - a.initial)):
        # piece boundaries: stages where either value can change
        bounds = sorted({1, *a.stages_of(x), *b.stages_of(x)})
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


def change_set(
    a: ApproximationTrace,
    pairing: Callable[[int, int], int] = cantor_pair,
) -> EnumerationTrace:
    """C.e. record of the approximation: the i-th change of x enters as pair(x, i)."""
    if a.initial:
        raise ValueError("change sets are defined for approximations starting empty")
    counts: dict[int, int] = {}
    events = []
    for s, x, _v in a.events:
        i = counts.get(x, 0)
        counts[x] = i + 1
        p = pairing(x, i)
        if p < x:
            raise ValueError("pairing must satisfy pair(x, i) >= x")
        events.append((s, p, 1))
    return EnumerationTrace(a.horizon, events)


def decode_change_set(
    cs: EnumerationTrace,
    unpair: Callable[[int], tuple[int, int]] = cantor_unpair,
) -> frozenset[int]:
    """Recover the approximated set from its change set at the horizon."""
    counts: dict[int, int] = {}
    for p in cs.final_set():
        x, _i = unpair(p)
        counts[x] = counts.get(x, 0) + 1
    return frozenset(x for x, n in counts.items() if n % 2 == 1)


def join(a: ApproximationTrace, b: ApproximationTrace) -> ApproximationTrace:
    """Trace of the effective join: evens from the first, odds from the second."""
    if a.horizon != b.horizon:
        raise Mismatch("traces must share a horizon")
    events = [(s, 2 * x, v) for s, x, v in a.events]
    events += [(s, 2 * x + 1, v) for s, x, v in b.events]
    events.sort(key=lambda e: e[0])
    initial = {2 * x for x in a.initial} | {2 * x + 1 for x in b.initial}
    return ApproximationTrace(a.horizon, events, initial)


def normalize_zero_before_diagonal(a: ApproximationTrace) -> ApproximationTrace:
    """Force value 0 at every (x, s) with s < x; cost-neutral for any cost function."""
    events = [
        (s, x, a.value(x, s))
        for x in sorted(a.positions())
        for s in {max(x, 1), *a.stages_of(x)}
        if s >= x
    ]
    return ApproximationTrace.from_values(a.horizon, events, a.initial & {0})


def _blocks_to_trace(
    horizon: int,
    stages: Sequence[int],
    timelines: dict[int, list[tuple[int, int]]],
) -> ApproximationTrace:
    """Assemble a trace from per-position (block index, value) timelines.

    A 1 at block 0 lands in the initial snapshot; later blocks become
    events at the corresponding real stages.  Values persist between entries.
    """
    initial = [x for x, history in timelines.items() if (0, 1) in history]
    events = [(stages[k], x, v) for x, history in timelines.items() for k, v in history if k]
    return ApproximationTrace.from_values(horizon, events, initial)


def _change_blocks(
    changes: Iterable[int], stages: Sequence[int], lo: int, lag: int
) -> list[tuple[int, int]]:
    """(k, stages[k + lag]) for each block k > lo whose look-ahead stage first sees a change.

    k runs up to len(stages) - 1 - lag, the last block with a look-ahead stage.
    """
    ks = {bisect.bisect_left(stages, t) - lag for t in changes}
    return [(k, stages[k + lag]) for k in sorted(ks) if lo < k < len(stages) - lag]


def _check_final(out: ApproximationTrace, expected: frozenset[int], what: str) -> None:
    if out.final_set() != expected:
        raise Mismatch(f"{what} does not preserve the final set at this horizon")


def ibT_transfer(
    g: IbTFunctional,
    b: ApproximationTrace,
    c: CostFn,
    *,
    x_bound: int | None = None,
) -> LookAheadResult:
    """Approximation of the functional's output, never costlier than the oracle's.

    Stage sequence: s(i+1) is the least stage at which the functional has
    converged on every input below s(i).  Block values are the look-ahead
    evaluations two blocks ahead; positions outside the declared sensitivity
    window of any oracle event are evaluated once.
    """
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

    width = g.window
    positions = b.positions()
    if x_bound is None:
        x_bound = max([x + (width or 0) + 1 for x in positions] or [1])
    x_bound = min(x_bound, stages[K - 2])

    timelines: dict[int, list[tuple[int, int]]] = {}
    for x in range(x_bound):
        i = seq.block_of(x)
        near = positions if width is None else range(max(0, x - width), x + 1)
        changes = [t for y in near if y <= x for t in b.stages_of(y)]
        history = []
        for k, t in [(0, stages[i + 2])] + _change_blocks(changes, stages, i, 2):
            v = g.at(b, x, t)
            if v is None:
                raise StageSeqExhausted(f"functional diverges on input {x}")
            history.append((k, v))
        timelines[x] = history

    out = _blocks_to_trace(b.horizon, stages, timelines)
    expected = frozenset(
        x for x in range(x_bound) if g.at(b, x, b.horizon) == 1
    )
    _check_final(out, expected, "functional transfer")
    bound = cost_of_trace(c, b).total
    total = cost_of_trace(c, out).total
    return LookAheadResult(out, seq, total, bound)


def conjoin(
    e: ApproximationTrace,
    f: ApproximationTrace,
    c: CostFn,
    d: CostFn,
) -> LookAheadResult:
    """Single approximation obeying the sum of two costs, up to additive slack 4.

    Inputs are normalized to be zero above the diagonal (a cost-neutral
    pre-pass), then merged along the agreement stage sequence with the
    two-case block value rule.
    """
    final = require_same_final_set(e, f)
    if e.horizon != f.horizon:
        raise Mismatch("traces must share a horizon")
    e = normalize_zero_before_diagonal(e)
    f = normalize_zero_before_diagonal(f)

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
        timelines[x] = [(i, e.value(x, stages[j + 1]))] + [
            (k, e.value(x, t)) for k, t in _change_blocks(e.stages_of(x), stages, j, 1)
        ]

    out = _blocks_to_trace(e.horizon, stages, timelines)
    _check_final(out, final, "conjunction")
    combined = cost_of_trace(c, out).total + cost_of_trace(d, out).total
    bound = Fraction(4) + cost_of_trace(c, e).total + cost_of_trace(d, f).total
    return LookAheadResult(out, seq, combined, bound)


def implication_transfer(
    a: ApproximationTrace,
    c: CostFn,
    d: CostFn,
    N: int,
) -> LookAheadResult:
    """Re-approximate along stages where N*c dominates d, transferring obedience.

    Stage sequence: s(i+1) is the least stage s > s(i) with
    N*c(x, s) > d(x, s) for every x < s(i); raises StageSeqExhausted when the
    domination premise is unwitnessed at this horizon.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    fails = _first_failures(c, d, N)
    stages = [0]
    while stages[-1] < a.horizon:
        top = stages[-1]
        for cand in range(top + 1, a.horizon + 1):
            if fails is not None:
                ok = fails[cand] >= top
            else:
                ok = all(N * c(x, cand) > d(x, cand) for x in range(top))
            if ok:
                stages.append(cand)
                break
        else:
            break  # no later stage dominates below top
    if len(stages) < 4:
        raise StageSeqExhausted(
            "domination stages outran the horizon; the premise is unwitnessed"
        )
    seq = StageSeq(tuple(stages), "domination")
    K = len(stages) - 1

    timelines: dict[int, list[tuple[int, int]]] = {}
    for x in sorted(a.positions()):
        i = seq.block_of(x)
        if i + 2 > K:
            continue
        # the first entry reads block i + 1's look-ahead stage
        timelines[x] = [(0, a.value(x, stages[i + 2]))] + [
            (k, a.value(x, t)) for k, t in _change_blocks(a.stages_of(x), stages, i + 1, 1)
        ]

    out = _blocks_to_trace(a.horizon, stages, timelines)
    _check_final(out, a.final_set(), "implication transfer")
    total = cost_of_trace(d, out).total
    bound = N * cost_of_trace(c, a).total
    return LookAheadResult(out, seq, total, bound)


def _first_failures(c: CostFn, d: CostFn, N: int) -> list[int] | None:
    """Per stage s, the least x with N*c(x, s) <= d(x, s), found by potential.

    Only for two additive costs over one denominator and one column length;
    None otherwise.  For x <= s the inequality reads v[s] <= v[x] for the
    potential v = N*u_c - u_d on exact ints, so x is where the running
    maximum of v first reaches v[s]; at the latest x = s, where both vanish.
    """
    both = isinstance(c, AdditiveCost) and isinstance(d, AdditiveCost)
    if not both or c.den != d.den or len(c.units) != len(d.units):
        return None
    v = [N * a - b for a, b in zip(c.units, d.units)]
    peak = list(itertools.accumulate(v, max))
    return [bisect.bisect_left(peak, w) for w in v]


@dataclass(frozen=True)
class OmegaCeBound:
    """Computable change-count bounds extracted from a proper cost function."""

    bounds: dict[int, int]
    first_positive: dict[int, int]
    normalized_counts: dict[int, int]
    violations: tuple[int, ...]

    def bound(self, x: int) -> int:
        return self.bounds[x]

    @property
    def ok(self) -> bool:
        return not self.violations


def omega_ce_bound(a: ApproximationTrace, c: CostFn, X: int) -> OmegaCeBound:
    """bound(x) = ceil(total / c(x, g(x))) where g(x) is the first positive stage.

    The normalized trace ignores changes before g(x); its recorded change
    counts must respect the bound for monotone c.
    """
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
        counts[x] = sum(1 for s in a.stages_of(x) if s > g)
        if counts[x] > bounds[x]:
            bad.append(x)
    return OmegaCeBound(bounds, dict(witnesses.witnesses), counts, tuple(bad))


@dataclass(frozen=True)
class SameRealResult:
    """Transfer of obedience between two approximations of one real."""

    trace: ApproximationTrace
    stages: StageSeq
    f: dict[int, int]
    exceptions: frozenset[int] | None
    output_total: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.output_total <= self.bound


def same_real_transfer(
    a: LeftCEReal,
    b: LeftCEReal,
    ta: ApproximationTrace,
) -> SameRealResult:
    """Move a trace obeying one approximation's cost to the other approximation.

    Builds the synchronizing stage sequence |a(s_i) - b(s_i)| <= 2^-i, the
    strictly increasing displacement f with a(x) <= b(f(x)), and the output
    trace; for enumerations also the computable exception set R with
    output = f(input - R).
    """
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
        t = bisect.bisect_left(b.seq, a.at(x), 0, horizon + 1)
        if t > horizon:
            raise StageSeqExhausted(f"f({x}) is unwitnessed at the horizon")
        f[x] = max(t, prev + 1)
        prev = f[x]

    if ta.is_enumeration and not ta.initial:
        events = []
        exceptions = set()
        for s_ev, x, _v in ta.events:
            idx = seq.block_of(s_ev)
            if idx < 0 or f[x] > stages[idx]:
                exceptions.add(x)
                continue
            events.append((max(stages[idx], 1), f[x], 1))
        events.sort(key=lambda e: e[0])
        out: ApproximationTrace = EnumerationTrace(horizon, events)
        expected = frozenset(
            f[x] for x in ta.final_set() if x not in exceptions
        )
        _check_final(out, expected, "same-real transfer")
        exc: frozenset[int] | None = frozenset(exceptions)
    else:
        timelines: dict[int, list[tuple[int, int]]] = {}
        for x in sorted(ta.positions()):
            k0 = bisect.bisect_left(stages, f[x])
            if k0 == len(stages):
                raise StageSeqExhausted(f"no synchronizing stage above f({x})")
            timelines[f[x]] = [(0, ta.value(x, stages[k0]))] + [
                (k, ta.value(x, t)) for k, t in _change_blocks(ta.stages_of(x), stages, k0, 0)
            ]
        out = _blocks_to_trace(horizon, stages, timelines)
        exc = None

    cost_b = additive_from_real(LeftCEReal(b.units[: horizon + 1], b.den, b.cap))
    cost_a = additive_from_real(LeftCEReal(a.units[: horizon + 1], a.den, a.cap))
    total = cost_of_trace(cost_b, out).total
    bound = cost_of_trace(cost_a, ta).total + 2
    return SameRealResult(out, seq, f, exc, total, bound)


def decide_from_cost(
    c: CostFn, a: ApproximationTrace, S_total: Fraction, x: int
) -> int:
    """Final value of position x, decided from a computable total cost.

    Finds a stage t with positive cost at x and residual total below it;
    from then on the position cannot change.
    """
    ledger = cost_of_trace(c, a)
    if ledger.total != S_total:
        raise ValueError("S_total must be the exact ledger total of the trace")
    partial = ZERO
    charges = {s: amt for s, _x, amt in ledger.charges}
    for t in range(1, a.horizon + 1):
        partial += charges.get(t, ZERO)
        delta = c(x, t)
        if delta > 0 and S_total - partial < delta:
            return a.value(x, t)
    raise NoWitness(f"no decisive stage for position {x} at this horizon")
