"""Cost functions, computable approximations, and total-cost ledgers.

Everything here is finite-horizon: a cost function is evaluable on
``[0, S] x [0, S]`` and every limit-flavored check is an explicitly labeled
proxy for the corresponding statement about all stages.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import Mismatch
from .util import ZERO, pow2


@dataclass(frozen=True)
class CostProps:
    """Structural properties a cost function declares about itself."""

    monotone_main: bool = False   # nonincreasing in x
    monotone_stage: bool = False  # zero for x > s, nondecreasing in s
    additive: bool = False        # c(x,y) + c(y,z) == c(x,z)
    proper: bool = False          # every x eventually has positive cost

    @property
    def monotone(self) -> bool:
        return self.monotone_main and self.monotone_stage


@dataclass(frozen=True)
class CostFn:
    """A stage-evaluable cost function c(x, s) with exact rational values.

    Evaluators must be pure and deterministic; ``eval_fn`` is the one
    evaluator and every call goes through it.  Every stage is a natural:
    the public calls raise on a negative x.  ``bulk`` and ``stage_scan`` are
    unused, always None, and kept only because the benchmark's tracer reads
    them.
    """

    name: str
    horizon: int
    eval_fn: Callable[[int, int], Fraction]
    props: CostProps = field(default_factory=CostProps)
    bulk: Callable[[Sequence[tuple[int, int]]], list[Fraction]] | None = None
    stage_scan: Callable[[int, int], Iterable[tuple[int, Fraction]]] | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        # construction-time screen: a handful of sampled points must satisfy
        # the declared sign/zero constraints
        probes = {0, 1, self.horizon // 2, self.horizon}
        for x in probes:
            for s in probes:
                self._checked(x, s)

    def _checked(self, x: int, s: int) -> Fraction:
        if x < 0:
            raise ValueError("stage must be a natural")
        v = self.eval_fn(x, s)
        if v < 0:
            raise ValueError(f"{self.name}: negative cost at ({x}, {s})")
        if self.props.monotone_stage and x > s and v != 0:
            raise ValueError(f"{self.name}: nonzero cost above the diagonal at ({x}, {s})")
        return v

    def __call__(self, x: int, s: int) -> Fraction:
        return self._checked(x, s)

    def values(self, pairs: Sequence[tuple[int, int]]) -> list[Fraction]:
        """Evaluate many (x, s) pairs with s nondecreasing."""
        return [self._checked(x, s) for x, s in pairs]

    def scan(self, x: int, s_from: int) -> Iterable[tuple[int, Fraction]]:
        """Yield (s, c(x, s)) for s = s_from .. horizon."""
        if x < 0:
            raise ValueError("stage must be a natural")
        for s in range(s_from, self.horizon + 1):
            yield s, self._checked(x, s)


def cost_fn(
    name: str,
    horizon: int,
    eval_fn: Callable[[int, int], Fraction],
    *,
    monotone_main: bool = False,
    monotone_stage: bool = False,
    additive: bool = False,
    proper: bool = False,
) -> CostFn:
    props = CostProps(monotone_main, monotone_stage, additive, proper)
    return CostFn(name, horizon, eval_fn, props)


@dataclass(frozen=True, kw_only=True)
class AdditiveCost(CostFn):
    """c(x, s) = (units[min(s, h)] - units[min(x, h)]) / den for x <= s, else 0.

    ``units`` is a nondecreasing integer column on stages 0..h.  ``grid`` is
    the pair (matrix, den) with matrix[x][s] == c(x, s) * den, built from the
    column when first read; int64 when the column fits, exact ints beyond.
    """

    units: tuple[int, ...] = field(repr=False)
    den: int

    @cached_property
    def grid(self) -> tuple[np.ndarray, int]:
        u = self.units
        fits = -(1 << 62) <= u[0] and u[-1] < 1 << 62
        col = np.array(u, dtype=np.int64 if fits else object)
        # units never decrease, so s < x gives a nonpositive difference
        matrix = col[None, :] - col[:, None]
        return np.maximum(matrix, 0, out=matrix), self.den


def additive_cost(name: str, units: Iterable[int], den: int, *, proper: bool = False) -> AdditiveCost:
    """The additive cost of an integer column over one denominator (see AdditiveCost)."""
    units = tuple(units)
    h = len(units) - 1
    if h < 0 or den < 1:
        raise ValueError("an additive cost needs a unit column and a positive denominator")
    if any(a > b for a, b in zip(units, units[1:])):
        raise ValueError(f"{name}: units must not decrease")

    def ev(x: int, s: int) -> Fraction:
        if x > s:
            return ZERO
        if x < 0:
            raise ValueError("stage must be a natural")
        return Fraction(units[s if s < h else h] - units[x if x < h else h], den)

    props = CostProps(monotone_main=True, monotone_stage=True, additive=True, proper=proper)
    return AdditiveCost(name, max(h, 1), ev, props, units=units, den=den)


def geometric_cost(horizon: int) -> CostFn:
    """c(x, s) = 2^-x for x <= s, else 0; the simplest proper monotone example."""

    def ev(x: int, s: int) -> Fraction:
        return pow2(x) if x <= s else ZERO

    return cost_fn(
        "geometric", horizon, ev, monotone_main=True, monotone_stage=True, proper=True
    )


class ApproximationTrace:
    """Finite event log of a computable approximation.

    ``initial`` holds the positions set to 1 before stage 1; each event
    (s, x, v) flips position x to v at stage s and must be a real change.
    Snapshots are materialized lazily from the per-position event lists.
    """

    def __init__(
        self,
        horizon: int,
        events: Iterable[tuple[int, int, int]] = (),
        initial: Iterable[int] = (),
    ):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.horizon = horizon
        self.initial = frozenset(initial)
        evs = tuple(events)
        last = 0
        per_x: dict[int, list[tuple[int, int]]] = {}
        for s, x, v in evs:
            if not (1 <= s <= horizon):
                raise ValueError(f"event stage {s} outside [1, {horizon}]")
            if v not in (0, 1) or x < 0:
                raise ValueError("events are (stage, position, bit)")
            if s < last:
                raise ValueError("event stages must be nondecreasing")
            last = s
            hist = per_x.setdefault(x, [])
            prev = hist[-1][1] if hist else (1 if x in self.initial else 0)
            if v == prev:
                raise ValueError(f"event ({s}, {x}, {v}) is not a change")
            if hist and hist[-1][0] == s:
                raise ValueError(f"two events for position {x} at stage {s}")
            hist.append((s, v))
        self.events = evs
        self._per_x = per_x

    @classmethod
    def from_values(
        cls, horizon: int, events: Iterable[tuple[int, int, int]], initial: Iterable[int] = ()
    ) -> "ApproximationTrace":
        """Build a trace from possibly redundant (s, x, v) assignments."""
        init = frozenset(initial)
        state: dict[int, int] = {}
        cleaned = []
        for s, x, v in sorted(events, key=lambda e: e[0]):
            prev = state.get(x, 1 if x in init else 0)
            if v != prev:
                cleaned.append((s, x, v))
                state[x] = v
        return cls(horizon, cleaned, init)

    def value(self, x: int, s: int) -> int:
        hist = self._per_x.get(x)
        v = 1 if x in self.initial else 0
        if not hist:
            return v
        idx = bisect.bisect_right(hist, (s, 2)) - 1
        return hist[idx][1] if idx >= 0 else v

    def final_set(self) -> frozenset[int]:
        out = set(self.initial)
        for x, hist in self._per_x.items():
            if hist[-1][1] == 1:
                out.add(x)
            else:
                out.discard(x)
        return frozenset(out)

    def snapshot(self, s: int) -> frozenset[int]:
        out = set(self.initial)
        for x, hist in self._per_x.items():
            idx = bisect.bisect_right(hist, (s, 2)) - 1
            if idx >= 0:
                if hist[idx][1] == 1:
                    out.add(x)
                else:
                    out.discard(x)
        return frozenset(out)

    def positions(self) -> frozenset[int]:
        return frozenset(self._per_x) | self.initial

    def change_stages(self) -> dict[int, list[int]]:
        """Stage -> sorted positions changed at that stage."""
        by_stage: dict[int, list[int]] = {}
        for s, x, _v in self.events:
            by_stage.setdefault(s, []).append(x)
        for xs in by_stage.values():
            xs.sort()
        return by_stage

    def stages_of(self, x: int) -> list[int]:
        """Stages at which x changes, in increasing order."""
        return [s for s, _v in self._per_x.get(x, ())]

    def change_count(self, x: int) -> int:
        return len(self._per_x.get(x, ()))

    @property
    def is_enumeration(self) -> bool:
        return all(v == 1 for _s, _x, v in self.events)


class EnumerationTrace(ApproximationTrace):
    """Monotone special case: events only ever enumerate positions in."""

    def __init__(self, horizon, events=(), initial=()):
        super().__init__(horizon, events, initial)
        if not self.is_enumeration:
            raise ValueError("an enumeration trace cannot remove positions")


@dataclass(frozen=True)
class CostLedger:
    """Per-stage charge record of a trace against a cost function.

    One charge per stage with a change at some position below the stage,
    taken at the least changed position; the total is the exact sum.
    """

    charges: tuple[tuple[int, int, Fraction], ...]  # (stage, least x, amount)
    total: Fraction

    def __post_init__(self):
        if sum((a for _s, _x, a in self.charges), ZERO) != self.total:
            raise ValueError("ledger total does not match the charges")

    def partial(self, t: int) -> Fraction:
        """Total of charges at stages <= t."""
        return sum((a for s, _x, a in self.charges if s <= t), ZERO)


def cost_of_trace(c: CostFn, a: ApproximationTrace) -> CostLedger:
    """Exact total cost of all changes, charged at the least changed position."""
    if a.horizon > c.horizon:
        raise ValueError("trace horizon exceeds the cost function's horizon")
    queries = []
    for s, xs in sorted(a.change_stages().items()):
        x = xs[0]
        if x < s:
            queries.append((x, s))
    amounts = c.values(queries)
    charges = tuple((s, x, v) for (x, s), v in zip(queries, amounts))
    return CostLedger(charges, sum(amounts, ZERO))


def obeys_at_horizon(c: CostFn, a: ApproximationTrace, bound: Fraction) -> bool:
    """Finite-horizon proxy for obedience: total cost within the bound."""
    return cost_of_trace(c, a).total <= bound


@dataclass(frozen=True)
class MonotoneReport:
    checked: int
    main_violations: tuple[tuple[int, int], ...]
    stage_violations: tuple[tuple[int, int], ...]
    diagonal_violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not (
            self.main_violations or self.stage_violations or self.diagonal_violations
        )


def check_monotone(c: CostFn, X: int, S: int) -> MonotoneReport:
    """Exhaustively verify both monotonicity axes on [0, X] x [0, S]."""
    if X > c.horizon or S > c.horizon:
        raise ValueError("check window exceeds the horizon")
    main, stage, diag = [], [], []
    rows = [[c(x, s) for s in range(S + 1)] for x in range(X + 1)]
    for x in range(X + 1):
        for s in range(S + 1):
            if x > s and rows[x][s] != 0:
                diag.append((x, s))
            if s < S and rows[x][s] > rows[x][s + 1]:
                stage.append((x, s))
            if x < X and rows[x + 1][s] > rows[x][s]:
                main.append((x, s))
    return MonotoneReport((X + 1) * (S + 1), tuple(main), tuple(stage), tuple(diag))


@dataclass(frozen=True)
class ProperReport:
    witnesses: dict[int, int | None]  # x -> least t with c(x, t) > 0, None if unwitnessed

    @property
    def all_witnessed(self) -> bool:
        return all(t is not None for t in self.witnesses.values())


def check_proper(c: CostFn, X: int) -> ProperReport:
    """Least positive-cost stage for each x <= X; a semi-decision at the horizon."""
    if not c.props.monotone_main:
        raise ValueError("properness is defined for main-monotone cost functions")
    out: dict[int, int | None] = {}
    for x in range(X + 1):
        out[x] = None
        for t, v in c.scan(x, 0):
            if v > 0:
                out[x] = t
                break
    return ProperReport(out)


def limit_estimate(c: CostFn, x: int, *, tail_from: int | None = None) -> Fraction:
    """Finite-horizon proxy for the limit value of c(x, .).

    For stage-monotone cost functions this is the exact supremum over
    observed stages, c(x, horizon).  Otherwise it is the minimum over the
    documented tail window [horizon/2, horizon] - a heuristic stand-in for
    the limit inferior, flagged as such.
    """
    if x >= c.horizon:
        return ZERO
    if c.props.monotone_stage:
        return c(x, c.horizon)
    start = c.horizon // 2 if tail_from is None else tail_from
    return min(c(x, s) for s in range(start, c.horizon + 1))


@dataclass(frozen=True)
class BenignChain:
    """Greedy maximal chain x_0 < ... < x_k with per-interval cost >= 2^-n."""

    n: int
    chain: tuple[int, ...]

    @property
    def k(self) -> int:
        return max(len(self.chain) - 1, 0)


def benign_witness(c: CostFn, n: int, S: int) -> BenignChain:
    """Greedy chain witnessing the benignity bound at level n.

    Each next element is the least s with c(x_i, s) >= 2^-n; for monotone c
    the greedy chain is maximal at this horizon.
    """
    if not c.props.monotone:
        raise ValueError("benignity chains need a monotone cost function")
    if S > c.horizon:
        raise ValueError("chain bound exceeds the horizon")
    threshold = pow2(n)
    chain = [0]
    # c is nondecreasing in s, so a next link up to S exists exactly when
    # c(x, S) reaches the threshold, and a bisection finds the least one
    while chain[-1] < S and c(chain[-1], S) >= threshold:
        x = chain[-1]
        reaches = lambda s: c(x, s) >= threshold  # noqa: E731
        chain.append(bisect.bisect_left(range(S + 1), True, x + 1, key=reaches))
    return BenignChain(n, tuple(chain))


def require_same_final_set(a: ApproximationTrace, b: ApproximationTrace) -> frozenset[int]:
    fa, fb = a.final_set(), b.final_set()
    if fa != fb:
        raise Mismatch(f"final sets differ: {sorted(fa)} vs {sorted(fb)}")
    return fa
