"""Cost functions, computable approximations, and total-cost ledgers.

Everything here is finite-horizon: a cost function is evaluable on
``[0, S] x [0, S]`` and every limit-flavored check is an explicitly labeled
proxy for the corresponding statement about all stages.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import Mismatch
from .util import ZERO


@dataclass(frozen=True)
class CostProps:
    """Structural properties a cost function declares about itself."""

    monotone_main: bool = False   # nonincreasing in x
    monotone_stage: bool = False  # zero for x > s, nondecreasing in s
    additive: bool = False        # c(x,y) + c(y,z) == c(x,z)

    @property
    def monotone(self) -> bool:
        return self.monotone_main and self.monotone_stage


@dataclass(frozen=True)
class CostFn:
    """A stage-evaluable cost function c(x, s) = units(x, s) / den, exact.

    ``eval_fn`` is the one evaluator: pure, deterministic, and returning
    nonnegative int units over the declared ``den``.  ``units(x, s)`` is the
    checked entry (a natural x, a nonnegative cost, zero above the diagonal
    when declared stage-monotone) and ``c(x, s)`` its ``Fraction`` view.
    Ledgers, chains and the checks below sum and compare the units.  Each
    constructor's den:

    - ``additive_cost`` (and ``cost_omega``, ``cost_g``,
      ``additive_from_real`` on it): the column's own denominator;
    - ``complexity_sum``/``cost_k`` and ``cost_max``: 2^scale of the K_s
      index, its longest length;
    - ``cost_from_approx``: 2^max h(e) over the least changed positions e;
    - ``rescale_to_unit``: the rescaled cost's den times 2^k;
    - ``geometric_cost``: 2^horizon.

    Each of these constructors clamps s to the horizon.  ``bulk`` and
    ``stage_scan`` are class attributes, always None and not fields: the
    benchmark's tracer still reads them, so they stay only until the
    benchmark change that deletes them (see ROADMAP.md).
    """

    name: str
    horizon: int
    eval_fn: Callable[[int, int], int]
    den: int
    props: CostProps = field(default_factory=CostProps)
    bulk = None
    stage_scan = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.den < 1:
            raise ValueError("a cost function needs a positive denominator")
        # construction-time screen: a handful of sampled points must satisfy
        # the declared sign/zero constraints
        probes = {0, 1, self.horizon // 2, self.horizon}
        for x in probes:
            for s in probes:
                self.units(x, s)

    def units(self, x: int, s: int) -> int:
        """c(x, s) * den, checked."""
        if x < 0:
            raise ValueError("stage must be a natural")
        u = self.eval_fn(x, s)
        if u < 0:
            raise ValueError(f"{self.name}: negative cost at ({x}, {s})")
        if u and x > s and self.props.monotone_stage:
            raise ValueError(f"{self.name}: nonzero cost above the diagonal at ({x}, {s})")
        return u

    def fraction(self, units: int) -> Fraction:
        """units / den as a Fraction.

        Over a den longer than a machine word, the trailing zero bits that
        units and den share are stripped first, so a power-of-two den costs
        the Fraction no long gcd.
        """
        den = self.den
        if units and den.bit_length() > 64:
            shift = min(units & -units, den & -den).bit_length() - 1
            units, den = units >> shift, den >> shift
        return Fraction(units, den)

    def __call__(self, x: int, s: int) -> Fraction:
        return self.fraction(self.units(x, s))


def cost_fn(
    name: str,
    horizon: int,
    eval_fn: Callable[[int, int], int],
    *,
    den: int,
    monotone_main: bool = False,
    monotone_stage: bool = False,
    additive: bool = False,
) -> CostFn:
    props = CostProps(monotone_main, monotone_stage, additive)
    return CostFn(name, horizon, eval_fn, den, props)


@dataclass(frozen=True, kw_only=True)
class AdditiveCost(CostFn):
    """c(x, s) = (column[min(s, h)] - column[min(x, h)]) / den for x <= s, else 0.

    ``column`` is a nondecreasing integer column on stages 0..h.  ``grid``
    is the pair (matrix, den) with matrix[x][s] == c(x, s) * den, built when
    first read; int64 when the column fits, exact ints beyond.
    """

    column: tuple[int, ...] = field(repr=False)

    @cached_property
    def grid(self) -> tuple[np.ndarray, int]:
        u = self.column
        fits = -(1 << 62) <= u[0] and u[-1] < 1 << 62
        col = np.array(u, dtype=np.int64 if fits else object)
        # the column never decreases, so s < x gives a nonpositive difference
        matrix = col[None, :] - col[:, None]
        return np.maximum(matrix, 0, out=matrix), self.den


def additive_cost(name: str, units: Iterable[int], den: int) -> AdditiveCost:
    """The additive cost of an integer column over one denominator (see AdditiveCost)."""
    units = tuple(units)
    h = len(units) - 1
    if h < 0 or den < 1:
        raise ValueError("an additive cost needs a unit column and a positive denominator")
    if any(map(operator.gt, units, units[1:])):
        raise ValueError(f"{name}: units must not decrease")

    def ev(x: int, s: int) -> int:
        if x > s:
            return 0
        return units[s if s < h else h] - units[x if x < h else h]

    props = CostProps(monotone_main=True, monotone_stage=True, additive=True)
    return AdditiveCost(name, max(h, 1), ev, den, props, column=units)


def geometric_cost(horizon: int) -> CostFn:
    """c(x, s) = 2^-x for x <= min(s, horizon), else 0, over den 2^horizon;
    the simplest proper monotone example."""

    def ev(x: int, s: int) -> int:
        return 1 << (horizon - x) if x <= s and x <= horizon else 0

    return cost_fn(
        "geometric", horizon, ev, den=1 << horizon,
        monotone_main=True, monotone_stage=True,
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
        if min(self.initial, default=0) < 0:
            raise ValueError("initial positions must be naturals")
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
    taken at the least changed position.  ``units`` holds the charges as
    int units over the cost's den; ``charges``, ``total`` and ``partial``
    are their exact ``Fraction`` views, each a sum of those units.
    """

    cost: CostFn = field(repr=False)
    units: tuple[tuple[int, int, int], ...]  # (stage, least x, units)

    @cached_property
    def charges(self) -> tuple[tuple[int, int, Fraction], ...]:
        fraction = self.cost.fraction
        return tuple((s, x, fraction(u)) for s, x, u in self.units)

    @cached_property
    def total(self) -> Fraction:
        return self.cost.fraction(sum(u for _s, _x, u in self.units))

    def partial(self, t: int) -> Fraction:
        """Total of charges at stages <= t."""
        return self.cost.fraction(sum(u for s, _x, u in self.units if s <= t))


def cost_of_trace(c: CostFn, a: ApproximationTrace) -> CostLedger:
    """Exact total cost of all changes, charged at the least changed position."""
    if a.horizon > c.horizon:
        raise ValueError("trace horizon exceeds the cost function's horizon")
    units = c.units
    charged = [
        (s, xs[0], units(xs[0], s)) for s, xs in sorted(a.change_stages().items()) if xs[0] < s
    ]
    return CostLedger(c, tuple(charged))


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
    rows = [[c.units(x, s) for s in range(S + 1)] for x in range(X + 1)]
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
        out[x] = next((t for t in range(c.horizon + 1) if c.units(x, t) > 0), None)
    return ProperReport(out)


def limit_estimate(c: CostFn, x: int) -> Fraction:
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
    return c.fraction(min(c.units(x, s) for s in range(c.horizon // 2, c.horizon + 1)))


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
    units, den = c.units, c.den
    chain = [0]
    # c is nondecreasing in s: gallop from x at s = x + 1, x + 2, x + 4, ...
    # up to S, then bisect between the last miss and the first hit, at most
    # 2 ceil(log2 g) + 1 evaluations for a gap g; a miss at S ends the chain
    while chain[-1] < S:
        x = miss = chain[-1]
        # c(x, s) >= 2^-n, on ints
        reaches = lambda s: units(x, s) << n >= den  # noqa: E731
        step = 1
        while not reaches(hit := min(x + step, S)):
            if hit == S:
                return BenignChain(n, tuple(chain))
            miss, step = hit, step * 2
        chain.append(bisect.bisect_left(range(S + 1), True, miss + 1, hit, key=reaches))
    return BenignChain(n, tuple(chain))


def require_same_final_set(a: ApproximationTrace, b: ApproximationTrace) -> frozenset[int]:
    fa, fb = a.final_set(), b.final_set()
    if fa != fb:
        raise Mismatch(f"final sets differ: {sorted(fa)} vs {sorted(fb)}")
    return fa
