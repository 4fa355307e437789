"""Toy prefix-free machine layer.

Bounded request sets, the machine-existence builder (leftmost-fit interval
allocation on the unit interval), and staged complexity providers that supply
``K_s(w)`` values and the domain measure ``omega(s)`` for everything else in
the package.  All weights are exact rationals; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from typing import Callable, Iterable, NamedTuple

from .complexity import KIndex
from .errors import WeightOverflow
from .util import dyadic_sum, floor_log2, pow2

INF = None  # complexity value for "no description yet"


@dataclass(frozen=True)
class RequestSet:
    """Append-only schedule of (length, target) description requests.

    ``weight`` is the exact sum of 2^-r over the entries, computed once on
    construction, and never exceeds 1 (bounded request set condition).
    """

    entries: tuple[tuple[int, int, int], ...] = ()  # (length r, target y, stage)
    weight: Fraction = field(init=False)

    def __post_init__(self):
        last_stage = 0
        for r, y, stage in self.entries:
            if r < 0 or y < 0 or stage < 0:
                raise ValueError("request fields must be naturals")
            if stage < last_stage:
                raise ValueError("request stages must be nondecreasing")
            last_stage = stage
        w = dyadic_sum(r for r, _y, _stage in self.entries)
        if w > 1:
            raise WeightOverflow(f"request weight {w} exceeds 1")
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return len(self.entries)


def kc_add(rs: RequestSet, r: int, y: int, stage: int) -> RequestSet:
    """Append a request, updating the weight exactly.

    Only the new entry is checked: ``rs`` is already a validated request set,
    so an append does not recheck the whole set.  Raises WeightOverflow when
    the new weight would exceed 1, signalling that the caller's schedule is
    not a bounded request set.
    """
    if r < 0 or y < 0 or stage < 0:
        raise ValueError("request fields must be naturals")
    if rs.entries and stage < rs.entries[-1][2]:
        raise ValueError("request stages must be nondecreasing")
    new_weight = rs.weight + pow2(r)
    if new_weight > 1:
        raise WeightOverflow(
            f"adding 2^-{r} lifts the weight to {new_weight} > 1"
        )
    out = object.__new__(RequestSet)  # skips __post_init__'s full recheck
    object.__setattr__(out, "entries", rs.entries + ((r, y, stage),))
    object.__setattr__(out, "weight", new_weight)
    return out


def request_set(items: Iterable[tuple[int, int, int]]) -> RequestSet:
    """The request set of a complete schedule, validated once."""
    return RequestSet(tuple((r, y, stage) for r, y, stage in items))


@dataclass(frozen=True)
class PrefixMachine:
    """A finite prefix-free machine: bit-string descriptions mapped to outputs."""

    descriptions: tuple[tuple[str, int], ...]  # (description, output)

    def kraft_sum(self) -> Fraction:
        return dyadic_sum(len(sigma) for sigma, _ in self.descriptions)

    def domain(self) -> tuple[str, ...]:
        return tuple(sigma for sigma, _ in self.descriptions)


def check_prefix_free(strings: Iterable[str]) -> list[tuple[str, str]]:
    """Return all (prefix, extension) conflicts among the given strings.

    Sorting makes this complete: a string that is a prefix of another, or
    equal to it, is a prefix of its immediate lexicographic successor.
    """
    ordered = sorted(strings)
    conflicts = []
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            conflicts.append((a, b))
    return conflicts


def _allocate(requests: Iterable[tuple[int, int]], d: int) -> PrefixMachine:
    """Leftmost-fit allocation of a dyadic subinterval of [0, 1) of length
    r + d to each (length r, output y) request.

    The free pieces have distinct lengths that fall from left to right, so
    the leftmost piece that fits a length L is the longest free length <= L:
    the top bit at or below L of ``free``, whose bit l is set when the piece
    [k 2^-l, (k + 1) 2^-l) with k = ``pos[l]`` is free.  A split frees one
    sibling of each length l + 1..L, so allocation fails only when the
    remaining measure is below 2^-L.
    """
    free, pos, described = 1, {0: 0}, []
    for r, y in requests:
        L = r + d
        l = (free & ((2 << L) - 1)).bit_length() - 1
        if l < 0:
            raise WeightOverflow("no free interval fits the requested length")
        taken = pos.pop(l) << (L - l)
        free ^= (2 << L) - (1 << l)  # clears bit l, sets the split's bits l + 1..L
        for m in range(l + 1, L + 1):
            pos[m] = (taken >> (L - m)) + 1
        described.append((bin(taken | 1 << L)[3:], y))
    return PrefixMachine(tuple(described))


def kc_machine(rs: RequestSet, d: int) -> PrefixMachine:
    """Realize a bounded request set as a prefix-free machine.

    Every request (r, y) receives a description of length exactly r + d.
    The assignment is deterministic given entry order.
    """
    if d < 0:
        raise ValueError("coding constant must be a natural")
    return _allocate(((r, y) for r, y, _stage in rs.entries), d)


@dataclass(frozen=True)
class BaselineConfig:
    """Constants of the deterministic baseline schedule.

    The infinite schedule's Kraft mass is 2^-main_offset + 2^-shortcut_offset;
    the builder refuses configs where this exceeds 1.
    """

    main_offset: int = 3
    shortcut_offset: int = 5
    delay: Callable[[int], int] = field(default=lambda j: 2 ** (j + 1))

    def main_length(self, w: int) -> int:
        return 2 * floor_log2(w + 2) + self.main_offset

    def shortcut_length(self, j: int) -> int:
        return 2 * floor_log2(j + 2) + self.shortcut_offset

    def infinite_weight(self) -> Fraction:
        return pow2(self.main_offset) + pow2(self.shortcut_offset)


class _Grant(NamedTuple):
    """One honored description: measured at omega_stage, usable from k_stage.

    Plain tuple order is the providers' grant order: by omega stage, then
    length, then target (k_stage is max(omega_stage, target + 1)).
    """

    omega_stage: int
    length: int
    target: int
    k_stage: int


class KProvider:
    """Stagewise complexity table and domain measure of a schedule-driven machine.

    ``k(w, s)`` is the least description length for w granted before or at
    stage s, with the convention that it is infinite (None) whenever w >= s
    or s lies beyond the horizon; ``index`` holds these values (see
    ``costlab.complexity``).  ``omega(s)`` is the exact domain measure after
    stage s.  Providers are immutable after construction, apart from the
    index, which is built once on first use (a registered provider's is
    derived from its base's), and safe for concurrent reads.

    ``baseline_provider`` memoizes its providers, so its callers share one
    provider and one index.  The index's only state that changes is the
    ``frontier`` that sweeps over its events move.  The grants weigh at most
    ``budget_used``, at most 1.  ``KIndex.merge`` is for a ``copy`` only:
    the separation game and ``register_requests`` merge into one.
    """

    def __init__(
        self,
        horizon: int,
        grants: Iterable[_Grant],
        budget_used: Fraction,
        config: BaselineConfig | None = None,
    ):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.horizon = horizon
        self.config = config
        self.grants: tuple[_Grant, ...] = tuple(sorted(grants))
        self.budget_used = budget_used
        if budget_used > 1:
            raise WeightOverflow(f"schedule weight {budget_used} exceeds 1")

        lengths = [g.length for g in self.grants]
        self.max_length = max(lengths, default=0)
        # omega sums the grants in omega-stage order, scaled by 2^max_length
        self._omega_stages = [g.omega_stage for g in self.grants]
        self._omega_scaled = list(
            accumulate(map((1 << self.max_length).__rshift__, lengths), initial=0)
        )
        weight = self._omega_scaled[-1]  # the grants' weight, on ints over 2^max_length
        if weight * budget_used.denominator > budget_used.numerator << self.max_length:
            raise WeightOverflow(f"the grants weigh more than the stated budget {budget_used}")

    @cached_property
    def index(self) -> KIndex:
        """The K_s index of the grants, built on the first query."""
        return KIndex((g.target, g.length, g.k_stage) for g in self.grants)

    def k(self, w: int, s: int) -> int | None:
        """K_s(w): infinite (None) for w >= s or s > horizon, else the best granted length."""
        return self.index.k(w, s) if s <= self.horizon else INF

    def omega_scaled(self, s: int) -> int:
        """omega(s) * 2^max_length, with s clamped to the horizon."""
        return self._omega_scaled[bisect.bisect_right(self._omega_stages, min(s, self.horizon))]

    def omega_column(self) -> list[int]:
        """omega_scaled(s) for every stage s from 0 to the horizon, in one pass:
        the running count of grants per stage is the number of grants by s."""
        per_stage = Counter(self._omega_stages)
        counts = accumulate(map(per_stage.get, range(self.horizon + 1), repeat(0)))
        return list(map(self._omega_scaled.__getitem__, counts))

    def omega(self, s: int) -> Fraction:
        """Exact domain measure of the machine at stage s."""
        if s < 0:
            raise ValueError("stage must be a natural")
        return Fraction(self.omega_scaled(s), 1 << self.max_length)

    def request_schedule(self) -> RequestSet:
        """The full granted schedule, as a bounded request set."""
        return request_set((g.length, g.target, g.omega_stage) for g in self.grants)

    def machine(self) -> PrefixMachine:
        """Materialize the prefix-free machine behind this provider from its
        sorted grants; WeightOverflow when they weigh more than 1."""
        return _allocate(((g.length, g.target) for g in self.grants), 0)


@lru_cache(maxsize=8)
def baseline_provider(S: int, config: BaselineConfig | None = None) -> KProvider:
    """Deterministic baseline schedule up to horizon S.

    Every w is described at stage w + 1 with length 2*floor(log2(w+2)) +
    main_offset; every power 2**j additionally receives a shortcut of length
    2*floor(log2(j+2)) + shortcut_offset at stage delay(j).  The infinite
    schedule's Kraft mass has the closed form checked below.

    The provider is built once per (S, config) and shared by every caller
    (the last eight are kept): it is immutable, and so is its index apart
    from its frontier (see ``KProvider``).
    """
    if S < 1:
        raise ValueError("horizon must be at least 1")
    cfg = config or BaselineConfig()
    if cfg.infinite_weight() > 1:
        raise WeightOverflow(
            f"baseline offsets give infinite Kraft mass {cfg.infinite_weight()} > 1"
        )
    grants = []
    for w in range(S):
        grants.append(_Grant(w + 1, cfg.main_length(w), w, w + 1))
    j = 0
    while cfg.delay(j) <= S:
        stage = cfg.delay(j)
        w = 1 << j
        grants.append(_Grant(stage, cfg.shortcut_length(j), w, max(stage, w + 1)))
        j += 1
    return KProvider(S, grants, cfg.infinite_weight(), cfg)


def _request_grants(rs: RequestSet, d: int) -> list[_Grant]:
    """The grants honoring each request (r, y, t) with length r + d from stage t + 1."""
    if d < 0:
        raise ValueError("coding constant must be a natural")
    return [_Grant(t + 1, r + d, y, max(t + 1, y + 1)) for r, y, t in rs.entries]


def register_requests(p: KProvider, rs: RequestSet, d: int) -> KProvider:
    """Provider additionally honoring each request (r, y, t) as K_s(y) <= r + d for s > t.

    Requests enumerated at stage t take effect at stage t + 1 with the
    declared coding constant d, so the combined Kraft weight must stay
    within the unit budget.  The new provider's index is a copy of p's with
    the requests merged in, equal to a fresh build of all the grants.  Its
    grants are p's, already in order, merged with the new ones: ``sorted``
    takes p's as one run and merges the few new ones into it.
    """
    grants = _request_grants(rs, d)
    added = pow2(d) * rs.weight
    budget = p.budget_used + added
    if budget > 1:
        raise WeightOverflow(
            f"registering weight {added} on top of {p.budget_used} exceeds 1"
        )
    index = p.index.copy()
    index.merge((g.target, g.length, g.k_stage) for g in grants)
    q = KProvider(p.horizon, [*p.grants, *grants], budget, p.config)
    q.index = index
    return q


def provider_from_requests(rs: RequestSet, d: int, S: int) -> KProvider:
    """Provider backed by an explicit schedule only (no baseline).

    With no base index to derive from, its index is built on first use.
    """
    return KProvider(S, _request_grants(rs, d), pow2(d) * rs.weight)
