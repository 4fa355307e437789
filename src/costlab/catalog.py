"""Constructors for the named cost functions and the left-c.e. real correspondence.

The complexity-sum cost function, the domain-measure cost function, additive
cost functions and their left-c.e. real counterparts, the max variant, the
trace-derived recurrence, and the Solovay translation between approximations.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .complexity import Cursor, KIndex, weight_change
from .core import ApproximationTrace, CostFn, additive_cost, cost_fn, limit_estimate
from .errors import NonAdditive
from .machine import KProvider, RequestSet, request_set
from .util import ZERO, least_length, pow2


@dataclass(frozen=True)
class LeftCEReal:
    """Nondecreasing rational stage sequence, bounded by a declared cap."""

    seq: tuple[Fraction, ...]
    cap: Fraction = Fraction(1)

    def __post_init__(self):
        # one comparison per stage: the first value against 0, each later one
        # against its predecessor; the first drop is negative or a decrease
        for prev, v in zip((ZERO, *self.seq), self.seq):
            if v < prev:
                kind = "nonnegative" if v < 0 else "nondecreasing"
                raise ValueError(f"left-c.e. approximations are {kind}")
        if self.seq and self.seq[-1] > self.cap:
            raise ValueError("sequence exceeds its declared cap")

    @property
    def horizon(self) -> int:
        return len(self.seq) - 1

    def at(self, s: int) -> Fraction:
        """Value at stage s, clamped to the horizon."""
        if s < 0:
            raise ValueError("stage must be a natural")
        return self.seq[min(s, self.horizon)]


def complexity_sum(index: KIndex, horizon: int, name: str) -> CostFn:
    """c(x, s) = sum of 2^-K_s(w) for x < w <= s, with s clamped to the horizon.

    One pointwise evaluator serves every query: ``index.sum_at`` bisects
    the index's stage column and sums the weight changes beyond x.
    """

    def ev(x: int, s: int) -> Fraction:
        return index.sum_at(x, min(s, horizon))

    return cost_fn(name, horizon, ev, monotone_main=True, monotone_stage=True, proper=True)


def cost_k(p: KProvider) -> CostFn:
    """Complexity-sum cost of a provider: c(x, s) = sum of 2^-K_s(w), x < w <= s."""
    return complexity_sum(p.index, p.horizon, "complexity-sum")


def cost_omega(p: KProvider) -> CostFn:
    """Domain-measure cost: c(x, s) = omega(s) - omega(x) for x <= s, else 0."""
    units = [p.omega_scaled(s) for s in range(p.horizon + 1)]
    return additive_cost("domain-measure", units, 1 << p.max_length)


def additive_from_real(b: LeftCEReal) -> CostFn:
    """The additive cost function c(x, s) = b(s) - b(x) of a left-c.e. real."""
    # integer numerators over one common denominator: exact for every rational real
    den = math.lcm(*(v.denominator for v in b.seq))
    strictly = all(b.seq[i] < b.seq[i + 1] for i in range(len(b.seq) - 1))
    return additive_cost(
        "additive", (v.numerator * (den // v.denominator) for v in b.seq), den, proper=strictly
    )


def real_from_additive(c: CostFn, cap: Fraction | None = None) -> LeftCEReal:
    """Recover the stage sequence b(s) = c(0, s) of an additive cost function.

    Raises NonAdditive when the telescoping identity fails on sampled triples.
    """
    if not c.props.additive:
        raise NonAdditive(f"{c.name} is not declared additive")
    check_additivity(c, min(c.horizon, 24))
    seq = tuple(c(0, s) for s in range(c.horizon + 1))
    return LeftCEReal(seq, cap if cap is not None else max(seq, default=ZERO))


def check_additivity(c: CostFn, bound: int) -> None:
    """Exhaustive telescoping check on all triples x < y < z <= bound.

    c is evaluated at every point; the sums compare exact integers over the
    least common denominator of those values.
    """
    vals = [[c(x, s) for s in range(bound + 1)] for x in range(bound + 1)]
    den = math.lcm(*(v.denominator for row in vals for v in row))
    scaled = [[v.numerator * (den // v.denominator) for v in row] for row in vals]
    for x in range(bound + 1):
        row_x = scaled[x]
        for y in range(x + 1, bound + 1):
            row_y, head = scaled[y], row_x[y]
            for z in range(y + 1, bound + 1):
                if head + row_y[z] != row_x[z]:
                    raise NonAdditive(
                        f"{c.name}: c({x},{y}) + c({y},{z}) != c({x},{z})"
                    )


def cost_g(g: Callable[[int], int], horizon: int, cap: Fraction = Fraction(1)) -> CostFn:
    """Additive cost from a length function: c(x, s) = sum of 2^-g(w), x < w <= s."""
    lengths = [g(w) for w in range(1, horizon + 1)]
    if min(lengths, default=0) < 0:
        raise ValueError("negative length")
    scale = max(lengths, default=0)
    units = list(accumulate((1 << (scale - n) for n in lengths), initial=0))
    if Fraction(units[-1], 1 << scale) > cap:
        raise ValueError(f"sum of 2^-g(w) on [0, {horizon}] exceeds the cap {cap}")
    return additive_cost("length-sum", units, 1 << scale, proper=True)


def cost_max(p: KProvider) -> CostFn:
    """Single-description cost: c(x, s) = max of 2^-K_s(w) for x < w <= s."""
    horizon = p.horizon

    def ev(x: int, s: int) -> Fraction:
        best = p.index.min_at(x, min(s, horizon))
        return pow2(best) if best is not None else ZERO

    return cost_fn(
        "complexity-max",
        horizon,
        ev,
        monotone_main=True,
        monotone_stage=True,
        proper=True,
    )


def cost_from_approx(z: ApproximationTrace, h: Callable[[int], int]) -> CostFn:
    """Trace-derived cost by the max recurrence.

    c(x, s) = 0 for x >= s; when e < x is the least position changed at
    stage s, c(x, s) = max(c(x, s-1), 2^-h(e)).  h = identity recovers the
    plain change-driven cost.
    """
    changes = sorted(
        (s, min(xs)) for s, xs in z.change_stages().items()
    )  # (stage, least changed position)
    stages = [s for s, _ in changes]

    def ev(x: int, s: int) -> Fraction:
        if x >= s:
            return ZERO
        best = None
        hi = bisect.bisect_right(stages, min(s, z.horizon))
        lo = bisect.bisect_right(stages, x)
        for t_idx in range(lo, hi):
            e = changes[t_idx][1]
            if e < x and (best is None or h(e) < best):
                best = h(e)
        return pow2(best) if best is not None else ZERO

    return cost_fn(
        "trace-derived", z.horizon, ev, monotone_stage=True
    )


@dataclass(frozen=True)
class SolovayCertificate:
    """Sampled evidence for a Solovay translation between two approximations."""

    phi: tuple[tuple[Fraction, Fraction], ...]  # (sample q, translated value)
    constant: int
    violations: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def solovay_translate(
    a: LeftCEReal,
    b: LeftCEReal,
    N: int,
    samples: Sequence[Fraction] | None = None,
) -> SolovayCertificate:
    """Translate left approximations via phi(q) = b(x), x least with a(x-1) <= q < a(x).

    The default sample grid takes the midpoints of a's consecutive distinct
    values below its horizon value.  A sampled q < a(S) is a violation when
    b(S) - phi(q) >= N * (a(S) - q).  A certificate is evidence, not proof.
    """
    aS, bS = a.at(a.horizon), b.at(b.horizon)
    if samples is None:
        samples = []
        for x in range(1, a.horizon + 1):
            if a.seq[x] > a.seq[x - 1]:
                samples.append((a.seq[x - 1] + a.seq[x]) / 2)
    pairs = []
    violations = []
    for q in samples:
        if q >= aS:
            continue
        x = bisect.bisect_right(a.seq, q)  # least x with q < a(x); a.seq never decreases
        val = b.at(x)
        pairs.append((q, val))
        if bS - val >= N * (aS - q):
            violations.append(q)
    return SolovayCertificate(tuple(pairs), N, tuple(violations))


def additive_requests(c: CostFn) -> RequestSet:
    """Description requests matching an additive cost function's increments.

    For every w with c(w-1, w) > 0 the entry has the least length r_w with
    2^-r_w <= c(w-1, w); the resulting weight telescopes below c's limit at 0,
    so the unit budget cannot overflow once that limit is at most 1.
    """
    if not c.props.additive:
        raise NonAdditive(f"{c.name} is not declared additive")
    if limit_estimate(c, 0) > 1:
        raise ValueError("rescale first: the limit at 0 exceeds 1")
    increments = ((w, c(w - 1, w)) for w in range(1, c.horizon + 1))
    return request_set((least_length(v), w, w) for w, v in increments if v > 0)


def rescale_to_unit(c: CostFn) -> CostFn:
    """Divide by the least power of two at or above c(0, horizon).

    Powers of two keep dyadic values dyadic; the result has limit at 0 within
    the unit interval.
    """
    top = Fraction(c(0, c.horizon))
    factor = pow2(least_length(1 / top) if top > 1 else 0)  # least 2^k >= top, k >= 0

    def ev(x: int, s: int) -> Fraction:
        return c(x, s) * factor

    return cost_fn(
        c.name + "-rescaled",
        c.horizon,
        ev,
        monotone_main=c.props.monotone_main,
        monotone_stage=c.props.monotone_stage,
        additive=c.props.additive,
        proper=c.props.proper,
    )


@dataclass(frozen=True)
class DominationReport:
    """Exact pointwise comparison of the three provider costs on the full grid."""

    horizon: int
    grid_points: int
    omega_violations: tuple[tuple[int, int], ...]  # complexity-sum above domain measure
    max_violations: tuple[tuple[int, int], ...]    # max above complexity-sum

    @property
    def ok(self) -> bool:
        return not (self.omega_violations or self.max_violations)


def domination_grid_report(p: KProvider) -> DominationReport:
    """Check c_sum <= omega-difference and c_max <= c_sum on all (x, s), x <= s.

    All quantities are dyadic with a common scale, so the comparison runs on
    scaled integers: exact rational comparisons, vectorized per stage column.
    Scaled values are at most 2^scale, so int64 holds them up to scale 62;
    longer descriptions switch the columns to exact Python ints.
    """
    S = p.horizon
    scale = p.max_length
    dtype = np.int64 if scale <= 62 else object
    omega_scaled = np.array([p.omega_scaled(s) for s in range(S + 1)], dtype=dtype)
    m = np.zeros(S + 1, dtype=dtype)  # current scaled weight 2^(scale - K_s(w)) per w
    omega_bad: list[tuple[int, int]] = []
    max_bad: list[tuple[int, int]] = []
    cursor = Cursor(p.index)
    for s in range(1, S + 1):
        for w, old, new in cursor.advance(s):
            m[w] += weight_change(scale, old, new)
        col = m[: s + 1]
        # ck[x] and cmx[x]: the sum and the maximum of col over w in (x, s]
        ck = np.cumsum(col[::-1])[::-1] - col
        cmx = np.concatenate((np.maximum.accumulate(col[::-1])[::-1][1:], [0]))
        om = omega_scaled[s] - omega_scaled[: s + 1]
        omega_bad.extend((int(x), s) for x in np.nonzero(ck > om)[0])
        max_bad.extend((int(x), s) for x in np.nonzero(cmx > ck)[0])
    points = (S + 1) * (S + 2) // 2
    return DominationReport(S, points, tuple(omega_bad), tuple(max_bad))
