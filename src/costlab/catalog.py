"""Constructors for the named cost functions and the left-c.e. real correspondence.

The complexity-sum cost function, the domain-measure cost function, additive
cost functions and their left-c.e. real counterparts, the max variant, the
trace-derived recurrence, and the Solovay translation between approximations.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

from .complexity import KIndex
from .core import ApproximationTrace, CostFn, additive_cost, cost_fn, limit_estimate
from .errors import NonAdditive
from .machine import KProvider, RequestSet, request_set
from .util import ONE, least_length


@dataclass(frozen=True)
class LeftCEReal:
    """Nonempty nondecreasing stage sequence units[s] / den, bounded by a declared cap.

    The additive cost's integer column (see ``additive_from_real``), kept in lowest terms so
    that two reals are equal exactly when their values and caps are; ``of`` takes rationals.
    """

    units: tuple[int, ...]
    den: int = 1
    cap: Fraction = ONE

    def __post_init__(self):
        units, den = tuple(self.units), self.den
        if den < 1:
            raise ValueError("a left-c.e. real needs a positive denominator")
        if not units:
            raise ValueError("a left-c.e. real needs at least one stage")
        # C-level scan of each value against its predecessor (the first against 0); the
        # Python-level search for the first drop runs only on an invalid column
        if any(map(operator.gt, (0, *units), units)):
            v = next(v for prev, v in zip((0, *units), units) if v < prev)
            kind = "nonnegative" if v < 0 else "nondecreasing"
            raise ValueError(f"left-c.e. approximations are {kind}")
        if Fraction(units[-1], den) > self.cap:
            raise ValueError("sequence exceeds its declared cap")
        g = math.gcd(den, *units)
        if g > 1:
            units, den = tuple(u // g for u in units), den // g
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, values: Sequence[Fraction], cap: Fraction = ONE) -> LeftCEReal:
        """The real of a rational stage sequence, over the lcm of its denominators."""
        den = math.lcm(*(v.denominator for v in values))
        return cls(tuple(v.numerator * (den // v.denominator) for v in values), den, cap)

    @cached_property
    def seq(self) -> tuple[Fraction, ...]:
        """The stage values as rationals, one Fraction object per distinct value."""
        values = {u: Fraction(u, self.den) for u in set(self.units)}
        return tuple(map(values.__getitem__, self.units))

    @property
    def horizon(self) -> int:
        return len(self.units) - 1

    def at(self, s: int) -> Fraction:
        """Value at stage s, clamped to the horizon."""
        if s < 0:
            raise ValueError("stage must be a natural")
        return Fraction(self.units[min(s, self.horizon)], self.den)


def complexity_sum(index: KIndex, horizon: int, name: str) -> CostFn:
    """c(x, s) = sum of 2^-K_s(w) for x < w <= s, with s clamped to the horizon.

    One pointwise evaluator serves every query: ``index.sum_at`` takes one
    difference of its prefix column of prompt descriptions and adds the
    delayed ones beyond x (see ``costlab.complexity``), in units of
    2^-scale.  The den is 2^scale of the index as it is now: no
    description may be merged into it afterwards.
    """

    def ev(x: int, s: int) -> int:
        return index.sum_at(x, min(s, horizon))

    return cost_fn(
        name, horizon, ev, den=1 << index.scale,
        monotone_main=True, monotone_stage=True,
    )


def cost_k(p: KProvider) -> CostFn:
    """Complexity-sum cost of a provider: c(x, s) = sum of 2^-K_s(w), x < w <= s."""
    return complexity_sum(p.index, p.horizon, "complexity-sum")


def cost_omega(p: KProvider) -> CostFn:
    """Domain-measure cost: c(x, s) = omega(s) - omega(x) for x <= s, else 0."""
    return additive_cost("domain-measure", p.omega_column(), 1 << p.max_length)


def additive_from_real(b: LeftCEReal) -> CostFn:
    """The additive cost c(x, s) = b(s) - b(x) on b's own column."""
    return additive_cost("additive", b.units, b.den)


def real_from_additive(c: CostFn, cap: Fraction | None = None) -> LeftCEReal:
    """Recover the stage sequence b(s) = c(0, s) of an additive cost function.

    Raises NonAdditive when the telescoping identity fails on a triple
    x < y < z <= min(horizon, 24).
    """
    if not c.props.additive:
        raise NonAdditive(f"{c.name} is not declared additive")
    check_additivity(c, min(c.horizon, 24))
    units = tuple(c.units(0, s) for s in range(c.horizon + 1))
    return LeftCEReal(units, c.den, cap if cap is not None else c.fraction(max(units)))


def check_additivity(c: CostFn, bound: int) -> None:
    """Telescoping check c(x, y) + c(y, z) == c(x, z) on all triples x < y < z <= bound.

    The triples all hold iff those with x = 0 do: given these, a triple
    with x >= 1 reads c(x, y) + c(y, z) = (c(0, y) - c(0, x)) + (c(0, z) -
    c(0, y)) = c(0, z) - c(0, x) = c(x, z), by the triples (0, x, y),
    (0, y, z) and (0, x, z).  So the first failing triple in order, if any,
    has x = 0, and the check compares each cell c(y, z), 0 < y < z, with
    the difference c(0, z) - c(0, y) of the prefix column: O(bound^2)
    comparisons of c's integer units, on cells all evaluated first.
    """
    # cells[x][z - x - 1] = c(x, z) for x < z <= bound
    cells = [[c.units(x, z) for z in range(x + 1, bound + 1)] for x in range(bound)]
    for y in range(1, bound):
        head, tail = cells[0][y - 1], cells[0][y:]  # c(0, y), and c(0, z) for z > y
        row = cells[y]
        if [head + v for v in row] != tail:
            z = next(z for z, v, w in zip(range(y + 1, bound + 1), row, tail) if head + v != w)
            raise NonAdditive(f"{c.name}: c(0,{y}) + c({y},{z}) != c(0,{z})")


def cost_g(g: Callable[[int], int], horizon: int, cap: Fraction = Fraction(1)) -> CostFn:
    """Additive cost from a length function: c(x, s) = sum of 2^-g(w), x < w <= s."""
    lengths = [g(w) for w in range(1, horizon + 1)]
    if min(lengths, default=0) < 0:
        raise ValueError("negative length")
    scale = max(lengths, default=0)
    units = list(accumulate((1 << (scale - n) for n in lengths), initial=0))
    if Fraction(units[-1], 1 << scale) > cap:
        raise ValueError(f"sum of 2^-g(w) on [0, {horizon}] exceeds the cap {cap}")
    return additive_cost("length-sum", units, 1 << scale)


def cost_max(p: KProvider) -> CostFn:
    """Single-description cost: c(x, s) = max of 2^-K_s(w) for x < w <= s."""
    horizon, index = p.horizon, p.index
    scale = index.scale  # every length held is at most the scale

    def ev(x: int, s: int) -> int:
        best = index.min_at(x, min(s, horizon))
        return 0 if best is None else 1 << (scale - best)

    return cost_fn(
        "complexity-max", horizon, ev, den=1 << scale,
        monotone_main=True, monotone_stage=True,
    )


def cost_from_approx(z: ApproximationTrace, h: Callable[[int], int]) -> CostFn:
    """Trace-derived cost by the max recurrence, over den 2^max h(e).

    c(x, s) = 0 for x >= s; when e < x is the least position changed at
    stage s, c(x, s) = max(c(x, s-1), 2^-h(e)).  h = identity recovers the
    plain change-driven cost.  h is read once per change, when the cost is
    built, and must be nonnegative.
    """
    changes = sorted(
        (s, min(xs)) for s, xs in z.change_stages().items()
    )  # (stage, least changed position)
    stages = [s for s, _ in changes]
    lengths = [h(e) for _s, e in changes]
    if min(lengths, default=0) < 0:
        raise ValueError("negative length")
    top = max(lengths, default=0)  # the den is 2^top

    def ev(x: int, s: int) -> int:
        if x >= s:
            return 0
        hi = bisect.bisect_right(stages, min(s, z.horizon))
        lo = bisect.bisect_right(stages, x)
        best = min((lengths[i] for i in range(lo, hi) if changes[i][1] < x), default=None)
        return 0 if best is None else 1 << (top - best)

    return cost_fn("trace-derived", z.horizon, ev, den=1 << top, monotone_stage=True)


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
        samples = [(u + v) / 2 for u, v in zip(a.seq, a.seq[1:]) if v > u]
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
    so the unit budget cannot overflow once that limit is at most 1.  On the
    increment's units u, r_w is the least r with den <= u << r, by bit lengths.
    """
    if not c.props.additive:
        raise NonAdditive(f"{c.name} is not declared additive")
    if limit_estimate(c, 0) > 1:
        raise ValueError("rescale first: the limit at 0 exceeds 1")
    den, requests = c.den, []
    for w in range(1, c.horizon + 1):
        if u := c.units(w - 1, w):
            r = max(0, den.bit_length() - u.bit_length())  # u << r has den's bit length
            requests.append((r + (u << r < den), w, w))
    return request_set(requests)


def rescale_to_unit(c: CostFn) -> CostFn:
    """Divide by the least power of two at or above c(0, horizon).

    Powers of two keep dyadic values dyadic; the result has limit at 0 within
    the unit interval.
    """
    top = c.units(0, c.horizon)
    k = least_length(Fraction(c.den, top)) if top > c.den else 0  # least 2^k >= top / den

    return cost_fn(
        c.name + "-rescaled",
        c.horizon,
        c.units,
        den=c.den << k,
        monotone_main=c.props.monotone_main,
        monotone_stage=c.props.monotone_stage,
        additive=c.props.additive,
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

    All quantities are dyadic with a common scale, so the checks run on exact
    Python ints scaled by 2^max_length.  With P_s(x) the sum of 2^-K_s(w)
    over w <= x, the complexity sum is the complement c_sum(x, s) =
    P_s(s) - P_s(x), the stagewise form of the additive identity c(x, s) =
    beta_s - beta_x.  So the checks read

    - c_sum <= omega_s - omega_x  iff  h(x) = omega_x - P_s(x) <= omega_s - P_s(s);
    - c_max <= c_sum  iff  q(x) = c_max(x, s) + P_s(x) <= P_s(s).

    A (w, old, new) change of K_s moves P_s on [w, s] only, so it lowers h
    and raises q there.  c_max(x, s) does not increase in x, so the new
    weight raises it only on the run x = w - 1, w - 2, ... below the new
    weight, and q takes the same raises.  As q only rises, its maximum
    over x <= s is one running value, raised with each cell.  The running
    maxima of h over x are recomputed from the least target a stage
    changed.  Each stage compares the two maxima with its two bounds: an
    exact maximum over every x <= s, so every point (x, s) is compared.
    Only a failing stage scans its cells for the violations.

    Most stages of a served provider are plain: their one change is the
    first description (t, t - 1, None, new) of the target just below them.
    On a run a..b of plain stages, a >= 3, whose weights W_t do not rise,
    the first no heavier than c_max(a - 3, a - 1), each c_max walk stops
    after one cell.  With T_t = P_t(t), the state after stage b then has
    closed forms: h is omega_x - T_(x+1) on [a - 1, b - 1] and omega_b - T_b
    at b; q is T_(x+2) on [a - 1, b - 2] and T_b on b - 1 and b, and q(a - 2)
    rose by W_a; c_max is W_(x+2) on [a - 2, b - 2] and 0 on b - 1 and b.
    So stage t's first check holds iff the running maximum of h below t is
    at most omega_t - T_t, and as T rises, the second holds at every stage
    of the run iff max(max q, q(a - 2) + W_a) <= T_a.  A run whose checks
    all hold is applied at once in list operations; one with a failing
    stage goes through the per-stage body, the one source of the violation
    lists.

    The work is O(S) in list operations and in Python steps that find the
    runs, plus O(span_s) for each stage off the runs, span_s being s less
    the least cell touched at stage s.  The registered S = 2048 providers
    of the complexity-queries benchmark hold 2055 changes and put 2018 to
    2039 stages on 6 to 27 runs; they take 1.6-2.1 ms each on a 2-CPU host,
    against 2.4-2.8 ms stage by stage (seed-1 query0 to query39, Python
    3.11).  Schedules that first describe many small targets far beyond
    their own stage have no plain stages and long spans: 1000 targets of
    length 25 each described 1047 stages after its own, at S = 2048, have
    a span sum of about 1.05 million and take 0.14 s on the same host.
    """
    S = p.horizon
    scale = p.max_length
    omega = p.omega_column()
    total = 0  # P_s(s): every target described by stage s lies below s
    # per cell x <= s: h, q, c_max(x, s), the running maxima of h, and the
    # maximum of q, which never falls
    h, q, cmx = [omega[0]], [0], [0]
    hmax, qm = h[:], 0
    omega_bad: list[tuple[int, int]] = []
    max_bad: list[tuple[int, int]] = []
    changes = p.index.changes(S)
    at, end = 0, len(changes)  # at: the first change not yet applied
    s = 1
    while s <= S:
        # the plain run a..b from a = s, weights not rising.  A change (t, t - 1)
        # is its target's first, and in (stage, w) order stage t's last, so
        # as the first change at t it is t's only one
        a, j = s, at
        cap = cmx[a - 3] if a > 2 else 0
        while j < end:
            t, w, _old, new = changes[j]
            if t != a + j - at or t != w + 1 or 1 << (scale - new) > cap:
                break
            cap = 1 << (scale - new)
            j += 1
        b = a + j - at - 1
        if j > at:
            weights = [1 << (scale - change[3]) for change in changes[at:j]]
            T = list(accumulate(weights, initial=total))  # [i]: T_(a - 1 + i)
            settled = list(map(operator.sub, omega[a - 1 : b], T[1:]))
            bounds = list(map(operator.sub, omega[a : b + 1], T[1:]))
            hrun = list(accumulate(settled, max, initial=hmax[a - 2]))  # [i + 1]: below a + i
            if max(qm, q[a - 2] + weights[0]) <= T[1] and all(map(operator.le, hrun[1:], bounds)):
                h[a - 1 :] = [*settled, bounds[-1]]
                q[a - 2] += weights[0]
                q[a - 1 :] = [*T[2:], T[-1], T[-1]]
                cmx[a - 2 :] = [*weights, 0, 0]
                hmax[a - 1 :] = [*hrun[1:], bounds[-1]]  # cell b is no lower: its check held
                total = qm = T[-1]
                at, s = j, b + 1
                continue
        for s in range(s, max(s, b) + 1):  # a stage off the run, or a run that fails a check
            lo = s  # the least cell whose h moved
            while at < end and changes[at][0] <= s:
                _stage, w, old, new = changes[at]
                at += 1
                weight = 1 << (scale - new)
                delta = weight if old is None else weight - (1 << (scale - old))
                total += delta
                if w < lo:
                    lo = w
                for x in range(w, s):
                    h[x] -= delta
                    q[x] += delta
                    if q[x] > qm:
                        qm = q[x]
                x = w - 1
                while x >= 0 and cmx[x] < weight:
                    q[x] += weight - cmx[x]
                    cmx[x] = weight
                    if q[x] > qm:
                        qm = q[x]
                    x -= 1
            bound = omega[s] - total
            h.append(bound)
            q.append(total)
            cmx.append(0)
            if total > qm:
                qm = total
            hm = hmax[lo - 1] if lo else h[0]
            del hmax[lo:]
            for x in range(lo, s + 1):
                if h[x] > hm:
                    hm = h[x]
                hmax.append(hm)
            if hm > bound:
                omega_bad.extend((x, s) for x, v in enumerate(h) if v > bound)
            if qm > total:
                max_bad.extend((x, s) for x, v in enumerate(q) if v > total)
        s += 1
    points = (S + 1) * (S + 2) // 2
    return DominationReport(S, points, tuple(omega_bad), tuple(max_bad))
