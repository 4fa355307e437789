"""Oracle-relative cost functions and the dual construction.

A cost functional evaluates against an explicit oracle snapshot with a
recorded use; the dual engine enumerates a set D together with a wish ledger
so that the mock halting set's enumeration is cheap as measured relative
to D, while explicit requirements keep D from computing the auxiliary set F.
State is an event-sourced log enabling replay-based assertions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .core import EnumerationTrace
from .util import ZERO, triple_pair

OracleBit = Callable[[int], int]


@dataclass(frozen=True)
class CostFunctional:
    """Oracle-relative cost function with recorded use and step counts.

    ``fn(bit, x, t)`` returns (units, use, steps) or None for divergence,
    where the value is units / ``den``; the answer may depend only on oracle
    bits below the reported use.
    """

    name: str
    fn: Callable[[OracleBit, int, int], tuple[int, int, int] | None]
    den: int


@dataclass(frozen=True)
class TotalCostFunctional:
    """Everywhere-convergent stage-limited form of a cost functional.

    ``eval_fn(bit, x, s)`` returns (units, use); the value is units / ``den``.
    """

    name: str
    eval_fn: Callable[[OracleBit, int, int], tuple[int, int]]
    den: int
    support_bound: int | None = None  # positions beyond this are priced 0


def totalize(c: CostFunctional) -> TotalCostFunctional:
    """Stage-limited totalization: the value at the largest settled time.

    The stage-s value is the underlying value at the largest t <= s whose
    computation converges within s steps, and 0 when there is none.
    """

    def ev(bit: OracleBit, x: int, s: int) -> tuple[int, int]:
        for t in range(s, -1, -1):
            out = c.fn(bit, x, t)
            if out is not None and out[2] <= s:
                return out[0], out[1]
        return 0, 0

    return TotalCostFunctional(f"{c.name}-totalized", ev, c.den)


def oracle_from_trace(d: EnumerationTrace, s: int) -> OracleBit:
    return lambda i: d.value(i, s)


def oracle_from_set(members: frozenset[int]) -> OracleBit:
    return lambda i: 1 if i in members else 0


def nondeficiency_stages(d: EnumerationTrace) -> frozenset[int]:
    """Stages whose enumeration is final below the entering element.

    A stage qualifies when no later stage enters an element below the least
    element entering at it.
    """
    least = {s: xs[0] for s, xs in d.change_stages().items()}
    out = set()
    later: int | None = None  # least element entering after the current stage
    for s in sorted(least, reverse=True):
        if later is None or later >= least[s]:
            out.add(s)
        if later is None or least[s] < later:
            later = least[s]
    return frozenset(out)


def hat_sup(c: TotalCostFunctional, d: EnumerationTrace, x: int) -> Fraction:
    """Supremum of restrained-oracle values over the nondeficiency stages.

    A stage contributes only when the recorded use stays below the least
    element entering at that stage (the hat-computation discipline).
    """
    best = 0
    entries_by_stage = d.change_stages()
    for s in sorted(nondeficiency_stages(d)):
        units, use = c.eval_fn(oracle_from_trace(d, s), x, s)
        if use <= entries_by_stage[s][0]:
            best = max(best, units)
    return Fraction(best, c.den)


@dataclass(slots=True)
class Wish:
    """A request, with use u + 1, that the decoded value at x reach alpha."""

    x: int
    alpha: Fraction
    u: int
    born: int
    context_use: int  # the r of the pricing computation at birth
    removed: int | None = None
    holder: int | None = None


@dataclass(frozen=True)
class PhiMock:
    """Scripted oracle functional the dual construction diagonalizes against.

    ``rule(bit, y)`` returns (value, use); ``support(bit, upto)`` must return
    exactly the positions <= upto with value 1, so prefix agreement can be
    checked without scanning the whole prefix.  Agreement of ``support(bit,
    x)`` with a set F (restricted to positions <= x) therefore holds on a
    prefix of x: if it holds at x, it holds at every smaller x.
    """

    name: str
    rule: Callable[[OracleBit, int], tuple[int, int]]
    support: Callable[[OracleBit, int], frozenset[int]]


def blank_phi(e: int) -> PhiMock:
    return PhiMock(
        f"blank-{e}",
        lambda bit, y: (0, y + e + 1),
        lambda bit, upto: frozenset(),
    )


def scripted_phi(e: int, members: frozenset[int]) -> PhiMock:
    """Answers 1 exactly on a fixed set, independent of the oracle."""
    snap = frozenset(members)
    return PhiMock(
        f"scripted-{e}",
        lambda bit, y: (1 if y in snap else 0, y + e + 1),
        lambda bit, upto: frozenset(y for y in snap if y <= upto),
    )


def sensitive_phi(e: int, probe: int) -> PhiMock:
    """Answers 1 below its probe once the oracle is nonzero there."""

    def rule(bit: OracleBit, y: int) -> tuple[int, int]:
        return (1 if bit(probe) else 0, probe + 1)

    def support(bit: OracleBit, upto: int) -> frozenset[int]:
        if bit(probe):
            return frozenset(range(0, upto + 1))
        return frozenset()

    return PhiMock(f"sensitive-{e}-{probe}", rule, support)


@dataclass(frozen=True)
class DualState:
    """Full event-sourced outcome of the dual construction."""

    horizon: int
    d_trace: EnumerationTrace
    f_trace: EnumerationTrace
    wishes: tuple[Wish, ...]
    visited_stages: tuple[int, ...]
    halting_entries: tuple[tuple[int, int], ...]  # (stage, element)
    activations: tuple[tuple[int, int, int, int], ...]  # (stage, e, v, x)
    cancellations: tuple[tuple[int, int, int, int], ...]  # (stage, e, v, entrant)
    held_history: tuple[tuple[int, int, Fraction], ...]  # (stage, e, held total)
    starved: tuple[int, ...]
    phi_names: tuple[str, ...]

    def d_entry_stages(self) -> list[tuple[int, int]]:
        return [(s, x) for s, x, _v in self.d_trace.events]


class _GammaIndex:
    """Lookup tables behind the decoded values of one finished state.

    Holds the wishes grouped by x and, for the D entries sorted by element,
    the prefix maximum of their stages, so the last stage entering an
    element below t is one bisect away.
    """

    def __init__(self, st: DualState):
        self._halting_entries = st.halting_entries
        entries = sorted((x, s) for s, x in st.d_entry_stages())
        self._elements = [x for x, _s in entries]
        self._last_stage = list(accumulate((s for _x, s in entries), max, initial=0))
        self.wishes_by_x: dict[int, list[Wish]] = {}
        for w in st.wishes:
            self.wishes_by_x.setdefault(w.x, []).append(w)

    def gamma(self, x: int, t: int) -> Fraction:
        s_star = self._last_stage[bisect.bisect_left(self._elements, t)]
        best = ZERO
        for w in self.wishes_by_x.get(x, ()):
            if w.u <= t and w.born <= s_star:
                if w.removed is None or w.removed > s_star:
                    best = max(best, w.alpha)
        return best

    def halting_cost(self) -> Fraction:
        return sum((self.gamma(n, s) for s, n in self._halting_entries), ZERO)


def gamma_eval(st: DualState, x: int, t: int) -> Fraction:
    """Decoded value at x with use bound t: the largest granted wish.

    The evaluation point is the least stage from which the enumerated set is
    final below t; wishes about x with use within t that are alive there
    contribute their alpha.
    """
    return _GammaIndex(st).gamma(x, t)


def halting_cost(st: DualState) -> Fraction:
    """Exact decoded-cost ledger of the mock halting set's enumeration."""
    return _GammaIndex(st).halting_cost()


def dual_construct(
    c: TotalCostFunctional,
    zp: Sequence[int],
    phis: Sequence[PhiMock],
    S: int,
) -> DualState:
    """Stage loop of the dual construction with full wish ledgers.

    Each visited stage consumes one halting-set entrant, cancels overtaken
    requirements, removes stale unheld wishes by enumerating their removal
    keys, refreshes wishes to the current relative prices, and activates
    requirements whose diagonalization witness agrees with the auxiliary set;
    activation takeover is limited to weaker requirements so that each
    requirement's held total stays within its geometric budget.

    An unheld wish is stale once an entrant n <= x enters after its birth.
    A stage removes exactly the unheld wishes at x >= its entrant n: e holds
    wishes at x >= v_e only and only an entrant n < v_e cancels e, so the
    wishes a cancellation releases go at that stage, and an unheld wish that
    survives lies below every entrant since its birth.

    Prices, the caps 1/(2*3^e) and 1/3^e, takeover sums and held totals are
    ints over L = lcm(den, 2*3^(E-1)); a ``Fraction`` is built once per
    distinct alpha and per change of a held total.  Held wishes are never
    removed, so a held total, kept per holder, changes only at activations.
    D does not change while requirements activate, so each position is
    priced at most once per stage.  A requirement's witness x grows with its
    guess v and agreement with F holds on a prefix of x (see ``PhiMock``), so
    its scan stops at the first guess that disagrees.
    """
    E = len(phis)
    L = math.lcm(c.den, 2 * 3 ** max(E - 1, 0))
    scale = L // c.den
    eval_fn = c.eval_fn
    wishes: list[Wish] = []
    # per x, the live wishes with their prices over L; prices strictly increase
    live_by_x: dict[int, list[tuple[int, Wish]]] = {}
    d_members: set[int] = set()
    d_events: list[tuple[int, int, int]] = []
    f_members: set[int] = set()
    f_events: list[tuple[int, int, int]] = []
    halting: set[int] = set()
    halting_sorted: list[int] = []
    halting_entries: list[tuple[int, int]] = []
    alphas: dict[int, Fraction] = {}  # units -> alpha
    f_sorted: list[int] = []
    value_cap = [L // (2 * 3**e) for e in range(E)]
    held_cap = [L // 3**e for e in range(E)]
    active: dict[int, int] = {}  # requirement -> its guess v
    # per active requirement: x -> its largest held price, and their sum as a Fraction
    held: dict[int, dict[int, int]] = {}
    held_total: dict[int, Fraction] = {}
    activations: list[tuple[int, int, int, int]] = []
    cancellations: list[tuple[int, int, int, int]] = []
    held_history: list[tuple[int, int, Fraction]] = []
    high_water = max(0, E, *zp)

    def d_bit(i: int) -> int:
        return 1 if i in d_members else 0

    s = 1
    for n in zp:
        if s > S:
            break
        if n in halting:
            raise ValueError("halting-set entrants must be distinct")
        halting.add(n)
        bisect.insort(halting_sorted, n)
        halting_entries.append((s, n))
        high_water = max(high_water, s, n)

        # 1. cancel requirements whose guess was overtaken
        for e, v in sorted(active.items()):
            if v > n:
                cancellations.append((s, e, v, n))
                for ws in live_by_x.values():  # held wishes are never removed
                    for _price, w in ws:
                        if w.holder == e:
                            w.holder = None
                del active[e], held[e], held_total[e]

        # 2. remove the unheld wishes at x >= n, entering their removal keys into D
        for x, ws in live_by_x.items():
            if x < n:
                continue
            kept = []
            for pair in ws:
                w = pair[1]
                if w.holder is None:
                    w.removed = s
                    key = w.u - 1
                    if key not in d_members:
                        d_members.add(key)
                        d_events.append((s, key, 1))
                else:
                    kept.append(pair)
            ws[:] = kept

        # 3. add wishes at the current relative prices
        priced: dict[int, int] = {}  # x -> price over L at this stage's D
        x_top = min(s, (c.support_bound + 1) if c.support_bound is not None else s)
        for x in range(x_top):
            units, use = eval_fn(d_bit, x, s)
            price = priced[x] = units * scale
            if units <= 0:
                continue
            current = live_by_x.get(x)
            if current and current[-1][0] >= price:
                continue
            u = high_water + 2
            high_water = u
            alpha = alphas.get(units) or alphas.setdefault(units, Fraction(units, c.den))
            w = Wish(x, alpha, u, s, use)
            wishes.append(w)
            live_by_x.setdefault(x, []).append((price, w))

        # 4. activate requirements
        floor = -1  # the largest guess of an active requirement below e
        for e in range(E):
            if e in active:
                floor = max(floor, active[e])
                continue
            chosen = None
            for v in range(max(e, floor + 1), n + 1):
                v_price = priced.get(v)
                if v_price is None:
                    v_price = priced[v] = eval_fn(d_bit, v, s)[0] * scale
                if v_price > value_cap[e]:
                    continue
                x = triple_pair(e, v, bisect.bisect_left(halting_sorted, v))
                if phis[e].support(d_bit, x) != frozenset(
                    f_sorted[: bisect.bisect_right(f_sorted, x)]
                ):
                    break  # every later guess has a larger x, so disagrees too
                takeover = [
                    (price, w)
                    for ws in live_by_x.values()
                    for price, w in ws
                    if w.x >= v and (w.holder is None or w.holder > e)
                ]
                per_x: dict[int, int] = {}
                for price, w in takeover:
                    per_x[w.x] = max(per_x.get(w.x, 0), price)
                if sum(per_x.values()) > held_cap[e]:
                    continue
                chosen = (v, x, takeover, per_x)
                break
            if chosen is not None:
                v, x, takeover, per_x = chosen
                for _price, w in takeover:
                    w.holder = e
                for i, px in held.items():  # weaker holders lose their wishes at x >= v
                    if i > e and any(y >= v for y in px):
                        px = held[i] = {y: p for y, p in px.items() if y < v}
                        held_total[i] = Fraction(sum(px.values()), L)
                held[e] = per_x
                held_total[e] = Fraction(sum(per_x.values()), L)
                active[e] = floor = v  # v > floor: the scan starts above it
                activations.append((s, e, v, x))
                if x not in f_members:
                    f_members.add(x)
                    bisect.insort(f_sorted, x)
                    f_events.append((s, x, 1))
                high_water = max(high_water, x, v)

        for e in sorted(active):
            held_history.append((s, e, held_total[e]))

        s = high_water = high_water + 1

    d_trace = EnumerationTrace(S, d_events)  # both appended in stage order
    f_trace = EnumerationTrace(S, f_events)
    activated = {e for _s, e, _v, _x in activations}
    starved = tuple(e for e in range(E) if e not in activated)
    return DualState(
        S,
        d_trace,
        f_trace,
        tuple(wishes),
        tuple(s for s, _n in halting_entries),
        tuple(halting_entries),
        tuple(activations),
        tuple(cancellations),
        tuple(held_history),
        starved,
        tuple(m.name for m in phis),
    )


@dataclass(frozen=True)
class DualAudit:
    held_ok: bool
    gamma_monotone: bool
    halting_total: Fraction
    halting_bound_ok: bool
    cancellations_justified: bool

    @property
    def ok(self) -> bool:
        return (
            self.held_ok
            and self.gamma_monotone
            and self.halting_bound_ok
            and self.cancellations_justified
        )


def audit_dual(st: DualState) -> DualAudit:
    """Replay-based verification of the dual construction's claims."""
    held_ok = all(
        total <= Fraction(1, 3**e) for _s, e, total in st.held_history
    )

    index = _GammaIndex(st)
    gamma_monotone = True
    for x, ws in index.wishes_by_x.items():
        grid = sorted({w.u for w in ws} | {st.horizon})
        prev = ZERO
        for t in grid:
            g = index.gamma(x, t)
            if g < prev:
                gamma_monotone = False
            prev = g

    total = index.halting_cost()
    justified = all(n < v for _s, _e, v, n in st.cancellations)
    return DualAudit(
        held_ok, gamma_monotone, total, total <= Fraction(3, 2), justified
    )


def audit_diagonalization(st: DualState, phis: Sequence[PhiMock]) -> bool:
    """Every surviving activation disagrees with its functional at the horizon."""
    final_d = st.d_trace.final_set()

    def bit(i: int) -> int:
        return 1 if i in final_d else 0

    f_final = st.f_trace.final_set()
    last_cancel: dict[tuple[int, int], int] = {}  # (e, v) -> last cancellation stage
    for cs, ce, cv, _n in st.cancellations:
        last_cancel[ce, cv] = max(cs, last_cancel.get((ce, cv), cs))
    ok = True
    for s, e, v, x in st.activations:
        if last_cancel.get((e, v), -1) >= s:
            continue
        value, _use = phis[e].rule(bit, x)
        if (x in f_final) == (value == 1):
            ok = False
    return ok
