"""Seeded generators for universes, traces, reals, cost pairs, and schedules.

Everything is a pure function of its ``random.Random`` instance, so runs are
bit-identical given a seed.  Distributions are deliberately simple and
documented inline; they exist to exercise invariants, not to model anything.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

from .catalog import LeftCEReal, complexity_sum
from .complexity import KIndex
from .constructions import Adversary, Universe, copycat_adversary, stubborn_adversary
from .core import ApproximationTrace, CostFn, EnumerationTrace, additive_cost
from .dual import PhiMock, TotalCostFunctional, blank_phi, scripted_phi, sensitive_phi

SCALE = 24  # generated rationals are multiples of 2**-SCALE
DUAL_SUPPORT = 24  # the dual inputs' staircase cost is 0 beyond this x


def rng_for(seed: int, salt: str = "") -> random.Random:
    return random.Random(f"{seed}:{salt}")


def universe(rng: random.Random, size: int, S: int) -> Universe:
    """Family of enumeration traces of at most 48 elements each; x arrives at a stage > x."""
    sets = []
    for e in range(size):
        count = rng.randint(1, 48)
        elements = sorted(rng.sample(range(2 * e, max(4 * e + 2, S // 4)),
                                     min(count, max(1, S // 8))))
        events = []
        for x in elements:
            stage = rng.randint(x + 1, S)
            events.append((stage, x, 1))
        events.sort(key=lambda ev: ev[0])
        sets.append(EnumerationTrace(S, events))
    return Universe(tuple(sets))


def enumeration_trace(rng: random.Random, S: int, width: int, count: int) -> EnumerationTrace:
    members = sorted(rng.sample(range(width), min(count, width)))
    events = sorted(
        ((rng.randint(1, S), x, 1) for x in members), key=lambda ev: ev[0]
    )
    return EnumerationTrace(S, events)


def approximation_trace(
    rng: random.Random,
    S: int,
    width: int,
    positions: int,
    max_flips: int = 3,
    settle_by: int | None = None,
) -> ApproximationTrace:
    """Flickery approximation; every position settles by the given stage."""
    settle = settle_by if settle_by is not None else S
    events = []
    for x in rng.sample(range(width), min(positions, width)):
        flips = rng.randint(1, max_flips)
        stages = sorted(rng.sample(range(1, settle + 1), min(flips, settle)))
        v = 0
        for s in stages:
            v = 1 - v
            events.append((s, x, v))
    events.sort(key=lambda ev: ev[0])
    return ApproximationTrace(S, events)


def trace_with_final(
    rng: random.Random,
    S: int,
    final: frozenset[int],
    width: int,
    settle_by: int,
    max_flips: int = 3,
) -> ApproximationTrace:
    """Approximation settling exactly on the requested final set."""
    events = []
    for x in range(width):
        target = 1 if x in final else 0
        flips = rng.randint(0, max_flips)
        if flips == 0 and target == 0:
            continue
        # an odd number of changes ends on 1, an even one on 0
        n = min(2 * flips + target, settle_by - 1) or target
        n -= (n - target) % 2
        if n <= 0:
            continue
        stages = sorted(rng.sample(range(1, settle_by + 1), n))
        v = 0
        for s in stages:
            v = 1 - v
            events.append((s, x, v))
    events.sort(key=lambda ev: ev[0])
    return ApproximationTrace(S, events)


def left_ce_real(
    rng: random.Random, S: int, cap: Fraction = Fraction(1), jumps: int | None = None
) -> LeftCEReal:
    """Nondecreasing dyadic sequence below the cap, jumping at random stages."""
    return LeftCEReal(tuple(_left_ce_units(rng, S, cap, jumps)), 1 << SCALE, cap)


def _left_ce_units(
    rng: random.Random, S: int, cap: Fraction = Fraction(1), jumps: int | None = None
) -> list[int]:
    """``left_ce_real``'s sequence in units of 2^-SCALE."""
    n_jumps = jumps if jumps is not None else rng.randint(1, max(2, S // 4))
    stages = sorted(rng.sample(range(1, S + 1), min(n_jumps, S)))
    remaining = int(cap * (1 << SCALE))
    units = [0] * (S + 1)
    cur = 0
    for s in range(1, S + 1):
        if stages and s == stages[0]:
            stages.pop(0)
            step = rng.randint(1, max(1, remaining // 4)) if remaining > 0 else 0
            remaining -= step
            cur += step
        units[s] = cur
    return units


def strict_left_ce_real(rng: random.Random, S: int, cap: Fraction = Fraction(1)) -> LeftCEReal:
    """Strictly increasing variant (positive dyadic step at every stage)."""
    budget = int(cap * (1 << SCALE)) - 1
    if budget < S:
        raise ValueError("cap too small for a strict sequence at this horizon")
    # distinct cuts below the budget: every step between consecutive units is positive
    cuts = sorted(rng.sample(range(1, budget), S - 1)) if S > 1 else []
    return LeftCEReal((0, *cuts, budget), 1 << SCALE, cap)


def additive_grid_cost(
    rng: random.Random, S: int, name: str = "generated-additive"
) -> CostFn:
    """Additive cost of a random left-c.e. real (as ``left_ce_real``), in units of 2^-SCALE."""
    return additive_cost(name, _left_ce_units(rng, S), 1 << SCALE)


def dominated_cost_pair(rng: random.Random, S: int, N: int) -> tuple[CostFn, CostFn]:
    """Pair (c, d) with N*c(x, s) > d(x, s) strictly on every x < s cell.

    Both are additive with per-stage dyadic increments; d's increment stays
    strictly below N times c's, so domination holds with margin on each cell.
    """
    gamma = [0] + [rng.randint(1, 1 << 8) for _ in range(S)]
    delta = [0] + [rng.randint(0, N * g - 1) for g in gamma[1:]]
    return (
        additive_cost("dominating", accumulate(gamma), 1 << SCALE),
        additive_cost("dominated", accumulate(delta), 1 << SCALE),
    )


def monotone_cost(rng: random.Random, S: int) -> CostFn:
    """Monotone, generally non-additive cost: a sum of weight-step terms.

    c(x, s) sums 2^-L over positions w in (x, s], where L is a per-position
    length from stage w + 1 that drops once at a per-position stage; this is
    a complexity sum over these descriptions, evaluated by the K_s index.
    """
    width = S + 1
    base_len = [rng.randint(4, 4 + SCALE // 2) for _ in range(width)]
    improved_len = [max(1, L - rng.randint(0, 3)) for L in base_len]
    improve_at = [rng.randint(w + 1, S) if S > w + 1 else S for w in range(width)]
    index = KIndex(
        [(w, base_len[w], w + 1) for w in range(width)]
        + [(w, improved_len[w], improve_at[w]) for w in range(width)]
    )
    return complexity_sum(index, S, "generated-monotone")


def same_final_pair(
    rng: random.Random, S: int
) -> tuple[ApproximationTrace, ApproximationTrace, frozenset[int]]:
    """Two approximations of width 48 that settle on one final set by S // 2."""
    final = frozenset(x for x in range(48) if rng.random() < 0.3)
    settle = max(4, S // 2)
    e = trace_with_final(rng, S, final, 48, settle)
    f = trace_with_final(rng, S, final, 48, settle)
    return e, f, final


def adversary_mix(rng: random.Random, count: int) -> list[Adversary]:
    """Copycats (chance 0.6) and stubborn adversaries over the naturals below 48."""
    out: list[Adversary] = []
    for i in range(count):
        kind = rng.random()
        if kind < 0.6:
            out.append(copycat_adversary(48))
        else:
            members = frozenset(rng.sample(range(48), rng.randint(0, 4)))
            out.append(stubborn_adversary(members))
    return out


def halting_schedule(
    rng: random.Random, S: int, count: int
) -> tuple[EnumerationTrace, dict[int, int]]:
    """(halting-set trace, mock convergence stages) for the complete model."""
    ks = list(range(count))
    rng.shuffle(ks)
    stages = sorted(rng.sample(range(1, S + 1), 2 * count))
    entry_stages = stages[:count]
    phi_stages = stages[count:]
    events = sorted(
        ((s, k, 1) for s, k in zip(entry_stages, ks)), key=lambda ev: ev[0]
    )
    halting = EnumerationTrace(S, events)
    converging = {k: s for k, s in zip(rng.sample(ks, max(1, count // 2)), phi_stages)}
    return halting, converging


def dual_inputs(rng: random.Random, entrants: int, requirements: int):
    """(entrant order, scripted functionals, staircase cost functional)."""
    order = list(range(entrants))
    rng.shuffle(order)
    phis: list[PhiMock] = []
    for e in range(requirements):
        roll = rng.random()
        if roll < 0.5:
            phis.append(blank_phi(e))
        elif roll < 0.8:
            phis.append(scripted_phi(e, frozenset(rng.sample(range(200), 3))))
        else:
            phis.append(sensitive_phi(e, rng.randint(0, DUAL_SUPPORT)))
    jump_at = {x: rng.randint(1, 3 * (x + 1)) for x in range(DUAL_SUPPORT + 1)}

    # 2^-(x+2) from its jump stage on, in units of 2^-(DUAL_SUPPORT+2)
    def ev(bit, x: int, s: int):
        if x > DUAL_SUPPORT:
            return 0, 0
        if s >= jump_at[x]:
            return 1 << (DUAL_SUPPORT - x), 1
        return 0, 1

    c = TotalCostFunctional("staircase", ev, 1 << (DUAL_SUPPORT + 2), support_bound=DUAL_SUPPORT)
    return order, phis, c


def dual_inputs_scripted(rng: random.Random, entrants: int, requirements: int, S: int):
    """Dual inputs whose functionals are scripted to chase activations.

    Starting from blank functionals, the run's auxiliary set is recorded and
    fed back as the next pass's scripts until the activation count stabilizes,
    for at most max(6, requirements + 1) passes; the final scripts are honest
    fixed tables that happen to agree with the construction long enough to
    get diagonalized.
    """
    from .dual import dual_construct  # looked up per call, so a traced run sees the passes

    order, _phis, c = dual_inputs(rng, entrants, requirements)
    scripts: list[frozenset[int]] = [frozenset() for _ in range(requirements)]
    for _ in range(max(6, requirements + 1)):
        phis = [scripted_phi(e, scripts[e]) for e in range(requirements)]
        st = dual_construct(c, order, phis, S)
        if not st.starved:
            break
        e_star = st.starved[0]
        updated = frozenset(st.f_trace.final_set())
        if scripts[e_star] == updated:
            break
        scripts[e_star] = updated
    phis = [scripted_phi(e, scripts[e]) for e in range(requirements)]
    return order, phis, c
