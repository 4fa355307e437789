"""The K_s index against a brute-force reference read straight from the grants."""

import bisect
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costlab import generate
from costlab.catalog import (
    DominationReport,
    additive_from_real,
    additive_requests,
    cost_k,
    cost_max,
    cost_omega,
    domination_grid_report,
)
from costlab.complexity import KIndex, weight_change
from costlab.machine import (
    KProvider,
    baseline_provider,
    provider_from_requests,
    register_requests,
    request_set,
)
from costlab.util import ZERO, pow2
from kcursor import Cursor


def k_table(descriptions, s):
    """K_s(w) for every w described by stage s, by brute force over
    (target, length, stage) descriptions."""
    table = {}
    for w, n, t in descriptions:
        if max(t, w + 1) <= s and (w not in table or n < table[w]):
            table[w] = n
    return table


def sum_ref(table, x):
    return sum((pow2(n) for w, n in table.items() if w > x), ZERO)


def sum_value(index, x, s):
    """``sum_at``'s units as the rational they stand for."""
    return Fraction(index.sum_at(x, s), 1 << index.scale)


def min_ref(table, x):
    return min((n for w, n in table.items() if w > x), default=None)


def grant_descriptions(p):
    return [(g.target, g.length, g.omega_stage) for g in p.grants]


@st.composite
def providers(draw, top=45):
    """A schedule of up to 30 (length, target, stage) requests, lengths 7..130,
    targets up to ``top``, on its own or registered on a baseline of horizon
    at most ``top``."""
    schedule = st.tuples(st.integers(7, 130), st.integers(0, top), st.integers(0, top + 5))
    entries = sorted(draw(st.lists(schedule, max_size=30)), key=lambda e: e[2])
    S = draw(st.integers(1, top))
    d = draw(st.integers(0, 1))
    rs = request_set(entries)
    if draw(st.booleans()):
        return register_requests(baseline_provider(S), rs, d)
    return provider_from_requests(rs, d, S)


@settings(max_examples=60, deadline=None)
@given(providers(), st.randoms(use_true_random=False))
# every row delayed: ten targets each described twelve stages after its own,
# a small copy of the late schedule in domination_grid_report's docstring
@example(
    provider_from_requests(request_set([(25, w, w + 12) for w in range(10)]), 0, 24),
    random.Random(0),
)
# a delayed row (stage 7) improves w = 3, which has a prompt row at stage 4
@example(register_requests(baseline_provider(12), request_set([(1, 3, 6)]), 0), random.Random(1))
# requested at stage 0, w = 5 is clamped to a prompt row at stage 6
@example(provider_from_requests(request_set([(3, 5, 0)]), 0, 8), random.Random(2))
def test_provider_queries_match_reference(p, rnd):
    desc = grant_descriptions(p)
    S = p.horizon
    tables = [k_table(desc, s) for s in range(S + 1)]
    at = lambda s: tables[min(s, S)]  # noqa: E731 - cost_k and cost_max clamp s
    ck, cm = cost_k(p), cost_max(p)
    for s in range(0, S + 3):
        for w in range(-1, S + 3):
            assert p.k(w, s) == (at(s).get(w) if s <= S else None)
        for x in range(0, S + 2):
            assert ck(x, s) == sum_ref(at(s), x)
            n = min_ref(at(s), x)
            assert cm(x, s) == (pow2(n) if n is not None else ZERO)
        for c in (ck, cm):
            with pytest.raises(ValueError, match="stage must be a natural"):
                c(-1, s)
    pairs = sorted(
        ((rnd.randint(0, S + 2), rnd.randint(0, S + 2)) for _ in range(40)), key=lambda q: q[1]
    )
    assert [ck(x, s) for x, s in pairs] == [sum_ref(at(s), x) for x, s in pairs]
    for x in (0, S // 2, S - 1, S + 1):
        for s_from in (0, x + 1, S):
            stages = range(s_from, S + 1)
            assert [ck(x, s) for s in stages] == [sum_ref(at(s), x) for s in stages]


def fraction_domination_reference(p):
    """The violations of both checks by brute force: Fraction sums and minima
    of the K_s table read straight from the grants, at every (x, s)."""
    desc = grant_descriptions(p)
    omega_bad, max_bad = [], []
    for s in range(1, p.horizon + 1):
        table = k_table(desc, s)
        for x in range(0, s + 1):
            total = sum_ref(table, x)
            if total > p.omega(s) - p.omega(x):
                omega_bad.append((x, s))
            n = min_ref(table, x)
            if n is not None and pow2(n) > total:
                max_bad.append((x, s))
    return tuple(omega_bad), tuple(max_bad)


def reference_domination_grid_report(p: KProvider) -> DominationReport:
    """The per-stage loop: rebuild the sum and the maximum of 2^-K_s(w) over
    w in (x, s] for every x from the current weight column at each stage."""
    S = p.horizon
    scale = p.max_length
    dtype = np.int64 if scale <= 62 else object
    omega_scaled = np.array([p.omega_scaled(s) for s in range(S + 1)], dtype=dtype)
    m = np.zeros(S + 1, dtype=dtype)  # current scaled weight 2^(scale - K_s(w)) per w
    omega_bad, max_bad = [], []
    cursor = Cursor(p.index)
    for s in range(1, S + 1):
        for w, old, new in cursor.advance(s):
            m[w] += weight_change(scale, old, new)
        col = m[: s + 1]
        ck = np.cumsum(col[::-1])[::-1] - col
        cmx = np.concatenate((np.maximum.accumulate(col[::-1])[::-1][1:], [0]))
        om = omega_scaled[s] - omega_scaled[: s + 1]
        omega_bad.extend((int(x), s) for x in np.nonzero(ck > om)[0])
        max_bad.extend((int(x), s) for x in np.nonzero(cmx > ck)[0])
    points = (S + 1) * (S + 2) // 2
    return DominationReport(S, points, tuple(omega_bad), tuple(max_bad))


@settings(max_examples=40, deadline=None)
@given(providers())
# w = 5 is paid for at stage 1 but described from stage 6, so the sum beyond
# x = 5 must leave it out while the one beyond x = 4 exceeds the measure
@example(provider_from_requests(request_set([(1, 5, 0)]), 0, 8))
def test_domination_grid_matches_reference(p):
    rep = domination_grid_report(p)
    assert (rep.omega_violations, rep.max_violations) == fraction_domination_reference(p)
    assert rep.grid_points == (p.horizon + 1) * (p.horizon + 2) // 2


def test_domination_grid_at_the_int64_boundary():
    # exact-int agreement at scale 62.  The lengths 1..62 and a second 62
    # weigh exactly 1, so the scaled measure reaches 2^62, and every target
    # is paid for at stage 1 but described later: from stage 67 on, the sum
    # beyond x = 1 and the measure at x = 1 are both 2^62, so the compared
    # quantities reach 2^63 and the violations must still come out exact
    rs = request_set([(n, 4 + n, 0) for n in range(1, 63)] + [(62, 2, 0)])
    p = provider_from_requests(rs, 0, 70)
    assert p.max_length == 62 and p.omega_scaled(1) == 1 << 62
    rep = domination_grid_report(p)
    assert (1, 70) in rep.omega_violations
    assert (rep.omega_violations, rep.max_violations) == fraction_domination_reference(p)


def registered_provider(rng, S):
    """The benchmark's read-side provider: the baseline plus the requests of
    a seeded additive cost, registered with coding constant 3."""
    extra = additive_requests(additive_from_real(generate.left_ce_real(rng, 100)))
    return register_requests(baseline_provider(S), extra, 3)


@pytest.mark.parametrize("i", range(4))
def test_domination_sweep_matches_loop_on_query_providers(i):
    p = registered_provider(generate.rng_for(0, f"query{i}"), 2048)
    assert domination_grid_report(p) == reference_domination_grid_report(p)


def test_domination_sweep_matches_loop_on_criterion_2_input():
    p = baseline_provider(4096)
    assert domination_grid_report(p) == reference_domination_grid_report(p)


def test_domination_grid_reports_a_c_max_raised_above_c_k(monkeypatch):
    # K_s(1) = 4 from stage 2 and K_s(70) = 2 from stage 71: both checks hold
    p = provider_from_requests(request_set([(4, 1, 0), (2, 70, 70)]), 0, 80)
    assert domination_grid_report(p).ok
    # no consistent provider fails c_max <= c_K, so a non-improving change
    # (60, 3, 3) is injected at stage 65: it raises c_max(x, s) to 2^-3 for
    # every x <= 59 and leaves c_K as it was, which stays below 2^-3 there
    # until 70 is described at stage 71
    changes = KIndex.changes

    def injected(self, s):
        found = changes(self, s)
        i = sum(stage <= 65 for stage, *_rest in found)
        return found[:i] + ([(65, 60, 3, 3)] if s >= 65 else []) + found[i:]

    monkeypatch.setattr(KIndex, "changes", injected)
    rep = domination_grid_report(p)
    assert rep.omega_violations == ()
    assert rep.max_violations == tuple((x, s) for s in range(65, 71) for x in range(60))


def test_domination_sweep_matches_loop_with_late_descriptions():
    # each late request is paid for at stage t + 1 but describes y only from
    # y + 1 on, so every x in [t + 1, y) fails the measure check from then on
    late = request_set([(4, 400, 10), (5, 250, 30), (6, 480, 100), (9, 120, 110)])
    p = register_requests(registered_provider(generate.rng_for(0, "late"), 500), late, 0)
    rep = domination_grid_report(p)
    assert len(rep.omega_violations) > 10_000
    assert rep == reference_domination_grid_report(p)


def test_domination_sweep_matches_loop_over_idle_stages():
    # 10 is paid for at stage 1 and described from stage 11, so every x in
    # [1, 10) fails the measure check from then on, through the 19 stages
    # after it that change nothing
    p = provider_from_requests(request_set([(2, 10, 0), (3, 4, 2)]), 0, 30)
    rep = domination_grid_report(p)
    assert rep.omega_violations[-1] == (9, 30)
    assert rep == reference_domination_grid_report(p)


@settings(max_examples=40, deadline=None)
@given(providers(top=300))
def test_domination_sweep_matches_loop(p):
    assert domination_grid_report(p) == reference_domination_grid_report(p)


def late_first_descriptions(n, late):
    """n small targets, each first described ``late`` stages after its own."""
    return [(25, i, late + i) for i in range(n)]


@pytest.mark.parametrize(
    "entries",
    [
        # every change lands 300 cells below its stage, so each stage updates
        # and rescans a long run of cells.  560 is paid for at stage 201 but
        # described from 561 on, at half the weight of each late target:
        # x in [550, 560) fails the measure check, and below 550 the slack
        # at x is 2^-26 less than the weight of the late targets paid after
        # x, so a cell that misses their updates fails
        late_first_descriptions(250, 300) + [(26, 560, 200)],
        # long descriptions of 0..399 at their own stages, then three short
        # ones, the first paid for long before it is described, whose
        # weights raise c_max on hundreds of cells below their targets
        [(20, i, i) for i in range(400)] + [(3, 450, 10), (2, 420, 421), (1, 560, 570)],
    ],
    ids=["late-first-descriptions", "long-c_max-walk"],
)
def test_domination_sweep_matches_loop_with_long_spans(entries):
    p = provider_from_requests(request_set(sorted(entries, key=lambda e: e[2])), 0, 600)
    rep = domination_grid_report(p)
    assert rep.omega_violations
    assert rep == reference_domination_grid_report(p)


@pytest.mark.parametrize(
    "provider",
    [
        # 80's registered length 4 gives stage 81 a weight 2^11 times its
        # neighbours', so the plain stages on each side form two runs
        lambda: register_requests(baseline_provider(120), request_set([(4, 80, 80)]), 0),
        # 20 is paid for at stage 6 and described at 21 at 2^-10, above the
        # 2^-12 of each target in [6, 18], so the measure check fails there
        # at every stage of the plain run 21..60, which starts right after
        # stage 20's rise to 19's weight 2^-9 and ends at the horizon
        lambda: provider_from_requests(
            request_set(
                sorted(
                    [(12, y, y) for y in range(2, 19)] + [(9, 19, 19), (10, 20, 5)]
                    + [(10, y, y) for y in range(21, 60)],
                    key=lambda e: e[2],
                )
            ),
            0,
            60,
        ),
        # the run after the last shortcut, at stage 64, ends at the horizon
        lambda: baseline_provider(100),
    ],
    ids=["rising weight mid-run", "violation in a run", "run ending at the horizon"],
)
def test_domination_sweep_matches_references_at_run_edges(provider):
    p = provider()
    rep = domination_grid_report(p)
    assert rep == reference_domination_grid_report(p)
    assert (rep.omega_violations, rep.max_violations) == fraction_domination_reference(p)


def test_domination_sweep_reports_a_c_max_violation_inside_a_run(monkeypatch):
    # a non-improving change (40, 30, 3, 3), injected in (stage, w) order,
    # raises c_max(x, s) to 2^-3 for every x < 30 and leaves c_K as it was;
    # the baseline's plain stages 41..63 then fail the c_max check, so the
    # run they form must go through the per-stage body
    p = baseline_provider(100)
    honest = domination_grid_report(p)
    changes = KIndex.changes

    def injected(self, s):
        found = changes(self, s)
        i = bisect.bisect_left(found, (40, 30))
        return found[:i] + ([(40, 30, 3, 3)] if s >= 40 else []) + found[i:]

    monkeypatch.setattr(KIndex, "changes", injected)
    rep = domination_grid_report(p)
    ck = cost_k(p)
    expected = [(x, s) for s in range(40, 101) for x in range(30) if ck(x, s) < pow2(3)]
    assert {41, 63} <= {s for _x, s in expected}  # the run's stages fail too
    assert rep.omega_violations == honest.omega_violations
    assert rep.max_violations == tuple(expected)


@settings(max_examples=40, deadline=None)
@given(providers())
def test_copy_answers_like_a_fresh_build(p):
    index = p.index
    Cursor(index).advance(p.horizon)  # a walked index, its columns built
    index.sum_at(0, p.horizon)
    twin, fresh = index.copy(), KIndex(grant_descriptions(p))
    assert twin.frontier == 0
    assert twin.events == fresh.events and twin.scale == fresh.scale
    for s in range(p.horizon + 3):
        for w in range(-1, p.horizon + 3):
            assert twin.k(w, s) == fresh.k(w, s)
            assert sum_value(twin, w, s) == sum_value(fresh, w, s)
            assert twin.min_at(w, s) == fresh.min_at(w, s)


def test_merge_on_a_copy_leaves_the_original_unchanged():
    desc = [(3, 5, 4), (7, 2, 9), (3, 4, 12)]
    index = KIndex(desc)
    index.sum_at(0, 20)  # the copy shares these columns
    twin = index.copy()
    twin.merge([(3, 1, 15)])  # improves a target the original also holds
    twin.merge([(11, 2, 16)])
    assert index.events == KIndex(desc).events
    grown = KIndex(desc + [(3, 1, 15), (11, 2, 16)])
    assert twin.events == grown.events
    for s in range(25):
        for w in range(-1, 14):
            assert index.k(w, s) == k_table(desc, s).get(w)
            assert twin.k(w, s) == grown.k(w, s)
            assert sum_value(index, w, s) == sum_ref(k_table(desc, s), w)
            assert sum_value(twin, w, s) == sum_value(grown, w, s)


def test_merge_on_the_original_leaves_a_copy_unchanged():
    desc = [(3, 5, 4), (7, 2, 9), (3, 4, 12)]
    index = KIndex(desc)
    index.sum_at(0, 20)
    twin = index.copy()
    index.merge([(3, 1, 15)])  # improves a target the copy also holds
    index.merge([(7, 1, 10)])  # lands before a stage the copy holds for that target
    index.merge([(11, 2, 16)])
    assert twin.events == KIndex(desc).events
    for s in range(25):
        for w in range(-1, 14):
            assert twin.k(w, s) == k_table(desc, s).get(w)
            assert sum_value(twin, w, s) == sum_ref(k_table(desc, s), w)


def test_copy_of_a_walked_index_accepts_an_early_merge():
    index = KIndex([(3, 5, 4)])
    Cursor(index).advance(10)
    with pytest.raises(ValueError):
        index.merge([(2, 1, 5)])
    twin = index.copy()
    twin.merge([(2, 1, 5)])  # no cursor has walked the copy
    assert twin.k(2, 4) is None and twin.k(2, 5) == 1 and index.k(2, 5) is None
    assert Cursor(twin).advance(10) == [(3, None, 5), (2, None, 1)]


descriptions = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 130), st.integers(0, 40)), max_size=25
)


@settings(max_examples=80, deadline=None)
@given(descriptions, descriptions)
# w = 3's only event, the longest, is superseded, so the scale falls to 2
@example([(3, 9, 4), (5, 2, 6)], [(3, 1, 0)])
# a duplicate of an event and a same-stage description one longer improve nothing
@example([(1, 7, 0), (1, 5, 9)], [(1, 7, 0), (1, 6, 2), (1, 8, 2)])
def test_merge_equals_a_fresh_build(base, extra):
    index = KIndex(base)
    index.sum_at(0, 40)  # the copy shares these tables
    twin = index.copy()
    twin.merge(extra)
    fresh = KIndex(base + extra)
    assert twin.events == fresh.events and twin.scale == fresh.scale
    assert index.events == KIndex(base).events and index.scale == KIndex(base).scale
    # patched at an unchanged scale, else built anew; the shared ones unchanged
    assert twin._tables() == fresh._tables()
    assert index._tables() == KIndex(base)._tables()
    assert Cursor(twin).advance(50) == Cursor(fresh).advance(50)
    assert twin.changes(50) == fresh.changes(50)
    for s in range(45):
        for w in range(-1, 33):
            assert twin.k(w, s) == fresh.k(w, s)
            assert sum_value(twin, w, s) == sum_value(fresh, w, s)
            assert twin.min_at(w, s) == fresh.min_at(w, s)
            assert index.k(w, s) == k_table(base, s).get(w)


def test_merge_must_lie_beyond_every_cursor():
    index = KIndex([(3, 5, 4)])
    Cursor(index).advance(10)
    with pytest.raises(ValueError):
        index.merge([(2, 1, 10)])
    index.merge([(2, 1, 11)])
    assert index.k(2, 11) == 1


def test_merge_must_lie_beyond_the_changes_read():
    index = KIndex([(3, 5, 4), (3, 2, 8)])
    assert index.changes(10) == [(4, 3, None, 5), (8, 3, 5, 2)]
    with pytest.raises(ValueError):
        index.merge([(2, 1, 10)])
    index.merge([(2, 1, 11)])
    assert index.changes(20) == [(4, 3, None, 5), (8, 3, 5, 2), (11, 2, None, 1)]


def test_add_must_lie_beyond_every_cursor_and_may_change_nothing():
    # descriptions are added one at a time by merge
    index = KIndex([(3, 5, 4)])
    cursor = Cursor(index)
    cursor.advance(10)
    with pytest.raises(ValueError):
        index.merge([(2, 1, 10)])
    index.merge([(2, 1, 11)])
    assert index.k(2, 11) == 1
    with pytest.raises(ValueError):
        cursor.advance(9)
    # descriptions no shorter than the current one are no change
    index.merge([(3, 5, 12)])
    index.merge([(3, 7, 13)])
    assert Cursor(index).advance(20) == [(3, None, 5), (2, None, 1)]
    assert cursor.advance(20) == [(2, None, 1)]
    assert index.k(3, 20) == 5
    assert sum_value(index, 0, 20) == pow2(5) + pow2(1) and index.min_at(2, 20) == 5


# ("merge", target, length, stages beyond the cursor) or ("advance", stages)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("merge"), st.integers(0, 40), st.integers(0, 130), st.integers(1, 30)),
        st.tuples(st.just("advance"), st.integers(0, 6)),
    ),
    max_size=25,
)


@settings(max_examples=80, deadline=None)
@given(descriptions, operations)
def test_index_and_cursor_match_reference(desc, ops):
    desc = list(desc)
    index = KIndex(desc)
    top = max([max(t, w + 1) for w, _n, t in desc] + [0])
    tables = [k_table(desc, s) for s in range(top + 1)]
    assert index.events == [  # one event per strict improvement, with the length it replaces
        (s, w, tables[s - 1].get(w), n)
        for s in range(1, top + 1)
        for w, n in sorted(tables[s].items())
        if tables[s - 1].get(w) != n
    ]
    cursor = Cursor(index)
    for op in ops:
        if op[0] == "merge":
            _, w, n, ahead = op
            index.merge([(w, n, cursor.stage + ahead)])  # stages need not come in order
            desc.append((w, n, cursor.stage + ahead))
        else:
            before = k_table(desc, cursor.stage)
            changes = cursor.advance(cursor.stage + op[1])
            after = k_table(desc, cursor.stage)
            first_old, last_new = {}, {}
            for w, old, new in changes:
                assert old is None or new < old
                first_old.setdefault(w, old)
                last_new[w] = new
            assert {w: (before.get(w), after[w]) for w in first_old} == {
                w: (first_old[w], last_new[w]) for w in first_old
            }
            assert set(first_old) == {w for w in after if before.get(w) != after[w]}
        assert index.events == KIndex(desc).events  # canonical after every op
        table = k_table(desc, cursor.stage)
        for x in range(-1, cursor.stage + 2):  # the tables follow every merge
            assert sum_value(index, x, cursor.stage) == sum_ref(table, x)
            assert index.min_at(x, cursor.stage) == min_ref(table, x)
    top = max([max(t, w + 1) for w, _n, t in desc] + [0])
    fresh = Cursor(index)
    walked = []  # (stage, w, old, new): the reference walk's changes, stage by stage
    for s in range(top + 2):
        walked += [(s, *change) for change in fresh.advance(s)]
        assert index.changes(s) == walked == KIndex(desc).changes(s)
        table = k_table(desc, s)
        for w in range(0, 42):
            assert index.k(w, s) == table.get(w)
        for x in range(-1, s + 1):
            assert sum_value(index, x, s) == sum_ref(table, x)
            assert index.min_at(x, s) == min_ref(table, x)
    assert fresh.advance(top + 2) == []


def test_sums_stay_exact_where_the_scale_fits_int64_but_the_sum_does_not():
    # scale 62 fits int64, but the scaled sum 4 * 2^62 + 1 does not
    index = KIndex([(w, 0, 1) for w in range(4)] + [(4, 62, 1)])
    assert index.scale == 62
    assert sum_value(index, -1, 5) == 4 + pow2(62)
    assert sum_value(index, 2, 5) == 1 + pow2(62)
    assert index.min_at(-1, 5) == 0 and index.min_at(3, 5) == 62 and index.min_at(4, 5) is None
    index.merge([(9, 1, 10)])  # merging drops the tables, which are rebuilt on the next query
    assert sum_value(index, -1, 10) == 4 + pow2(1) + pow2(62)


def test_sums_and_minima_over_whole_blocks_match_reference():
    # windows of up to 300 prompt rows span whole blocks of min_at's block
    # minima; w = 200 gets a short prompt row inside a block, w = 90 a
    # delayed one, and baseline lengths alone never fall in w
    rs = request_set([(9, 90, 120), (4, 200, 150)])
    p = register_requests(baseline_provider(300), rs, 0)
    desc = grant_descriptions(p)
    for s in range(0, 301, 5):
        table = k_table(desc, s)
        for x in range(0, s + 1, 3):
            assert sum_value(p.index, x, s) == sum_ref(table, x)
            assert p.index.min_at(x, s) == min_ref(table, x)


def test_horizon_conventions():
    # KProvider.k has no value beyond the horizon; cost_k and cost_max clamp
    # s to the horizon instead, so both differ from a provider queried there
    p = provider_from_requests(request_set([(2, 3, 1), (1, 5, 8)]), 0, 6)
    assert p.k(3, 6) == 2 and p.k(3, 7) is None and p.k(3, 100) is None
    assert p.k(5, 9) is None and p.index.k(5, 9) == 1  # granted past the horizon
    ck, cm = cost_k(p), cost_max(p)
    for s in (6, 7, 10, 100):
        assert ck(0, s) == pow2(2)
        assert cm(0, s) == pow2(2)
    assert cost_omega(p)(0, 100) == pow2(2)
    assert ck(6, 100) == ZERO  # nothing beyond x = horizon counts
    assert [ck(0, s) for s in (5, 6)] == [pow2(2), pow2(2)]
