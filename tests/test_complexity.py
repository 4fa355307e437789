"""The K_s index against a brute-force reference read straight from the grants."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costlab.catalog import cost_k, cost_max, cost_omega, domination_grid_report
from costlab.complexity import Cursor, KIndex
from costlab.machine import (
    baseline_provider,
    provider_from_requests,
    register_requests,
    request_set,
)
from costlab.util import ZERO, pow2


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


def min_ref(table, x):
    return min((n for w, n in table.items() if w > x), default=None)


def grant_descriptions(p):
    return [(g.target, g.length, g.k_stage) for g in p.grants]


schedules = st.lists(
    st.tuples(st.integers(7, 130), st.integers(0, 45), st.integers(0, 50)), max_size=30
)


@st.composite
def providers(draw):
    entries = sorted(draw(schedules), key=lambda e: e[2])
    S = draw(st.integers(1, 45))
    d = draw(st.integers(0, 1))
    rs = request_set(entries)
    if draw(st.booleans()):
        return register_requests(baseline_provider(S), rs, d)
    return provider_from_requests(rs, d, S)


@settings(max_examples=60, deadline=None)
@given(providers(), st.randoms(use_true_random=False))
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
    assert ck.values(pairs) == [sum_ref(at(s), x) for x, s in pairs]
    for x in (0, S // 2, S - 1, S + 1):
        for s_from in (0, x + 1, S):
            assert list(ck.scan(x, s_from)) == [
                (s, sum_ref(at(s), x)) for s in range(s_from, S + 1)
            ]


@settings(max_examples=40, deadline=None)
@given(providers())
# w = 5 is paid for at stage 1 but described from stage 6, so the sum beyond
# x = 5 must leave it out while the one beyond x = 4 exceeds the measure
@example(provider_from_requests(request_set([(1, 5, 0)]), 0, 8))
def test_domination_grid_matches_reference(p):
    desc = grant_descriptions(p)
    S = p.horizon
    omega_bad, max_bad = [], []
    for s in range(1, S + 1):
        table = k_table(desc, s)
        for x in range(0, s + 1):
            total = sum_ref(table, x)
            if total > p.omega(s) - p.omega(x):
                omega_bad.append((x, s))
            n = min_ref(table, x)
            if n is not None and pow2(n) > total:
                max_bad.append((x, s))
    rep = domination_grid_report(p)
    assert rep.omega_violations == tuple(omega_bad)
    assert rep.max_violations == tuple(max_bad)
    assert rep.grid_points == (S + 1) * (S + 2) // 2


descriptions = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 130), st.integers(0, 40)), max_size=25
)
# ("add", target, length, stages beyond the cursor) or ("advance", stages)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40), st.integers(0, 130), st.integers(1, 30)),
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
    assert index.events == [  # one event per strict improvement
        (s, w, n)
        for s in range(1, top + 1)
        for w, n in sorted(tables[s].items())
        if tables[s - 1].get(w) != n
    ]
    cursor = Cursor(index)
    added = []
    for op in ops:
        if op[0] == "add":
            _, w, n, ahead = op
            index.add(w, n, cursor.stage + ahead)  # stages need not come in order
            added.append((w, n, cursor.stage + ahead))
            desc.append(added[-1])
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
        table = k_table(desc, cursor.stage)
        for x in range(-1, cursor.stage + 2):
            assert cursor.sum_beyond(x) == sum_ref(table, x)
            assert cursor.min_beyond(x) == min_ref(table, x)
        if any(max(t, w + 1) > cursor.stage for w, _n, t in added):
            assert cursor.pending
    top = max([max(t, w + 1) for w, _n, t in desc] + [0])
    fresh = Cursor(index)
    for s in range(top + 2):
        fresh.advance(s)
        table = k_table(desc, s)
        assert fresh.sum_beyond(-1) == sum_ref(table, -1)
        for w in range(0, 42):
            assert index.k(w, s) == table.get(w)
        for x in range(-1, s + 1):
            assert index.sum_at(x, s) == sum_ref(table, x)
            assert min(index.lengths(x, s), default=None) == min_ref(table, x)
    assert not fresh.pending


def test_add_must_lie_beyond_every_cursor_and_may_change_nothing():
    index = KIndex([(3, 5, 4)])
    cursor = Cursor(index)
    cursor.advance(10)
    with pytest.raises(ValueError):
        index.add(2, 1, 10)
    index.add(2, 1, 11)
    assert index.k(2, 11) == 1
    with pytest.raises(ValueError):
        cursor.advance(9)
    # descriptions no shorter than the current one are no change
    index.add(3, 5, 12)
    index.add(3, 7, 13)
    assert Cursor(index).advance(20) == [(3, None, 5), (2, None, 1)]
    assert cursor.advance(20) == [(2, None, 1)]
    assert index.k(3, 20) == 5


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
    assert ck.values([(0, 100)]) == [pow2(2)]
    assert list(ck.scan(0, 5)) == [(5, pow2(2)), (6, pow2(2))]


def test_cursor_rescales_and_grows_after_its_first_query():
    index = KIndex([(3, 2, 1)])
    cursor = Cursor(index)
    cursor.advance(4)
    assert cursor.sum_beyond(2) == pow2(2) and cursor.min_beyond(2) == 2
    index.add(70_000, 200, 5)  # longer than any length held, and far beyond
    cursor.advance(70_001)
    assert cursor.sum_beyond(2) == pow2(2) + pow2(200)
    assert cursor.sum_beyond(3) == pow2(200)
    assert cursor.min_beyond(3) == 200
    assert cursor.min_beyond(70_000) is None
    index.add(70_000, 1, 70_002)
    cursor.advance(70_002)
    assert cursor.sum_beyond(3) == Fraction(1, 2)
    assert cursor.min_beyond(2) == 1
