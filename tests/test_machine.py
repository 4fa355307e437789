"""Request sets, the machine builder, and staged complexity providers."""

import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costlab.catalog import additive_from_real, additive_requests, domination_grid_report
from costlab.complexity import KIndex
from costlab.constructions import separation_run
from costlab.errors import WeightOverflow
from costlab.generate import left_ce_real, rng_for
from costlab.machine import (
    KProvider,
    RequestSet,
    _allocate,
    _Grant,
    _request_grants,
    baseline_provider,
    check_prefix_free,
    kc_add,
    kc_machine,
    provider_from_requests,
    register_requests,
    request_set,
)
from costlab.util import pow2


def check_prefix_free_pairwise(strings):
    """Quadratic reference check used to validate the sorted one; a repeated
    string is a prefix of its copy."""
    items = list(strings)
    conflicts = []
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if b.startswith(a) or a.startswith(b):
                conflicts.append((a, b) if b.startswith(a) else (b, a))
    return conflicts


class ScanningAllocator:
    """Reference leftmost-fit allocation of dyadic subintervals of [0, 1).

    Free pieces are kept in a list sorted by position and scanned from the
    left; the construction keeps piece sizes strictly increasing from left to
    right, so the leftmost fitting piece is also the best fit.
    """

    def __init__(self):
        self._free: list[tuple[int, int]] = [(0, 0)]  # (index k, length l): [k*2^-l, (k+1)*2^-l)

    def take(self, length: int) -> str:
        for pos, (k, l) in enumerate(self._free):
            if l <= length:
                del self._free[pos]
                if l == length:
                    return format(k, f"0{length}b") if length else ""
                # split: keep the leftmost sub-piece, free the siblings
                taken = k << (length - l)
                pieces = [(taken >> (length - m)) + 1 for m in range(length, l, -1)]
                self._free[pos:pos] = [
                    (piece, m) for piece, m in zip(pieces, range(length, l, -1))
                ]
                return format(taken, f"0{length}b") if length else ""
        raise WeightOverflow("no free interval fits the requested length")


def scanning_machine(entries, d):
    """The reference's descriptions of (r, y, stage) entries at coding constant d."""
    alloc = ScanningAllocator()
    return tuple((alloc.take(r + d), y) for r, y, _stage in entries)


def test_single_request_weight():
    rs = kc_add(RequestSet(), 1, 7, 0)
    assert rs.weight == Fraction(1, 2)


def test_overflow_on_third_request():
    rs = kc_add(kc_add(RequestSet(), 1, 0, 0), 1, 1, 0)
    assert rs.weight == 1
    with pytest.raises(WeightOverflow):
        kc_add(rs, 2, 2, 0)


def test_geometric_schedule_weight():
    # oracle: direct rational summation of 2^-r for r = 1..10
    expected = sum((pow2(r) for r in range(1, 11)), Fraction(0))
    rs = RequestSet()
    for r in range(1, 11):
        rs = kc_add(rs, r, r, r)
    assert rs.weight == expected == 1 - pow2(10)


def test_stage_monotonicity_enforced():
    rs = kc_add(RequestSet(), 3, 0, 5)
    with pytest.raises(ValueError):
        kc_add(rs, 3, 1, 4)


def test_machine_single_forced_length():
    m = kc_machine(request_set([(1, 9, 0)]), 0)
    assert m.descriptions == (("0", 9),)


def test_machine_three_requests_prefix_free():
    m = kc_machine(request_set([(1, 10, 0), (2, 11, 0), (2, 12, 0)]), 0)
    lengths = sorted(len(sigma) for sigma, _ in m.descriptions)
    assert lengths == [1, 2, 2]
    assert check_prefix_free_pairwise(m.domain()) == []


def test_prefix_conflict_that_sorts_last_is_found():
    domain = ["111101", "0", "110", "10", "11110", "1110"]
    assert check_prefix_free(domain) == [("11110", "111101")]


def test_repeated_description_is_a_conflict():
    # one interval handed out twice keeps the lengths and the Kraft sum of a
    # machine that describes two outputs by "01" and "00"
    for domain in (["01", "01"], ["1", "01", "001", "01"], ["0", "10", "11", "11"]):
        assert check_prefix_free(domain) == check_prefix_free_pairwise(domain) != []
    assert check_prefix_free(["1", "01", "001", "01"]) == [("01", "01")]
    assert check_prefix_free(["01", "01", "011"]) == [("01", "01"), ("01", "011")]


def test_machine_coding_constant_offsets_lengths():
    rs = request_set([(1, 0, 0), (3, 1, 1), (2, 2, 2)])
    m = kc_machine(rs, 3)
    for (sigma, _y), (r, _t, _s) in zip(m.descriptions, rs.entries):
        assert len(sigma) == r + 3


def test_machine_deterministic():
    rs = request_set([(2, 0, 0), (1, 1, 1), (3, 2, 2)])
    assert kc_machine(rs, 0) == kc_machine(rs, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=24))
@example([2, 2, 2, 2])  # an allocator that keeps "01" free hands it out three times
def test_machine_existence_on_random_schedules(lengths):
    rs = RequestSet()
    for i, r in enumerate(lengths):
        try:
            rs = kc_add(rs, r, i, i)
        except WeightOverflow:
            break
    m = kc_machine(rs, 0)
    assert m.kraft_sum() == rs.weight <= 1
    assert check_prefix_free(m.domain()) == []
    assert check_prefix_free(m.domain()) == check_prefix_free_pairwise(m.domain())


@st.composite
def bounded_schedules(draw):
    """Schedules within the unit budget, lengths up to 130 (beyond int64)."""
    lengths = draw(st.lists(st.integers(min_value=0, max_value=130), max_size=40))
    steps = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=40, max_size=40))
    entries, total, stage = [], Fraction(0), 0
    for i, (r, step) in enumerate(zip(lengths, steps)):
        if total + pow2(r) > 1:
            break
        total += pow2(r)
        stage += step
        entries.append((r, i, stage))
    return entries


@settings(max_examples=80, deadline=None)
@given(bounded_schedules(), st.integers(min_value=0, max_value=3))
def test_scaled_weights_match_fraction_reference(entries, d):
    reference = sum((pow2(r) for r, _y, _stage in entries), Fraction(0))
    rs = request_set(entries)
    assert rs.entries == tuple(entries)
    assert rs.weight == reference
    m = kc_machine(rs, d)
    assert m.descriptions == scanning_machine(entries, d)
    assert m.kraft_sum() == pow2(d) * reference
    assert check_prefix_free(m.domain()) == []


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 8) | st.integers(0, 130), max_size=40),
    st.integers(min_value=0, max_value=3),
)
def test_allocator_runs_out_where_the_reference_does(lengths, d):
    """Both allocators agree until the measure runs out, and both raise
    WeightOverflow at the first request that takes the weight above 1."""
    alloc, taken, weight = ScanningAllocator(), [], Fraction(0)
    for r in lengths:
        weight += pow2(r + d)
        if weight > 1:
            with pytest.raises(WeightOverflow):
                alloc.take(r + d)
            with pytest.raises(WeightOverflow):
                _allocate([(r, y) for y, r in enumerate(lengths[: len(taken) + 1])], d)
            break
        taken.append(alloc.take(r + d))
    requests = [(r, y) for y, r in enumerate(lengths[: len(taken)])]
    assert _allocate(requests, d).descriptions == tuple(zip(taken, range(len(taken))))


@pytest.mark.parametrize(
    "entries", [[(2, 0, 0), (-1, 1, 1)], [(2, -1, 0)], [(2, 0, -1)], [(-1, 0, 0)]]
)
def test_request_set_rejects_negative_field(entries):
    with pytest.raises(ValueError, match="naturals"):
        request_set(entries)


def test_request_set_rejects_decreasing_stage():
    with pytest.raises(ValueError, match="nondecreasing"):
        request_set([(3, 0, 5), (70, 1, 6), (3, 2, 4)])


def test_request_set_rejects_weight_above_one():
    # exceeds 1 by 2^-70 only, a difference no int64 scale can carry
    with pytest.raises(WeightOverflow):
        request_set([(1, 0, 0), (1, 1, 0), (70, 2, 0)])
    assert request_set([(1, 0, 0), (2, 1, 0), (2, 2, 0)]).weight == 1
    assert request_set([(1, 0, 0), (70, 1, 0)]).weight == Fraction(1, 2) + pow2(70)


@settings(max_examples=80, deadline=None)
@given(bounded_schedules())
def test_kc_add_chain_matches_request_set(entries):
    rs = RequestSet()
    for r, y, stage in entries:
        rs = kc_add(rs, r, y, stage)
    assert rs == request_set(entries)
    assert rs.weight == request_set(entries).weight


@pytest.mark.parametrize("field", [(-1, 1, 1), (2, -1, 1), (2, 1, -1)])
def test_kc_add_rejects_negative_field(field):
    rs = request_set([(2, 0, 0)])
    with pytest.raises(ValueError, match="naturals"):
        kc_add(rs, *field)


def test_kc_add_rejects_decreasing_stage():
    rs = request_set([(3, 0, 5), (70, 1, 6)])
    with pytest.raises(ValueError, match="nondecreasing"):
        kc_add(rs, 3, 2, 5)


def test_kc_add_rejects_weight_above_one():
    # the full set plus 2^-70 exceeds 1 by that much only
    rs = request_set([(1, 0, 0), (1, 1, 0)])
    with pytest.raises(WeightOverflow):
        kc_add(rs, 70, 2, 0)
    assert kc_add(request_set([(1, 0, 0), (2, 1, 0)]), 2, 2, 0).weight == 1


def test_baseline_infinity_convention():
    p = baseline_provider(32)
    for s in range(0, 33):
        for w in range(s, 34):
            assert p.k(w, s) is None


def test_baseline_shortcut_beats_main_schedule():
    # by hand: shortcut for 2^10 has length 2*floor(log2(12)) + 5 = 11,
    # while the main schedule gives 2*floor(log2(1026)) + 3 = 23
    p = baseline_provider(2**11 + 2)
    assert p.k(1024, 2**11 + 1) == 11
    assert p.k(1024, 1026) == 23


def test_baseline_omega_empty_at_zero():
    assert baseline_provider(16).omega(0) == 0


def test_baseline_omega_monotone_and_bounded():
    p = baseline_provider(128)
    prev = Fraction(0)
    for s in range(129):
        cur = p.omega(s)
        assert prev <= cur <= 1
        prev = cur


def test_baseline_k_improves_only():
    p = baseline_provider(128)
    for w in range(0, 40):
        prev = None
        for s in range(129):
            k = p.k(w, s)
            if prev is not None and k is not None:
                assert k <= prev
            if k is not None:
                prev = k


def test_register_empty_is_identity():
    p = baseline_provider(32)
    q = register_requests(p, RequestSet(), 2)
    for w in range(12):
        for s in range(33):
            assert p.k(w, s) == q.k(w, s)
    assert p.omega(32) == q.omega(32)


def test_register_takes_effect_after_stage():
    p = baseline_provider(128)
    q = register_requests(p, request_set([(4, 100, 7)]), 2)
    assert q.k(100, 7) == p.k(100, 7)
    for s in range(101, 129):
        assert q.k(100, s) == 6
    assert q.omega(8) - p.omega(8) == pow2(6)


def test_registered_index_keeps_only_improvements():
    # length 2 for w = 16 from stage 17 on supersedes both the main event
    # (17, 16, 11) at the same stage and the shortcut (32, 16, 9) after it
    base = baseline_provider(64)
    assert [e for e in base.index.events if e[1] == 16] == [(17, 16, None, 11), (32, 16, 11, 9)]
    p = register_requests(base, request_set([(2, 16, 3)]), 0)
    assert [e for e in p.index.events if e[1] == 16] == [(17, 16, None, 2)]
    fresh = KIndex((g.target, g.length, g.omega_stage) for g in p.grants)
    assert p.index.events == fresh.events and p.index.scale == fresh.scale


def test_memoized_baseline_is_left_as_built_by_its_readers():
    S = 512
    p = baseline_provider(S)
    assert baseline_provider(S) is p
    assert domination_grid_report(p).ok
    assert separation_run(1, p, 1, 20_000).claim_ok
    q = register_requests(p, request_set([(2, 16, 3), (1, 300, 40)]), 0)
    assert q.index is not p.index and q.k(300, 400) == 1
    fresh = baseline_provider.__wrapped__(S)
    assert fresh is not p
    assert p.grants == fresh.grants and p.omega_column() == fresh.omega_column()
    assert p.index.events == fresh.index.events and p.index.scale == fresh.index.scale
    for s in range(S + 2):
        for w in range(S + 2):
            assert p.k(w, s) == fresh.k(w, s)


def fresh_registration(p, rs, d):
    """A provider of p's grants and the requests' built from scratch: the
    reference for ``register_requests``."""
    grants = [*p.grants, *_request_grants(rs, d)]
    return KProvider(p.horizon, grants, p.budget_used + pow2(d) * rs.weight)


@st.composite
def registrations(draw):
    """A base provider (the baseline, a schedule of its own or a registered
    baseline), requests within its budget, lengths up to 45, and a coding
    constant."""
    S = draw(st.integers(1, 160))
    d = draw(st.integers(0, 2))

    def schedule(budget, top, d):
        """Requests whose weight, and whose weight at coding constant d, fit."""
        items = draw(
            st.lists(
                st.tuples(st.integers(1, top), st.integers(0, S + 3), st.integers(0, S + 3)),
                max_size=12,
            )
        )
        entries, weight = [], Fraction(0)
        for r, y, t in sorted(items, key=lambda e: e[2]):
            if weight + pow2(r) <= min(1, budget / pow2(d)):
                weight += pow2(r)
                entries.append((r, y, t))
        return request_set(entries)

    kind = draw(st.sampled_from(["baseline", "schedule", "registered"]))
    if kind == "schedule":
        base = provider_from_requests(schedule(Fraction(1, 2), 30, 0), 0, S)
    else:
        base = baseline_provider(S)
        if kind == "registered":
            base = register_requests(base, schedule(Fraction(1, 4), 30, d), d)
    return base, schedule(1 - base.budget_used, 45, d), d


# In the baseline of horizon 64, w = 40 has the prompt row (41, 40, 13), w = 16
# the rows (17, 16, 11) and (32, 16, 9), and the longest length is 15.
# A length-2 description of w = 40 from stage 41 replaces its prompt row.
REPLACED_PROMPT_ROW = (baseline_provider(64), request_set([(2, 40, 3)]), 0)
# No row for w = 0, and w = 64 the shortest of the first block: the new row
# at stage 1 moves it to the second block.
BLOCKS_SHIFTED = (
    provider_from_requests(
        request_set([(7 if w == 64 else 12, w, w) for w in range(1, 200)]), 0, 200
    ),
    request_set([(12, 0, 0)]),
    0,
)
# A row for w = 16 at stage 21, between its two, reweighs the shortcut after it.
DELAYED_ROW_SPLICED = (baseline_provider(64), request_set([(10, 16, 20)]), 0)
# A new target with a length beyond the base's scale rebuilds the tables.
SCALE_RAISED = (baseline_provider(64), request_set([(30, 100, 10)]), 0)
# The base has prompt rows for w = 5 and 9 only: w = 2 and 15 land before and after them.
ENDS_INSERTED = (
    provider_from_requests(request_set([(9, 5, 0), (9, 9, 0)]), 0, 20),
    request_set([(9, 2, 0), (9, 15, 0)]),
    0,
)
# w = 197's prompt row lies in the last partial block of BLOCKS_SHIFTED's base.
LAST_BLOCK_REPLACED = (BLOCKS_SHIFTED[0], request_set([(8, 197, 0)]), 0)
# A length-14 description of w = 40, whose prompt row is 13 long, improves nothing.
NOTHING_IMPROVED = (baseline_provider(64), request_set([(14, 40, 3)]), 0)


@settings(max_examples=60, deadline=None)
@given(registrations())
@example(REPLACED_PROMPT_ROW)
@example(BLOCKS_SHIFTED)
@example(DELAYED_ROW_SPLICED)
@example(SCALE_RAISED)
@example(ENDS_INSERTED)
@example(LAST_BLOCK_REPLACED)
@example(NOTHING_IMPROVED)
def test_registration_equals_a_fresh_build(case):
    base, rs, d = case
    before = copy.deepcopy(base.index._tables())
    q, fresh = register_requests(base, rs, d), fresh_registration(base, rs, d)
    old_order = sorted(fresh.grants, key=lambda g: (g.omega_stage, g.length, g.target))
    assert q.grants == fresh.grants == tuple(old_order)
    assert q.max_length == fresh.max_length and q.budget_used == fresh.budget_used
    assert q._omega_stages == fresh._omega_stages
    assert q._omega_scaled == fresh._omega_scaled
    assert q.omega_column() == fresh.omega_column()
    assert q.index.events == fresh.index.events and q.index.scale == fresh.index.scale
    assert q.index._tables() == fresh.index._tables()
    assert base.index._tables() == before


@pytest.mark.parametrize(
    "case, rebuilt",
    [
        (REPLACED_PROMPT_ROW, False),
        (BLOCKS_SHIFTED, False),
        (DELAYED_ROW_SPLICED, False),
        (SCALE_RAISED, True),
        (NOTHING_IMPROVED, False),
    ],
    ids=[
        "replaced-prompt-row", "blocks-shifted", "delayed-row-spliced", "scale-raised",
        "nothing-improved",
    ],
)
def test_registration_patches_its_base_tables(monkeypatch, case, rebuilt):
    base, rs, d = case
    base.index._tables()
    q = register_requests(base, rs, d)
    builds = []
    build = KIndex._build
    monkeypatch.setattr(KIndex, "_build", lambda self: builds.append(self) or build(self))
    assert q.index._tables() == fresh_registration(base, rs, d).index._build()
    assert len(builds) == 1 + rebuilt  # the reference's build, and a rebuild's


@settings(max_examples=60, deadline=None)
@given(bounded_schedules(), st.integers(0, 2), st.integers(1, 120), st.booleans())
def test_omega_column_matches_the_pointwise_measure(entries, d, S, registered):
    rs = request_set(entries)
    if registered and pow2(d) * rs.weight <= 1 - baseline_provider(S).budget_used:
        p = register_requests(baseline_provider(S), rs, d)
    else:
        p = provider_from_requests(rs, d, S)
    assert p.omega_column() == [p.omega_scaled(s) for s in range(S + 1)]


def test_register_overflow():
    p = baseline_provider(16)
    with pytest.raises(WeightOverflow):
        register_requests(p, request_set([(0, 3, 0)]), 0)


def test_kraft_equality_at_horizon():
    p = register_requests(baseline_provider(64), request_set([(5, 9, 3), (6, 11, 4)]), 1)
    honored = sum((pow2(g.length) for g in p.grants if g.omega_stage <= 64), Fraction(0))
    assert p.omega(64) == honored
    m = p.machine()
    assert m.kraft_sum() == honored
    assert check_prefix_free(m.domain()) == []


@pytest.mark.parametrize("i, S", [(0, 128), (1, 256), (2, 512)])
def test_provider_machine_equals_its_request_schedule_machine(i, S):
    # the provider-churn workload's seed-1 providers: the baseline plus the
    # requests of a random additive cost, registered with coding constant 3
    extra = additive_requests(additive_from_real(left_ce_real(rng_for(1, f"kraft{i}"), 100)))
    p = register_requests(baseline_provider(S), extra, 3)
    rs = p.request_schedule()
    m = p.machine()
    assert m == kc_machine(rs, 0)
    assert m.descriptions == scanning_machine(rs.entries, 0)
    assert check_prefix_free(m.domain()) == []


def test_provider_machine_refuses_grants_above_the_unit_budget():
    # the stated budget is 1/2, but the grants weigh 1/2 + 1/2 + 1/4: the
    # provider refuses them when built, where omega(8) would read 5/4, and
    # the allocator behind machine() refuses them on its own
    grants = [_Grant(1, 1, 0), _Grant(1, 1, 1), _Grant(2, 2, 2)]
    with pytest.raises(WeightOverflow):
        KProvider(8, grants, Fraction(1, 2))
    with pytest.raises(WeightOverflow):
        _allocate(((g.length, g.target) for g in grants), 0)
    assert KProvider(8, grants[:2], Fraction(1)).machine().domain() == ("0", "1")


def test_provider_builds_on_grants_that_weigh_exactly_its_budget():
    grants = [_Grant(1, 1, 1), _Grant(2, 2, 2)]  # 1/2 + 1/4
    assert KProvider(8, grants, Fraction(3, 4)).omega(8) == Fraction(3, 4)
    with pytest.raises(WeightOverflow):
        KProvider(8, grants, Fraction(3, 4) - pow2(60))


def test_provider_from_requests_single_description():
    p = provider_from_requests(request_set([(3, 5, 1)]), 0, 16)
    assert p.k(5, 9) == 3
    assert p.k(5, 1) is None
    assert p.omega(16) == pow2(3)
