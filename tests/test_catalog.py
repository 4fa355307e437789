"""The named cost functions and the left-c.e. real correspondence."""

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costlab.catalog import (
    LeftCEReal,
    additive_from_real,
    additive_requests,
    check_additivity,
    cost_from_approx,
    cost_g,
    cost_k,
    cost_max,
    cost_omega,
    domination_grid_report,
    real_from_additive,
    SolovayCertificate,
    rescale_to_unit,
    solovay_translate,
)
from costlab.core import ApproximationTrace, additive_cost, check_monotone
from costlab.errors import NonAdditive
from costlab.generate import left_ce_real, rng_for
from costlab.machine import (
    baseline_provider,
    provider_from_requests,
    register_requests,
    request_set,
)
from costlab.serialize import dump_real, load_real
from costlab.util import ZERO, cantor_pair, cantor_unpair, least_length, pow2
from unit_costs import units_cost


def test_cost_k_zero_above_diagonal():
    ck = cost_k(baseline_provider(16))
    for x in range(16, 20):
        for s in range(0, x + 1):
            assert ck(x, s) == 0


def test_cost_k_single_description():
    p = provider_from_requests(request_set([(3, 5, 1)]), 0, 16)
    ck = cost_k(p)
    assert ck(4, 9) == Fraction(1, 8)
    assert ck(5, 9) == 0


def test_cost_k_matches_sums_of_k():
    p = baseline_provider(48)
    ck = cost_k(p)
    for x in (0, 2, 3, 5, 11, 47):
        for s in range(49):
            ks = [p.k(w, s) for w in range(x + 1, s + 1)]
            assert ck(x, s) == sum((pow2(n) for n in ks if n is not None), ZERO)


def test_cost_k_below_cost_omega_exhaustive_small():
    p = baseline_provider(40)
    ck, co = cost_k(p), cost_omega(p)
    for x in range(41):
        for s in range(x, 41):
            assert ck(x, s) <= co(x, s)


def test_domination_grid_matches_naive_small():
    # dual route: the swept report against direct evaluation
    p = baseline_provider(24)
    rep = domination_grid_report(p)
    assert rep.ok
    ck, co, cm = cost_k(p), cost_omega(p), cost_max(p)
    for x in range(25):
        for s in range(x, 25):
            assert cm(x, s) <= ck(x, s) <= co(x, s)


def test_domination_grid_beyond_int64_scale():
    # exact-int agreement beyond 2^62: descriptions longer than 62 bits must
    # give the report of the same schedule shifted by a coding constant,
    # since every compared quantity scales by the same power of two
    rs = request_set([(3, 5, 1), (2, 9, 4), (6, 2, 7), (4, 12, 12), (5, 3, 15)])
    short = domination_grid_report(provider_from_requests(rs, 0, 20))
    long_ = domination_grid_report(provider_from_requests(rs, 64, 20))
    assert short.omega_violations
    assert long_ == short
    p = register_requests(baseline_provider(64), request_set([(70, 5, 3)]), 0)
    assert domination_grid_report(p).ok


def test_cost_omega_additive_and_diagonal():
    p = baseline_provider(32)
    co = cost_omega(p)
    for x in range(0, 33, 4):
        assert co(x, x) == 0
    check_additivity(co, 16)


def test_cost_max_single_description_equals_sum():
    p = provider_from_requests(request_set([(3, 5, 1)]), 0, 16)
    assert cost_max(p)(2, 9) == cost_k(p)(2, 9) == Fraction(1, 8)


def test_constant_real_gives_zero_cost():
    beta = LeftCEReal.of((Fraction(1, 3),) * 9, Fraction(1))
    c = additive_from_real(beta)
    for x in range(9):
        for s in range(x, 9):
            assert c(x, s) == 0


def test_roundtrip_real_cost_real():
    rng = rng_for(5)
    for _ in range(10):
        b = left_ce_real(rng, 24)
        assert real_from_additive(additive_from_real(b), cap=b.cap).seq == b.seq


def test_additive_from_real_matches_fraction_reference():
    # integer numerators over the lcm of the denominators must give
    # b(s) - b(x) exactly, for dyadic and mixed denominators, also beyond
    # the horizon
    dyadic = left_ce_real(rng_for(7), 40)
    mixed = LeftCEReal.of(tuple(map(Fraction, ("0", "1/5", "1/3", "1/2", "2/3", "3/4", "3/4"))))
    for b in (dyadic, mixed):
        c = additive_from_real(b)
        for x in range(b.horizon + 3):
            for s in range(b.horizon + 3):
                want = b.at(s) - b.at(x) if x <= s else ZERO
                assert Fraction(c.eval_fn(x, s), c.den) == want, (x, s)
    with pytest.raises(ValueError):
        additive_from_real(dyadic).units(-1, 3)


def test_additive_algebra_oracle():
    # beta_s = 1 - 2^-s gives c(x, s) = 2^-x - 2^-s
    beta = LeftCEReal.of(tuple(1 - pow2(s) for s in range(17)))
    c = additive_from_real(beta)
    for x in range(17):
        for s in range(x, 17):
            assert c(x, s) == pow2(x) - pow2(s)


def test_cost_g_prefix_sums():
    c = cost_g(lambda w: w + 1, 12)
    expected = sum((pow2(w + 1) for w in range(1, 13)), ZERO)
    assert c(0, 12) == expected
    assert c(5, 3) == 0
    check_additivity(c, 12)


def test_cost_from_approx_quiet_oracle():
    z = ApproximationTrace(12)
    c = cost_from_approx(z, lambda e: e)
    for x in range(13):
        for s in range(13):
            assert c(x, s) == 0


def test_cost_from_approx_single_change():
    z = ApproximationTrace(16, [(10, 3, 1)])
    c = cost_from_approx(z, lambda e: e)
    for x in range(4, 17):
        assert c(x, 10) == (Fraction(1, 8) if x < 10 else ZERO)
    assert c(3, 10) == 0
    assert c(5, 9) == 0


def test_cost_from_approx_stage_monotone():
    rng = rng_for(9)
    from costlab.generate import approximation_trace

    z = approximation_trace(rng, 20, 12, 6)
    c = cost_from_approx(z, lambda e: e)
    report = check_monotone(c, 0, 0)  # construction screen already ran
    for x in range(20):
        prev = ZERO
        for s in range(21):
            v = c(x, s)
            if x < s:
                assert v >= prev
                prev = v


def test_solovay_self_translation():
    rng = rng_for(12)
    for _ in range(10):
        a = left_ce_real(rng, 40)
        assert solovay_translate(a, a, 2).ok


def test_solovay_constant_target():
    rng = rng_for(13)
    a = left_ce_real(rng, 30)
    b = LeftCEReal.of((Fraction(1, 5),) * 31, Fraction(1))
    assert solovay_translate(a, b, 1).ok


def test_solovay_detects_late_jump():
    # a stabilizes early; b jumps by nearly 1 at the last stage
    a_seq = [Fraction(0)] * 31
    for s in range(1, 31):
        a_seq[s] = Fraction(min(s, 5), 8)
    b_seq = list(a_seq)
    for s in range(28, 31):
        b_seq[s] = a_seq[s] + Fraction(9, 10)
    cert = solovay_translate(
        LeftCEReal.of(tuple(a_seq), Fraction(2)), LeftCEReal.of(tuple(b_seq), Fraction(2)), 1
    )
    assert not cert.ok


def solovay_translate_scan(a, b, N, samples):
    """The scanning form of ``solovay_translate``: x found by a walk from stage 0."""
    aS, bS = a.at(a.horizon), b.at(b.horizon)
    pairs, violations = [], []
    for q in samples:
        if q >= aS:
            continue
        x = next(i for i in range(a.horizon + 1) if q < a.seq[i])
        pairs.append((q, b.at(x)))
        if bS - b.at(x) >= N * (aS - q):
            violations.append(q)
    return SolovayCertificate(tuple(pairs), N, tuple(violations))


def test_solovay_bisect_matches_scanning_search():
    rng = rng_for(14)
    for i in range(40):
        S = rng.randint(1, 60)
        a = left_ce_real(rng, S, jumps=rng.randint(1, 4))  # long plateaus
        b = left_ce_real(rng, rng.randint(1, 60))
        values = sorted(set(a.seq))
        samples = values + [(u + v) / 2 for u, v in zip(values, values[1:])]
        samples += [Fraction(rng.randint(0, 1 << 20), 1 << 20) for _ in range(10)]
        rng.shuffle(samples)
        for N in (1, 3):
            assert solovay_translate(a, b, N, samples) == solovay_translate_scan(
                a, b, N, samples
            )
        default = solovay_translate(a, b, 2)
        assert default == solovay_translate_scan(a, b, 2, [q for q, _v in default.phi])


def least_length_loop(v: Fraction) -> int:
    r = 0
    while pow2(r) > v:
        r += 1
    return r


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 100), st.integers(1, 1 << 100))
def test_least_length_matches_loop(p, q):
    v = Fraction(min(p, q), max(p, q))
    assert least_length(v) == least_length_loop(v)
    assert least_length(Fraction(1, q)) == least_length_loop(Fraction(1, q))
    assert least_length(Fraction(p, 1 << 70)) == least_length_loop(Fraction(p, 1 << 70))


def test_least_length_at_powers_of_two():
    for r in (0, 1, 63, 64, 65, 200):
        assert least_length(pow2(r)) == r
        assert least_length(pow2(r) + pow2(r + 90)) == r
        assert least_length(pow2(r) - pow2(r + 90)) == r + 1


def cantor_unpair_loop(p: int) -> tuple[int, int]:
    m = 0
    while (m + 1) * (m + 2) // 2 <= p:
        m += 1
    x = p - m * (m + 1) // 2
    return x, m - x


def test_cantor_unpair_matches_loop():
    for p in range(5000):
        assert cantor_unpair(p) == cantor_unpair_loop(p)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 80), st.integers(0, 1 << 80))
def test_cantor_unpair_inverts_pairing(x, i):
    assert cantor_unpair(cantor_pair(x, i)) == (x, i)
    m = x + i  # the diagonal's first and last codes, next to its neighbours'
    assert cantor_unpair(m * (m + 1) // 2) == (0, m)
    assert cantor_unpair(m * (m + 1) // 2 + m) == (m, 0)


def rescale_exponent_loop(top: Fraction) -> int:
    k = 0
    while (1 << k) < top:
        k += 1
    return k


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 90), st.integers(1, 1 << 90))
def test_rescale_to_unit_matches_loop(num, den):
    top = Fraction(num, den)
    c = units_cost("flat", 3, lambda x, s: top if x == 0 and s >= 3 else ZERO, top.denominator)
    assert rescale_to_unit(c)(0, 3) == top * pow2(rescale_exponent_loop(top))


def test_rescale_to_unit_exponent_stays_zero_at_or_below_one():
    for top in (ZERO, Fraction(1, 3), Fraction(1)):
        c = units_cost("flat", 3, lambda x, s: top if x == 0 and s >= 3 else ZERO, 3)
        assert rescale_to_unit(c)(0, 3) == top
    c = units_cost("flat", 3, lambda x, s: Fraction(1 << 64) + 1 if x == 0 and s >= 3 else ZERO, 1)
    assert rescale_to_unit(c)(0, 3) == (Fraction(1 << 64) + 1) / (1 << 65)


def test_additive_requests_zero_cost_empty():
    beta = LeftCEReal.of((ZERO,) * 9)
    assert len(additive_requests(additive_from_real(beta))) == 0


def test_additive_requests_exact_powers():
    beta_vals = [ZERO]
    for w in range(1, 11):
        beta_vals.append(beta_vals[-1] + pow2(w))
    c = additive_from_real(LeftCEReal.of(tuple(beta_vals)))
    rs = additive_requests(c)
    assert [(r, y) for r, y, _s in rs.entries] == [(w, w) for w in range(1, 11)]


def test_additive_requests_least_power():
    # c(w-1, w) = 3 * 2^-(w+2) needs r_w = w + 1
    beta_vals = [ZERO]
    for w in range(1, 9):
        beta_vals.append(beta_vals[-1] + 3 * pow2(w + 2))
    c = additive_from_real(LeftCEReal.of(tuple(beta_vals)))
    rs = additive_requests(c)
    assert [(r, y) for r, y, _s in rs.entries] == [(w + 1, w) for w in range(1, 9)]
    # least-power oracle
    for w in range(1, 9):
        v = 3 * pow2(w + 2)
        r = 0
        while pow2(r) > v:
            r += 1
        assert r == w + 1 == least_length(v)


def additive_requests_reference(c):
    """The request lengths as least_length of each increment's Fraction."""
    increments = ((w, c(w - 1, w)) for w in range(1, c.horizon + 1))
    return request_set((least_length(v), w, w) for w, v in increments if v > 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32), st.integers(1, 120))
def test_additive_requests_match_the_fraction_reference_on_random_reals(seed, S):
    c = additive_from_real(left_ce_real(rng_for(seed, "requests"), S))
    assert additive_requests(c) == additive_requests_reference(c)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1 << 90), max_size=30), st.integers(0, 3))
def test_additive_requests_match_the_fraction_reference_beyond_int64(steps, extra):
    # den 3^60 + extra is 96 bits long, beyond int64, and no power of two
    den = 3**60 + extra
    units = [0, *accumulate(steps)]
    units = [u for u in units if u <= den]
    c = additive_cost("wide", units, den)
    assert additive_requests(c) == additive_requests_reference(c)


@pytest.mark.parametrize(
    "units, den, lengths",
    [
        ([0, 7], 7, [0]),  # u == den: length 0
        ([0, 8, 15], 15, [1, 2]),  # 8 has den's bit length and lies below it
        ([0, 1 << 70, (1 << 70) + (1 << 69)], 1 << 71, [1, 2]),
        ([0, (1 << 70) - 1, 1 << 71], 1 << 71, [2, 1]),  # 2^70 - 1 is just short of 2^-1
    ],
)
def test_additive_requests_rounding_edges(units, den, lengths):
    c = additive_cost("edge", units, den)
    rs = additive_requests(c)
    assert [r for r, _w, _s in rs.entries] == lengths
    assert rs == additive_requests_reference(c)


def test_additive_requests_weight_within_budget():
    rng = rng_for(21)
    for _ in range(10):
        b = left_ce_real(rng, 40)
        rs = additive_requests(additive_from_real(b))
        assert rs.weight <= 1


def test_rescale_to_unit():
    beta = LeftCEReal.of(tuple(Fraction(3 * s, 2) for s in range(9)), Fraction(12))
    c = additive_from_real(beta)
    scaled = rescale_to_unit(c)
    assert scaled(0, 8) <= 1
    assert scaled(0, 8) * 16 == c(0, 8)


def test_non_additive_rejected():
    from costlab.core import geometric_cost

    with pytest.raises(NonAdditive):
        real_from_additive(geometric_cost(10))
    sneaky = units_cost(
        "sneaky", 10, lambda x, s: pow2(x) if x <= s else ZERO, 1 << 20, additive=True
    )
    with pytest.raises(NonAdditive):
        real_from_additive(sneaky)


def left_ce_check_reference(seq, cap):
    """The former validation loop: a sign test and a predecessor test per stage."""
    prev = None
    for v in seq:
        if v < 0:
            return "left-c.e. approximations are nonnegative"
        if prev is not None and v < prev:
            return "left-c.e. approximations are nondecreasing"
        prev = v
    if seq and seq[-1] > cap:
        return "sequence exceeds its declared cap"
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.fractions(min_value=-2, max_value=3, max_denominator=6), max_size=12),
    st.fractions(min_value=-1, max_value=3, max_denominator=4),
)
def test_left_ce_validation_matches_reference(seq, cap):
    seq = tuple(sorted(map(abs, seq)) if len(seq) % 3 == 0 else seq)  # valid ones too
    want = left_ce_check_reference(seq, cap)
    if want is None:
        assert LeftCEReal.of(seq, cap).seq == seq
    else:
        with pytest.raises(ValueError) as exc:
            LeftCEReal.of(seq, cap)
        assert str(exc.value) == want



# mixed denominators, a value below 0 and one above the cap of 2; 1/2 twice,
# as two equal objects
_POOL = tuple(map(Fraction, ("-1/3", "0", "1/6", "1/4", "1/2", "1/2", "2/3", "1", "3/2")))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_POOL), min_size=1, max_size=14), st.booleans())
def test_real_of_repeated_objects_matches_reference(seq, ordered):
    # the real is one integer column over one denominator, in lowest terms, and
    # formats one text per distinct value: its validation, every pair and every
    # line must still match the per-stage forms of the rational values
    seq = tuple(sorted(seq) if ordered else seq)
    want = left_ce_check_reference(seq, Fraction(2))
    if want is not None:
        with pytest.raises(ValueError) as exc:
            LeftCEReal.of(seq, Fraction(2))
        assert str(exc.value) == want
        return
    b = LeftCEReal.of(seq, Fraction(2))
    c = additive_from_real(b)
    for x in range(len(seq)):
        for s in range(x, len(seq)):
            assert Fraction(c.eval_fn(x, s), c.den) == seq[s] - seq[x]
    lines = [f"{s} {v.numerator} {v.denominator}\n" for s, v in enumerate(seq)]
    assert dump_real(b) == "".join(lines)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=14),
    st.integers(1, 24),
    st.integers(1, 6),
    st.integers(0, 2),
)
def test_real_column_matches_its_rational_values(steps, den, factor, headroom):
    units = tuple(accumulate(steps))
    seq = tuple(Fraction(u, den) for u in units)
    cap = seq[-1] + headroom
    b = LeftCEReal(units, den, cap)
    assert b == LeftCEReal.of(seq, cap) and b.seq == seq
    assert b.horizon == len(seq) - 1
    assert [b.at(s) for s in range(len(seq) + 2)] == [*seq, seq[-1], seq[-1]]
    assert math.gcd(b.den, *b.units) == 1
    # the same values over a denominator that shares a factor with every unit
    scaled = LeftCEReal(tuple(factor * u for u in units), factor * den, cap)
    assert scaled == b and (scaled.units, scaled.den) == (b.units, b.den)
    assert load_real(dump_real(scaled), cap=cap) == b == load_real(dump_real(b), cap=cap)


def test_real_column_validation_sees_a_drop_of_one_unit():
    assert LeftCEReal((0, 6, 6, 9), 12) == LeftCEReal((0, 2, 2, 3), 4)
    assert LeftCEReal((0, 6, 6, 9), 12).units == (0, 2, 2, 3)
    drops = [((-1, 0), "nonnegative"), ((0, 2, 1), "nondecreasing"), ((3, 2), "nondecreasing")]
    for units, want in drops:
        with pytest.raises(ValueError, match=f"approximations are {want}"):
            LeftCEReal(units, 4)
    with pytest.raises(ValueError, match="exceeds its declared cap"):
        LeftCEReal((0, 5), 4)
    with pytest.raises(ValueError, match="positive denominator"):
        LeftCEReal((0, 1), 0)
