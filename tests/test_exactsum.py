import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcorr import exactsum
from divcorr.divisor import (gauss8_pieces, mean_square, sieve_tau,
                             tong_ratio_oracle)
from divcorr.exactsum import (_BLOCK, _scaled_sum, exact_prefix_sums,
                              exact_sum)
from divcorr.voronoi import _4PI, _SQRT2_PI, q_n


def outcome(fn, xs):
    """fn(xs) as a hex string, which tells -0.0 from 0.0 (and reads 'nan'
    for a NaN), or the type of the exception it raised."""
    try:
        return fn(xs).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_same_as_fsum(xs):
    xs = [float(x) for x in xs]
    assert outcome(exact_sum, np.array(xs)) == outcome(math.fsum, xs)


_WIDE = st.floats(min_value=-2.0**999, max_value=2.0**999,
                  allow_subnormal=True)
_SUBNORMAL = st.integers(-2**52 + 1, 2**52 - 1).map(lambda k: k * 5e-324)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WIDE, max_size=60))
def test_matches_fsum_on_any_doubles(xs):
    assert_same_as_fsum(xs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=40),
       st.randoms(use_true_random=False))
def test_total_cancellation(xs, rnd):
    # x and -x for every x: the exact total is zero, so the sign of the
    # zero is fsum's; a leading -0.0 or an all -0.0 list must keep it too
    both = xs + [-x for x in xs]
    rnd.shuffle(both)
    assert_same_as_fsum(both)
    assert_same_as_fsum([-0.0] + both)
    assert_same_as_fsum([-0.0] * len(xs))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=2.0**-900, max_value=2.0**900),
       st.sampled_from([-1.0, 0.0, 1.0]), st.booleans(),
       st.randoms(use_true_random=False))
def test_half_ulp_ties(x, tiny, negate, rnd):
    # x + half an ulp is a tie, rounded to even unless a far smaller term
    # breaks it; the half ulp comes in three parts and in any order
    half = math.ulp(x) / 2
    xs = [x, half / 2, half / 4, half / 4]
    if tiny:
        xs.append(tiny * math.ulp(x) * 2.0**-300)
    if negate:
        xs = [-v for v in xs]
    rnd.shuffle(xs)
    assert_same_as_fsum(xs)


@pytest.mark.parametrize("xs, expect", [
    ([1.0, 2.0**-53], 1.0),                                  # tie, to even
    ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),            # tie, to even
    ([1.0, 2.0**-53, 2.0**-1074], 1.0 + 2.0**-52),           # broken up
    ([1.0 + 2.0**-52, 2.0**-53, -2.0**-1074], 1.0 + 2.0**-52),  # down
    ([-1.0, -2.0**-53], -1.0),
    ([-1.0 - 2.0**-52, -2.0**-53], -1.0 - 2.0**-51),
    ([2.0**-1074, 2.0**-1074, -2.0**-1073], 0.0),
    ([2.0**-1022, -2.0**-1074], 2.0**-1022 - 2.0**-1074),    # to subnormal
])
def test_known_roundings(xs, expect):
    assert exact_sum(np.array(xs)).hex() == expect.hex()
    assert_same_as_fsum(xs)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SUBNORMAL, max_size=50), st.lists(_WIDE, max_size=3))
def test_subnormals(small, other):
    assert_same_as_fsum(small)
    assert_same_as_fsum(small + other)


@pytest.mark.parametrize("xs", [
    [math.inf], [-math.inf, 1.0], [math.nan, 1.0], [math.inf, -math.inf],
    [math.inf, math.nan], [2.0**1000], [2.0**1000, -2.0**1000, 1.0],
    [1e308, 1e308], [1e308, 1e308, -1e308], [-1.7e308, -1.7e308],
    [2.0**1000 - 2.0**947, 2.0**-1074],
])
def test_non_finite_and_huge_fall_back_to_fsum(xs):
    assert_same_as_fsum(xs)


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2**18 - 1, 2**18 + 1])
def test_lengths_around_the_block(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))
    assert exact_sum(a).hex() == math.fsum(a.tolist()).hex()
    # cancel all but a tiny remainder across the block boundary
    b = np.concatenate((a, -a[::-1], [2.0**-1074] if n else []))
    assert exact_sum(b).hex() == math.fsum(b.tolist()).hex()


@settings(max_examples=150, deadline=None)
@given(st.lists(_WIDE | _SUBNORMAL, max_size=40), st.data())
def test_prefix_sums_match_fsum_of_prefixes(xs, data):
    stops = sorted(data.draw(st.lists(st.integers(0, len(xs)), max_size=5)))
    got = exact_prefix_sums(lambda: [np.array(xs, dtype=np.float64)], stops)
    assert [p.hex() for p in got] == [math.fsum(xs[:s]).hex() for s in stops]


def test_prefix_sums_across_blocks():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(_BLOCK + 5) * 1e3
    stops = [0, 3, 3, _BLOCK - 1, _BLOCK + 2, _BLOCK + 5]
    assert exact_prefix_sums(lambda: [a], stops) == [
        math.fsum(a[:s].tolist()) for s in stops]


def test_prefix_sums_fall_back_from_a_non_finite_segment():
    a = np.array([1.0, 2.0, math.inf, 4.0])
    got = exact_prefix_sums(lambda: [a], [1, 2, 3, 4])
    assert got == [1.0, 3.0, math.inf, math.inf]


def assert_block_sum_is_fsum(blocks):
    """exact_prefix_sums over `blocks`, with one stop after the last
    value, equals math.fsum over their concatenation, and reads the blocks
    a second time only where fsum has to decide: a non-finite or huge
    value, or an exactly zero total."""
    calls = []

    def gen():
        calls.append(1)
        return (np.array(b, dtype=np.float64) for b in blocks)

    flat = [float(x) for b in blocks for x in b]
    assert outcome(lambda _: exact_prefix_sums(gen, [len(flat)])[0],
                   None) == outcome(math.fsum, flat)
    plain = all(math.isfinite(x) and abs(x) < 2.0**1000 for x in flat)
    assert len(calls) == (1 if plain and math.fsum(flat) else 2)


_ANY = _WIDE | _SUBNORMAL | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 2.0**1000, -1.7e308, 1e308])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_WIDE | _SUBNORMAL, max_size=12), max_size=6))
def test_block_sum_matches_fsum_of_the_concatenation(blocks):
    assert_block_sum_is_fsum(blocks)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_ANY, max_size=6), max_size=5))
def test_block_sum_falls_back_like_fsum(blocks):
    assert_block_sum_is_fsum(blocks)


@pytest.mark.parametrize("blocks", [
    [], [[]], [[], []], [[-0.0], [-0.0]], [[0.0], [-0.0]], [[1.0], [-1.0]],
    [[2.0**-1074], [], [-2.0**-1074]], [[1.0], [math.inf]],
    [[math.inf], [-math.inf]], [[1e308], [1e308]], [[1e308], [1e308, -1e308]],
    [[1.0, 2.0**1000], [-2.0**1000]],
    [[1.0] * 3, [2.0**-53] * 2, [2.0**-1074]],
])
def test_block_sum_edge_cases(blocks):
    assert_block_sum_is_fsum(blocks)


def test_block_sum_across_exact_sum_blocks():
    # blocks longer than _BLOCK, cancelling all but a tiny remainder
    rng = np.random.default_rng(11)
    a = rng.standard_normal(_BLOCK + 3) * np.exp2(rng.integers(-60, 60,
                                                               _BLOCK + 3))
    blocks = [a, -a[::-1][:_BLOCK], -a[::-1][_BLOCK:], np.array([2.0**-1074])]
    flat = np.concatenate(blocks).tolist()
    assert exact_prefix_sums(lambda: blocks, [len(flat)])[0].hex() == \
        math.fsum(flat).hex()


def test_block_sum_groups_short_blocks_of_a_reused_buffer():
    # short blocks, yielded as views of one buffer that the generator
    # overwrites, are gathered to _BLOCK values; longer ones in between
    # (and one that exactly fills a group) are summed where they lie
    rng = np.random.default_rng(13)
    sizes = [4096] * 15 + [4095, 1, 7, _BLOCK, 3, _BLOCK + 5, 4096] + \
        [_BLOCK - 3, 3, 1, 0, 2]
    a = rng.standard_normal(sum(sizes)) * np.exp2(rng.integers(-40, 40,
                                                               sum(sizes)))
    stops = np.cumsum([0] + sizes)

    def blocks():
        buf = np.empty(max(sizes))
        for s, e in zip(stops, stops[1:]):
            buf[:e - s] = a[s:e]
            yield buf[:e - s]
            buf[:] = math.nan

    assert exact_prefix_sums(blocks, [len(a)])[0].hex() == \
        math.fsum(a.tolist()).hex()
    a[-4] = math.inf
    assert exact_prefix_sums(blocks, [len(a)]) == [math.inf]


def assert_prefixes_are_fsum(blocks, stops):
    """exact_prefix_sums over `blocks` gives math.fsum of each prefix (or
    the exception fsum raises), and calls `blocks` once more, after the
    first pass has ended, only where a prefix falls back: it holds a
    non-finite or huge value, or sums to exactly zero."""
    calls, live = [], []

    def values():
        live.append(1)
        try:
            for b in blocks:
                yield np.array(b, dtype=np.float64)
        finally:
            live.clear()

    def gen():
        assert not live, "a second pass began while the first was suspended"
        calls.append(1)
        return values()

    def hexes(fn):
        try:
            return [v.hex() for v in fn()]
        except (OverflowError, ValueError) as exc:
            return type(exc)

    flat = [float(x) for b in blocks for x in b]
    assert hexes(lambda: exact_prefix_sums(gen, stops)) == \
        hexes(lambda: [math.fsum(flat[:s]) for s in stops])
    plain = all(all(math.isfinite(x) and abs(x) < 2.0**1000
                    for x in flat[:s]) and math.fsum(flat[:s])
                for s in stops)
    assert len(calls) == (1 if plain else 2)


@pytest.mark.parametrize("values", [_WIDE | _SUBNORMAL, _ANY],
                         ids=["finite", "any"])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), group=st.sampled_from([1, 2, 3, 5, _BLOCK]))
def test_prefix_sums_of_block_partitions(values, data, group):
    # groups of `group` values: with a small one they fill up inside,
    # across and at the edges of the blocks as well as at the stops
    blocks = data.draw(st.lists(st.lists(values, max_size=8), max_size=6))
    stops = sorted(data.draw(st.lists(
        st.integers(0, sum(map(len, blocks))), max_size=6)))
    with mock.patch.object(exactsum, "_BLOCK", group):
        assert_prefixes_are_fsum(blocks, stops)


@pytest.mark.parametrize("blocks, stops", [
    ([[1.0, 2.0], [3.0]], [1, 3]),
    ([[1.0, 2.0], [3.0]], [0, 0, 1, 3, 3]),         # a zero stop: fsum's
    ([[1.0, -1.0], [3.0]], [1, 2, 3]),               # a zero prefix
    ([[1.0, 2.0], [math.inf]], [2, 2]),              # inf past the stops
    ([[1.0, math.nan], [3.0]], [1, 2, 3]),           # NaN in the second
    ([[2.0**1000], [1.0]], [1]),
    ([[], [1.0], []], [1]),
    ([], [0]),
    ([[1.0]], []),
])
def test_prefix_sums_call_blocks_again_only_to_fall_back(blocks, stops):
    assert_prefixes_are_fsum(blocks, stops)


def test_prefix_sums_reject_a_stop_past_the_values():
    with pytest.raises(ValueError, match="past the 3 values"):
        exact_prefix_sums(lambda: [np.ones(2), np.ones(1)], [2, 4])


#: 4096-value blocks (the sweep's Gauss blocks) and longer ones
_SIZES = [4096] * 33 + [5, _BLOCK + 3, 7, 4096]


def test_prefix_sums_at_block_and_group_edges():
    # stops inside blocks, on block edges and on _BLOCK edges, repeated,
    # and at 0; the values cancel to a tiny remainder at every fourth
    # block edge, so that a value counted twice or dropped shows
    rng = np.random.default_rng(17)
    a = rng.standard_normal(sum(_SIZES)) * np.exp2(
        rng.integers(-50, 50, sum(_SIZES)))
    edges = np.cumsum(_SIZES).tolist()
    for e in edges[3::4]:
        a[e - 1] = -math.fsum(a[:e - 1].tolist())
    stops = sorted([0, 0, 1, 4095, 4096, 4097, 3 * 4096 + 17, _BLOCK - 1,
                    _BLOCK, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1,
                    edges[32], edges[33] - 1, edges[33], edges[34] - 2,
                    edges[35], edges[35] + 1, *edges[3::4], len(a),
                    len(a)])
    got = exact_prefix_sums(lambda: np.split(a, edges[:-1]), stops)
    assert [g.hex() for g in got] == [math.fsum(a[:s].tolist()).hex()
                                      for s in stops]


def test_prefix_sums_over_views_of_a_reused_buffer():
    # each block is a view of one buffer that the generator overwrites
    # with NaN once the next block is asked for
    rng = np.random.default_rng(19)
    a = rng.standard_normal(sum(_SIZES)) * 1e3
    edges = np.cumsum([0] + _SIZES).tolist()

    def blocks():
        buf = np.empty(max(_SIZES))
        for s, e in zip(edges, edges[1:]):
            buf[:e - s] = a[s:e]
            yield buf[:e - s]
            buf[:] = math.nan

    stops = [0, 4000, 4096, 20_000, _BLOCK, edges[34] + 1, edges[35] - 1,
             len(a)]
    assert exact_prefix_sums(blocks, stops) == [math.fsum(a[:s].tolist())
                                                for s in stops]


# --- edge cases of the extraction, on whole blocks ---------------------------


def units(xs):
    """The exact sum of xs in units of 2^-1074, from each double's ratio."""
    return sum(p << (1075 - d.bit_length())
               for p, d in map(float.as_integer_ratio, xs))


def scaled_sum(a):
    """The exact sum of `a` times 2^1074 from _scaled_sum on each _BLOCK
    values, or None where one of them is non-finite or huge."""
    q, r = np.empty(_BLOCK), np.empty(_BLOCK)
    parts = [_scaled_sum(a[s:s + _BLOCK], q, r)
             for s in range(0, len(a), _BLOCK)]
    return None if None in parts else sum(parts)


def assert_extracts_exactly(a):
    """_scaled_sum is the exact sum of `a`, and exact_sum rounds it as
    fsum."""
    assert scaled_sum(a) == units(a.tolist())
    assert exact_sum(a).hex() == math.fsum(a.tolist()).hex()


@pytest.mark.parametrize("e", [-1000, -30, 0, 52, 1000])
@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK])
def test_full_block_at_the_bound_of_m(e, n):
    # values just below 2^e, the largest ones 2^e - ulp: n high parts on
    # the grid 2^(e + M - 53) add up to nearly n 2^e, which takes all 53
    # bits of a partial sum once n passes 2^(M - 1)
    rng = np.random.default_rng(e % 97)
    top = 2.0**e - 2.0**(e - 53)
    a = top - rng.integers(0, 2**40, n) * 2.0**(e - 53)
    a[::7] = top
    assert_extracts_exactly(a)
    assert_extracts_exactly(-a)
    assert_extracts_exactly(np.where(rng.random(n) < 0.9, a, -a))


def test_one_block_from_2_999_down_to_the_smallest_subnormal():
    # each level takes 53 - M bits, so this block needs about 60 levels
    rng = np.random.default_rng(5)
    k = np.arange(-1074, 1000)
    mant = 1 + rng.integers(0, 2**52, len(k)) * 2.0**-52
    a = np.concatenate([np.ldexp(1.0, k), np.ldexp(mant, k - 52).clip(
        5e-324), -np.ldexp(mant, k)[k < 947]])
    rng.shuffle(a)
    assert len(a) <= _BLOCK and np.abs(a).max() < 2.0**1000
    assert_extracts_exactly(a)


def test_subnormal_blocks_take_the_clamp():
    rng = np.random.default_rng(3)
    for n in (1, 1000, _BLOCK, _BLOCK + 7):
        a = rng.integers(-2**52 + 1, 2**52, n) * 5e-324
        assert_extracts_exactly(a)
        assert_extracts_exactly(np.abs(a))
    assert_extracts_exactly(np.full(_BLOCK, 2.0**-1022 - 2.0**-1074))


@pytest.mark.parametrize("n", [1, _BLOCK, 2 * _BLOCK + 1])
def test_zero_blocks_keep_fsum_sign(n):
    pos, neg = np.zeros(n), np.full(n, -0.0)
    assert scaled_sum(pos) == scaled_sum(neg) == 0
    for a in (pos, neg, np.concatenate((neg, pos)),
              np.concatenate((neg, [2.0**-1074, -2.0**-1074]))):
        assert_same_as_fsum(a)
        got = exact_prefix_sums(lambda: [a[:_BLOCK], a[_BLOCK:]], [len(a)])
        assert got[0].hex() == math.fsum(a.tolist()).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**1000])
def test_non_finite_in_the_middle_of_a_second_block(bad):
    rng = np.random.default_rng(9)
    a = rng.standard_normal(2 * _BLOCK)
    a[_BLOCK + _BLOCK // 2] = bad
    assert scaled_sum(a) is None
    assert_same_as_fsum(a)
    assert_block_sum_is_fsum([a[:_BLOCK], a[_BLOCK:]])
    got = exact_prefix_sums(lambda: [a],
                            [_BLOCK, _BLOCK + _BLOCK // 2, 2 * _BLOCK])
    assert [g.hex() for g in got] == [
        math.fsum(a[:s].tolist()).hex()
        for s in (_BLOCK, _BLOCK + _BLOCK // 2, 2 * _BLOCK)]


# --- the fsum(... .tolist()) reductions exact_sum replaced, as oracles -------


def mean_square_fsum(X, table):
    n_hi = math.floor(X)
    cd = table.cumulative()
    edges = np.arange(1.0, n_hi + 1.0)
    if X > n_hi:
        edges = np.append(edges, X)
    left, right = edges[:-1], edges[1:]
    dvals = cd[np.arange(1, len(left) + 1)].astype(np.float64)
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    chunk_sums = []
    chunk = 1 << 18
    for start in range(0, len(left), chunk):
        stop = min(start + chunk, len(left))
        piece = gauss8_pieces(mid[start:stop], half[start:stop],
                              dvals[start:stop])
        chunk_sums.append(math.fsum(piece.tolist()))
    return math.fsum(chunk_sums)


def tong_partial_fsum(limit, table):
    n = np.arange(1, limit + 1, dtype=np.float64)
    t2 = table.counts[1:limit + 1].astype(np.float64) ** 2
    return math.fsum((t2 / n**1.5).tolist())


def q_n_fsum(x, n_terms, table):
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    terms = (table.counts[1:n_terms + 1] / n**0.75 *
             np.cos(_4PI * np.sqrt(n * x) - math.pi / 4.0))
    return x**0.25 / _SQRT2_PI * math.fsum(terms.tolist())


@pytest.fixture(scope="module")
def table_6e5():
    return sieve_tau(600_000)


@pytest.mark.parametrize("X", [2.0, 1000.5, 262_144.0, 262_145.25, 600_000.0])
def test_mean_square_equals_fsum_formula(X, table_6e5):
    assert mean_square(X, table_6e5) == mean_square_fsum(X, table_6e5)


def test_tong_oracle_equals_fsum_formula(table_6e5):
    # the partial sum is the only reduction; the tail bracket is unchanged
    limit = 600_000
    est, low, high = tong_ratio_oracle(limit, table_6e5)
    partial = tong_partial_fsum(limit, table_6e5)
    L = math.log(limit)
    i0 = 2.0 / math.sqrt(limit)
    i1 = i0 * L + 2 * i0
    i2 = i0 * L**2 + 4 * i1
    i3 = i0 * L**3 + 6 * i2
    lead = (i3 + 3 * i2) / math.pi**2
    scale = 1.0 / (6 * math.pi**2)
    assert (est, low, high) == ((partial + 1.45 * lead) * scale,
                                (partial + 0.8 * lead) * scale,
                                (partial + 2.5 * lead) * scale)


@pytest.mark.parametrize("x, n_terms", [
    (1.0, 1), (100.5, 4000), (1e11 + 0.25, 300_000), (7.3e11, 600_000)])
def test_q_n_equals_fsum_formula(x, n_terms, table_6e5):
    assert q_n(x, n_terms, table_6e5) == q_n_fsum(x, n_terms, table_6e5)

