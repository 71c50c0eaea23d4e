import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import divcorr
from divcorr.divisor import (_CHUNK, _GAUSS_BLOCK, _HYPERBOLA_BLOCK,
                             _SIEVE_K, _SIEVE_LIMIT_CAP, _SIEVE_SEGMENT,
                             _TONG_BLOCK, TWO_GAMMA_MINUS_1, DivisorTable,
                             _gauss_blocks, delta, gauss8_pieces,
                             gauss8_workspace, mean_square, sieve_tau,
                             summatory_D, tong_ratio_oracle)
from divcorr.errors import ResourceLimit
from divcorr.exactsum import exact_prefix_sums


def tau_brute(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_sieve_small_values():
    t = sieve_tau(12)
    assert list(t.counts[1:]) == [tau_brute(n) for n in range(1, 13)]
    assert t.counts[12] == 6  # divisors 1,2,3,4,6,12
    assert t.counts[6] == 4


def test_sieve_limit_one():
    t = sieve_tau(1)
    assert list(t.counts[1:]) == [1]


def test_sieve_rejects_zero():
    with pytest.raises(ValueError):
        sieve_tau(0)


def test_sieve_primes_and_brute(table_2e4):
    for p in (2, 3, 5, 7, 11, 97, 991, 7919):
        assert table_2e4.tau(p) == 2
    for n in range(1, 300):
        assert table_2e4.tau(n) == tau_brute(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 120), st.integers(2, 120))
def test_tau_multiplicative(a, b):
    if math.gcd(a, b) != 1:
        return
    t = sieve_tau(a * b)
    assert t.tau(a * b) == t.tau(a) * t.tau(b)


def harmonic_sieve(limit: int) -> np.ndarray:
    """The earlier sieve_tau: one slice update per k <= limit/2."""
    counts = np.zeros(limit + 1, dtype=np.int32)
    half = limit // 2
    for k in range(1, half + 1):
        counts[k::k] += 1
    counts[half + 1:] += 1
    counts[0] = 0
    return counts


# squares and their neighbours are where the pair sieve subtracts the
# doubled divisor k = n/k and where isqrt(limit) steps
_SIEVE_LIMITS = st.one_of(
    st.integers(1, 5000),
    st.builds(lambda k, d: min(max(k * k + d, 1), 5000),
              st.integers(1, 71), st.sampled_from([-1, 0, 1])))


@settings(max_examples=150, deadline=None)
@given(_SIEVE_LIMITS)
def test_pair_sieve_matches_harmonic_sieve(limit):
    t = sieve_tau(limit)
    assert t.counts.dtype == np.int32
    assert not t.counts.flags.writeable
    assert np.array_equal(t.counts, harmonic_sieve(limit))


def strided_sieve(limit: int) -> np.ndarray:
    """sieve_tau before it counted in uint16 from a periodic pattern: one
    strided int32 update per k <= isqrt(limit)."""
    counts = np.zeros(limit + 1, dtype=np.int32)
    for k in range(1, math.isqrt(limit) + 1):
        counts[k * k::k] += 2
        counts[k * k] -= 1
    return counts


def assert_same_table(limit):
    got, want = sieve_tau(limit).counts, strided_sieve(limit)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_periodic_sieve_matches_strided_sieve_up_to_400():
    # every limit through K^2 = 144, where the exactly counted head ends
    # and the k <= 12 pattern takes over, and on to 400
    for limit in range(1, 401):
        assert_same_table(limit)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.integers(1, 300_000),
    # the ends of the first periods of the k <= 12 pattern
    st.builds(lambda j, d: 27720 * j + d, st.integers(1, 10),
              st.integers(-2, 2))))
def test_periodic_sieve_matches_strided_sieve(limit):
    assert_same_table(limit)


def whole_table_sieve(limit: int) -> np.ndarray:
    """sieve_tau before it went in segments: the k <= 12 pattern and the
    exact head in uint16, then one strided update per k >= 13 across the
    whole table."""
    period = np.zeros(math.lcm(*range(1, _SIEVE_K + 1)), dtype=np.uint16)
    for k in range(1, _SIEVE_K + 1):
        period[::k] += 2
    counts = np.resize(period, limit + 1)
    head = counts[:_SIEVE_K**2 + 1]
    head[:] = 0
    for k in range(1, math.isqrt(len(head) - 1) + 1):
        head[k * k::k] += 2
        head[k * k] -= 1
    for k in range(_SIEVE_K + 1, math.isqrt(limit) + 1):
        counts[k * k::k] += 2
        counts[k * k] -= 1
    return counts.astype(np.int32)


def assert_same_as_whole_table(limit):
    got, want = sieve_tau(limit).counts, whole_table_sieve(limit)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# around the first three segment ends, and around 2^19, 2^20 and 3 * 2^19
# (k = 1024 has k^2 = 2^20 on a segment start)
@pytest.mark.parametrize("limit", sorted({
    *(j * _SIEVE_SEGMENT + d for j in (1, 2, 3) for d in range(-2, 3)),
    *(j * 2**19 + d for j in (1, 2) for d in (-1, 0, 1)),
    *(3 * 2**19 + d for d in range(-2, 3))}))
def test_segmented_sieve_matches_whole_table_at_segment_edges(limit):
    assert_same_as_whole_table(limit)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3_000_000))
def test_segmented_sieve_matches_whole_table(limit):
    assert_same_as_whole_table(limit)


def test_sieve_2e6_bytes_are_pinned(big_table):
    # recorded from the harmonic sieve
    assert hashlib.sha256(big_table.counts.tobytes()).hexdigest() == (
        "8f20759231a6072b7464c072fc5f6d05cba6740de4805c41272c4c81c36f273d")


def test_cumulative_is_one_uint32_table(big_table):
    # D summed in place in its uint32 copy of the counts: no second array
    # for a cast, also under a numpy that copied an aliased out= operand
    fresh = DivisorTable(big_table.limit, big_table.counts)
    tracemalloc.start()
    try:
        cd = fresh.cumulative()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (big_table.limit + 1) + 2**16
    want = np.cumsum(big_table.counts, dtype=np.uint32)
    assert cd.dtype == want.dtype and cd.tobytes() == want.tobytes()
    assert not cd.flags.writeable
    assert fresh.cumulative() is cd


def test_cumulative_dtype_holds_d_at_the_sieve_cap():
    # cumulative() is uint32 because D(n) < 2**32 for every n the sieve
    # accepts; a larger cap needs a wider dtype
    assert summatory_D(_SIEVE_LIMIT_CAP) < 2**32
    with pytest.raises(ResourceLimit):
        sieve_tau(_SIEVE_LIMIT_CAP + 1)


def test_sieve_accumulator_holds_the_counts_at_the_sieve_cap():
    # sieve_tau counts in uint16: each count stays at most 2 isqrt(n) + 1
    # (tau(n) <= 2 sqrt(n), plus the 1 a square carries for a moment), so
    # a larger cap needs a wider accumulator
    assert 2 * math.isqrt(_SIEVE_LIMIT_CAP) + 1 < 2**16


def hyperbola_loop(x: int) -> int:
    """The earlier summatory_D: the hyperbola sum as a Python loop."""
    r = math.isqrt(x)
    s = 0
    for k in range(1, r + 1):
        s += x // k
    return 2 * s - r * r


@pytest.mark.parametrize("x", [
    *(k * k + d for k in (1, 2, 3, 10, 1023, 1024, 10**5) for d in (-1, 0, 1)),
    10**12, 2**46 - 1, 2**46])
def test_blocked_hyperbola_matches_loop(x):
    # at 2^46 the first float64 block holds 2^53 // 2^46 = 2^7 terms, and
    # the later ones grow with k0 up to _HYPERBOLA_BLOCK = 2^16
    assert summatory_D(x) == hyperbola_loop(x)


def test_blocked_hyperbola_around_2_53():
    # the loop oracle is too slow here; D(n) - D(n - 1) = tau(n) instead,
    # from factorizations into primes (checked by Miller-Rabin)
    def is_prime(n):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            if a % n == 0:
                continue
            y = pow(a, d, n)
            if y in (1, n - 1):
                continue
            for _ in range(s - 1):
                y = y * y % n
                if y == n - 1:
                    break
            else:
                return False
        return True

    factorizations = {
        2**53 - 1: {6361: 1, 69431: 1, 20394401: 1},
        2**53: {2: 53},
        2**53 + 1: {3: 1, 107: 1, 28059810762433: 1},
    }
    d = {n: summatory_D(n) for n in (2**53 - 2, *factorizations)}
    for n, f in factorizations.items():
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f)
        assert d[n] - d[n - 1] == math.prod(e + 1 for e in f.values())


def hyperbola_int64(x: int) -> int:
    """summatory_D before it divided in float64: int64 blocks of at most
    2^20 terms with len * (x // k0) <= 2^62."""
    r = math.isqrt(x)
    s = 0
    k0 = 1
    while k0 <= r:
        n = min(max(1, (1 << 62) // (x // k0)), 1 << 20, r - k0 + 1)
        k = np.arange(k0, k0 + n, dtype=np.int64)
        s += int(np.floor_divide(x, k, out=k).sum())
        k0 += n
    return 2 * s - r * r


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 53).flatmap(
    lambda b: st.integers(2**b >> 1, 2**b - 1)))
def test_float_hyperbola_matches_int64_blocks(x):
    # x drawn log-uniformly from [0, 2^53), so large and small x both occur
    assert summatory_D(x) == hyperbola_int64(x)


# k^2 < 2^53 for k <= 94906265, the last one here
@pytest.mark.parametrize("k", [1, 2, 3, 12, 1024, 2**20 + 1, 10**6 + 3,
                               3037000, 94906265])
def test_float_hyperbola_at_squares(k):
    # at x = k^2 the last quotient x / k = k is exact, and at k^2 - 1 the
    # isqrt steps back to k - 1
    for x in (k * k - 1, k * k):
        assert summatory_D(x) == hyperbola_int64(x)


def test_float_hyperbola_block_bound():
    # at x = 2^50 + 12345 the first 2^20 quotients sum past 2^53, where a
    # float64 sum rounds, and at x + 1 so do the first _HYPERBOLA_BLOCK =
    # 2^16 (at x itself their float64 sum happens to be exact); the bound
    # len * (x // k0) <= 2^53 cuts the first blocks short, and with it the
    # result matches the int64 blocks
    x = 2**50 + 12345
    k = np.arange(1, 2**20 + 1)
    q = x // k
    assert int(q.sum()) > 2**53
    assert int(q.astype(np.float64).sum()) != int(q.sum())
    assert summatory_D(x) == hyperbola_int64(x)
    q = (x + 1) // k[:_HYPERBOLA_BLOCK]
    assert int(q.astype(np.float64).sum()) != int(q.sum())
    assert summatory_D(x + 1) == hyperbola_int64(x + 1)


def test_hyperbola_blocks_of_7_give_the_same_sum(monkeypatch):
    # the block length only caps len, and the bounds that keep each block
    # exact hold for any shorter block, so tiny blocks give the same D
    # (float64 blocks only: at x >= 2^53 there would be 10^7 of them)
    xs = [0, 1, 10, 48, 49, 50, 10**6 + 3, 10**8, 2**30 + 1]
    want = [summatory_D(x) for x in xs]
    monkeypatch.setattr(divcorr.divisor, "_HYPERBOLA_BLOCK", 7)
    assert [summatory_D(x) for x in xs] == want


def test_summatory_caps_raise_before_any_work(monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("summatory_D started its blocks")

    monkeypatch.setattr(np, "arange", no_arange)
    with pytest.raises(ResourceLimit) as e:
        summatory_D(2**63)
    assert e.value.suggested_cap == 2**63 - 1


def gauss8_one_shot(mid, half, d1, d2=None, theta=1.0):
    """The Gauss-8 kernel before it was blocked: every temporary (n, 8)."""
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def delta_at(d, x):
        return d[:, None] - x * np.log(x) - TWO_GAMMA_MINUS_1 * x

    xs = mid[:, None] + half[:, None] * nodes[None, :]
    f1 = delta_at(d1, xs)
    if d2 is None:
        return half * ((f1 * f1) @ weights)
    tn = theta * xs
    f2 = delta_at(d2, tn)
    return half * ((f1 * f2) @ weights)


def gauss8_inputs(n, with_d2):
    """Seeded pieces as the sweep makes them: [left, right] in [1, 1e6],
    widths up to 1 with some of 0, D at the left end."""
    rng = np.random.default_rng(n)
    left = rng.uniform(1.0, 1e6, n)
    width = rng.uniform(0.0, 1.0, n) * (rng.random(n) > 0.1)
    mid, half = 0.5 * (2 * left + width), 0.5 * width
    d1 = np.floor(left * np.log(left) + 0.15 * left)
    theta = 2**0.5
    d2 = np.floor(theta * d1) if with_d2 else None
    return mid, half, d1, d2, theta


def mean_square_one_shot(X, table):
    """mean_square before it streamed its Gauss blocks: the unit pieces of
    each _CHUNK integrated at once by gauss8_one_shot, each chunk rounded by
    math.fsum, then the fsum of the chunk sums."""
    cd = table.cumulative()
    end = math.ceil(X)
    chunk_sums = []
    for lo in range(1, end, _CHUNK):
        left = np.arange(lo, min(lo + _CHUNK, end), dtype=np.float64)
        right = np.minimum(left + 1, X)
        piece = gauss8_one_shot(0.5 * (left + right), 0.5 * (right - left),
                                cd[lo:lo + len(left)].astype(np.float64))
        chunk_sums.append(math.fsum(piece.tolist()))
    return math.fsum(chunk_sums)


def mean_square_arrays(X, table):
    """mean_square before it handed unit pieces over as an arange and a
    float half: every Gauss block built left, right = min(left + 1, X) and
    the piece arrays 0.5 * (left + right) and 0.5 * (right - left)."""
    cd = table.cumulative()
    end = math.ceil(X)

    def pieces(lo, hi):
        blocks = _gauss_blocks(hi - lo)
        work = gauss8_workspace(blocks)
        for s, e in blocks:
            left = np.arange(lo + s, lo + e, dtype=np.float64)
            right = np.minimum(left + 1, X)
            yield gauss8_pieces(0.5 * (left + right), 0.5 * (right - left),
                                cd[lo + s:lo + e].astype(np.float64),
                                work=work)

    return math.fsum(
        exact_prefix_sums(partial(pieces, lo, min(lo + _CHUNK, end)),
                          [min(_CHUNK, end - lo)])[0]
        for lo in range(1, end, _CHUNK))


def test_gauss_blocks_merge_the_remainder_into_the_last_block():
    B = _GAUSS_BLOCK
    assert _gauss_blocks(0) == []
    assert _gauss_blocks(1) == [(0, 1)]
    assert _gauss_blocks(B - 1) == [(0, B - 1)]
    assert _gauss_blocks(B) == [(0, B)]
    assert _gauss_blocks(2 * B - 1) == [(0, 2 * B - 1)]
    assert _gauss_blocks(2 * B) == [(0, B), (B, 2 * B)]
    assert _gauss_blocks(2 * B + 1) == [(0, B), (B, 2 * B + 1)]
    for n in (3 * B + 5, _CHUNK, _CHUNK + 7):
        blocks = _gauss_blocks(n)
        assert [s for s, _ in blocks] == list(range(0, n - B + 1, B))
        assert all(e == s2 for (_, e), (s2, _) in zip(blocks, blocks[1:]))
        assert blocks[-1][1] == n and B <= n - blocks[-1][0] < 2 * B


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193, 12293])
@pytest.mark.parametrize("with_d2", [False, True])
def test_blocked_gauss8_matches_one_shot(n, with_d2):
    args = gauss8_inputs(n, with_d2)
    got = gauss8_pieces(*args)
    want = gauss8_one_shot(*args)
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()


# SHA-256 of gauss8_pieces(*gauss8_inputs(n, with_d2)), recorded from the
# row-major (block, 8) kernel (numpy 2.4.6 on an AVX-512 x86-64 host;
# np.log's loops are host-dependent)
GAUSS8_DIGESTS = {
    (1, False):
        "017a7356b425a74a33e1218f8cd7a1dbf28f8b24c4408c3e1367bd6b08b6fbe1",
    (1, True):
        "ea0e14e420953bd964821cfb4227f6027b8250b1b4545fd4e51675480ab286a0",
    (4095, False):
        "8cc1beacfbdb62cbb4d25dbeaba06b91ed6140c963bb9e37d76f34530edb8371",
    (4095, True):
        "30cc5aeacfa32f5f293493cb8e3c7b6dc28d205eb9791aa3ed7d8075db0ce314",
    (4097, False):
        "711300021ee0bc21abd161ae1d129db2e42eb90e463d804200b68b5ead7b8768",
    (4097, True):
        "d230a641af3d5c2919db9cc1cfa65ddf5250b406f5adfb57ddc080c6844ba9d7",
    (1 << 18, False):
        "5d0608bd6d7097ce28499b3a49ab7aaf357ac52e5e9115a7e6ed5bb53890611b",
    (1 << 18, True):
        "53c764feeee367fba16593efe59db8e3d6d6d6ea5496961ef3e874be2a64e22f",
}


@pytest.mark.parametrize("n, with_d2", sorted(GAUSS8_DIGESTS))
def test_gauss8_output_is_pinned(n, with_d2):
    out = gauss8_pieces(*gauss8_inputs(n, with_d2))
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        GAUSS8_DIGESTS[n, with_d2]


@pytest.mark.parametrize("with_d2", [False, True])
def test_gauss8_workspace_leaves_the_bits(with_d2):
    # the same bytes with no workspace, a fresh one of the block's size,
    # and one larger, dirty and reused across blocks of different lengths
    # (each call reads its buffers only after writing them)
    reused = gauss8_workspace([(0, 2 * _GAUSS_BLOCK - 1)])
    for w in reused:
        w[:] = np.nan
    for n in (1, 4095, 4097, 1, 2 * _GAUSS_BLOCK - 1):
        args = gauss8_inputs(n, with_d2)
        want = gauss8_pieces(*args).tobytes()
        if (n, with_d2) in GAUSS8_DIGESTS:
            assert hashlib.sha256(want).hexdigest() == \
                GAUSS8_DIGESTS[n, with_d2]
        fresh = gauss8_workspace([(0, n)])
        assert gauss8_pieces(*args, work=fresh).tobytes() == want
        assert gauss8_pieces(*args, work=reused).tobytes() == want


@pytest.mark.parametrize("n", [1, 4095, 4097])
@pytest.mark.parametrize("with_d2", [False, True])
@pytest.mark.parametrize("half", [0.5, 0.3])
def test_gauss8_float_half_gives_the_bits_of_an_array(n, with_d2, half):
    mid, _, d1, d2, theta = gauss8_inputs(n, with_d2)
    want = gauss8_pieces(mid, np.full(n, half), d1, d2, theta)
    assert gauss8_pieces(mid, half, d1, d2, theta).tobytes() == \
        want.tobytes()


# integer X (unit pieces only), a half piece at the end of a Gauss block,
# of a chunk and of the first piece, and a quarter piece past a chunk
@pytest.mark.parametrize("X", [
    2, 3, 4097, 8193, 1e6, _CHUNK, 2 * _CHUNK + 1,
    _GAUSS_BLOCK + 0.5, 2 * _GAUSS_BLOCK + 0.5, 3 * _GAUSS_BLOCK + 0.5,
    _CHUNK + 0.5, _CHUNK + 0.25, 1.0 + 2**-40, 1.25, 1.5, 2 - 2**-40])
def test_unit_pieces_give_the_bits_of_the_piece_arrays(X, big_table):
    assert mean_square(X, big_table).hex() == \
        mean_square_arrays(X, big_table).hex()


# the kernel, mean_square and the sweep against their oracles in the same
# child process, so both run the same ufunc and BLAS loops: 8193 pieces are
# one gemv with a 1-piece tail after 8192 rows, and mean_square at 4098 runs
# one 4097-piece block, at 262146 a full chunk and then a 1-piece chunk.  The
# rat:2/1 sweep integrates a full chunk and then one that ends in a
# 5096-piece Gauss block, one block at a time, against the whole-chunk
# kernel calls of chunk_wide_sweep
_GAUSS8_CHILD = """
import sys
sys.path.insert(0, %r)
from test_correlation import EDGE_SWEEPS, chunk_wide_sweep, grid_at_indices
from test_divisor import gauss8_inputs, gauss8_one_shot, mean_square_one_shot
from divcorr.correlation import _sweep
from divcorr.diophantine import theta_parse
from divcorr.divisor import gauss8_pieces, mean_square, sieve_tau
for n in (1, 4097, 8193, 12293):
    for with_d2 in (False, True):
        args = gauss8_inputs(n, with_d2)
        got, want = gauss8_pieces(*args), gauss8_one_shot(*args)
        assert got.tobytes() == want.tobytes(), (n, with_d2)
table = sieve_tau(262146)
for X in (4098, 262146):
    got, want = mean_square(X, table), mean_square_one_shot(X, table)
    assert got.hex() == want.hex(), (X, got, want)
xs = grid_at_indices(2.0, *EDGE_SWEEPS[0])
got = [(r.X, r.I.hex(), r.breakpoints_used)
       for r in _sweep(theta_parse("rat:2/1"), xs, table)]
want = [(x, I.hex(), i) for x, I, i in chunk_wide_sweep(2.0, xs, table)]
assert got == want, (got, want)
print("ok")
""" % (str(Path(__file__).resolve().parent),)


@pytest.mark.parametrize("var, value", [
    # the loops an AVX2-only host runs
    ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),
    # an SSE3 BLAS kernel for the gemv
    ("OPENBLAS_CORETYPE", "Prescott"),
])
def test_gauss8_matches_one_shot_under_other_dispatch(var, value):
    env = dict(os.environ, **{var: value})
    src = str(Path(divcorr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _GAUSS8_CHILD], env=env,
                         capture_output=True, text=True, timeout=120)
    if out.returncode and var in out.stderr and "RuntimeError" in out.stderr:
        pytest.skip(f"numpy rejects {var}={value!r} on this host")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: bytes of one (8, 2 * _GAUSS_BLOCK) float64 buffer: a Gauss block has
#: fewer than 2 * _GAUSS_BLOCK pieces, the last one of a call included
_GAUSS_BUF = 8 * 2 * _GAUSS_BLOCK * 8


@pytest.mark.parametrize("n", [2 * _GAUSS_BLOCK - 1])
def test_gauss8_holds_no_n_by_8_buffer(n):
    # on the longest Gauss block, the kernel holds its result and five
    # (8, n) buffers, the (n, 8) product among them, and a few KB of views
    for with_d2 in (False, True):
        args = gauss8_inputs(n, with_d2)
        assert traced_peak(gauss8_pieces, *args) - n * 8 <= \
            5 * _GAUSS_BUF + 2**14


def test_gauss8_with_a_workspace_allocates_only_its_result():
    n = 2 * _GAUSS_BLOCK - 1
    work = gauss8_workspace([(0, n)])
    for with_d2 in (False, True):
        args = gauss8_inputs(n, with_d2)
        assert traced_peak(lambda: gauss8_pieces(*args, work=work)) <= \
            n * 8 + 2**14


def test_tong_oracle_scratch_is_block_sized(big_table):
    # the series runs _TONG_BLOCK terms at a time: n, tau^2, n^1.5, the
    # terms and the exact sum's temporaries, whatever the limit (the whole
    # series at once would hold five float64 arrays of it, 80 MB at 2e6)
    for limit in (300_000, 2_000_000):
        assert traced_peak(tong_ratio_oracle, limit, big_table) <= \
            8 * _TONG_BLOCK * 8


@pytest.mark.parametrize("X", [8192, _CHUNK + 2 * _GAUSS_BLOCK - 1, 1e6])
def test_mean_square_scratch_is_block_sized(X, big_table):
    # beyond cumulative(), one Gauss block at a time: the kernel's four
    # buffers of the largest block and the block's own pieces and exact
    # sum, whatever X is (a whole chunk of 2^18 pieces traces 28.8 MB)
    big_table.cumulative()
    assert traced_peak(mean_square, X, big_table) <= 6 * _GAUSS_BUF


def test_summatory_examples():
    assert summatory_D(0) == 0
    assert summatory_D(10) == 27
    assert summatory_D(100) == 482


def test_summatory_matches_sieve(table_2e4):
    cd = table_2e4.cumulative()
    xs = np.arange(0, 20_001)
    dv = [summatory_D(x) for x in range(20_001)]
    assert np.array_equal(dv, cd[xs])


def test_delta_values():
    assert delta(1) == pytest.approx(2 - 2 * (TWO_GAMMA_MINUS_1 + 1) / 2 - 0, abs=1e-12)
    assert delta(1) == pytest.approx(1 - TWO_GAMMA_MINUS_1, abs=1e-12)
    assert delta(10) == pytest.approx(2.4298358, abs=1e-6)
    assert delta(100) == pytest.approx(6.0398484, abs=1e-6)


def test_delta_domain():
    with pytest.raises(ValueError):
        delta(0.5)


def test_delta_jump_is_tau(table_2e4):
    for n in (2, 3, 4, 10, 100, 9999, 10000):
        jump = delta(n) - delta(n - 1e-9)
        assert jump == pytest.approx(table_2e4.tau(n), abs=1e-6)


def test_delta_error_within_two_ulps_of_x_log_x():
    # Against D(floor x) plus the main term at 200 bits.  The double error
    # budget, in units u = ulp(max(x log x, x)): 1/2 for rounding x * log(x),
    # up to 2 ulp(x log x) per ulp of log(x) for x * (log's error), about
    # 1/8 for the (2 gamma - 1) x product and the first subtraction, and far
    # less for the rest.  Sampled maxima are 1.2-1.4 u: up to 1.6e-9
    # absolute for x <= 1e6, 2.7e-8 for x <= 1e7 and 3.0e-7 for x <= 1e8.
    import mpmath
    rng = np.random.default_rng(2024)
    xs = np.concatenate([10.0 ** rng.uniform(0, 8, 300),
                         rng.uniform(9e7, 1e8, 100),
                         np.floor(10.0 ** rng.uniform(0, 8, 100)), [1e8]])
    with mpmath.workprec(200):
        c = 2 * mpmath.euler - 1
        for x in map(float, xs):
            exact = summatory_D(math.floor(x)) - (
                mpmath.mpf(x) * mpmath.log(x) + c * x)
            u = math.ulp(max(x * math.log(x), x))
            assert abs(delta(x) - exact) <= 2 * u, x


def test_delta_changes_sign():
    vals = [delta(x) for x in np.linspace(1.5, 10_000, 4001)]
    assert min(vals) < 0 < max(vals)


def test_mean_square_trivial():
    assert mean_square(1.0) == 0.0


def test_mean_square_matches_adaptive_quad():
    # independent oracle: adaptive quadrature on [1, 2] where D = 1
    oracle, err = quad(lambda x: (1 - x * math.log(x) - TWO_GAMMA_MINUS_1 * x) ** 2,
                       1, 2, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    assert mean_square(2.0) == pytest.approx(oracle, rel=1e-9)


def test_mean_square_non_integer_endpoint(table_2e4):
    # additivity across a non-integer endpoint
    a = mean_square(7.0, table_2e4)
    piece, _ = quad(lambda x: (summatory_D(7) - x * math.log(x)
                               - TWO_GAMMA_MINUS_1 * x) ** 2,
                    7, 7.5, epsabs=1e-13)
    assert mean_square(7.5, table_2e4) == pytest.approx(a + piece, rel=1e-9)


def test_mean_square_monotone(table_2e4):
    vals = [mean_square(X, table_2e4) for X in (10, 100, 1000, 10_000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


#: mean_square(X, big_table).hex() at and around the chunk edges (pieces
#: [n, n + 1) from n = 1, chunks of 2^18 pieces), recorded before
#: mean_square streamed its pieces one chunk at a time
_MEAN_SQUARE_HEX = {
    1: "0x0.0p+0",
    1.5: "0x1.3cd66d1d6da8ep-3",
    7.5: "0x1.1ba9b8b596dc8p+2",
    262144: "0x1.477ecb0678e98p+26",
    262145: "0x1.478028cc90c46p+26",
    262145.5: "0x1.4781101fd7f13p+26",
    262146: "0x1.4781b408b5628p+26",
    524288.5: "0x1.d1abb29218553p+27",
    1e6: "0x1.33c139435e14ep+29",
    1e6 + 0.25: "0x1.33c178e4930b8p+29",
    1048577: "0x1.4a8407a1b4749p+29",
}


def test_mean_square_bits_are_pinned_at_chunk_edges(big_table):
    got = {X: mean_square(X, big_table).hex() for X in _MEAN_SQUARE_HEX}
    assert got == _MEAN_SQUARE_HEX


@pytest.mark.parametrize("X", [_CHUNK + 2, 2 * _GAUSS_BLOCK + 1000.5])
def test_mean_square_hands_the_kernel_its_gauss_blocks(X, monkeypatch,
                                                       big_table):
    # gauss8_pieces integrates whatever it is given in one gemv, and a gemv
    # may round a row by its place in the matrix, so mean_square's bits rest
    # on it cutting each chunk into _gauss_blocks' blocks, in order: at
    # _CHUNK + 2 a full chunk and then a 1-piece chunk, at
    # 2 * _GAUSS_BLOCK + 1000.5 one long block that ends in a half piece
    end = math.ceil(X)
    want = [(lo + s, e - s) for lo in range(1, end, _CHUNK)
            for s, e in _gauss_blocks(min(lo + _CHUNK, end) - lo)]
    calls = []

    def kernel(mid, half, d1, work=None):
        calls.append((int(mid[0] - np.ravel(half)[0]), len(mid)))
        return gauss8_pieces(mid, half, d1, work=work)

    monkeypatch.setattr(divcorr.divisor, "gauss8_pieces", kernel)
    mean_square(X, big_table)
    assert calls == want
    assert max(n for _, n in calls) < 2 * _GAUSS_BLOCK


#: F/X = (mean_square(X) - C X^{3/2}) / X, the second-order remainder of
#: the mean square, follows -0.0254 L^2 - 0.252 L - 0.571 (L = log X), a
#: least-squares fit to mean_square at 200 log-spaced X in [1e3, 4e6].  On
#: 2000 log-spaced X in [1e3, 2e6] it stayed within 0.427 of the curve; the
#: band adds a margin.  Delta here is D - x log x - (2 gamma - 1) x, with no
#: -1/4, so its mean is 1/4 (the mean-zero Delta - 1/4 moves F/X by -1/16).
_REMAINDER_CURVE = (-0.0254, -0.252, -0.571)
_REMAINDER_BAND = 0.6


def test_mean_square_second_order_remainder_follows_its_curve(big_table):
    with mpmath.workprec(200):
        C = float(mpmath.zeta(1.5) ** 4
                  / (6 * mpmath.pi ** 2 * mpmath.zeta(3)))
    dev = {}
    for X in np.geomspace(1e3, 1e6, 13).tolist():
        f = (mean_square(X, big_table) - C * X ** 1.5) / X
        dev[X] = f - np.polyval(_REMAINDER_CURVE, math.log(X))
    assert max(map(abs, dev.values())) <= _REMAINDER_BAND, dev


def test_tong_oracle_bracket():
    # frozen reference computed from much larger partial sums at build time
    ref = 0.6542839775
    est, low, high = tong_ratio_oracle(300_000)
    assert low < ref < high
    assert est == pytest.approx(ref, rel=0.02)


def test_delta_sample_invariant():
    from divcorr.divisor import delta_sample
    for x in (1.0, 7.25, 100.0, 1234.5):
        s = delta_sample(x)
        assert s.d_value == summatory_D(int(x))
        assert s.delta == pytest.approx(
            s.d_value - x * math.log(x) - TWO_GAMMA_MINUS_1 * x, abs=1e-12)
        assert s.delta == pytest.approx(
            __import__("divcorr.divisor", fromlist=["delta"]).delta(x), abs=0)
