"""Correctly rounded sums of float64 arrays in numpy.

The exact sum of finitely many doubles is a rational with denominator
2^1074, and its correctly rounded double is unique: `math.fsum`, which
follows Shewchuk's exact summation, returns exactly that double, and so does
`exact_sum`, by a different route: error-free extraction (Rump, Ogita and
Oishi, "Accurate floating-point summation", SIAM J. Sci. Comput. 31(1),
2008).  A block of n values with |r| <= 2^E is split, by adding and
subtracting sigma = 2^(E + M) with 2^M > n, into a high part q, a multiple
of 2^(E + M - 53), and the rounding error r - q, both exact; n such q add
up below 2^(E + M), so numpy sums them exactly in any order.  The level
sums are added as one Python int in units of 2^-1074, the extraction goes
on with E + M - 53 until nothing is left, and a single int true division,
which Python rounds correctly (half to even, subnormals included), gives
the double.
"""

from __future__ import annotations

import math

import numpy as np

#: values per block, so M = (n + 2).bit_length() <= 17 and each level takes
#: 53 - M >= 36 bits: two levels for values within 19 binades of the block's
#: largest.  The block and its two work arrays (512 KB each) stay in cache:
#: per value, 2^15 ran within 4% of 2^16 on mean_square's pieces and on
#: tong_ratio_oracle's terms, and 2^14, 2^17 and 2^18 ran 1.07, 1.26 and
#: 1.6 times slower.  exact_block_sum gathers shorter blocks to this size
_BLOCK = 1 << 16
#: the exact sum is carried as an int in units of 2^-1074, of which every
#: double is a multiple
_SCALE_BITS = 1074
_SCALE = 2 ** _SCALE_BITS
#: from this magnitude up, fsum may raise on intermediate overflow
_HUGE = 2.0 ** 1000


def _scaled_sum(a: np.ndarray) -> int | None:
    """The exact sum of `a` times 2^1074, or None when `a` holds a
    non-finite value or one of magnitude >= 2^1000."""
    total = 0
    q, r = np.empty(min(len(a), _BLOCK)), np.empty(min(len(a), _BLOCK))
    for s in range(0, len(a), _BLOCK):
        x = a[s:s + _BLOCK]
        hi, lo = x.max(), x.min()
        if not -_HUGE < lo <= hi < _HUGE:  # NaN fails too
            return None
        if not (hi or lo):
            continue
        qk, rk = q[:len(x)], r[:len(x)]
        e = math.frexp(max(hi, -lo))[1]  # |x| < 2^e
        m = (len(x) + 2).bit_length()
        while True:
            # below 2^-1022 a double's grid is 2^-1074 throughout, so
            # x + sigma is exact, q = x and the loop ends
            sigma = math.ldexp(1.0, max(e + m, -1022))
            np.subtract(np.add(x, sigma, out=qk), sigma, out=qk)
            x = np.subtract(x, qk, out=rk)
            p, d = qk.sum().as_integer_ratio()
            total += p << (_SCALE_BITS + 1 - d.bit_length())
            if not x.any():
                break
            e += m - 53
    return total


def exact_sum(a) -> float:
    """The correctly rounded sum of a 1-D float64 array: bitwise equal to
    math.fsum(a), in a few numpy passes per _BLOCK values."""
    a = np.asarray(a, dtype=np.float64)
    return exact_prefix_sums(a, [len(a)])[0]


def _groups(blocks):
    """The values of `blocks()` in order, as arrays of about _BLOCK values:
    shorter blocks are copied together into one reused buffer, so that the
    per-call cost of _scaled_sum is paid once per _BLOCK values, and a
    block of _BLOCK values or more passes as it is."""
    buf, fill = None, 0
    for b in blocks():
        if fill and fill + len(b) > _BLOCK:
            yield buf[:fill]
            fill = 0
        if len(b) >= _BLOCK:
            yield b
            continue
        if buf is None:
            buf = np.empty(_BLOCK)
        buf[fill:fill + len(b)] = b
        fill += len(b)
    if fill:
        yield buf[:fill]


def exact_block_sum(blocks) -> float:
    """math.fsum over the concatenation of the float64 arrays that
    `blocks()` yields, bitwise, holding at most _BLOCK values beyond the
    block in hand: the exact sums of about _BLOCK values at a time are
    added as ints, and the total is rounded once.  Each block is read
    before the next is asked for, so a generator may yield views of one
    reused buffer.

    `blocks` is called once more, to let math.fsum itself read the values,
    only where a block holds a non-finite value or one of magnitude
    >= 2^1000, or the blocks sum to exactly zero (whose sign fsum decides).
    """
    scaled = 0
    for g in _groups(blocks):
        part = _scaled_sum(g)
        if part is None:
            break
        scaled += part
    else:
        if scaled:
            return scaled / _SCALE
    return math.fsum(v for b in blocks() for v in b.tolist())


def exact_prefix_sums(a, stops) -> list[float]:
    """[exact_sum(a[:s]) for s in stops] for non-decreasing `stops`, reading
    each value of `a` once: the exact segment sums are added as ints.

    Where a prefix holds a non-finite value or one of magnitude >= 2^1000,
    or sums to exactly zero (whose sign fsum decides), its value is
    math.fsum's own.
    """
    a = np.asarray(a, dtype=np.float64)
    out = []
    scaled, s0 = 0, 0
    for s in stops:
        part = _scaled_sum(a[s0:s])
        scaled = None if scaled is None or part is None else scaled + part
        # int / int is correctly rounded, half to even, subnormals included
        out.append(scaled / _SCALE if scaled else math.fsum(a[:s].tolist()))
        s0 = s
    return out
