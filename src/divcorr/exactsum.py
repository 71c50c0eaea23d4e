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
the double.  One entry point, exact_prefix_sums, streams the blocks a
generator yields and rounds each prefix asked for; exact_sum is its
one-array case.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: values per block, so M = (n + 2).bit_length() <= 17 and each level takes
#: 53 - M >= 36 bits: two levels for values within 19 binades of the block's
#: largest.  The block and its two work arrays (512 KB each) stay in cache:
#: per value, 2^15 ran within 4% of 2^16 on mean_square's pieces and on
#: tong_ratio_oracle's terms, and 2^14, 2^17 and 2^18 ran 1.07, 1.26 and
#: 1.6 times slower.  exact_prefix_sums gathers shorter blocks to this size
_BLOCK = 1 << 16
#: the exact sum is carried as an int in units of 2^-1074, of which every
#: double is a multiple
_SCALE_BITS = 1074
_SCALE = 2 ** _SCALE_BITS
#: from this magnitude up, fsum may raise on intermediate overflow
_HUGE = 2.0 ** 1000


def _scaled_sum(x: np.ndarray, q: np.ndarray, r: np.ndarray) -> int | None:
    """The exact sum of the 1 to _BLOCK values `x` times 2^1074, or None
    when `x` holds a non-finite value or one of magnitude >= 2^1000; `q`
    and `r` are work arrays of at least len(x) values."""
    hi, lo = x.max(), x.min()
    if not -_HUGE < lo <= hi < _HUGE:  # NaN fails too
        return None
    q, r = q[:len(x)], r[:len(x)]
    e = math.frexp(max(hi, -lo))[1]  # |x| < 2^e
    m = (len(x) + 2).bit_length()
    total = 0
    while True:
        # below 2^-1022 a double's grid is 2^-1074 throughout, so x + sigma
        # is exact, q = x and the loop ends
        sigma = math.ldexp(1.0, max(e + m, -1022))
        np.subtract(np.add(x, sigma, out=q), sigma, out=q)
        x = np.subtract(x, q, out=r)
        p, d = q.sum().as_integer_ratio()
        total += p << (_SCALE_BITS + 1 - d.bit_length())
        if not x.any():
            return total
        e += m - 53


def exact_sum(a) -> float:
    """The correctly rounded sum of a 1-D float64 array: bitwise equal to
    math.fsum(a), in a few numpy passes per _BLOCK values."""
    return exact_prefix_sums(lambda: [np.asarray(a, np.float64)], [len(a)])[0]


def exact_prefix_sums(blocks, stops) -> list[float]:
    """[math.fsum of the first s values that blocks() yields, for s in
    stops], bitwise, for non-decreasing stops up to the number of values;
    `blocks` takes no arguments and yields 1-D float64 arrays.

    Each value is read once.  The values go to the extraction in groups
    of at most _BLOCK that end at each stop: a group that lies in one block
    is summed where it lies, and shorter runs are copied together into one
    buffer, so that the per-group cost is paid about once per _BLOCK
    values.  The group sums are added as ints, and each stop's prefix is
    rounded once.  The buffer and the extraction's two work arrays are
    allocated once, min(stops[-1], _BLOCK) values each.  Each block is read
    before the next is asked for, so a generator may yield views of one
    reused buffer.

    Where a prefix holds a non-finite value or one of magnitude >= 2^1000,
    or sums to exactly zero (whose sign fsum decides), its value is
    math.fsum's own: after the first pass has ended, `blocks` is called
    once more and its values up to the last such stop go to fsum.
    """
    n = min(stops[-1], _BLOCK) if stops else 0
    buf, q, r = np.empty(n), np.empty(n), np.empty(n)
    scaled, seen, fill, out = 0, 0, 0, []
    for b in blocks():
        while len(out) < len(stops):
            if seen == stops[len(out)]:
                out.append(scaled)
                continue
            if len(b) == 0:
                break
            take = min(stops[len(out)] - seen, n - fill, len(b))
            x, b = b[:take], b[take:]
            seen += take
            full = seen == stops[len(out)] or fill + take == n
            if fill or not full:
                buf[fill:fill + take] = x
                fill += take
                x = buf[:fill]
            if full:
                part = _scaled_sum(x, q, r)
                scaled = None if None in (scaled, part) else scaled + part
                fill = 0
    if stops and seen < stops[-1]:
        raise ValueError(f"stop {stops[-1]} lies past the {seen} values")
    out += [scaled] * (len(stops) - len(out))  # zero stops, no values
    if not all(out):
        vals = list(itertools.islice(
            (v for b in blocks() for v in b.tolist()),
            max(s for s, v in zip(stops, out) if not v)))
    # int / int is correctly rounded, half to even, subnormals included
    return [v / _SCALE if v else math.fsum(vals[:s])
            for s, v in zip(stops, out)]
