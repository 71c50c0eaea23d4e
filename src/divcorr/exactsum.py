"""Correctly rounded sums of float64 arrays in numpy.

The exact sum of finitely many doubles is a rational with denominator
2^1074, and its correctly rounded double is unique: `math.fsum`, which
follows Shewchuk's exact summation, returns exactly that double, and so does
`exact_sum`, by a different route.  Each value is split by `np.frexp` into
an integer mantissa M (|M| < 2^53) and a binary exponent; the mantissas are
split again into 27- and 26-bit halves, which `np.bincount` adds per
exponent without rounding.  The binned sums are combined as one Python int
in units of 2^-1126, and a single int true division, which Python rounds
correctly (half to even, subnormals included), gives the double.
"""

from __future__ import annotations

import math

import numpy as np

#: values per block: a bin then sums at most 2^16 integers below 2^27, or
#: multiples of 2^-26 below 1, so both float64 bin sums are exact; the
#: temporaries (512 KB each) stay in cache, which makes 2^15-2^16 the
#: fastest block size (about 1.6 times faster per value than 2^18)
_BLOCK = 1 << 16
#: frexp exponents run from -1073 (the smallest subnormal) to 1024; adding
#: this makes them bin indices from 0
_EXP_BIAS = 1073
#: the exact sum is carried as an int in units of 2^-1126 (= 2^(-1073-53))
_SCALE = 2 ** 1126
#: bin of the values in [2^1000, 2^1001): from there up, fsum may raise on
#: intermediate overflow
_HUGE_BIN = 1001 + _EXP_BIAS


def _scaled_sum(a: np.ndarray) -> int | None:
    """The exact sum of `a` times 2^1126, or None when `a` holds a
    non-finite value or one of magnitude >= 2^1000."""
    total = 0
    for s in range(0, len(a), _BLOCK):
        m, e = np.frexp(a[s:s + _BLOCK])
        # a = (hi + frac) 2^(e - 27), where hi = trunc(M 2^-26) for the
        # integer mantissa M = m 2^53: |hi| < 2^27 and frac is a multiple
        # of 2^-26 in (-1, 1), and all three steps are exact
        np.ldexp(m, 27, out=m)
        hi = np.trunc(m)
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, see below
            frac = np.subtract(m, hi, out=m)
        e = np.add(e, _EXP_BIAS, dtype=np.intp)  # bincount's index type
        bin_hi = np.bincount(e, weights=hi)
        bin_frac = np.bincount(e, weights=frac)
        if len(bin_hi) > _HUGE_BIN or not np.isfinite(bin_hi).all():
            return None
        # in units of 2^-1126, bin k holds (hi + frac) 2^26 2^k
        k = np.flatnonzero((bin_hi != 0) | (bin_frac != 0))
        units = np.ldexp(bin_frac[k], 26)
        for b, h, f in zip(k.tolist(), bin_hi[k].tolist(), units.tolist()):
            total += ((int(h) << 26) + int(f)) << b
    return total


def exact_sum(a) -> float:
    """The correctly rounded sum of a 1-D float64 array: bitwise equal to
    math.fsum(a), in a few numpy passes per _BLOCK values."""
    a = np.asarray(a, dtype=np.float64)
    return exact_prefix_sums(a, [len(a)])[0]


def exact_block_sum(blocks) -> float:
    """math.fsum over the concatenation of the float64 arrays that
    `blocks()` yields, bitwise, holding one block at a time: the exact
    block sums are added as ints, and the total is rounded once.

    `blocks` is called once more, to let math.fsum itself read the values,
    only where a block holds a non-finite value or one of magnitude
    >= 2^1000, or the blocks sum to exactly zero (whose sign fsum decides).
    """
    scaled = 0
    for b in blocks():
        part = _scaled_sum(b)
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
