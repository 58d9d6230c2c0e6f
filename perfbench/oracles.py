"""Reference values for the benchmark's correctness checks.

Nothing here imports or copies the ``summatoria`` package: every value is
recomputed by a different algorithm or taken from published tables, so a
defect in the package cannot hide behind a matching defect in its check.

- ``mobius_table``: mu(0..n) by a segmented log sieve.  The package
  multiplies out each entry's smooth part and divides; this sieve adds
  logarithms instead and reads the one possible large prime factor off
  the gap to log k.
- ``MertensOracle``: M(x) from the identity sum_{d<=x} M(x//d) = 1 and
  L(x) = sum_{d^2<=x} M(x//d^2), on top of a small mobius_table.  It
  reaches 10**8 in well under a second, without sieving to x.
- ``PUBLISHED_MERTENS`` / ``PUBLISHED_LIOUVILLE``: OEIS A084237 and
  A090410 at 10**k, k <= 8.
- ``correctly_rounded_prefix_sums``: exact sums of float64 terms as Python
  integers scaled by 2**80, rounded once by integer true division.
- ``analyze_exact``: the integer sums behind ``analyze``'s mean, variance
  and lag correlations, as exact fractions.
- ``log2_greedy_problems``: count_1(n) = floor(n p_1(n) + 1/2) and
  |count_1(n) - n p_1(n)| <= 1 for the synth:log2 schedule.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np

PUBLISHED_MERTENS = {
    1: 1, 10: -1, 100: 1, 1000: 2, 10**4: -23, 10**5: -48,
    10**6: 212, 10**7: 1037, 10**8: 1928,
}
PUBLISHED_LIOUVILLE = {
    1: 1, 10: 0, 100: -2, 1000: -14, 10**4: -94, 10**5: -288,
    10**6: -530, 10**7: -842, 10**8: -3884,
}


def primes_through(n: int) -> list[int]:
    """All primes <= n, by Eratosthenes over a byte array."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def mobius_table(n: int, segment: int = 1 << 21) -> np.ndarray:
    """mu(k) for k = 0..n as int8, with mu[0] = 0.

    Per segment, each prime p <= sqrt(n) flips the sign of its multiples,
    zeroes the multiples of p*p and adds log p to a running log sum.  A
    squarefree k whose log sum falls short of log k by more than 1/2 has
    exactly one prime factor above sqrt(n) (two would exceed n), which
    flips the sign once more.  Float32 log sums stay within 1e-4 of the
    truth, far from the smallest possible gap, log 2.
    """
    primes = primes_through(math.isqrt(n))
    logs_of = [math.log(p) for p in primes]
    mu = np.zeros(n + 1, dtype=np.int8)
    for lo in range(1, n + 1, segment):
        hi = min(lo + segment - 1, n)
        width = hi - lo + 1
        sign = np.ones(width, dtype=np.int8)
        logs = np.zeros(width, dtype=np.float32)
        for p, logp in zip(primes, logs_of):
            first = -lo % p
            sign[first::p] *= -1
            logs[first::p] += logp
            first_sq = -lo % (p * p)
            if first_sq < width:
                sign[first_sq :: p * p] = 0
        gap = np.log(np.arange(lo, hi + 1, dtype=np.float64)) - logs
        sign[gap > 0.5] *= -1
        mu[lo : hi + 1] = sign
    return mu


class MertensOracle:
    """M(x) and L(x) for x <= table_limit**2, memoised.  A table limit
    near x**(2/3) balances the table against the recursion."""

    def __init__(self, table_limit: int):
        self.limit = max(16, int(table_limit))
        self._small = np.cumsum(mobius_table(self.limit), dtype=np.int64)
        self._memo: dict[int, int] = {}

    def _many(self, xs: np.ndarray) -> int:
        """sum of M(x) over an int64 array of arguments."""
        small = xs <= self.limit
        total = int(self._small[xs[small]].sum())
        return total + sum(self.mertens(int(x)) for x in xs[~small])

    def mertens(self, x: int) -> int:
        """M(x) = 1 - sum_{2<=d<=x} M(x//d), with the d > x//(v+1) terms
        grouped by their common quotient q <= v = isqrt(x)."""
        if x <= self.limit:
            return int(self._small[x])
        if x in self._memo:
            return self._memo[x]
        v = math.isqrt(x)
        if v > self.limit:
            raise ValueError(f"M({x}) needs a table to {v}, beyond {self.limit}")
        d = np.arange(2, x // (v + 1) + 1, dtype=np.int64)
        q = np.arange(1, v + 1, dtype=np.int64)
        runs = x // q - x // (q + 1)
        value = 1 - self._many(x // d) - int((self._small[q] * runs).sum())
        self._memo[x] = value
        return value

    def liouville(self, x: int) -> int:
        """L(x) = sum_{d*d<=x} M(x // d**2), since lambda = sum over
        square divisors d**2 | n of mu(n / d**2)."""
        d = np.arange(1, math.isqrt(x) + 1, dtype=np.int64)
        return self._many(x // (d * d))


_SCALE_HALF = 40  # exact sums are kept as integers times 2**-80


def _scaled_sum(x: np.ndarray) -> int:
    """sum(x) * 2**80 exactly, for float64 x with |x| <= 1 and every
    nonzero |x| >= 2**-28, so that each x * 2**80 is an integer below
    2**80.  It is split into two int64 halves below 2**40 each; chunks of
    at most 2**20 terms keep both half-sums below 2**60."""
    nonzero = np.abs(x[x != 0])
    if nonzero.size and (nonzero.max() > 1.0 or nonzero.min() < 2.0**-28):
        raise ValueError("terms outside [2**-28, 1] cannot be summed exactly here")
    total = 0
    for start in range(0, x.size, 1 << 20):
        a = x[start : start + (1 << 20)] * 2.0**_SCALE_HALF
        hi = np.floor(a)
        lo = (a - hi) * 2.0**_SCALE_HALF
        total += (int(hi.astype(np.int64).sum()) << _SCALE_HALF) + int(lo.astype(np.int64).sum())
    return total


def correctly_rounded_prefix_sums(terms, checkpoints, chunk: int = 1 << 20):
    """For each checkpoint n, the correctly rounded sum_{k<=n} f(k) and the
    float sum_{k<=n} |f(k)| (the scale for error tolerances).

    ``terms(lo, hi)`` returns f(lo..hi) as float64.
    """
    exact = 0
    magnitude = 0
    done = 0
    sums, scales = [], []
    for n in checkpoints:
        for lo in range(done + 1, n + 1, chunk):
            block = terms(lo, min(lo + chunk - 1, n))
            exact += _scaled_sum(block)
            magnitude += _scaled_sum(np.abs(block))
        done = n
        sums.append(exact / 2**(2 * _SCALE_HALF))
        scales.append(magnitude / 2**(2 * _SCALE_HALF))
    return sums, scales


def _ordered(x: float) -> int:
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_distance(a: float, b: float) -> int:
    """Number of float64 values between a and b; 0 for -0.0 and 0.0."""
    return abs(_ordered(a) - _ordered(b))


def analyze_exact(mu: np.ndarray, n: int, lags) -> dict:
    """Exact mean, population variance and lag-h correlation gaps of mu
    over {1..n}: rho(h) = a/n - (s/n)(c/n) with a = sum mu(k)mu(k+h),
    s = sum mu(k), c = sum mu(k+h).  Each rho comes with the scale
    |a|/n + |s c|/n**2 of the two terms a float evaluation subtracts."""
    x = mu[1 : n + 1].astype(np.int64)
    s = int(x.sum())
    s2 = int((x * x).sum())
    rho = {}
    for h in lags:
        y = mu[h + 1 : n + h + 1].astype(np.int64)
        a, c = int((x * y).sum()), int(y.sum())
        rho[h] = (Fraction(a * n - s * c, n * n), abs(a) / n + abs(s * c) / n / n)
    return {"mean": Fraction(s, n), "variance": Fraction(s2 * n - s * s, n * n),
            "rho": rho}


def close(value: float, exact: Fraction, scale: float, rel: float = 1e-12) -> bool:
    """|value - exact| <= rel * scale, with exact held as a fraction."""
    return abs(Fraction(value) - exact) <= Fraction(rel) * Fraction(scale)


def log2_targets(N: int) -> np.ndarray:
    """n * p_1(n) for the synth:log2 schedule, p_1(n) = 1/2 + 1/((n+1) ln^2(n+1))
    clipped to [0, 1]."""
    n = np.arange(1, N + 1, dtype=np.float64)
    p1 = np.clip(0.5 + 1.0 / ((n + 1.0) * np.log(n + 1.0) ** 2), 0.0, 1.0)
    return n * p1


def log2_greedy_problems(values: np.ndarray) -> list[str]:
    """Check a 0/1 realization of synth:log2: count_1(n) must equal
    floor(n p_1(n) + 1/2), except where n p_1(n) + 1/2 sits within 1e-9 of
    an integer (a float tie either way is right), and must never be more
    than 1 from n p_1(n)."""
    problems = []
    if not np.all((values == 0.0) | (values == 1.0)):
        problems.append("synth:log2 values outside {0, 1}")
        return problems
    counts = np.cumsum(values)
    target = log2_targets(values.size)
    deviation = float(np.max(np.abs(counts - target)))
    if deviation > 1.0:
        problems.append(f"greedy deviation {deviation} exceeds 1")
    shifted = target + 0.5
    tie = np.abs(shifted - np.round(shifted)) < 1e-9
    wrong = (counts != np.floor(shifted)) & ~tie
    if np.any(wrong):
        problems.append(f"count_1 differs from floor(n p_1 + 1/2) at n = {int(np.argmax(wrong)) + 1}")
    return problems
