"""Segmented sieve for the Mobius and Liouville functions.

Two evaluation paths are provided: per-integer trial-division oracles,
which are slow but independent and serve as the reference fixture, and a
block sieve that reproduces them at scale.  The sieve marks each entry of
a block with every prime power p**k <= hi, p <= sqrt(hi), that divides
it, in one strided update that multiplies its smooth part by -p, so that
|smooth| is the product of the powers divided out and its sign is
(-1)**Omega of that product; k > 1 also sets a square flag.  For p <= 7
the marks of p and p**2 repeat with period 2²·3²·5²·7² = 44100, so a
block starts as one cached period shifted to lo mod 44100 and the loop
adds only their higher powers (the pre-sieve of Deléglise & Rivat, 1996).
What remains of n is 1 or a single prime > sqrt(hi), present exactly
where |smooth| != n, and flips the sign.  Then lambda = -1 where the
sign is negative, and mu = lambda where the square flag is 0, else 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundError, CapacityError

# Trial division is a test fixture, not a production path; keep it cheap.
ORACLE_BOUND = 10_000_000
GLOBAL_SIEVE_BOUND = 1_000_000_000
# Every stream walks blocks of this many entries; no caller picks another
# size.  Tests patch it (sizes 1-8192) to show the blocking changes no byte.
DEFAULT_BLOCK_SIZE = 1 << 20
MAX_BLOCK_SIZE = 1 << 24

_TILE_PRIMES = (2, 3, 5, 7)
_TILE_PERIOD = math.prod(p * p for p in _TILE_PRIMES)  # 44100


@dataclass(frozen=True)
class SieveBlock:
    """Mobius and Liouville values for every integer in [lo, hi].

    Arrays are read-only after construction.  ``mu[k - lo]`` and
    ``lam[k - lo]`` hold the values at k.
    """

    lo: int
    hi: int
    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        width = self.hi - self.lo + 1
        if self.mu.shape != (width,) or self.lam.shape != (width,):
            raise ValueError("sieve block arrays must have length hi - lo + 1")


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, by Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def _factor_counts(n: int) -> tuple[int, int, bool]:
    """(distinct primes, primes with multiplicity, squarefree) by trial division."""
    distinct = 0
    total = 0
    squarefree = True
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            distinct += 1
            exponent = 0
            while m % d == 0:
                m //= d
                exponent += 1
            total += exponent
            if exponent > 1:
                squarefree = False
        d += 1 if d == 2 else 2
    if m > 1:
        distinct += 1
        total += 1
    return distinct, total, squarefree


def _check_oracle_arg(n: int) -> None:
    if n < 1:
        raise BoundError(f"oracle argument must be a positive integer, got {n}")
    if n > ORACLE_BOUND:
        raise BoundError(
            f"oracle argument {n} exceeds the trial-division bound {ORACLE_BOUND}"
        )


def mobius_oracle(n: int) -> int:
    """Mobius function by trial division: +1/-1 for squarefree n with an
    even/odd number of distinct prime factors, 0 if a square divides n."""
    _check_oracle_arg(n)
    distinct, _, squarefree = _factor_counts(n)
    if not squarefree:
        return 0
    return -1 if distinct % 2 else 1


def liouville_oracle(n: int) -> int:
    """Liouville function by trial division: (-1)**Omega(n), with Omega
    counting prime factors with multiplicity."""
    _check_oracle_arg(n)
    _, total, _ = _factor_counts(n)
    return -1 if total % 2 else 1


@functools.cache
def _small_prime_tile() -> tuple[np.ndarray, np.ndarray]:
    """Square flag and signed smooth part of n mod 44100 from the powers p
    and p**2 of p <= 7; read-only, built on first use."""
    square = np.zeros(_TILE_PERIOD, dtype=np.uint8)
    smooth = np.ones(_TILE_PERIOD, dtype=np.int32)
    for p in _TILE_PRIMES:
        smooth[::p] *= -p
        smooth[:: p * p] *= -p
        square[:: p * p] = 1
    square.flags.writeable = smooth.flags.writeable = False
    return square, smooth


@functools.cache
def _sieving_primes() -> tuple[int, ...]:
    """The primes up to sqrt(GLOBAL_SIEVE_BOUND), enough for every block."""
    return tuple(primes_up_to(math.isqrt(GLOBAL_SIEVE_BOUND)).tolist())


def sieve_block(lo: int, hi: int) -> SieveBlock:
    """Sieve Mobius and Liouville values for the whole range [lo, hi].

    Args:
        lo: First index, inclusive, >= 1.
        hi: Last index, inclusive, <= GLOBAL_SIEVE_BOUND.

    Returns:
        SieveBlock with int8 ``mu`` and ``lam`` arrays.
    """
    if lo < 1 or hi < lo:
        raise BoundError(f"invalid sieve range [{lo}, {hi}]")
    if hi > GLOBAL_SIEVE_BOUND:
        raise BoundError(f"sieve range end {hi} exceeds global bound {GLOBAL_SIEVE_BOUND}")
    width = hi - lo + 1
    if width > MAX_BLOCK_SIZE:
        raise CapacityError(f"block of {width} entries exceeds the {MAX_BLOCK_SIZE} limit")

    # The square flag and the signed sqrt(hi)-smooth part (int32 holds n <= 1e9).
    shift = lo % _TILE_PERIOD
    end = shift + min(width, _TILE_PERIOD)  # one period of the tile from lo on, wrapping
    square, smooth = (np.resize(np.concatenate((a[shift:end], a[: max(0, end - _TILE_PERIOD)])),
                                width) for a in _small_prime_tile())
    for p in _sieving_primes():
        if p * p > hi:
            break
        # Each p**k multiplies the smooth part of its multiples by -p in place
        # and, for k > 1, sets their square flag; no view outlives ``del smooth``.
        tiled = p in _TILE_PRIMES
        if not tiled:
            smooth[-lo % p :: p] *= -p
        q = p**3 if tiled else p * p
        while q <= hi:
            first = -lo % q
            if first < width:
                smooth[first::q] *= -p
                square[first::q] = 1
            q *= p

    # Whatever was not divided out is a single prime > sqrt(hi), power 1:
    # two such primes would multiply past hi.  |smooth| divides n, so that
    # prime is there exactly where |smooth| != n, and flips the sign.
    odd = smooth < 0
    odd ^= np.abs(smooth, out=smooth) != np.arange(lo, hi + 1, dtype=np.int32)
    del smooth  # before decoding, which lowers the peak RSS of float streams
    lam = 1 - (odd.astype(np.int8) << 1)
    mu = lam * (square == 0)
    mu.flags.writeable = False
    lam.flags.writeable = False
    return SieveBlock(lo=lo, hi=hi, mu=mu, lam=lam)
