"""The block sieve as it was before the 44100-periodic pre-sieve and the
arithmetic finale, kept verbatim as a differential oracle for
``summatoria.sieve.sieve_block`` (tests/test_sieve.py and
bench/kernels.py)."""

from __future__ import annotations

import math

import numpy as np

from summatoria.errors import BoundError, CapacityError
from summatoria.sieve import GLOBAL_SIEVE_BOUND, MAX_BLOCK_SIZE, SieveBlock, primes_up_to


def reference_sieve_block(lo: int, hi: int, *, primes: np.ndarray | None = None) -> SieveBlock:
    """Sieve Mobius and Liouville values for the whole range [lo, hi]."""
    if lo < 1 or hi < lo:
        raise BoundError(f"invalid sieve range [{lo}, {hi}]")
    if hi > GLOBAL_SIEVE_BOUND:
        raise BoundError(f"sieve range end {hi} exceeds global bound {GLOBAL_SIEVE_BOUND}")
    width = hi - lo + 1
    if width > MAX_BLOCK_SIZE:
        raise CapacityError(f"block of {width} entries exceeds the {MAX_BLOCK_SIZE} limit")

    if primes is None:
        primes = primes_up_to(math.isqrt(hi))

    mu = np.ones(width, dtype=np.int8)
    # Parity of Omega(n); each division by a prime flips it.
    omega_parity = np.zeros(width, dtype=np.int8)
    # Product of prime powers divided out so far (the sqrt(hi)-smooth part).
    smooth = np.ones(width, dtype=np.int64)

    for p in primes:
        p = int(p)
        if p > hi:
            break
        first = ((lo + p - 1) // p) * p
        if first > hi:
            continue
        sl = slice(first - lo, width, p)
        mu[sl] = -mu[sl]
        omega_parity[sl] ^= 1
        smooth[sl] *= p
        q = p * p
        while q <= hi:
            first_q = ((lo + q - 1) // q) * q
            if first_q <= hi:
                sq = slice(first_q - lo, width, q)
                mu[sq] = 0
                omega_parity[sq] ^= 1
                smooth[sq] *= p
            q *= p

    # Whatever was not divided out is a single prime > sqrt(hi), power 1:
    # two such primes would multiply past hi.
    cofactor = np.arange(lo, hi + 1, dtype=np.int64) // smooth
    large = cofactor > 1
    mu[large] = -mu[large]
    omega_parity[large] ^= 1

    lam = np.where(omega_parity, -1, 1).astype(np.int8)
    mu.flags.writeable = False
    lam.flags.writeable = False
    return SieveBlock(lo=lo, hi=hi, mu=mu, lam=lam)
