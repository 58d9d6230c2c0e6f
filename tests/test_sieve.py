import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import (
    BoundError,
    CapacityError,
    liouville_oracle,
    mobius_oracle,
    primes_up_to,
    sieve_block,
)
from summatoria.sieve import (
    GLOBAL_SIEVE_BOUND,
    MAX_BLOCK_SIZE,
    ORACLE_BOUND,
    _factor_counts,
)

from reference_sieve import reference_sieve_block

# Frozen from the definitions: mu via distinct-prime parity on squarefree
# integers, lambda via (-1)**Omega.
MU_1_TO_10 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
LAM_1_TO_10 = [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]


def test_mobius_oracle_examples():
    assert mobius_oracle(1) == 1  # empty product, even count
    assert mobius_oracle(4) == 0  # 2**2 repeats a prime
    assert mobius_oracle(6) == 1  # 6 = 2*3, two distinct primes
    assert [mobius_oracle(n) for n in range(1, 11)] == MU_1_TO_10


def test_liouville_oracle_examples():
    assert liouville_oracle(1) == 1
    assert liouville_oracle(8) == -1  # 2**3, Omega = 3
    assert liouville_oracle(12) == -1  # 2**2 * 3, Omega = 3
    assert [liouville_oracle(n) for n in range(1, 11)] == LAM_1_TO_10


def test_oracle_bounds():
    for bad in (0, -5):
        with pytest.raises(BoundError):
            mobius_oracle(bad)
        with pytest.raises(BoundError):
            liouville_oracle(bad)
    with pytest.raises(BoundError):
        mobius_oracle(ORACLE_BOUND + 1)
    assert mobius_oracle(ORACLE_BOUND) in (-1, 0, 1)


def test_sieve_block_first_ten():
    blk = sieve_block(1, 10)
    assert blk.mu.tolist() == MU_1_TO_10
    assert blk.lam.tolist() == LAM_1_TO_10


def test_sieve_block_single_prime_entry():
    blk = sieve_block(5, 5)
    assert blk.mu.tolist() == [-1]
    assert blk.lam.tolist() == [-1]


def test_sieve_block_offset_matches_oracle():
    lo, hi = 99_991, 100_123
    blk = sieve_block(lo, hi)
    for n in range(lo, hi + 1):
        assert int(blk.mu[n - lo]) == mobius_oracle(n)
        assert int(blk.lam[n - lo]) == liouville_oracle(n)


def test_sieve_block_arrays_are_read_only():
    blk = sieve_block(1, 100)
    with pytest.raises(ValueError):
        blk.mu[0] = 0
    with pytest.raises(ValueError):
        blk.lam[0] = 0


def test_sieve_block_range_errors():
    with pytest.raises(BoundError):
        sieve_block(0, 10)
    with pytest.raises(BoundError):
        sieve_block(10, 5)
    with pytest.raises(BoundError):
        sieve_block(1, 2_000_000_000)
    with pytest.raises(CapacityError):
        sieve_block(1, MAX_BLOCK_SIZE + 1)


def test_primes_up_to():
    assert primes_up_to(1).size == 0
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(10**5).size == 9592


def test_mobius_multiplicative_on_coprime_pairs():
    # Exhaustive over all m, n <= 1000: mu(mn) = mu(m) mu(n) when gcd = 1.
    bound = 1000
    mu = sieve_block(1, bound * bound).mu.astype(np.int64)
    m = np.arange(1, bound + 1)
    coprime = np.gcd.outer(m, m) == 1
    products = np.outer(m, m)
    lhs = mu[products - 1]
    rhs = np.outer(mu[:bound], mu[:bound])
    assert np.array_equal(lhs[coprime], rhs[coprime])


def test_liouville_completely_multiplicative():
    # No coprimality needed: lambda(mn) = lambda(m) lambda(n) for all m, n <= 1000.
    bound = 1000
    lam = sieve_block(1, bound * bound).lam.astype(np.int64)
    m = np.arange(1, bound + 1)
    products = np.outer(m, m)
    assert np.array_equal(lam[products - 1], np.outer(lam[:bound], lam[:bound]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=10**4))
def test_mobius_divisor_identity_spot(n):
    total = sum(mobius_oracle(d) for d in range(1, n + 1) if n % d == 0)
    assert total == 0


def test_mobius_divisor_identity_at_one():
    assert mobius_oracle(1) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200_000))
def test_sieve_agrees_with_oracle_at_random_points(n):
    blk = sieve_block(n, n)
    assert int(blk.mu[0]) == mobius_oracle(n)
    assert int(blk.lam[0]) == liouville_oracle(n)


# The kernel against the pre-tile kernel kept in tests/reference_sieve.py,
# with no table (primes up to sqrt(hi) per block) and with one table
# covering sqrt(GLOBAL_SIEVE_BOUND), oversized for every smaller block.
FULL_TABLE = primes_up_to(math.isqrt(GLOBAL_SIEVE_BOUND))
TILE_PERIOD = 44_100  # 2**2 * 3**2 * 5**2 * 7**2


def assert_matches_reference(lo, hi):
    got = sieve_block(lo, hi)
    for primes in (None, FULL_TABLE):
        want = reference_sieve_block(lo, hi, primes=primes)
        for new, old in ((got.mu, want.mu), (got.lam, want.lam)):
            assert new.dtype == np.int8 and not new.flags.writeable
            assert new.tobytes() == old.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=1 << 14).flatmap(
    lambda width: st.tuples(st.integers(min_value=1, max_value=GLOBAL_SIEVE_BOUND - width + 1),
                            st.just(width))))
def test_sieve_block_matches_reference_kernel(lo_width):
    lo, width = lo_width
    assert_matches_reference(lo, lo + width - 1)


@pytest.mark.parametrize("lo, hi", [
    (1, 1 << 20),
    (30_000_000 - (1 << 20) + 1, 30_000_000),
    (GLOBAL_SIEVE_BOUND - (1 << 20) + 1, GLOBAL_SIEVE_BOUND),
    *[(k * TILE_PERIOD + r, k * TILE_PERIOD + r + 100_000)
      for k in (0, 1, 22_000) for r in (0, 1, TILE_PERIOD - 1) if k or r],
    *[(lo, hi) for hi in range(1, 11) for lo in range(1, hi + 1)],
    *[(lo, lo + width - 1) for lo in (4, 8, 9, 25, 27, 49, 343) for width in (1, 1000)],
])
def test_sieve_block_matches_reference_kernel_at_edges(lo, hi):
    assert_matches_reference(lo, hi)


# The kernel keeps one signed int32 smooth part per entry, multiplied by -p
# per prime power, and a square flag: 2**29 has the most marks below 1e9
# (Omega = 29, 28 of them setting the flag), and 2**28 * 3 stores -n.
# Entries at the extremes of that encoding:
COUNT_EXTREMES = [
    2**29,  # Omega = 29, with 28 square marks
    2**28 * 3,
    3**18,
    223_092_870,  # 2 * 3 * ... * 23: squarefree, omega = 9
    31_607**2,  # the square of the largest prime up to sqrt(GLOBAL_SIEVE_BOUND)
    GLOBAL_SIEVE_BOUND,
]


@pytest.mark.parametrize("n", COUNT_EXTREMES)
def test_sieve_block_at_the_extremes_of_the_count(n):
    # smooth, the product of the powers divided out, is int32.
    assert GLOBAL_SIEVE_BOUND < 2**31
    assert FULL_TABLE[-1] == 31_607
    distinct, total, squarefree = _factor_counts(n)
    blk = sieve_block(n, n)
    assert int(blk.mu[0]) == ((-1) ** distinct if squarefree else 0)
    assert int(blk.lam[0]) == (-1) ** total
    assert_matches_reference(max(1, n - 5000), min(GLOBAL_SIEVE_BOUND, n + 5000))


@pytest.mark.parametrize("n", [
    999_999_937,  # prime: smooth part 1, and the large prime flips its sign
    999_999_986,  # 2 * 499_999_993: one mark, then the flip
])
def test_sieve_block_flips_the_sign_for_the_prime_above_sqrt_hi(n):
    distinct, total, squarefree = _factor_counts(n)
    blk = sieve_block(n, n)
    assert int(blk.mu[0]) == ((-1) ** distinct if squarefree else 0)
    assert int(blk.lam[0]) == (-1) ** total
    assert_matches_reference(n - 5000, min(GLOBAL_SIEVE_BOUND, n + 5000))
