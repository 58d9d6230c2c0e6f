"""Bounded real-valued functions on the positive integers.

An ArithmeticSequence abstracts over the three ways values arrive here:
sieve-backed (mu, lambda, mu(k)/k), closed-form expressions, and
materialized arrays (e.g. greedy schedule realizations).  Evaluation is
pure and block-oriented so traces and statistics can stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import sieve
from .errors import BoundError

# The largest x whose S(x) ``sublinear`` computes for a sequence with a
# hyperbola rule; M(10**11) peaks at 76 MB (BENCH_kernels.json, ``sublinear``).
SUBLINEAR_BOUND = 10**11


@dataclass(frozen=True)
class ArithmeticSequence:
    """A function f on {1, ..., bound}.

    ``values(lo, hi)`` returns f(lo..hi) as a 1-D array; repeated calls
    return identical values.  ``integer_valued`` selects exact integer
    accumulation in the trace engine.  ``hyperbola``, where given, is G
    with sum_{d<=x} S(x // d) = G(x) for the sums S of f, which
    ``sublinear`` follows past ``bound`` up to its own bound.
    """

    name: str
    bound: int
    integer_valued: bool
    _block_fn: Callable[[int, int], np.ndarray] = field(repr=False, compare=False)
    hyperbola: Callable[[int], int] | None = field(default=None, repr=False, compare=False)

    def values(self, lo: int, hi: int) -> np.ndarray:
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid index range [{lo}, {hi}]")
        if hi > self.bound:
            raise BoundError(f"index {hi} exceeds the sequence bound {self.bound}")
        return self._block_fn(lo, hi)


def _sieved(name: str, bound: int, integer_valued: bool, pick,
            hyperbola=None) -> ArithmeticSequence:
    # pick maps a SieveBlock to the sequence's values on it.  Values stop
    # at the sieve bound; sums with a hyperbola rule go on to its bound.
    limit = SUBLINEAR_BOUND if hyperbola else sieve.GLOBAL_SIEVE_BOUND
    if bound > limit:
        raise BoundError(f"{name} is available up to {limit}, not to {bound}")
    bound = min(bound, sieve.GLOBAL_SIEVE_BOUND)

    def block(lo: int, hi: int) -> np.ndarray:
        return pick(sieve.sieve_block(lo, hi))

    return ArithmeticSequence(name, bound, integer_valued, block, hyperbola)


def mobius_sequence(bound: int) -> ArithmeticSequence:
    """mu(k) for k <= bound, sieve-backed up to 10**9; its sums M(x)
    reach SUBLINEAR_BOUND through sum_{d<=x} M(x // d) = 1."""
    return _sieved("mu", bound, True, lambda blk: blk.mu, lambda x: 1)


def liouville_sequence(bound: int) -> ArithmeticSequence:
    """lambda(k) for k <= bound, sieve-backed up to 10**9; its sums L(x)
    reach SUBLINEAR_BOUND through sum_{d<=x} L(x // d) = isqrt(x), the
    count of squares up to x."""
    return _sieved("lambda", bound, True, lambda blk: blk.lam, math.isqrt)


def weighted_mobius_sequence(bound: int) -> ArithmeticSequence:
    """mu(k)/k for k <= bound, sieve-backed."""
    return _sieved("mu-over-k", bound, False, lambda blk: np.divide(  # into the index array
        blk.mu, k := np.arange(blk.lo, blk.hi + 1, dtype=np.float64), out=k))


def sequence_from_function(
    fn: Callable[[np.ndarray], np.ndarray],
    bound: int,
    *,
    name: str = "f",
) -> ArithmeticSequence:
    """Wrap a vectorized closed-form expression f(k).

    ``fn`` receives a float64 array of indices and must return an array of
    the same shape, so ``bound`` is at most 2**53, up to which float64
    holds every integer.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    if bound > 2**53:
        raise ValueError(f"bound {bound} exceeds 2**53, past which float64 indices skip integers")

    def block(lo: int, hi: int) -> np.ndarray:
        k = np.arange(lo, hi + 1, dtype=np.float64)
        out = np.asarray(fn(k), dtype=np.float64)
        if out.shape != k.shape:
            raise ValueError("closed-form evaluator changed the block shape")
        return out

    return ArithmeticSequence(name, bound, False, block)


def sequence_from_values(values: np.ndarray, *, name: str = "values") -> ArithmeticSequence:
    """Wrap a materialized array as the sequence f(k) = values[k - 1]."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("materialized sequence must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("materialized sequence contains non-finite values")
    arr.flags.writeable = False
    # Beyond 2**53 floats skip integers and int64 block sums can wrap.
    integer_valued = float(np.max(np.abs(arr))) <= 2**53 and bool(np.all(arr == np.round(arr)))

    def block(lo: int, hi: int) -> np.ndarray:
        return arr[lo - 1 : hi]

    return ArithmeticSequence(name, arr.size, integer_valued, block)
