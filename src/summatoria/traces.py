"""Checkpointed summatory traces S(n) = sum_{k<=n} f(k), and the one
streaming engine every statistic in the package runs on.

``stream`` walks f(1..last) once in blocks and hands each block, in
block order, to a list of probes: checkpoint sums here, strided samples
for the KS statistics, moments and lag products in ``empirical``.  It
keeps the running base S(lo - 1) once.  ``Block.sum`` is the one rule
for summing a block: exactly for integer values (int64, or Python ints
where int64 could wrap), with math.fsum (correctly rounded) for reals.
Block sums are merged exactly, as a Fraction, and a sum that is not
finite raises NumericError.  Blocks may be evaluated on worker threads,
but probes always see them in order, so results do not depend on the
thread count.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, TextIO

import numpy as np

from . import sieve
from .errors import NumericError
from .sequences import (
    ArithmeticSequence,
    liouville_sequence,
    mobius_sequence,
    weighted_mobius_sequence,
)

EXACT_INTEGER = "exact-integer"
COMPENSATED_FLOAT = "compensated-float"


@dataclass(frozen=True)
class SummatoryTrace:
    """Values of S(n) at strictly increasing checkpoints."""

    checkpoints: np.ndarray
    values: np.ndarray
    accumulation_kind: str
    name: str = ""

    def __post_init__(self):
        if self.checkpoints.shape != self.values.shape:
            raise ValueError("checkpoints and values must have equal length")

    def __len__(self) -> int:
        return int(self.checkpoints.size)


def validate_checkpoints(checkpoints, N: int | None = None) -> np.ndarray:
    """Normalize a checkpoint schedule to an int64 array, enforcing that it
    is nonempty, strictly increasing, positive, and bounded by N.  None
    stands for the default schedule, geometric ratio 2 from 10 up to N."""
    if checkpoints is None:
        checkpoints = geometric_checkpoints(N)
    cps = np.asarray(checkpoints, dtype=np.int64)
    if cps.ndim != 1 or cps.size == 0:
        raise ValueError("checkpoint schedule must be a nonempty 1-D sequence")
    if cps[0] < 1 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing positive integers")
    if N is not None and cps[-1] > N:
        raise ValueError(f"largest checkpoint {cps[-1]} exceeds N={N}")
    return cps


def geometric_checkpoints(N: int, start: int = 10, ratio: float = 2.0) -> np.ndarray:
    """Geometric checkpoint schedule start, start*ratio, ... capped at N."""
    if ratio <= 1.0:
        raise ValueError(f"geometric ratio must exceed 1, got {ratio}")
    if start < 1:
        raise ValueError(f"geometric start must be positive, got {start}")
    if start > N:
        raise ValueError(f"geometric start {start} exceeds N={N}")
    out = []
    x = float(start)
    while round(x) <= N:
        n = int(round(x))
        if not out or n > out[-1]:
            out.append(n)
        x *= ratio
    return np.asarray(out, dtype=np.int64)


def _ordered_map(fn, args_iter: Iterable[tuple], threads: int) -> Iterator:
    """Apply fn over args in order, optionally with a bounded thread pool.

    Results are yielded strictly in input order with at most threads + 1
    blocks in flight, keeping memory bounded for long streams.
    """
    if threads <= 1:
        yield from itertools.starmap(fn, args_iter)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for args in args_iter:
            pending.append(pool.submit(fn, *args))
            if len(pending) > threads + 1:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def as_float(total, where: str) -> float:
    """``total``, a float or an exact Fraction, correctly rounded to a finite float."""
    if not abs(total) <= sys.float_info.max:  # nan, inf, or a Fraction beyond the range
        raise NumericError(f"{where} is not finite")
    return float(total)


class Block:
    """One streamed block: ``values`` holds f(lo..hi), ``base`` is S(lo - 1).

    ``dtype`` is float64, or for integers int64, or object (Python ints)
    where |f|**2 * size could leave int64.  ``total`` is the block's sum;
    the running sums ``run`` (without the base) are computed on first use.
    """

    def __init__(self, lo: int, values: np.ndarray, base: Fraction, exact: bool):
        self.dtype = np.float64
        if exact:
            if values.dtype.kind == "f":
                # magnitude first: the cast of a value beyond int64 would wrap
                if not (np.max(np.abs(values)) <= 2**53 and np.all(values == np.round(values))):
                    raise NumericError(f"f({lo}..{lo + values.size - 1}) of an integer-valued "
                                       "sequence holds a non-integer or a value beyond 2**53")
                values = values.astype(np.int64)
            peak = max(int(values.max()), -int(values.min()))
            self.dtype = np.int64 if peak * peak * values.size < 2**63 else object
            values = values if self.dtype is np.int64 else values.astype(object)
        self.lo, self.hi = lo, lo + values.size - 1
        self.values, self.exact = values, exact
        self.base = self.rounded(base)
        self.total = self.sum(values)

    def rounded(self, total):
        """An exact sum as an int for integer blocks, else correctly rounded
        to a finite float."""
        where = f"a sum through f({self.lo}..{self.hi})"
        return int(total) if self.exact else as_float(total, where)

    def sum(self, x: np.ndarray):
        """Sum terms of this block: exactly for integers, with math.fsum
        (correctly rounded) for reals."""
        if self.exact:
            return int(x.sum(dtype=self.dtype))
        try:
            return self.rounded(math.fsum(x.tolist()))
        except (OverflowError, ValueError):  # fsum overflowed inside, or met inf - inf
            return self.rounded(math.nan)

    @cached_property
    def run(self) -> np.ndarray:
        return np.cumsum(self.values, dtype=self.dtype)


def stream(seq: ArithmeticSequence, last: int, probes, *,
           block_size: int | None = None, threads: int = 1):
    """Walk f(1..last) once, handing each ``Block`` to every probe's
    ``add(block)`` in block order, and return S(last).

    ``block_size`` defaults to 2**20 or the SUMMATORIA_BLOCK_SIZE
    environment variable; ``threads`` worker threads evaluate blocks.
    """
    total = Fraction(0)
    ranges = list(sieve.iter_block_ranges(1, last, sieve.resolve_block_size(block_size)))
    for (lo, _), arr in zip(ranges, _ordered_map(seq.values, ranges, threads)):
        block = Block(lo, arr, total, seq.integer_valued)
        for probe in probes:
            probe.add(block)
        total += Fraction(block.total)
    return block.rounded(total)


class Checkpoints:
    """Probe: S(n) at every checkpoint of a validated schedule."""

    def __init__(self, checkpoints: np.ndarray):
        self.checkpoints = checkpoints
        self.values = []

    def add(self, block: Block) -> None:
        cps = self.checkpoints
        hits = cps[(cps >= block.lo) & (cps <= block.hi)]
        self.values.extend(block.base + block.run[hits - block.lo] if hits.size else ())

    def trace(self, seq: ArithmeticSequence) -> SummatoryTrace:
        kind = EXACT_INTEGER if seq.integer_valued else COMPENSATED_FLOAT
        return SummatoryTrace(self.checkpoints, np.asarray(self.values), kind, seq.name)


class Strided:
    """Probe: S(k), or f(k) with ``sums=False``, at k = s, 2s, ... <= n for
    the stride s = ceil(n / cap), so at most cap points."""

    def __init__(self, n: int, cap: int, *, sums: bool = True):
        self.n, self.stride, self.sums = n, -(-n // cap), sums
        self.sample = np.empty(n // self.stride, dtype=np.float64)

    def add(self, block: Block) -> None:
        first = -(-block.lo // self.stride) * self.stride
        upper = min(block.hi, self.n)
        if first > upper:
            return
        at = slice(first - block.lo, upper - block.lo + 1, self.stride)
        got = block.base + block.run[at] if self.sums else block.values[at]
        dest = first // self.stride - 1
        self.sample[dest : dest + got.size] = got


def summatory_trace(
    seq: ArithmeticSequence,
    N: int,
    checkpoints=None,
    *,
    block_size: int | None = None,
    threads: int = 1,
) -> SummatoryTrace:
    """Stream a sequence once and record S(n) at every checkpoint.

    Checkpoints must not exceed N and default to geometric ratio 2 from
    10.  ``block_size`` and ``threads`` are as for ``stream``; neither
    changes the result.
    """
    if N > seq.bound:
        raise ValueError(f"N={N} exceeds the sequence bound {seq.bound}")
    probe = Checkpoints(validate_checkpoints(checkpoints, N))
    stream(seq, int(probe.checkpoints[-1]), [probe],
           block_size=block_size, threads=threads)
    return probe.trace(seq)


def mertens_trace(N: int, checkpoints=None, *, block_size: int | None = None,
                  threads: int = 1) -> SummatoryTrace:
    """M(n) = sum_{k<=n} mu(k) at each checkpoint, exactly."""
    return summatory_trace(mobius_sequence(N), N, checkpoints,
                           block_size=block_size, threads=threads)


def liouville_trace(N: int, checkpoints=None, *, block_size: int | None = None,
                    threads: int = 1) -> SummatoryTrace:
    """L(n) = sum_{k<=n} lambda(k) at each checkpoint, exactly."""
    return summatory_trace(liouville_sequence(N), N, checkpoints,
                           block_size=block_size, threads=threads)


def weighted_mobius_trace(N: int, checkpoints=None, *, block_size: int | None = None,
                          threads: int = 1) -> SummatoryTrace:
    """sum_{k<=n} mu(k)/k at each checkpoint, compensated."""
    return summatory_trace(weighted_mobius_sequence(N), N, checkpoints,
                           block_size=block_size, threads=threads)


def write_trace_csv(trace: SummatoryTrace, out: TextIO) -> None:
    """Write a trace as CSV with header ``n,S`` and LF line endings: exact
    integers without exponent, floats with 17 significant digits."""
    exact = trace.accumulation_kind == EXACT_INTEGER
    out.write("n,S\n")
    for n, v in zip(trace.checkpoints, trace.values):
        out.write(f"{int(n)},{int(v) if exact else format(float(v), '.17g')}\n")
