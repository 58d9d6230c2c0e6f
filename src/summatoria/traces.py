"""Checkpointed summatory traces S(n) = sum_{k<=n} f(k), and the one
streaming engine every statistic in the package runs on.

``stream`` walks f(1..last) once in blocks, returns S(n) at the
checkpoints it is given, and hands each block, in order, to a list of
probes, such as ``empirical``'s KS samples and lag products.  It keeps
the running sum S(lo - 1) once, exactly.  A ``Block`` has one exact
rule for sums and one for sums of products (``Block.dots``): integers as
int64 (or Python ints where int64 could wrap), reals by one exact
extraction into rows of small ints (``_slices``) that float adds
exactly: 37-bit rows of each chunk summed by np.add.reduceat, 18-bit
rows of each window multiplied by np.dot.  So every S(n) at a checkpoint
is the exact sum, rounded once: correctly rounded at every block size.
A sum that is not finite raises NumericError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TextIO

import numpy as np

from . import sieve
from .errors import BoundError, CapacityError, NumericError
from .sequences import (
    SUBLINEAR_BOUND,
    ArithmeticSequence,
    liouville_sequence,
    mobius_sequence,
    weighted_mobius_sequence,
)


@dataclass(frozen=True)
class SummatoryTrace:
    """Values of S(n) at strictly increasing checkpoints: exact integers as
    int64 (object past int64), other sums as float64."""

    checkpoints: np.ndarray
    values: np.ndarray
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
    try:
        cps = np.asarray(checkpoints, dtype=np.int64)
    except OverflowError:
        raise ValueError("checkpoints must lie inside the int64 range") from None
    if cps.ndim != 1 or cps.size == 0:
        raise ValueError("checkpoint schedule must be a nonempty 1-D sequence")
    if cps[0] < 1 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing positive integers")
    if N is not None and cps[-1] > N:
        raise ValueError(f"largest checkpoint {cps[-1]} exceeds N={N}")
    return cps


# Products of one np.multiply.accumulate call in geometric_checkpoints, and
# the most one schedule may need (2**24 products take about 0.13 s).
_GEOMETRIC_CHUNK = 1 << 16
_GEOMETRIC_BUDGET = 1 << 24


def geometric_checkpoints(N: int, start: int = 10, ratio: float = 2.0) -> np.ndarray:
    """Geometric checkpoint schedule start, start*ratio, ... capped at N:
    the distinct round(x) <= N of x_0 = start, x_{j+1} = x_j * ratio, each
    x formed by one float product, as a loop would."""
    if not ratio > 1.0:
        raise ValueError(f"geometric ratio must exceed 1, got {ratio}")
    if start < 1:
        raise ValueError(f"geometric start must be positive, got {start}")
    if start > N:
        raise ValueError(f"geometric start {start} exceeds N={N}")
    products = math.ceil(math.log(N / start) / math.log(ratio))
    if products > _GEOMETRIC_BUDGET:
        raise CapacityError(f"geometric({start},{ratio}) needs {products} products to reach "
                            f"N={N}, beyond the budget of {_GEOMETRIC_BUDGET}")
    limit = float(N) if float(N) <= N else math.nextafter(float(N), 0.0)
    factors = np.full(_GEOMETRIC_CHUNK, ratio, dtype=np.float64)  # ratio may be an int
    factors[0] = float(start)
    parts, last = [], 0.0
    with np.errstate(over="ignore"):  # an x past the float range is inf > N
        while True:
            xs = np.multiply.accumulate(factors)  # sequential: x_{j+1} = x_j * ratio
            rounded = np.rint(xs)  # half to even, as round() is
            below = rounded[: np.searchsorted(rounded, limit, side="right")]
            parts.append(below[below > np.append(last, below[:-1])])  # new values
            if below.size < xs.size:
                break
            last, factors[0] = below[-1], xs[-1] * ratio
    out = np.concatenate(parts)
    if out.size and out[-1] >= 2.0**63:
        raise ValueError(f"geometric checkpoints reach {out[-1]:.0f}, beyond int64")
    return out.astype(np.int64)


def as_float(total, where: str, scale: int = 1) -> float:
    """``total / scale``, for a number or an exact Fraction total and an int
    scale, correctly rounded to a finite float (int true division is)."""
    try:
        value = float(total) if scale == 1 else total / scale
    except OverflowError:  # a Fraction or int that rounds beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise NumericError(f"{where} is not finite")
    return value


def _fraction(num: int, exp: int) -> Fraction:
    return Fraction(num << exp) if exp >= 0 else Fraction(num, 1 << -exp)


# Terms per chunk of a sum and pairs per window of Block.dots: 2**15 terms
# of 2**37 and 2**15 products of 2**36 stay below 2**53.
_CHUNK = _DOT_CHUNK = 1 << 15


def _slices(w: np.ndarray, bits: int, cuts=None, out=None) -> tuple[list[np.ndarray], int]:
    """Rows of ints, lowest first, and g: w = sum_k rows[k] * 2**(g + bits*k);
    with ``cuts``, each row is summed over the segments of w that start
    there as soon as it is made.  Step j takes q = (r + s) - s off the
    rest r, s = 2**(e + 53 - bits*(j+1)) for max|w| < 2**e: q is exact, on
    the grid 2**(e - bits*(j+1)) and within 2**(e - bits*j) (Rump, Ogita &
    Oishi 2008; Ozaki et al. 2012), so a row holds ints within 2**bits.
    ``out``: arrays of w's size for the rest and, with ``cuts``, for q.
    Past 8 rows, or where s would overflow: one row of ints on the grid of
    the least exponent of w."""
    e = math.frexp(max(w.max(initial=0.0), -w.min(initial=0.0)))[1]
    rest, buf = out or (np.empty_like(w), None)
    rows, r = [], w
    while len(rows) < 8 and e + 53 - bits <= 1023:
        s = math.ldexp(1.0, e + 53 - bits * (len(rows) + 1))
        q = np.add(r, s, out=buf)
        q -= s
        r = np.subtract(r, q, out=rest)
        row = q if cuts is None else np.add.reduceat(q, cuts)
        rows.append(np.ldexp(row, bits * (len(rows) + 1) - e, out=row))
        if not r.any():
            return rows[::-1], e - bits * len(rows)
    mant, ex = np.frexp(w)
    g = int(ex[mant != 0].min()) - 53
    ints = np.ldexp(mant, 53).astype(np.int64).astype(object) << (ex - 53 - g).clip(0)
    return [ints if cuts is None else np.add.reduceat(ints, cuts)], g


def exact_prefix_sums(x: np.ndarray, ends) -> list[Fraction]:
    """The exact sum of x[:e] for each e of ``ends`` (nondecreasing), for
    finite float64 x: ``_slices`` cuts each chunk of _CHUNK terms into
    rows of 37 bits on the chunk's own grid and sums each row between the
    ends, exactly in float; the segment sums join as ints."""
    nums, exp = _prefix_sums(x, ends)
    return [_fraction(n, exp) for n in nums]


def _prefix_sums(x: np.ndarray, ends) -> tuple[list[int], int]:
    """``exact_prefix_sums`` of x as ints n with one exponent g: n * 2**g."""
    ends = np.asarray(ends, dtype=np.intp)
    last = int(ends[-1]) if ends.size else 0
    bounds = np.sort(np.concatenate((ends, np.arange(0, last, _CHUNK))))
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]  # every end and chunk start, once
    out, parts = (np.empty(min(last, _CHUNK)), np.empty(min(last, _CHUNK))), []
    for a in range(0, last, _CHUNK):
        c = x[a : min(a + _CHUNK, last)]
        i, j = bounds.searchsorted([a, a + c.size])
        rows, g = _slices(c, 37, bounds[i:j] - a, [o[: c.size] for o in out])
        segments = zip(*(row.tolist() for row in rows))  # each segment's sum in every row
        parts += [(sum(int(v) << 37 * k for k, v in enumerate(seg)), g) for seg in segments]
    low = min((g for _, g in parts), default=0)
    sums = [0, *itertools.accumulate(n << (g - low) for n, g in parts)]
    return [sums[k] for k in bounds.searchsorted(ends).tolist()], low


class Block:
    """One streamed block: ``values`` holds f(lo..hi), ``start`` is the exact
    S(lo - 1) and ``base`` the same rounded by ``rounded``.

    ``dtype`` is float64, or for integers int64, or object (Python ints)
    where |f|**2 * size or |S| could leave int64; real values must be finite.
    ``total`` is the block's exact sum, computed on first use unless
    ``sums_at`` got it along the way.
    """

    def __init__(self, lo: int, values: np.ndarray, start, exact: bool):
        self.dtype = np.float64
        if exact:
            if values.dtype.kind == "f":
                # magnitude first: the cast of a value beyond int64 would wrap
                if not (max(values.max(), -values.min()) <= 2**53
                        and np.array_equal(ints := values.astype(np.int64), values)):
                    raise NumericError(f"f({lo}..{lo + values.size - 1}) of an integer-valued "
                                       "sequence holds a non-integer or a value beyond 2**53")
                values = ints
            peak = max(int(values.max()), -int(values.min()))
            fits = peak * peak * values.size < 2**63 and abs(start) + peak * values.size < 2**63
            self.dtype = np.int64 if fits else object
            values = values if self.dtype is np.int64 else values.astype(object)
        elif not np.isfinite(values).all():
            raise NumericError(f"a sum through f({lo}..{lo + values.size - 1}) is not finite")
        self.lo, self.hi = lo, lo + values.size - 1
        self.values, self.exact = values, exact
        self.start, self.base = start, self.rounded(start)

    def rounded(self, total):
        """An exact sum as an int for integer blocks, else correctly rounded
        to a finite float."""
        where = f"a sum through f({self.lo}..{self.hi})"
        return int(total) if self.exact else as_float(total, where)

    @cached_property
    def total(self):
        """The block's exact sum: an int for integers, else a Fraction."""
        if self.exact:
            return int(self.values.sum(dtype=self.dtype))
        return exact_prefix_sums(self.values, [self.values.size])[0]

    def dots(self, x: np.ndarray, spans) -> list:
        """Exact sums of x[a : b + 1] * x[a + h : b + h + 1] (0 where b < a)
        for the (a, b, h) of ``spans``, x raw values of this block's kind, as
        ints or Fractions: np.dot of the row pairs of each window of x, cast
        (one row) or ``_slices`` once for all spans."""
        near = max((h for _, _, h in spans if h <= _DOT_CHUNK), default=0)
        far = sorted({h for _, _, h in spans if h > _DOT_CHUNK})  # each reads _DOT_CHUNK values
        totals = [0 if self.exact else Fraction(0)] * len(spans)
        for k in range(0, max(b for _, b, _ in spans) + 1, _DOT_CHUNK):  # windows with pairs
            parts = [x[k : k + _DOT_CHUNK + near], *(x[k + h : k + h + _DOT_CHUNK] for h in far)]
            at = dict(zip(far, np.cumsum([p.size for p in parts]).tolist()))  # far starts in w
            w = np.concatenate(parts) if far else parts[0]
            rows, g = _slices(w, 18) if not self.exact else (
                [w.astype(np.result_type(w, self.dtype), copy=False)], 0)
            for i, (a, b, h) in enumerate(spans):
                a, b = max(a - k, 0), max(a - k, 0, min(b - k + 1, _DOT_CHUNK))  # pairs a..b-1
                y = a + at.get(h, h)
                num = sum(int(np.dot(p[a:b], q[y : y + b - a])) << 18 * (j + m)
                          for j, p in enumerate(rows) for m, q in enumerate(rows))
                totals[i] += num if self.exact else _fraction(num, 2 * g)
        return totals

    def sums_at(self, ns: np.ndarray, *, rounded: bool = False) -> tuple[np.ndarray, list]:
        """The n of the increasing ``ns`` that fall in this block, and S(n)
        at each: exact, or with ``rounded`` as ``rounded`` gives it.  For
        reals one pass also yields ``total``, and every S(n) is an integer
        over one power of two, so rounding it needs no Fraction."""
        hits = ns[(ns >= self.lo) & (ns <= self.hi)]
        if not hits.size:
            return hits, []
        if self.exact:  # sums of the segments between hits, not a block-long cumsum
            ends = hits - self.lo + 1
            segments = np.add.reduceat(self.values[: ends[-1]], np.concatenate(([0], ends[:-1])),
                                       dtype=self.dtype)
            return hits, (self.base + np.cumsum(segments, dtype=self.dtype)).tolist()
        nums, exp = _prefix_sums(self.values, [*(hits - self.lo + 1), self.values.size])
        self.__dict__.setdefault("total", _fraction(nums.pop(), exp))  # fills the cached_property
        start = Fraction(self.start)
        shift = max(-exp, start.denominator.bit_length() - 1)  # S(n) = nums[i] / 2**shift
        base = start.numerator << (shift + 1 - start.denominator.bit_length())
        nums = [base + (n << (shift + exp)) for n in nums]
        if rounded:
            where = f"a sum through f({self.lo}..{self.hi})"
            return hits, [as_float(n, where, 1 << shift) for n in nums]
        return hits, [Fraction(n, 1 << shift) for n in nums]


def stream(seq: ArithmeticSequence, ns, probes) -> np.ndarray:
    """Walk f(1..n) once, for n the last of the increasing ``ns`` (or the
    one n), in blocks of ``sieve.DEFAULT_BLOCK_SIZE`` entries, handing each
    ``Block`` to every probe's ``add(block)`` in block order, and return
    S(n) at each n, each the exact sum rounded once: int64 (object past
    int64) for integer sequences, else float64.
    """
    ns = np.atleast_1d(ns)
    last = int(ns[-1])
    if last > seq.bound:  # before any block, not when the stream gets there
        raise BoundError(f"index {last} exceeds the sequence bound {seq.bound}")
    size = sieve.DEFAULT_BLOCK_SIZE  # read per call, so the tests can patch it
    total, sums = 0, []  # total exact: an int, or a Fraction once a real block is added
    # A probe with a passed(m) hears, between blocks and after the last, with
    # no block alive, that f(1..m) has been added.
    hooks = [probe.passed for probe in probes if hasattr(probe, "passed")]
    for lo in range(1, last + 1, size):
        block = None  # one block alive at a time: drop it before the next is built
        for passed in hooks:
            passed(lo - 1)
        block = Block(lo, seq.values(lo, min(lo + size - 1, last)), total, seq.integer_valued)
        for probe in probes:
            probe.add(block)
        sums += block.sums_at(ns[:-1], rounded=True)[1]
        total += block.total
    sums.append(block.rounded(total))  # S(last) from the total: no cumsum of the last block
    block = None
    for passed in hooks:
        passed(last)
    out = np.asarray(sums)
    if seq.integer_valued and out.dtype != np.int64:  # ints past int64 may become floats
        out = np.array(sums, dtype=object)
    return out


def summatory_trace(seq: ArithmeticSequence, N: int, checkpoints=None) -> SummatoryTrace:
    """S(n) at every checkpoint: streamed once, or for a sequence with a
    hyperbola rule, from a streamed table of S(1..L) and that rule above
    it, where ``sublinear.table_limit`` finds that cheaper.

    The checkpoints must not exceed N and default to geometric ratio 2
    from 10.  Neither the blocking nor the choice of L changes the result.
    """
    reach = SUBLINEAR_BOUND if seq.hyperbola else seq.bound
    if N > reach:
        raise BoundError(f"N={N} exceeds the sequence bound {reach}")
    cps = validate_checkpoints(checkpoints, N)
    if seq.hyperbola:
        from . import sublinear  # only sums of mu and lambda need it

        limit = sublinear.table_limit(cps)
        if limit < cps[-1]:
            return SummatoryTrace(cps, np.array(sublinear.sums(seq, cps.tolist(), limit)), seq.name)
    return SummatoryTrace(cps, stream(seq, cps, []), seq.name)


def mertens_trace(N: int, checkpoints=None) -> SummatoryTrace:
    """M(n) = sum_{k<=n} mu(k) at each checkpoint, exactly."""
    return summatory_trace(mobius_sequence(N), N, checkpoints)


def liouville_trace(N: int, checkpoints=None) -> SummatoryTrace:
    """L(n) = sum_{k<=n} lambda(k) at each checkpoint, exactly."""
    return summatory_trace(liouville_sequence(N), N, checkpoints)


def weighted_mobius_trace(N: int, checkpoints=None) -> SummatoryTrace:
    """sum_{k<=n} mu(k)/k at each checkpoint, correctly rounded."""
    return summatory_trace(weighted_mobius_sequence(N), N, checkpoints)


def write_trace_csv(trace: SummatoryTrace, out: TextIO) -> None:
    """Write a trace as CSV with header ``n,S`` and LF line endings: exact
    integers without exponent, floats with 17 significant digits."""
    out.write("n,S\n")
    for n, v in zip(trace.checkpoints.tolist(), trace.values.tolist()):  # ints or floats
        out.write(f"{n},{format(v, '.17g') if isinstance(v, float) else v}\n")
