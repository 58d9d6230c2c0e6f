"""Checkpointed summatory traces S(n) = sum_{k<=n} f(k), and the one
streaming engine every statistic in the package runs on.

``stream`` walks f(1..last) once in blocks, returns S(n) at the
checkpoints it is given, and hands each block, in order, to a list of
probes: strided samples for the KS statistics (an anchor S(c) plus a
cumsum after c, for integers and reals alike) and lag products (lag 0
gives the variance) in ``empirical``.  It keeps the running sum S(lo - 1)
once, exactly.  A ``Block`` has one exact rule for sums and one for sums
of products (``Block.dots``): integers as int64 (or Python ints where
int64 could wrap), reals through ``exact_prefix_sums``: levels that float
adds sum exactly (Rump, Ogita & Oishi 2008), or binning by exponent, which
products enter as Dekker's two-product, split a window at a time.  So
every S(n) at a checkpoint is the exact sum, rounded once: correctly
rounded at every block size.  A sum that is not finite raises NumericError.
"""

from __future__ import annotations

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


# Bins of one bincount call in exact_prefix_sums: bounds its memory when
# many prefixes end inside one array.
_MAX_BINS = 1 << 16
_LANES = 8
_GROUP = 8


def _fraction(num: int, exp: int) -> Fraction:
    return Fraction(num << exp) if exp >= 0 else Fraction(num, 1 << -exp)


def exact_prefix_sums(x: np.ndarray, ends) -> list[Fraction]:
    """The exact sum of x[:e] for each e of ``ends`` (nondecreasing), for
    finite float64 x.

    It peels x in levels (Rump, Ogita & Oishi 2008, ExtractVector): for
    the rest r of x and sigma = 2**s >= (n + 2) * max|r|, q = (r + sigma) -
    sigma is exact and on the grid 2**(s - 53), and r - q is within half a
    step.  A sum of q's is a whole number of steps below 2**53, so float
    adds (``np.add.reduceat``) are exact.  A level moves the grid down by
    53 - log2(n + 2) bits.  An x that _LEVELS levels do not exhaust, or whose
    sigma could overflow, goes whole to ``_binned_sums`` (at most 2**26 terms).
    """
    nums, exp = _peeled_sums(x, ends)
    return [_fraction(n, exp) for n in nums]


_LEVELS, _CHUNK = 3, 1 << 15  # _peeled_sums: levels, and terms per pass (kept in cache)


def _peeled_sums(x: np.ndarray, ends) -> tuple[list[int], int]:
    """``exact_prefix_sums`` of x as ints n with one exponent e: n * 2**e."""
    ends = np.asarray(ends, dtype=np.intp)
    last = int(ends[-1]) if ends.size else 0
    x = x[:last]
    steps = (last + 1).bit_length()  # ceil(log2(n + 2))
    peak = max(x.max(initial=0.0), -x.min(initial=0.0))
    if peak >= 2.0 ** (1000 - steps):  # sigma could overflow
        return _binned_sums(*np.frexp(x), ends)
    # Level k peels on the grid 2**(s[k] - 53) and leaves a rest below 2**(s[k + 1] - steps).
    s = (math.frexp(peak)[1] + steps) - (53 - steps) * np.arange(_LEVELS)
    sigmas = np.ldexp(1.0, s).tolist()
    bounds = np.sort(np.concatenate((ends, np.arange(0, last, _CHUNK))))
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]  # every end and chunk boundary, once
    sums = np.zeros((_LEVELS, bounds.size))  # per level, the segment sum ending at each bound
    r, q, depth = np.empty(min(last, _CHUNK)), np.empty(min(last, _CHUNK)), 1
    for a in range(0, last, _CHUNK):
        i, j = bounds.searchsorted([a, min(a + _CHUNK, last)])
        xc, rc, qc = x[a : a + _CHUNK], r[: min(_CHUNK, last - a)], q[: min(_CHUNK, last - a)]
        for k, sigma in enumerate(sigmas):
            np.add(xc, sigma, out=qc)
            qc -= sigma
            xc = np.subtract(xc, qc, out=rc)
            sums[k, i + 1 : j + 1] = np.add.reduceat(qc, bounds[i:j] - a)
            if not rc.any():
                break
        else:  # a wide span: binning alone is exact and cheaper than peeling and binning
            return _binned_sums(*np.frexp(x), ends)
        depth = max(depth, k + 1)
    ints = np.ldexp(np.cumsum(sums[:depth], axis=1), 53 - s[:depth, None]).astype(np.int64)
    exp = int(s[depth - 1]) - 53
    return sum(np.array(n[bounds.searchsorted(ends)], dtype=object) << int(e - 53 - exp)
               for n, e in zip(ints, s)).tolist(), exp


def _binned_sums(mant: np.ndarray, ex: np.ndarray, ends) -> tuple[list[int], int]:
    """``exact_prefix_sums`` of the terms mant * 2**ex, for mant a multiple
    of 2**-53 below 1 in magnitude, as ``np.frexp`` gives, as integers n
    with the one exponent e of n * 2**e; overwrites mant."""
    if mant.size > 2**26:
        raise ValueError(f"exact_prefix_sums takes at most 2**26 terms, got {mant.size}")
    mant *= 2.0**26
    hi = np.floor(mant)
    lo = np.subtract(mant, hi, out=mant)
    lo *= 2.0**27
    e0 = int(ex.min(initial=0))
    width = int(ex.max(initial=0)) - e0 + 1
    # Bin of each term within its segment: exponent, then one of _LANES
    # lanes, so that a run of equal exponents does not chain its adds.
    ex = np.subtract(ex, e0, dtype=np.intp)
    ex *= _LANES
    ex[: mant.size // _LANES * _LANES].reshape(-1, _LANES)[...] += np.arange(_LANES)
    ends = np.asarray(ends, dtype=np.intp)
    sums, carry, start = [], np.zeros((2, 1, width)), 0
    step = max(1, _MAX_BINS // (width * _LANES))  # segments per bincount
    for k in range(0, ends.size, step):
        cut = ends[k : k + step]
        idx = ex[start : cut[-1]]
        if cut.size > 1:  # segment j holds the terms before cut[j] and from cut[j - 1]
            offsets = np.arange(cut.size) * (width * _LANES)
            idx = idx + np.repeat(offsets, np.diff(cut, prepend=start))
        bins = np.stack([np.bincount(idx, w[start : cut[-1]], minlength=cut.size * width * _LANES)
                         for w in (hi, lo)]).reshape(2, cut.size, width, _LANES).sum(axis=3)
        bins = np.cumsum(bins, axis=1) + carry  # prefix sums: still integers below 2**53
        carry, start = bins[:, -1:], cut[-1]
        # Column j of a row weighs 2**(e0 + j - 53): hi lands 27 columns above
        # lo, and _GROUP adjacent columns fold into one int64 (below 2**62).
        cols = np.zeros((cut.size, -(-(width + 27) // _GROUP) * _GROUP), dtype=np.int64)
        cols[:, 27 : 27 + width] = bins[0]
        cols[:, :width] += bins[1].astype(np.int64)
        cols = (cols.reshape(cut.size, -1, _GROUP) << np.arange(_GROUP)).sum(axis=2)
        used = np.flatnonzero(cols.any(axis=0))
        scales = np.array([1 << (_GROUP * g) for g in used.tolist()], dtype=object)
        sums += (cols[:, used].astype(object) * scales).sum(axis=1).tolist()
    return sums, e0 - 53


# Veltkamp's splitting factor 2**27 + 1: it cuts a float64 mantissa into
# two halves of at most 26 bits, whose products are exact (Dekker 1971).
_VELTKAMP = 134217729.0
_DOT_CHUNK = 1 << 15  # pairs per window of Block.dots: one window's rows live at a time


def _split(x: np.ndarray) -> np.ndarray:
    """Rows (mantissa, its high and low halves, exponent) of float64 x."""
    mant, hi, lo, ex = out = np.empty((4, x.size))
    mant[...], ex[...] = np.frexp(x)
    np.multiply(mant, _VELTKAMP, out=hi)  # Veltkamp's split: hi keeps the top 26 bits
    hi -= hi - mant
    np.subtract(mant, hi, out=lo)
    return out


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
                if not (np.max(np.abs(values)) <= 2**53 and np.all(values == np.round(values))):
                    raise NumericError(f"f({lo}..{lo + values.size - 1}) of an integer-valued "
                                       "sequence holds a non-integer or a value beyond 2**53")
                values = values.astype(np.int64)
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
        for the (a, b, h) of ``spans``, x raw values of this block's kind:
        ints (int64 or object products), else Fractions.  Windows of x,
        _DOT_CHUNK + max h values, are cast or ``_split`` once for all spans.
        Each product of mantissas is p + e exactly (Dekker's two-product),
        binned with the exponents added back: none underflows or overflows."""
        reach = max(h for _, _, h in spans)
        totals = [0 if self.exact else Fraction(0)] * len(spans)
        for k in range(0, x.size, _DOT_CHUNK):
            w = x[k : k + _DOT_CHUNK + reach]
            w = w.astype(np.result_type(w, self.dtype), copy=False) if self.exact else _split(w)
            for i, (a, b, h) in enumerate(spans):
                a, b = max(a - k, 0), min(b - k + 1, _DOT_CHUNK)  # the span's pairs in w: a..b-1
                if a < b and self.exact:
                    totals[i] += int((w[a:b] * w[a + h : b + h]).sum())
                elif a < b:
                    (xm, xh, xl, xe), (ym, yh, yl, ye) = w[:, a:b], w[:, a + h : b + h]
                    p = xm * ym
                    mant, ex = np.frexp(np.concatenate((p, ((xh * yh - p) + xh * yl + xl * yh)
                                                        + xl * yl)))
                    ex += np.tile((xe + ye).astype(ex.dtype), 2)
                    (num,), exp = _binned_sums(mant, ex, [mant.size])
                    totals[i] += _fraction(num, exp)
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
        nums, exp = _peeled_sums(self.values, [*(hits - self.lo + 1), self.values.size])
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


# The cell of the real partial sums in a ``Strided`` sample (an integer
# block is its own), and the most float64 points one probe may hold (1 GiB).
RUN_CELL = sieve.DEFAULT_BLOCK_SIZE
_SAMPLE_BUDGET = 1 << 27

# The samples a command feeds to the KS statistic are strided down to this size.
KS_SAMPLE_CAP = 10**6


class Strided:
    """Probe: S(k), or f(k) with ``sums=False``, at k = s, 2s, ... <= n for
    each n of an increasing schedule ``ns`` (or one n), with the stride
    s = ceil(n / cap), so at most cap points for each n.

    The sample of n is a prefix of the sample of the largest n of the same
    stride, so each stride has one array, and ``sample(n)`` is a view of
    it.  S(k) is the rounded S(c), for c the last multiple of RUN_CELL
    (for integers, or block start) below k, plus the cumsum of f(c+1..k):
    exact for integers, and for reals at the default block size the
    block's base plus its float cumsum, the same at every block size.
    """

    def __init__(self, ns, cap: int, *, sums: bool = True, finish=None):
        self._ns = {}  # stride -> its n, increasing
        for n in np.atleast_1d(ns).tolist():
            self._ns.setdefault(-(-n // cap), []).append(n)
        points = sum(ns[-1] // s for s, ns in self._ns.items())
        if points > _SAMPLE_BUDGET:
            raise CapacityError(f"strided samples of {points} points exceed the budget of "
                                f"{_SAMPLE_BUDGET} float64 points")
        self.cap, self.sums, self.finish = cap, sums, finish
        self._arrays = {s: np.empty(ns[-1] // s, dtype=np.float64) for s, ns in self._ns.items()}
        self._cell = None  # the open cell's anchor S(c) and cumsum after c

    def sample(self, n: int) -> np.ndarray:
        """S(k), or f(k), at k = s, 2s, ... <= n: a view of its stride's array."""
        s = -(-n // self.cap)
        return self._arrays[s][: n // s]

    # With a finisher, a stride is done once the stream has passed its largest
    # n: ``finish`` gets {n: sample(n)} over that stride's n, increasing, and
    # then the stride's array is freed.
    def passed(self, n: int) -> None:
        for s in [s for s, ns in self._ns.items() if ns[-1] <= n] if self.finish else ():
            self.finish({m: self.sample(m) for m in self._ns.pop(s)})
            del self._arrays[s]

    @np.errstate(over="ignore")  # a float sum past DBL_MAX: the KS statistic refuses it
    def add(self, block: Block) -> None:
        pieces = (self._runs(block) if self.sums else
                  [(block.lo, block.hi, block.values.__getitem__)])
        for lo, hi, pick in pieces:  # pick maps a slice of k - lo to the values at those k
            for s, out in self._arrays.items():
                first = -(-lo // s) * s
                upper = min(hi, out.size * s)
                if first <= upper:
                    out[first // s - 1 : upper // s] = pick(slice(first - lo, upper - lo + 1, s))

    def _runs(self, block: Block):
        """S(k) over a block by the cell rule, a chunk at a time in one
        chunk-sized buffer of its dtype, as ``add``'s pieces (lo, hi, pick)."""
        if block.exact or (block.lo - 1) % RUN_CELL == 0:  # an exact sum may open any cell
            self._cell = (block.base, 0)
        anchor, acc = self._cell
        cells = np.arange(-(-block.lo // RUN_CELL) * RUN_CELL, block.hi, RUN_CELL)  # cell ends
        anchors = [anchor, *block.sums_at(cells, rounded=True)[1]]
        bounds = [0, *(cells - block.lo + 1).tolist(), block.values.size]
        buf = np.empty(min(_CHUNK, block.values.size), dtype=block.dtype)
        for anchor, a, b in zip(anchors, bounds, bounds[1:]):
            for c in range(a, b, _CHUNK):
                run = buf[: min(_CHUNK, b - c)]
                run[...] = block.values[c : c + run.size]
                run[0] += acc
                acc = np.cumsum(run, out=run)[-1]
                self._cell = (anchor, acc)
                yield block.lo + c, block.lo + c + run.size - 1, lambda sl: run[sl] + anchor
            acc = 0


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
