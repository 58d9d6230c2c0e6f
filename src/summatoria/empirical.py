"""Statistics of arithmetic sequences under the uniform measure on {1..n}.

Restricting a sequence to {1..n} and weighting every point by 1/n turns
it into a random variable.  Its mean, population variance and lagged
correlations, which quantify asymptotic independence, come from one
probe of ``traces.stream``, ``LagCorrelations``: exact sums of products
(``Block.dots``, sliced a window at a time) rounded once, lag 0 being the
variance, so ``analyze`` gets all of them from one pass.  The other
probe, ``KSTrace``, strides S(k) or f(k) in the same pass and gives the
KS distance D(n) of each sample to the normal law, from its empirical CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sieve
from .errors import CapacityError, DegenerateSampleError, NumericError
from .sequences import ArithmeticSequence
from .traces import _CHUNK, Block, as_float, stream

# 1% critical coefficient for the one-sample KS statistic: D ~ c / sqrt(n).
KS_CRITICAL_1PCT = 1.63


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A sorted sample (its empirical CDF) with its population moments."""

    sample: np.ndarray
    n: int
    mean: float
    variance: float


def empirical_cdf(values) -> EmpiricalDistribution:
    """Package a sorted copy of a sample with its mean and population
    variance, by numpy's own ``_mean`` and ``_var`` arithmetic with the
    mean formed once: the same bits as ``np.mean`` and ``np.var``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample must be a nonempty 1-D array")
    return _sorted_cdf(np.sort(arr))


def _sorted_cdf(sample: np.ndarray) -> EmpiricalDistribution:
    """``empirical_cdf`` of a sorted nonempty float64 sample, which it holds."""
    with np.errstate(over="ignore", invalid="ignore"):  # ks_distance refuses inf and nan
        mean = float(np.add.reduce(sample)) / sample.size
        x = sample - mean
        x *= x
        variance = float(np.add.reduce(x)) / sample.size
    return EmpiricalDistribution(sample, sample.size, mean, variance)


# Cody's rational Chebyshev approximations (Math. Comp. 23, 1969) in the
# form of the Cephes library's ndtr.c: erf(x) = x T(x^2) / U(x^2) for
# |x| < 1, erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and
# exp(-x^2) R(x) / S(x) above.  Q, S and U have an implied leading 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 0.7071067811865476
# Cephes erfc returns 0 once x*x > log(DBL_MAX) = 709.78...; this is the
# largest double whose square is not above it.
_ERFC_CUT = 26.641747557046326
# ks_distance's grid step, and its slack: far above the largest decrease of
# _normal_cdf_sorted, which tests/test_empirical.py measures.
_KS_GRID = 1024
_KS_SLACK = 1e-12
# A variance this far above the subnormal range lost no bits to squares that
# underflow: z is then the same as from the sample scaled by a power of two.
_KS_TINY = 2.0**-960


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Horner's rule in the order of Cephes polevl, or p1evl when monic."""
    y = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) = x T(x*x) / U(x*x) for |x| < 1."""
    if x.size == 0:  # a branch that no point falls in
        return x
    z = x * x
    y = x * _polevl(z, _ERF_T)
    y /= _polevl(z, _ERF_U, monic=True)
    return y


def _erfc(x: np.ndarray, num, den) -> np.ndarray:
    """erfc(x) = exp(-x*x) num(x) / den(x) for x >= 1."""
    if x.size == 0:
        return x
    y = x * x
    np.negative(y, out=y)
    np.exp(y, out=y)
    y *= _polevl(x, num)
    y /= _polevl(x, den, monic=True)
    return y


def _normal_cdf_sorted(a: np.ndarray) -> np.ndarray:
    """Phi(a) of a sorted float64 array, by the branches of Cephes ndtr.

    With x = a sqrt(1/2), Phi(a) is 0.5 + 0.5 erf(x) for |x| < sqrt(1/2),
    else 0.5 erfc(|x|), taken from 1 when x > 0.  Because a is sorted,
    each branch is one contiguous slice, found by binary search, so no
    branch needs a mask.  The result agrees with scipy.special.ndtr to a
    few ulps: the two differ only where numpy's exp differs from libm's.
    """
    x = a * _SQRT1_2
    lo0 = np.searchsorted(x, -_ERFC_CUT)
    lo8, lo1, mid0 = np.searchsorted(x, (-8.0, -1.0, -_SQRT1_2), "right")
    mid1, hi1, hi8 = np.searchsorted(x, (_SQRT1_2, 1.0, 8.0))
    hi0, nan = np.searchsorted(x, (_ERFC_CUT, np.inf), "right")  # NaNs sort last, stay NaN
    x[mid0:mid1] = _erf(x[mid0:mid1])
    x[mid0:mid1] *= 0.5
    x[mid0:mid1] += 0.5
    # Below mid0 and from mid1 on, x becomes erfc(|x|), then Phi.
    neg, pos = x[:mid0], x[mid1:nan]
    np.negative(neg, out=neg)
    for lo, hi in ((lo1, mid0), (mid1, hi1)):
        x[lo:hi] = 1.0 - _erf(x[lo:hi])
    for lo, hi, num, den in ((lo0, lo8, _ERFC_R, _ERFC_S), (lo8, lo1, _ERFC_P, _ERFC_Q),
                             (hi1, hi8, _ERFC_P, _ERFC_Q), (hi8, hi0, _ERFC_R, _ERFC_S)):
        x[lo:hi] = _erfc(x[lo:hi], num, den)
    x[:lo0] = 0.0
    x[hi0:nan] = 0.0
    neg *= 0.5
    pos *= 0.5
    np.subtract(1.0, pos, out=pos)
    return x


def ks_distance(dist: EmpiricalDistribution) -> float:
    """Kolmogorov-Smirnov distance between a sample, standardized by its
    own mean and standard deviation, and the standard normal law; the
    supremum accounts for both sides of each jump of the empirical CDF.

    D is one max over the gaps at every ``_KS_GRID``-th sorted point (and
    the last) and in the runs between grid points a < b that can hold it:
    z, Phi and i/n rise, so no gap strictly inside a..b is above
    b/n - Phi(z_a) or Phi(z_b) - (a+1)/n, give or take Phi's ulp-level dips
    at its branch cuts (``_KS_SLACK``).  Each gap is the elementwise
    expression of a full evaluation and max is exact, so D has the full
    evaluation's bytes.

    z is that of the sample scaled by 2**k, k = -frexp(max|x|)[1]: from
    ``dist``'s moments unless their squares underflowed or overflowed, else
    from a scaled copy.
    """
    if not (math.isfinite(dist.mean) and _KS_TINY <= dist.variance < math.inf):
        dist = empirical_cdf(np.ldexp(dist.sample, -math.frexp(max(-dist.sample[0],
                                                                  dist.sample[-1]))[1]))
    if not (math.isfinite(dist.mean) and math.isfinite(dist.variance)):
        raise NumericError("the mean or variance of the KS sample is not finite")
    if dist.variance <= 0.0:
        raise DegenerateSampleError("sample variance is zero; cannot standardize "
                                    "for the normal reference")
    n, sd = dist.n, math.sqrt(dist.variance)

    def gaps(i):
        """Phi at the sorted points i, and the largest gap beside their jumps."""
        z = dist.sample[i] - dist.mean
        z /= sd  # increasing, so z stays sorted
        ref = _normal_cdf_sorted(z)
        # Without abs: rounded, (i+1)/n - r >= i/n - r and r - i/n = -(i/n - r),
        # so at each point the larger gap is (i+1)/n - r or r - i/n.
        return ref, max(np.max((i + 1) / n - ref), np.max(ref - i / n))

    grid = np.append(np.arange(0, n - 1, _KS_GRID), n - 1)
    ref, best = gaps(grid)
    lo, hi = grid[:-1] + 1, grid[1:]  # the run lo..hi-1 lies strictly between grid points
    keep = np.maximum(hi / n - ref[:-1], ref[1:] - lo / n) + _KS_SLACK >= best
    lo, size = lo[keep], (hi - lo)[keep]
    runs = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
    return float(max(best, gaps(runs)[1]) if runs.size else best)


def ks_distances(samples: dict) -> dict:
    """{n: sample} -> {n: D}: ``ks_distance`` of the ``empirical_cdf`` of
    each sample, nan where a sample is degenerate.  Each sample, a float64
    array, is sorted in place: increasing prefixes of one array, as
    ``KSTrace``'s, keep their values and so the bits of their D."""
    out = {}
    for n, sample in samples.items():
        sample.sort()
        try:
            out[n] = ks_distance(_sorted_cdf(sample))
        except DegenerateSampleError:
            out[n] = math.nan
    return out


# A KS sample has at most KS_SAMPLE_CAP points.  RUN_CELL is the cell of the
# real partial sums in a sample (an integer block is its own), and one
# probe may hold at most _SAMPLE_BUDGET float64 points (1 GiB).
KS_SAMPLE_CAP = 10**6
RUN_CELL = sieve.DEFAULT_BLOCK_SIZE
_SAMPLE_BUDGET = 1 << 27


class KSTrace:
    """Probe: ``distances[n]``, the ``ks_distances`` D of S(k), or of f(k)
    with ``sums=False``, at k = s, 2s, ... <= n for each n of an increasing
    schedule ``ns`` (or one n), with the stride s = ceil(n / KS_SAMPLE_CAP).

    The sample of n is a prefix of the sample of the largest n of the same
    stride, so each stride has one array.  Once the stream has passed that
    n, ``distances`` gets D for every n of the stride, in increasing order,
    from its prefixes sorted in place, and the array is freed.  S(k) is the
    rounded S(c), for c the last multiple of RUN_CELL (for integers, or
    block start) below k, plus the cumsum of f(c+1..k): exact for integers,
    and for reals at the default block size the block's base plus its float
    cumsum, the same at every block size.
    """

    def __init__(self, ns, *, sums: bool = True):
        self._ns = {}  # stride -> its n, increasing
        for n in np.atleast_1d(ns).tolist():
            self._ns.setdefault(-(-n // KS_SAMPLE_CAP), []).append(n)
        points = sum(ns[-1] // s for s, ns in self._ns.items())
        if points > _SAMPLE_BUDGET:
            raise CapacityError(f"strided samples of {points} points exceed the budget of "
                                f"{_SAMPLE_BUDGET} float64 points")
        self.sums, self.distances = sums, {}
        self._arrays = {s: np.empty(ns[-1] // s, dtype=np.float64) for s, ns in self._ns.items()}
        self._cell = None  # the open cell's anchor S(c) and cumsum after c

    def passed(self, n: int) -> None:
        for s in [s for s, ns in self._ns.items() if ns[-1] <= n]:
            self.distances.update(ks_distances({m: self._arrays[s][: m // s]
                                                for m in self._ns.pop(s)}))
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


class LagCorrelations:
    """Probe: rho(n, h) of ``independence_estimator`` for each lag h >= 0,
    the mean S(n)/n and the least and largest f(k), k <= n (``low`` and
    ``high``); the stream must reach n + max(lags).  rho(n, 0) is the
    population variance.

    Each block's sums of f(k) f(k+h), k + h in the block, are exact
    ``Block.dots`` calls, a span per lag: the pairs from before the block
    over the raw last max(lags) values carried across block boundaries and
    the block's first max(lags), the rest over the block in place; all
    merged exactly.  The plain sums come from the exact S at h, n and n + h.
    """

    def __init__(self, n: int, lags):
        self.n, self.lags = n, tuple(lags)
        self.points = np.array(sorted({n, *self.lags, *(n + h for h in self.lags)}))
        self.sums = {0: 0}  # exact S(k) at the points the stream has passed
        self.products = dict.fromkeys(self.lags, 0)
        self.tail = np.empty(0, np.int8)  # the last max(lags) raw f(k); int8 takes any dtype
        self.low, self.high = math.inf, -math.inf

    def add(self, block: Block) -> None:
        hits, sums = block.sums_at(self.points)
        self.sums.update(zip(hits.tolist(), sums))
        if block.lo <= self.n:
            head = block.values[: self.n - block.lo + 1]
            self.low, self.high = min(self.low, head.min()), max(self.high, head.max())
        reach, tail, values = max(self.lags), self.tail, block.values
        x = np.concatenate((tail, values[:reach]))  # x[0] holds f(lo - tail.size)
        lo, hi, start = block.lo, block.hi, block.lo - tail.size
        lags = list(self.products)  # each lag once, though it may be listed twice
        before = block.dots(x, [(max(1, lo - h) - start, min(self.n, hi - h, lo - 1) - start, h)
                                for h in lags])
        inside = block.dots(values, [(0, min(self.n, hi - h) - lo, h) for h in lags])
        self.products = {h: self.products[h] + a + b for h, a, b in zip(lags, before, inside)}
        self.tail = np.concatenate((tail[max(0, tail.size + values.size - reach) :],
                                    values[max(0, values.size - reach) :]))

    def mean(self) -> float:
        """S(n)/n, rounded once."""
        return as_float(Fraction(self.sums[self.n], self.n), "the mean")

    def result(self) -> list[float]:
        """rho(n, h) for each lag, rounded once from the exact
        n**2 rho = n P - S(n) (S(n+h) - S(h)), P the sum of f(k) f(k+h)."""
        n, S = self.n, self.sums
        return [as_float(Fraction(n * self.products[h] - S[n] * (S[n + h] - S[h]), n * n),
                         f"rho at lag {h}" if h else "the variance") for h in self.lags]


def independence_estimator(seq: ArithmeticSequence, n: int, h: int) -> float:
    """Lag-h correlation gap over {1..n}:

        rho(n, h) = mean(f(k) f(k+h)) - mean(f(k)) mean(f(k+h)),

    all means over k <= n.  Values near zero across growing n are
    evidence that terms at distinct arguments decouple on average.
    """
    if n < 1 or h < 1:
        raise ValueError(f"n and h must be positive, got n={n}, h={h}")
    probe = LagCorrelations(n, [h])
    stream(seq, n + h, [probe])
    return probe.result()[0]
