"""Statistics of arithmetic sequences under the uniform measure on {1..n}.

Restricting a sequence to {1..n} and weighting every point by 1/n turns
it into a random variable; these helpers compute its mean, population
variance, empirical CDF, Kolmogorov-Smirnov distance to a reference law,
and a lagged correlation that quantifies asymptotic independence.  The
moments and lag correlations are probes of ``traces.stream``, so
``analyze`` gets all of them from one pass, summed by ``Block.sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BoundError, DegenerateSampleError
from .sequences import ArithmeticSequence
from .traces import Block, as_float, stream

STANDARD_NORMAL = "standard-normal"
UNIFORM_01 = "uniform(0,1)"

# 1% critical coefficient for the one-sample KS statistic: D ~ c / sqrt(n).
KS_CRITICAL_1PCT = 1.63


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A sorted sample with its empirical CDF and population moments."""

    sample: np.ndarray
    n: int
    mean: float
    variance: float

    def cdf(self, x) -> np.ndarray | float:
        """Right-continuous empirical CDF: fraction of the sample <= x."""
        out = np.searchsorted(self.sample, x, side="right") / self.n
        return float(out) if np.isscalar(x) else out


def empirical_cdf(values) -> EmpiricalDistribution:
    """Sort a sample and package it with its mean and population variance."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample must be a nonempty 1-D array")
    sample = np.sort(arr)
    return EmpiricalDistribution(
        sample=sample,
        n=int(sample.size),
        mean=float(np.mean(sample)),
        variance=float(np.var(sample)),
    )


def _check_range(seq: ArithmeticSequence, n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > seq.bound:
        raise BoundError(f"n={n} exceeds the sequence bound {seq.bound}")


def empirical_mean(seq: ArithmeticSequence, n: int) -> float:
    """Average S(n)/n of f over {1..n}, with S(n) as ``stream`` returns it."""
    _check_range(seq, n)
    return stream(seq, n, []) / n


class Moments:
    """Probe: mean and population variance of f over {1..n}.

    The mean is the exact S(n)/n, rounded once.  Integer values keep
    sum f**2 exactly.  Real values merge each block's (count, mean, M2)
    into the running M2 (Chan, Golub & LeVeque 1979), so a large common
    offset never cancels the spread.
    """

    def __init__(self, n: int):
        self.n, self.exact = n, True
        self.s = 0  # exact S(n) once the stream has passed n
        self.s2 = 0  # sum f**2 (integer values) or M2 (real values)

    def add(self, block: Block) -> None:
        m, k = min(block.hi, self.n) - block.lo + 1, block.lo - 1  # new and seen counts
        if m <= 0:
            return
        self.exact = block.exact
        x = block.values[:m].astype(block.dtype, copy=False)
        total = block.total if m == block.values.size else block.sum(x)
        self.s = block.start + total
        if block.exact:
            self.s2 += block.sum(x * x)
            return
        mean = total / m
        d = x - block.rounded(mean)
        delta = block.rounded(mean - block.start / k) if k else 0.0
        self.s2 += block.rounded(block.sum(d * d)) + delta * delta * (k * m / (k + m))

    def result(self) -> tuple[float, float]:
        n, s = self.n, self.s
        mean = as_float(Fraction(s, n), "the mean")
        if not self.exact:
            return mean, self.s2 / n
        # n**2 var = n sum f**2 - S(n)**2 is exact for integers, so var rounds once.
        return mean, as_float(Fraction(self.s2 * n - s * s, n * n), "the variance")


def empirical_moments(seq: ArithmeticSequence, n: int) -> tuple[float, float]:
    """(mean, population variance) of f over {1..n} in one streaming pass."""
    _check_range(seq, n)
    probe = Moments(n)
    stream(seq, n, [probe])
    return probe.result()


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


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Horner's rule in the order of Cephes polevl, or p1evl when monic."""
    y = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) = x T(x*x) / U(x*x) for |x| < 1."""
    z = x * x
    y = x * _polevl(z, _ERF_T)
    y /= _polevl(z, _ERF_U, monic=True)
    return y


def _erfc(x: np.ndarray, num, den) -> np.ndarray:
    """erfc(x) = exp(-x*x) num(x) / den(x) for x >= 1."""
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


def ks_distance(
    dist: EmpiricalDistribution,
    reference: str = STANDARD_NORMAL,
    *,
    standardize: bool = True,
) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference law.

    For the standard-normal reference the sample is first standardized by
    its own mean and standard deviation (disable with standardize=False
    when the sample is already on the reference scale).  The uniform(0,1)
    reference compares raw values.  The supremum accounts for both sides
    of each jump of the empirical CDF.
    """
    if reference == STANDARD_NORMAL:
        if standardize:
            if dist.variance <= 0.0:
                raise DegenerateSampleError(
                    "sample variance is zero; cannot standardize for the normal reference"
                )
            z = dist.sample - dist.mean
            z /= math.sqrt(dist.variance)  # increasing, so z stays sorted
        else:
            z = dist.sample
        ref = _normal_cdf_sorted(z)
    elif reference == UNIFORM_01:
        ref = np.clip(dist.sample, 0.0, 1.0)
    else:
        raise ValueError(f"unknown reference law {reference!r}")

    steps = np.arange(dist.n + 1) / dist.n
    # The sup of |step - ref| over both sides of each jump, without abs:
    # rounded, steps[i] - r >= steps[i-1] - r and r - steps[i-1] = -(steps[i-1] - r),
    # so at each point the larger gap is steps[i] - r or r - steps[i-1].
    above = np.max(steps[1:] - ref)
    ref -= steps[:-1]
    return float(max(above, np.max(ref)))


class LagCorrelations:
    """Probe: rho(n, h) of ``independence_estimator`` for each lag; the
    stream must reach n + max(lags).

    Each block's sums of f(k) f(k+h) are merged exactly, with the last
    max(lags) values carried across block boundaries.  The plain sums
    come from the exact S at h, n and n + h.
    """

    def __init__(self, n: int, lags):
        self.n, self.lags = n, tuple(lags)
        self.points = np.unique([n, *self.lags, *(n + h for h in self.lags)])
        self.sums = {}  # exact S(k) at the points the stream has passed
        self.products = dict.fromkeys(self.lags, 0)
        # (min, max) of f over the window [h+1, n+h]; h = 0 is the window of f(k).
        self.ranges = {h: (math.inf, -math.inf) for h in (0, *self.lags)}
        self.tail = np.empty(0, dtype=np.int8)  # last max(lags) values; int8 widens to any dtype

    def add(self, block: Block) -> None:
        hits, sums = block.sums_at(self.points)
        self.sums.update(zip(hits.tolist(), sums))
        values = block.values.astype(block.dtype, copy=False)
        ext = np.concatenate((self.tail, values))
        start = block.lo - self.tail.size  # ext[0] is f(start)
        for h, (lo, hi) in self.ranges.items():
            a, b = max(block.lo, h + 1) - start, min(block.hi, self.n + h) - start
            if a <= b:
                self.ranges[h] = (min(lo, ext[a : b + 1].min()), max(hi, ext[a : b + 1].max()))
        for h in self.lags:
            a, b = max(1, block.lo - h) - start, min(self.n, block.hi - h) - start
            if a > b:
                continue
            self.products[h] += block.sum(ext[a : b + 1] * ext[a + h : b + h + 1])
        self.tail = ext[-max(self.lags):].copy()

    def result(self) -> list[float]:
        n, S = self.n, self.sums
        out = []
        for h in self.lags:
            # n**2 rho = n P - S(n) (S(n+h) - S(h)), exact, so rho rounds once.
            # Real products are rounded before they are summed, so a constant
            # window is set to zero, as it is exactly.
            constant = any(lo == hi for lo, hi in (self.ranges[0], self.ranges[h]))
            gap = n * self.products[h] - S[n] * (S[n + h] - S[h])
            out.append(0.0 if constant else as_float(Fraction(gap, n * n), f"rho at lag {h}"))
        return out


def independence_estimator(seq: ArithmeticSequence, n: int, h: int) -> float:
    """Lag-h correlation gap over {1..n}:

        rho(n, h) = mean(f(k) f(k+h)) - mean(f(k)) mean(f(k+h)),

    all means over k <= n.  Values near zero across growing n are
    evidence that terms at distinct arguments decouple on average.
    """
    if n < 1 or h < 1:
        raise ValueError(f"n and h must be positive, got n={n}, h={h}")
    if n + h > seq.bound:
        raise BoundError(f"n + h = {n + h} exceeds the sequence bound {seq.bound}")
    probe = LagCorrelations(n, [h])
    stream(seq, n + h, [probe])
    return probe.result()[0]
