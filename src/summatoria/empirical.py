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
        # For integers (s2*n - s*s) is exact, so the single float division rounds once.
        return mean, (self.s2 * n - s * s) / n / n if self.exact else self.s2 / n


def empirical_moments(seq: ArithmeticSequence, n: int) -> tuple[float, float]:
    """(mean, population variance) of f over {1..n} in one streaming pass."""
    _check_range(seq, n)
    probe = Moments(n)
    stream(seq, n, [probe])
    return probe.result()


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
            z = (dist.sample - dist.mean) / math.sqrt(dist.variance)
        else:
            z = dist.sample
        from scipy.special import ndtr  # slow to import; compute and synth never get here
        # Phi(z) = ndtr(z), erf-based, abs error well under 1e-10.
        ref = ndtr(z)
    elif reference == UNIFORM_01:
        ref = np.clip(dist.sample, 0.0, 1.0)
    else:
        raise ValueError(f"unknown reference law {reference!r}")

    n = dist.n
    steps_hi = np.arange(1, n + 1, dtype=np.float64) / n
    steps_lo = np.arange(0, n, dtype=np.float64) / n
    d = max(np.max(np.abs(steps_hi - ref)), np.max(np.abs(steps_lo - ref)))
    return float(d)


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
