"""Remainder-class fits and combined limit-law verdicts.

The central diagnostic: given S(n) at geometric checkpoints and a
candidate limiting mean m0, the residuals r(n) = S(n) - n*m0 are
classified as decaying (o(1)), bounded (O(1)), growing, or inconclusive
from the least-squares slope of log|r| against log n plus a first-vs-last
quartile comparison that guards against oscillating residuals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .empirical import KSTrace
from .errors import BoundError, NumericError
from .sequences import ArithmeticSequence, sequence_from_function
from .traces import SummatoryTrace, stream, summatory_trace, validate_checkpoints

DECAYING = "decaying"
BOUNDED = "bounded"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"

SLOPE_THRESHOLD = 0.1
REMAINDER_FLOOR = 1e-13


@dataclass(frozen=True)
class RemainderFit:
    """A sampled residual sequence with its growth classification."""

    checkpoints: np.ndarray
    remainders: np.ndarray
    classification: str
    loglog_slope: float
    slope_stderr: float


@dataclass(frozen=True)
class LimitVerdict:
    """Combined evidence report for the normal-limit conditions.

    conditions_met reflects only the residual fits; the KS trace is
    reported as-is and never gates the verdict.
    """

    function: str
    N: int
    checkpoints: np.ndarray
    mu0_hat: float
    mean_rate: RemainderFit
    ks_trace: tuple[tuple[int, float], ...]
    conditions_met: bool
    notes: str


def _loglog_slope(cps: np.ndarray, absr: np.ndarray) -> tuple[float, float]:
    x = np.log(cps)
    y = np.log(absr)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y - y.mean()) / sxx)
    k = x.size
    if k <= 2:
        return slope, 0.0
    resid = (y - y.mean()) - slope * xc
    sigma2 = float(np.dot(resid, resid)) / (k - 2)
    return slope, math.sqrt(sigma2 / sxx)


def fit_remainders(checkpoints, remainders) -> RemainderFit:
    """Classify a residual sequence sampled at increasing checkpoints.

    Rules, in order:
      - every |r| at or below REMAINDER_FLOOR: the residual is numerically
        indistinguishable from zero everywhere, i.e. already converged;
        class is decaying with an undefined slope.
      - more than half the checkpoints at or below the floor: the fit has
        too little signal; inconclusive.
      - slope < -SLOPE_THRESHOLD and the max |r| over the last quartile is
        below the max over the first quartile: decaying.  A negative
        slope without the quartile drop (oscillating residuals such as
        Mertens passing through zero) stays inconclusive.
      - |slope| <= SLOPE_THRESHOLD: bounded.
      - slope > SLOPE_THRESHOLD: growing.
    """
    cps = validate_checkpoints(checkpoints).astype(np.float64)
    r = np.asarray(remainders, dtype=np.float64)
    if r.shape != cps.shape:
        raise ValueError("remainders and checkpoints must have equal length")
    if not np.all(np.isfinite(r)):
        raise NumericError("remainder sequence contains non-finite values")

    absr = np.abs(r)
    m = absr.size
    mask = absr > REMAINDER_FLOOR
    included = int(mask.sum())

    if included == 0:
        return RemainderFit(cps.astype(np.int64), r, DECAYING,
                            float("nan"), float("nan"))

    if included >= 2:
        slope, stderr = _loglog_slope(cps[mask], absr[mask])
    else:
        slope, stderr = float("nan"), float("nan")

    q = max(1, m // 4)
    first_max = float(absr[:q].max())
    last_max = float(absr[-q:].max())

    if 2 * (m - included) > m or included < 2:
        classification = INCONCLUSIVE
    elif slope < -SLOPE_THRESHOLD:
        classification = DECAYING if last_max < first_max else INCONCLUSIVE
    elif slope <= SLOPE_THRESHOLD:
        classification = BOUNDED
    else:
        classification = GROWING

    return RemainderFit(cps.astype(np.int64), r, classification, slope, stderr)


def _need_four_checkpoints(cps) -> None:
    if len(cps) < 4:
        raise ValueError("limit-mean estimation needs at least 4 checkpoints")


def estimate_limit_mean(trace: SummatoryTrace) -> tuple[float, float]:
    """(S(n)/n at the largest checkpoint, its drift |S(n)/n - S(n')/n'|
    from the previous checkpoint n', a stability diagnostic)."""
    _need_four_checkpoints(trace)
    n_last, n_prev = int(trace.checkpoints[-1]), int(trace.checkpoints[-2])
    value = float(trace.values[-1]) / n_last
    prev = float(trace.values[-2]) / n_prev
    return value, abs(value - prev)


def mean_rate_fit(trace: SummatoryTrace, mu0: float) -> RemainderFit:
    """Fit the residuals r(n) = S(n) - n*mu0.

    The o(1/n) condition on means, n*(S(n)/n - mu0) -> 0, involves
    exactly the same residual sequence, so one fit serves both readings.
    Checkpoint schedules should be geometric-ish (consecutive ratio
    >= 1.5); tighter spacing only triggers a warning, not an error.
    """
    cps = trace.checkpoints
    if np.any(cps[1:] / cps[:-1] < 1.5):
        warnings.warn("checkpoint spacing below geometric ratio 1.5; "
                      "log-log slope may be unreliable", stacklevel=2)
    r = trace.values.astype(np.float64) - cps.astype(np.float64) * mu0
    return fit_remainders(cps, r)


def euler_maclaurin_gap(
    fn: Callable[[np.ndarray], np.ndarray],
    N: int,
    checkpoints=None,
    *,
    antiderivative: Callable[[float], float],
) -> RemainderFit:
    """Classify r(n) = sum_{k<=n} f(k) - integral_1^n f(t) dt.

    For a bounded elementary summand this gap is O(1) but generally not
    o(1), which is exactly what separates such sums from the decaying
    residuals the limit conditions require.  The integral is
    antiderivative(n) - antiderivative(1).
    """
    cps = validate_checkpoints(checkpoints, N)
    seq = sequence_from_function(fn, N, name="elementary")
    trace = summatory_trace(seq, N, cps)
    base = antiderivative(1.0)
    integrals = np.array([antiderivative(float(n)) - base for n in cps], dtype=np.float64)
    r = trace.values.astype(np.float64) - integrals
    return fit_remainders(cps, r)


def full_verdict(seq: ArithmeticSequence, N: int, checkpoints=None) -> LimitVerdict:
    """Assemble the whole evidence report for one sequence.

    Streams the sequence once, estimates the limiting mean from the last
    checkpoint, fits the residuals S(n) - n*mu0_hat (one fit, reported
    under both the mean-rate and asymptotic-form readings, which are the
    same sequence), and attaches the KS distance of the self-standardized
    partial sums {S(k): k <= n_j} at every checkpoint.
    """
    if N > seq.bound:
        raise BoundError(f"N={N} exceeds the sequence bound {seq.bound}")
    cps = validate_checkpoints(checkpoints, N)
    _need_four_checkpoints(cps)  # before the first block
    ks = KSTrace(cps)
    trace = SummatoryTrace(cps, stream(seq, cps, [ks]), seq.name)

    mu0, drift = estimate_limit_mean(trace)
    fit = mean_rate_fit(trace, mu0)

    notes = [f"mu0 drift from previous checkpoint: {drift:.6e}"]
    ks_trace = [(n, ks.distances[n]) for n in cps.tolist()]
    degenerate = sum(math.isnan(d) for _, d in ks_trace)
    if degenerate:
        notes.append(f"{degenerate} checkpoint(s) had degenerate partial-sum samples")

    return LimitVerdict(
        function=seq.name,
        N=int(N),
        checkpoints=cps,
        mu0_hat=mu0,
        mean_rate=fit,
        ks_trace=tuple(ks_trace),
        conditions_met=bool(fit.classification == DECAYING),
        notes="; ".join(notes),
    )


def vanishing_sum_verdict(trace: SummatoryTrace, magnitude_bound: float) -> LimitVerdict:
    """Verdict for the S(n) -> 0 route: with the limiting mean pinned to
    zero, the conditions hold exactly when S(n) itself classifies as
    decaying.  Applies to sequences already known to satisfy
    |f| <= magnitude_bound; the bound is recorded, not re-derived."""
    fit = mean_rate_fit(trace, 0.0)
    notes = f"limiting mean pinned to 0; declared |f| <= {magnitude_bound:g}"
    return LimitVerdict(
        function=trace.name,
        N=int(trace.checkpoints[-1]),
        checkpoints=trace.checkpoints,
        mu0_hat=0.0,
        mean_rate=fit,
        ks_trace=(),
        conditions_met=bool(fit.classification == DECAYING),
        notes=notes,
    )


def _json_float(x: float):
    return float(x) if math.isfinite(x) else None


def _fit_json(fit: RemainderFit) -> dict:
    return {
        "class": fit.classification,
        "slope": _json_float(fit.loglog_slope),
        "stderr": _json_float(fit.slope_stderr),
    }


def verdict_to_json_dict(v: LimitVerdict) -> dict:
    """The JSON report document; key set and order are part of the format."""
    return {
        "function": v.function,
        "N": v.N,
        "checkpoints": [int(c) for c in v.checkpoints],
        "mu0_hat": _json_float(v.mu0_hat),
        "mean_rate": _fit_json(v.mean_rate),
        # The asymptotic-form reading fits the same residuals, so the same fit.
        "asymptotic_form": _fit_json(v.mean_rate),
        "ks_trace": [{"n": n, "D": _json_float(d)} for n, d in v.ks_trace],
        "conditions_met": v.conditions_met,
        "notes": v.notes,
    }
