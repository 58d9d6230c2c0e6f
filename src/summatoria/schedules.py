"""Finite-valued probability schedules with vanishing perturbations.

A schedule assigns, for every n, probabilities p_i(n) = p_i0 + eps_i(n)
to a fixed set of values, where the perturbations cancel across values
and die out faster than 1/n.  Expected means and summatory values follow
in closed form; a deterministic two-valued arithmetic sequence whose
running value proportions track the schedule is constructed greedily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sequences import ArithmeticSequence, sequence_from_values

KIND_LOG = "log"
KIND_LOG2 = "log2"
KIND_NONE = "none"
KIND_CUSTOM = "custom"

_SERIALIZABLE_KINDS = (KIND_LOG, KIND_LOG2, KIND_NONE)

_VALIDATION_GRID = (1, 2, 3, 5, 10, 100, 1000, 10**4, 10**5, 10**6)


@dataclass(frozen=True)
class TwoPointSchedule:
    """Values a_1..a_l with probabilities p_i0 + eps_i(n).

    Perturbations are vectorized callables over float64 arrays of n and
    must cancel: sum_i eps_i(n) = 0 for every n.  For two-valued
    schedules the second probability is always taken complementary, so
    probabilities sum to 1 exactly; below ``n_min`` the first probability
    is clamped into [0, 1] (the canned log perturbation leaves it only
    at n = 1).
    """

    values: tuple[float, ...]
    base_probs: tuple[float, ...]
    perturbations: tuple[Callable[[np.ndarray], np.ndarray], ...]
    kind: str = KIND_CUSTOM
    n_min: int = 1

    def __post_init__(self):
        l = len(self.values)
        if l < 2:
            raise ValueError("a schedule needs at least two values")
        if len(set(self.values)) != l:
            raise ValueError("schedule values must be distinct")
        if len(self.base_probs) != l or len(self.perturbations) != l:
            raise ValueError("values, base_probs and perturbations must align")
        if min(self.base_probs) < 0:
            raise ValueError("base probabilities must be nonnegative")
        if abs(sum(self.base_probs) - 1.0) > 1e-12:
            raise ValueError("base probabilities must sum to 1")
        self._validate_perturbations()

    def _validate_perturbations(self):
        n = np.asarray([float(v) for v in _VALIDATION_GRID])
        eps = self._eps_matrix(n)
        if np.max(np.abs(eps.sum(axis=0))) > 1e-12:
            raise ValueError("perturbations must cancel across values at every n")
        probs = self.probabilities(n[n >= self.n_min])
        if probs.size and (probs.min() < -1e-12 or probs.max() > 1 + 1e-12):
            raise ValueError(f"probabilities leave [0, 1] at some n >= n_min={self.n_min}")
        # Decay contract: |eps_i(n)| * n non-increasing beyond n = 100, 10% slack.
        tail = np.asarray([100.0 * 2**k for k in range(9)])
        scaled = np.abs(self._eps_matrix(tail)) * tail
        if np.any(scaled[:, 1:] > 1.1 * scaled[:, :-1]):
            raise ValueError("perturbations do not satisfy the o(1/n) decay contract")

    def _eps_matrix(self, n: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(e(n), dtype=np.float64) for e in self.perturbations])

    def probabilities(self, n) -> np.ndarray:
        """p_i(n) as an (l, len(n)) array, clamped/complementary for l = 2."""
        n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
        eps = self._eps_matrix(n_arr)
        probs = np.asarray(self.base_probs, dtype=np.float64)[:, None] + eps
        if len(self.values) == 2:
            p1 = np.clip(probs[0], 0.0, 1.0)
            probs = np.stack([p1, 1.0 - p1])
        return probs


def schedule_mean(s: TwoPointSchedule, n):
    """Expected value sum_i a_i p_i(n), per the schedule's formulas.

    Computed as (sum_i a_i p_i0) + (sum_i a_i eps_i(n)) so perturbations
    far below the base probabilities keep full relative precision; inside
    the clamped region n < n_min the clamped probabilities are used.
    """
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    a = np.asarray(s.values, dtype=np.float64)
    base = float(np.dot(a, s.base_probs))
    out = base + a @ s._eps_matrix(n_arr)
    if s.n_min > 1:
        clamped = n_arr < s.n_min
        if np.any(clamped):
            out = np.where(clamped, a @ s.probabilities(n_arr), out)
    return float(out[0]) if np.isscalar(n) or np.ndim(n) == 0 else out


def schedule_summatory(s: TwoPointSchedule, n):
    """S(n) = n * M[f_n]: leading term n * sum_i a_i p_i0 plus a
    correction n * sum_i a_i eps_i(n) that vanishes by the decay contract."""
    n_arr = np.asarray(n, dtype=np.float64)
    out = n_arr * schedule_mean(s, n)
    return float(out) if np.isscalar(n) or np.ndim(n) == 0 else out


def two_value_schedule(
    a1: float,
    a2: float,
    p1_base: float,
    eps1: Callable[[np.ndarray], np.ndarray],
    *,
    kind: str = KIND_CUSTOM,
) -> TwoPointSchedule:
    """Two-valued schedule with complementary probabilities.

    eps1 perturbs the first value's probability; the second gets the
    exact negative.  n_min is found by scanning for the first n where the
    unclamped probability sits inside [0, 1]."""
    if not 0.0 <= p1_base <= 1.0:
        raise ValueError("base probability must lie in [0, 1]")
    n_min = _first_valid_n(p1_base, eps1)
    return TwoPointSchedule(
        values=(float(a1), float(a2)),
        base_probs=(float(p1_base), 1.0 - float(p1_base)),
        perturbations=(eps1, lambda n: -np.asarray(eps1(n), dtype=np.float64)),
        kind=kind,
        n_min=n_min,
    )


def _first_valid_n(p1_base: float, eps1, scan_limit: int = 10**6) -> int:
    for n in range(1, scan_limit + 1):
        p = p1_base + float(np.asarray(eps1(np.asarray([float(n)])))[0])
        if 0.0 <= p <= 1.0:
            return n
    raise ValueError("perturbed probability never enters [0, 1]")


def log_coin_schedule() -> TwoPointSchedule:
    """Fair +1/-1 coin with the first probability raised by
    1/((n+1) ln(n+1)).  Natural logarithm throughout; base e only rescales
    constants, never classifications."""
    eps = lambda n: 1.0 / ((n + 1.0) * np.log(n + 1.0))
    return two_value_schedule(1.0, -1.0, 0.5, eps, kind=KIND_LOG)


def log2_indicator_schedule() -> TwoPointSchedule:
    """Indicator values 1/0, fair base, first probability raised by
    1/((n+1) ln^2(n+1)); its summatory value is n/2 plus a vanishing term."""
    eps = lambda n: 1.0 / ((n + 1.0) * np.log(n + 1.0) ** 2)
    return two_value_schedule(1.0, 0.0, 0.5, eps, kind=KIND_LOG2)


def fair_coin_schedule() -> TwoPointSchedule:
    """Unperturbed +1/-1 fair coin."""
    eps = lambda n: np.zeros_like(np.asarray(n, dtype=np.float64))
    return two_value_schedule(1.0, -1.0, 0.5, eps, kind=KIND_NONE)


def realize_greedy(s: TwoPointSchedule, N: int) -> ArithmeticSequence:
    """Deterministic two-valued sequence tracking the schedule's proportions.

    At step n the value with the larger deficit against its running
    target n * p_i(n) is emitted, ties going to the first value; this is
    equivalent to keeping count_1(n) = floor(n * p_1(n) + 1/2) whenever
    the rounded targets step by at most one, and guarantees
    |count_1(n) - n * p_1(n)| <= 1 for all n <= N.  Realization is
    inherently sequential; the closed form is used when valid, with a
    step-by-step fallback otherwise.
    """
    if len(s.values) != 2:
        raise ValueError("greedy realization supports exactly two values")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    n = np.arange(1, N + 1, dtype=np.float64)
    eps1 = np.asarray(s.perturbations[0](n), dtype=np.float64)
    p1_exact = s.base_probs[0] + eps1
    clamped = np.clip(p1_exact, 0.0, 1.0)
    # Clamping happens only below n_min; there the target is n * clamped.
    at = np.flatnonzero(p1_exact != clamped)
    target_at = n[at] * clamped[at]
    del p1_exact, clamped
    # Split products keep tiny perturbations at full precision in the target;
    # the buffers are reused, and every float is the same as with fresh ones.
    target = n * eps1
    del eps1
    target += np.multiply(n, s.base_probs[0], out=n)
    del n
    target[at] = target_at
    target += 0.5
    rounded = np.floor(target, out=target)

    steps = np.diff(rounded, prepend=0.0)
    if not (rounded[0] <= 1.0 and steps.min() >= 0.0 and steps.max() <= 1.0):
        counts = np.empty(N, dtype=np.float64)
        c = 0.0
        for i in range(N):
            if c < rounded[i]:
                c += 1.0
            counts[i] = c
        steps = np.diff(counts, prepend=0.0)
    vals = np.where(steps > 0.0, s.values[0], s.values[1])
    return sequence_from_values(vals, name=f"synth:{s.kind}")


def schedule_to_json_dict(s: TwoPointSchedule) -> dict:
    """Serializable description; only the named perturbation kinds round-trip."""
    if s.kind not in _SERIALIZABLE_KINDS:
        raise ValueError(f"cannot serialize schedule of kind {s.kind!r}")
    return {
        "values": [float(v) for v in s.values],
        "base_probs": [float(p) for p in s.base_probs],
        "perturbation": {"kind": s.kind, "n_min": int(s.n_min)},
    }


def schedule_from_json_dict(doc: dict) -> TwoPointSchedule:
    """Rebuild a schedule serialized by schedule_to_json_dict."""
    kind = doc["perturbation"]["kind"]
    if kind == KIND_LOG:
        return log_coin_schedule()
    if kind == KIND_LOG2:
        return log2_indicator_schedule()
    if kind == KIND_NONE:
        values = doc["values"]
        probs = doc["base_probs"]
        if len(values) != 2:
            raise ValueError("only two-valued schedules round-trip through JSON")
        eps = lambda n: np.zeros_like(np.asarray(n, dtype=np.float64))
        return two_value_schedule(values[0], values[1], probs[0], eps, kind=KIND_NONE)
    raise ValueError(f"unknown perturbation kind {kind!r}")
