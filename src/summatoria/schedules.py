"""Two-valued probability schedules with vanishing perturbations.

A schedule gives, for every n, the first of two values the probability
p_1(n) = p_1 + eps_1(n) and the second the complement 1 - p_1(n), where
the perturbation dies out faster than 1/n.  Expected means and summatory
values follow in closed form; a deterministic two-valued arithmetic
sequence whose running value proportions track the schedule is
constructed greedily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, NumericError
from .sequences import ArithmeticSequence, sequence_from_values

KIND_LOG = "log"
KIND_LOG2 = "log2"
KIND_NONE = "none"
KIND_CUSTOM = "custom"

_SERIALIZABLE_KINDS = (KIND_LOG, KIND_LOG2, KIND_NONE)


@dataclass(frozen=True)
class TwoPointSchedule:
    """Values a1, a2 with probabilities p1 + eps1(n) and its complement.

    ``eps1`` is a vectorized callable over float64 arrays of n.  Wherever
    p1 + eps1(n) leaves [0, 1], the first probability is clamped into it;
    the canned perturbations leave it only at n = 1, below ``n_min``.
    """

    a1: float
    a2: float
    p1: float
    eps1: Callable[[np.ndarray], np.ndarray]
    kind: str = KIND_CUSTOM
    n_min: int = 1

    def __post_init__(self):
        if self.a1 == self.a2:
            raise ValueError("schedule values must be distinct")
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError("base probability must lie in [0, 1]")
        # Decay contract: |eps1(n)| * n non-increasing beyond n = 100, 10% slack.
        tail = 100.0 * 2.0 ** np.arange(9)
        scaled = np.abs(np.asarray(self.eps1(tail), dtype=np.float64)) * tail
        if np.any(scaled[1:] > 1.1 * scaled[:-1]):
            raise ValueError("the perturbation does not satisfy the o(1/n) decay contract")

    @property
    def values(self) -> tuple[float, float]:
        """(a1, a2)."""
        return self.a1, self.a2

    def probabilities(self, n) -> np.ndarray:
        """(p_1(n), p_2(n)) as a (2, len(n)) array: p_1 clamped into [0, 1],
        p_2 = 1 - p_1, so the two sum to 1 exactly."""
        n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
        p1 = np.clip(self.p1 + np.asarray(self.eps1(n_arr), dtype=np.float64), 0.0, 1.0)
        return np.stack([p1, 1.0 - p1])


def schedule_mean(s: TwoPointSchedule, n):
    """Expected value a1 p_1(n) + a2 p_2(n), per the schedule's formulas.

    Computed as (a1 p1 + a2 (1 - p1)) + (a1 - a2) eps1(n) so perturbations
    far below the base probabilities keep full relative precision; wherever
    p1 + eps1(n) leaves [0, 1] the clamped probabilities are used.
    """
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    eps1 = np.asarray(s.eps1(n_arr), dtype=np.float64)
    p1 = s.p1 + eps1
    clamped = np.clip(p1, 0.0, 1.0)
    out = np.where(clamped != p1, s.a1 * clamped + s.a2 * (1.0 - clamped),
                   (s.a1 * s.p1 + s.a2 * (1.0 - s.p1)) + (s.a1 - s.a2) * eps1)
    return float(out[0]) if np.isscalar(n) or np.ndim(n) == 0 else out


def schedule_summatory(s: TwoPointSchedule, n):
    """S(n) = n * M[f_n]: leading term n (a1 p1 + a2 (1 - p1)) plus a
    correction n (a1 - a2) eps1(n) that vanishes by the decay contract."""
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

    eps1 perturbs the first value's probability; the second takes the
    complement.  n_min is found by scanning for the first n where the
    unclamped probability sits inside [0, 1]."""
    if not 0.0 <= p1_base <= 1.0:
        raise ValueError("base probability must lie in [0, 1]")
    return TwoPointSchedule(float(a1), float(a2), float(p1_base), eps1, kind,
                            _first_valid_n(p1_base, eps1))


_SCAN_CHUNK = 1 << 16  # n per eps1 call of _first_valid_n and realize_greedy
_SCAN_LIMIT = 10**6  # the last n _first_valid_n tries


def _first_valid_n(p1_base: float, eps1) -> int:
    for lo in range(1, _SCAN_LIMIT + 1, _SCAN_CHUNK):
        n = np.arange(lo, min(lo + _SCAN_CHUNK, _SCAN_LIMIT + 1), dtype=np.float64)
        p = p1_base + np.asarray(eps1(n), dtype=np.float64)
        inside = np.flatnonzero((p >= 0.0) & (p <= 1.0))
        if inside.size:
            return lo + int(inside[0])
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


_REALIZE_BUDGET = 1 << 25  # values; at about 17.5 bytes a value (tracemalloc), near 590 MB


def realize_greedy(s: TwoPointSchedule, N: int) -> ArithmeticSequence:
    """Deterministic two-valued sequence tracking the schedule's proportions.

    At step n the value with the larger deficit against its running
    target n * p_i(n) is emitted, ties going to the first value; this is
    equivalent to keeping count_1(n) = floor(n * p_1(n) + 1/2) whenever
    the rounded targets step by at most one, and guarantees
    |count_1(n) - n * p_1(n)| <= 1 for all n <= N.  The closed form is
    worked out ``_SCAN_CHUNK`` values of n at a time into N steps; where
    one leaves [0, 1] the rule runs step by step instead.  Past
    ``_REALIZE_BUDGET`` values it raises CapacityError before allocating,
    and NumericError at the first n whose perturbation is not finite."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if N > _REALIZE_BUDGET:
        raise CapacityError(f"realizing {N} values of a schedule exceeds the budget of "
                            f"{_REALIZE_BUDGET} values")
    steps = np.empty(N, dtype=np.float64)
    last = 0.0
    for lo in range(1, N + 1, _SCAN_CHUNK):
        n = np.arange(lo, min(lo + _SCAN_CHUNK, N + 1), dtype=np.float64)
        eps1 = np.asarray(s.eps1(n), dtype=np.float64)
        if (bad := np.flatnonzero(~np.isfinite(eps1))).size:
            raise NumericError(f"the perturbation is not finite at n = {lo + bad[0]}")
        p1 = s.p1 + eps1
        clamped = np.clip(p1, 0.0, 1.0)
        # Split products keep tiny perturbations at full precision in the target.
        rounded = np.floor(np.where(clamped != p1, n * clamped, n * eps1 + n * s.p1) + 0.5)
        steps[lo - 1 : lo - 1 + n.size] = np.diff(rounded, prepend=last)
        last = rounded[-1]
    if not (steps.min() >= 0.0 and steps.max() <= 1.0):
        rounded = np.cumsum(steps)  # exact: whole numbers below 2**53
        counts = np.empty(N, dtype=np.float64)
        c = 0.0
        for i in range(N):
            if c < rounded[i]:
                c += 1.0
            counts[i] = c
        steps = np.diff(counts, prepend=0.0)
    vals = np.where(steps > 0.0, s.a1, s.a2)
    del steps
    return sequence_from_values(vals, name=f"synth:{s.kind}")


def schedule_to_json_dict(s: TwoPointSchedule) -> dict:
    """Serializable description; only the named perturbation kinds have one."""
    if s.kind not in _SERIALIZABLE_KINDS:
        raise ValueError(f"cannot serialize schedule of kind {s.kind!r}")
    return {
        "values": [float(s.a1), float(s.a2)],
        "base_probs": [float(s.p1), 1.0 - float(s.p1)],
        "perturbation": {"kind": s.kind, "n_min": int(s.n_min)},
    }
