"""The KS distance from the standard normal with Phi evaluated at every
sorted point, as ``empirical.ks_distance`` computed it before pruning: a
differential oracle for the pruned statistic (tests/test_empirical.py and
bench/kernels.py)."""

from __future__ import annotations

import math

import numpy as np

from summatoria.empirical import EmpiricalDistribution, _normal_cdf_sorted


def ks_distance_full(d: EmpiricalDistribution) -> float:
    """sup |F_n - Phi| over the standardized sample, both steps at every point."""
    z = d.sample - d.mean
    z /= math.sqrt(d.variance)
    ref = _normal_cdf_sorted(z)
    steps = np.arange(d.n + 1) / d.n
    above = np.max(steps[1:] - ref)
    ref -= steps[:-1]  # in place: the bench runs it on 3e6-point samples
    return float(max(above, np.max(ref)))
