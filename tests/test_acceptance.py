"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its own summary line.  Expected values
are either frozen constants or recomputed here by independent oracles
(trial division, exactly rounded sums, explicit formulas) that never
share code with the paths they check.
"""

import math
import time

import numpy as np
import pytest

from summatoria import (
    empirical_cdf,
    euler_maclaurin_gap,
    fair_coin_schedule,
    fit_remainders,
    full_verdict,
    geometric_checkpoints,
    independence_estimator,
    ks_distance,
    liouville_trace,
    log2_indicator_schedule,
    log_coin_schedule,
    mean_rate_fit,
    mertens_trace,
    mobius_sequence,
    realize_greedy,
    schedule_summatory,
    sequence_from_values,
    sieve_block,
    summatory_trace,
    vanishing_sum_verdict,
    weighted_mobius_trace,
)
from summatoria.sieve import _factor_counts

KS_SEED = 20260810

_oracle_cache: dict[str, np.ndarray] = {}


def _oracle_mu_lambda(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial-division oracle arrays for 1..bound (cached across criteria)."""
    key = f"{bound}"
    if key not in _oracle_cache:
        mu = np.empty(bound, dtype=np.int8)
        lam = np.empty(bound, dtype=np.int8)
        for n in range(1, bound + 1):
            distinct, total, squarefree = _factor_counts(n)
            mu[n - 1] = 0 if not squarefree else (-1 if distinct % 2 else 1)
            lam[n - 1] = -1 if total % 2 else 1
        _oracle_cache[key] = (mu, lam)
    return _oracle_cache[key]


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_sieve_oracle_equivalence():
    bound = 10**5
    t0 = time.perf_counter()
    mu_oracle, lam_oracle = _oracle_mu_lambda(bound)
    blk = sieve_block(1, bound)
    assert np.array_equal(blk.mu, mu_oracle)
    assert np.array_equal(blk.lam, lam_oracle)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"equivalence check took {elapsed:.2f}s, budget is 5s"
    _report(1, f"sieve matches trial division for all n <= 1e5 in {elapsed:.2f}s")


def test_criterion_02_mobius_divisor_identity():
    bound = 10**4
    mu_oracle, _ = _oracle_mu_lambda(10**5)
    sums = np.zeros(bound + 1, dtype=np.int64)
    for d in range(1, bound + 1):
        sums[d::d] += int(mu_oracle[d - 1])
    assert sums[1] == 1
    assert np.all(sums[2:] == 0)
    _report(2, "sum of mu over divisors is [n=1] for all n <= 1e4, exactly")


def test_criterion_03_mertens_checkpoints_against_oracle():
    mu_oracle, _ = _oracle_mu_lambda(10**5)
    oracle_cumsum = np.cumsum(mu_oracle.astype(np.int64))
    # The oracle reproduces the two frozen values first.
    assert oracle_cumsum[10 - 1] == -1
    assert oracle_cumsum[100 - 1] == 1
    checkpoints = sorted(set(geometric_checkpoints(10**5).tolist()) | {10, 100, 10**5})
    trace = mertens_trace(10**5, checkpoints)
    assert trace.values.tolist() == [int(oracle_cumsum[n - 1]) for n in checkpoints]
    _report(3, "M(10) = -1 and M(100) = 1; sieve equals the oracle at every "
               "checkpoint <= 1e5")


def test_criterion_04_weighted_mobius_bounded_and_decaying():
    t0 = time.perf_counter()
    cps = geometric_checkpoints(10**7, start=10**3, ratio=2)
    trace = weighted_mobius_trace(10**7, cps)
    assert np.max(np.abs(trace.values)) <= 1.0
    fit = mean_rate_fit(trace, 0.0)
    assert fit.classification == "decaying"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"weighted run took {elapsed:.2f}s, budget is 60s"
    _report(4, f"|sum mu(k)/k| <= 1 everywhere and decays over 1e3..1e7 "
               f"({elapsed:.1f}s)")


def test_criterion_05_euler_maclaurin_harmonic_gap():
    n_target = 10**6
    cps = sorted(set(geometric_checkpoints(n_target, start=100).tolist()) | {n_target})
    fit = euler_maclaurin_gap(lambda k: 1.0 / k, n_target, cps, antiderivative=math.log)
    gap_at_target = float(fit.remainders[-1])
    assert abs(gap_at_target - 0.5772156649) <= 1e-5
    # Independent oracle: exactly rounded harmonic sum minus ln n.
    oracle = math.fsum(1.0 / k for k in range(1, n_target + 1)) - math.log(n_target)
    assert abs(oracle - 0.5772156649) <= 1e-5
    assert gap_at_target == pytest.approx(oracle, abs=1e-9)
    assert fit.classification == "bounded"
    _report(5, "harmonic partial sum minus ln n lands on Euler's constant; "
               "gap classifies bounded, not decaying")


def test_criterion_06_log2_realization_full_verdict():
    N = 10**6
    seq = realize_greedy(log2_indicator_schedule(), N)
    verdict = full_verdict(seq, N)
    assert verdict.conditions_met
    assert verdict.mu0_hat == pytest.approx(0.5, abs=1e-3)
    cps = verdict.checkpoints
    trace = summatory_trace(seq, N, cps)
    n = cps.astype(np.float64)
    # Explicit closed form, written out independently of the schedule code.
    expected = n / 2 + n / ((n + 1) * np.log(n + 1) ** 2)
    assert np.max(np.abs(trace.values - expected)) <= 1.0
    _report(6, "realized log^2 schedule: conditions met, mu0 = 0.5 (0.001), "
               "summatory within 1 of n/2 + n/((n+1) ln^2(n+1))")


def test_criterion_07_log_schedule_summatory_and_vanishing_check():
    s = log_coin_schedule()
    for n in (10**2, 10**4, 10**6):
        expected = 2 * n / ((n + 1) * math.log(n + 1))
        got = schedule_summatory(s, n)
        assert abs(got / expected - 1) <= 1e-12
    N = 10**6
    seq = realize_greedy(s, N)
    trace = summatory_trace(seq, N, geometric_checkpoints(N))
    verdict = vanishing_sum_verdict(trace, 1.0)
    assert verdict.conditions_met
    _report(7, "schedule summatory equals 2n/((n+1) ln(n+1)) to 1e-12 rel; "
               "realization passes the vanishing-sum check")


def test_criterion_08_greedy_deviation_direct_scan():
    N = 10**6
    n = np.arange(1, N + 1, dtype=np.float64)
    # Targets written out independently of the schedule implementation.
    targets = {
        "log": np.clip(0.5 + 1.0 / ((n + 1) * np.log(n + 1)), 0.0, 1.0) * n,
        "log2": np.clip(0.5 + 1.0 / ((n + 1) * np.log(n + 1) ** 2), 0.0, 1.0) * n,
        "coin": 0.5 * n,
    }
    builders = {"log": log_coin_schedule, "log2": log2_indicator_schedule,
                "coin": fair_coin_schedule}
    for label, build in builders.items():
        schedule = build()
        seq = realize_greedy(schedule, N)
        counts = np.cumsum(seq.values(1, N) == schedule.values[0])
        deviation = np.max(np.abs(counts - targets[label]))
        assert deviation <= 1.0, f"{label}: deviation {deviation} exceeds 1"
    _report(8, "greedy counts stay within 1 of the proportional target for "
               "both canned schedules and the fair coin, n <= 1e6")


def test_criterion_09_ks_harness_calibration():
    rng = np.random.default_rng(KS_SEED)
    critical = 1.63 / math.sqrt(10**4)
    d_normal = ks_distance(empirical_cdf(rng.standard_normal(10**4)))
    d_uniform = ks_distance(empirical_cdf(rng.random(10**4)))
    assert d_normal <= critical
    assert d_uniform > critical
    _report(9, f"seeded normal draw D = {d_normal:.4f} <= {critical:.4f} < "
               f"uniform draw D = {d_uniform:.4f}")


def test_criterion_10_remainder_classifier_calibration():
    cps = geometric_checkpoints(10**7, start=100, ratio=2)
    n = cps.astype(np.float64)
    cases = [
        ("n^-1", 1.0 / n, "decaying", -1.0),
        ("n^-1/2", n**-0.5, "decaying", -0.5),
        ("const 0.3", np.full(n.size, 0.3), "bounded", None),
        ("log n", np.log(n), "growing", None),
    ]
    for label, remainders, expected, slope in cases:
        fit = fit_remainders(cps, remainders)
        assert fit.classification == expected, f"{label}: got {fit.classification}"
        if slope is not None:
            assert fit.loglog_slope == pytest.approx(slope, abs=0.05)
    _report(10, "synthetic remainders classify decaying/decaying/bounded/growing "
                "with power-law slopes within 0.05")


def test_criterion_11_independence_estimator_against_double_pass():
    n = 10**4
    seq = mobius_sequence(n + 2)
    vals = [float(v) for v in seq.values(1, n + 2)]
    for h in (1, 2):
        prod_sum = 0.0
        left_sum = 0.0
        right_sum = 0.0
        for k in range(1, n + 1):
            prod_sum += vals[k - 1] * vals[k + h - 1]
            left_sum += vals[k - 1]
            right_sum += vals[k + h - 1]
        oracle = prod_sum / n - (left_sum / n) * (right_sum / n)
        got = independence_estimator(seq, n, h)
        assert got == pytest.approx(oracle, abs=1e-12)
    const = sequence_from_values(np.full(n + 2, 2.5))
    assert independence_estimator(const, n, 1) == 0.0
    _report(11, "rho(1e4, h) for mu matches the double-pass oracle to 1e-12; "
                "constant sequences give exactly 0")


def test_criterion_12_published_mertens_and_liouville_past_the_sieve():
    # OEIS A084237 (M(10**k)) and A090410 (L(10**k)).
    t0 = time.perf_counter()
    x = [10**9, 10**10, 10**11]
    assert mertens_trace(10**11, x).values.tolist() == [-222, -33722, -87856]
    assert liouville_trace(10**11, x).values.tolist() == [-25216, -116026, -342224]
    elapsed = time.perf_counter() - t0
    _report(12, f"M and L at 1e9, 1e10, 1e11 equal the published values ({elapsed:.1f}s)")
