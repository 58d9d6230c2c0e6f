import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import (
    BOUNDED,
    BoundError,
    DECAYING,
    GROWING,
    INCONCLUSIVE,
    NumericError,
    SummatoryTrace,
    estimate_limit_mean,
    euler_maclaurin_gap,
    fit_remainders,
    full_verdict,
    geometric_checkpoints,
    log2_indicator_schedule,
    mean_rate_fit,
    mobius_sequence,
    realize_greedy,
    schedule_summatory,
    sequence_from_function,
    sequence_from_values,
    vanishing_sum_verdict,
    verdict_to_json_dict,
    weighted_mobius_trace,
)
from summatoria import sieve

CPS_1E7 = geometric_checkpoints(10**7, start=100, ratio=2)


def _trace(checkpoints, values, name="t"):
    return SummatoryTrace(
        checkpoints=np.asarray(checkpoints, dtype=np.int64),
        values=np.asarray(values),
        name=name,
    )


def test_fit_power_laws_classified_decaying_with_exact_slopes():
    for alpha in (0.5, 1.0, 2.0):
        fit = fit_remainders(CPS_1E7, CPS_1E7.astype(float) ** (-alpha))
        assert fit.classification == DECAYING
        assert fit.loglog_slope == pytest.approx(-alpha, abs=0.05)


def test_fit_constant_is_bounded():
    fit = fit_remainders(CPS_1E7, np.full(CPS_1E7.size, 0.3))
    assert fit.classification == BOUNDED
    assert fit.loglog_slope == pytest.approx(0.0, abs=1e-12)


def test_fit_log_growth_is_growing():
    fit = fit_remainders(CPS_1E7, np.log(CPS_1E7.astype(float)))
    assert fit.classification == GROWING
    assert fit.loglog_slope > 0.1


def test_fit_all_zero_remainders_is_converged_decay():
    fit = fit_remainders([10, 20, 40, 80], np.zeros(4))
    assert fit.classification == DECAYING
    assert math.isnan(fit.loglog_slope)


def test_fit_mostly_zero_with_spikes_is_inconclusive():
    r = np.zeros(10)
    r[3] = 5.0
    fit = fit_remainders(geometric_checkpoints(10_240, start=20), r)
    assert fit.classification == INCONCLUSIVE


def test_fit_oscillating_negative_slope_without_quartile_drop_is_inconclusive():
    cps = geometric_checkpoints(10**5, start=10)
    # Magnitudes shrink in log-log fit but the last quartile spikes back up.
    r = cps.astype(float) ** -1.0
    r[-1] = 2.0
    r[0] = 1.5
    fit = fit_remainders(cps, r)
    assert fit.classification == INCONCLUSIVE


def test_fit_scale_equivariance():
    r = CPS_1E7.astype(float) ** -0.5
    base = fit_remainders(CPS_1E7, r)
    for c in (1e-6, 3.0, 1e6):
        scaled = fit_remainders(CPS_1E7, c * r)
        assert scaled.classification == base.classification
        assert scaled.loglog_slope == pytest.approx(base.loglog_slope, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=1e-4, max_value=1e4), alpha=st.sampled_from([0.3, 0.7, 1.5]))
def test_fit_scale_equivariance_property(c, alpha):
    cps = geometric_checkpoints(10**6, start=100)
    r = cps.astype(float) ** (-alpha)
    fit = fit_remainders(cps, c * r)
    assert fit.classification == DECAYING
    assert fit.loglog_slope == pytest.approx(-alpha, abs=1e-6)


def test_fit_rejects_non_finite():
    with pytest.raises(NumericError):
        fit_remainders([10, 20, 40, 80], [1.0, np.inf, 0.5, 0.2])


def test_estimate_limit_mean():
    trace = _trace([10, 20, 40, 80], [10.0, 20.0, 40.0, 80.0])
    assert estimate_limit_mean(trace) == (1.0, 0.0)
    with pytest.raises(ValueError):
        estimate_limit_mean(_trace([10, 20], [1.0, 2.0]))


def test_mean_rate_fit_synthetic_examples():
    cps = geometric_checkpoints(10**7, start=10)
    n = cps.astype(float)
    log_decay = _trace(cps, 0.5 * n + 1.0 / np.log(n))
    assert mean_rate_fit(log_decay, 0.5).classification == DECAYING
    const_offset = _trace(cps, 0.5 * n + 0.3)
    assert mean_rate_fit(const_offset, 0.5).classification == BOUNDED


def test_mean_rate_fit_weighted_mobius_decays():
    trace = weighted_mobius_trace(10**5, geometric_checkpoints(10**5, start=100))
    fit = mean_rate_fit(trace, 0.0)
    assert fit.classification == DECAYING


def test_mean_rate_fit_warns_on_tight_checkpoints():
    trace = _trace([10, 11, 12, 13], [1.0, 1.0, 1.0, 1.0])
    with pytest.warns(UserWarning, match="geometric"):
        mean_rate_fit(trace, 0.0)


def test_euler_maclaurin_gap_harmonic():
    cps = geometric_checkpoints(10**4, start=100)
    fit = euler_maclaurin_gap(lambda k: 1.0 / k, 10**4, cps, antiderivative=math.log)
    assert fit.classification == BOUNDED
    # gap converges to Euler's constant
    assert fit.remainders[-1] == pytest.approx(0.5772156649, abs=1e-4)


def test_euler_maclaurin_gap_constant_summand():
    cps = geometric_checkpoints(10**4)
    fit = euler_maclaurin_gap(lambda k: np.ones_like(k), 10**4, cps,
                              antiderivative=lambda t: t)
    assert fit.classification == BOUNDED
    assert np.allclose(fit.remainders, 1.0)


def test_euler_maclaurin_gap_inverse_square():
    cps = geometric_checkpoints(10**4)
    fit = euler_maclaurin_gap(lambda k: k**-2.0, 10**4, cps,
                              antiderivative=lambda t: -1.0 / t)
    assert fit.classification == BOUNDED
    assert fit.remainders[-1] == pytest.approx(math.pi**2 / 6 - 1, abs=1e-3)


def test_full_verdict_harmonic_bounded():
    seq = sequence_from_function(lambda k: 1.0 / k, 10**5, name="harmonic")
    v = full_verdict(seq, 10**5)
    assert not v.conditions_met
    assert verdict_to_json_dict(v)["asymptotic_form"]["class"] == BOUNDED


def test_full_verdict_past_the_sequence_bound_raises_bound_error():
    seq = sequence_from_values(np.ones(10))
    with pytest.raises(BoundError, match="N=11 exceeds the sequence bound 10"):
        full_verdict(seq, 11)


def test_full_verdict_constant_sequence_estimates_its_own_mean():
    # With the estimated limiting mean, S(n) - n*mu0 vanishes identically
    # for a constant summand; the S(n) -> 0 reading with the mean pinned
    # to zero rejects it instead (see the vanishing-sum tests).
    seq = sequence_from_function(lambda k: np.ones_like(k), 10**4, name="one")
    v = full_verdict(seq, 10**4)
    assert v.mu0_hat == 1.0
    assert v.conditions_met
    trace = _trace(v.checkpoints, v.checkpoints.astype(float), name="one")
    assert not vanishing_sum_verdict(trace, 1.0).conditions_met


def test_full_verdict_fits_are_one_computation():
    seq = mobius_sequence(10**4)
    v = full_verdict(seq, 10**4)
    doc = verdict_to_json_dict(v)
    assert doc["asymptotic_form"] == doc["mean_rate"]
    assert v.conditions_met == (v.mean_rate.classification == DECAYING)


def test_full_verdict_ks_trace_covers_every_checkpoint():
    seq = mobius_sequence(10**4)
    v = full_verdict(seq, 10**4)
    assert [n for n, _ in v.ks_trace] == v.checkpoints.tolist()
    for _, d in v.ks_trace:
        assert 0.0 <= d <= 1.0


def test_full_verdict_deterministic_reports():
    seq = mobius_sequence(2 * 10**4)
    a = json.dumps(verdict_to_json_dict(full_verdict(seq, 2 * 10**4)))
    b = json.dumps(verdict_to_json_dict(full_verdict(seq, 2 * 10**4)))
    assert a == b


def test_full_verdict_thread_count_does_not_change_report(monkeypatch):
    # The name predates the one-thread stream; only the blocking varies here.
    seq = mobius_sequence(10**5)
    a = verdict_to_json_dict(full_verdict(seq, 10**5))
    monkeypatch.setattr(sieve, "DEFAULT_BLOCK_SIZE", 8192)
    b = verdict_to_json_dict(full_verdict(seq, 10**5))
    assert json.dumps(a) == json.dumps(b)


def test_verdict_json_schema():
    seq = mobius_sequence(10**4)
    doc = verdict_to_json_dict(full_verdict(seq, 10**4))
    assert list(doc) == ["function", "N", "checkpoints", "mu0_hat", "mean_rate",
                         "asymptotic_form", "ks_trace", "conditions_met", "notes"]
    assert list(doc["mean_rate"]) == ["class", "slope", "stderr"]
    assert all(list(entry) == ["n", "D"] for entry in doc["ks_trace"])
    json.dumps(doc)  # must be serializable (non-finite floats mapped to null)


def test_vanishing_sum_verdict_on_decaying_trace():
    cps = geometric_checkpoints(10**6, start=10)
    trace = _trace(cps, 2.0 / np.log(cps.astype(float) + 1.0), name="synthetic")
    v = vanishing_sum_verdict(trace, 1.0)
    assert v.conditions_met
    assert v.mu0_hat == 0.0
    assert v.ks_trace == ()


def test_vanishing_sum_verdict_growing_sum_rejected():
    cps = geometric_checkpoints(10**4)
    trace = _trace(cps, cps.astype(float), name="n")
    v = vanishing_sum_verdict(trace, 1.0)
    assert not v.conditions_met


def test_mertens_verdict_regression():
    # Recorded after the first computation; the verdict itself is evidence
    # only and asserts nothing about the open limit question.
    v = full_verdict(mobius_sequence(10**6), 10**6)
    assert abs(v.mu0_hat) < 1e-2
    assert v.mean_rate.classification == GROWING
    assert not v.conditions_met


def test_realized_log2_small_scale_verdict():
    seq = realize_greedy(log2_indicator_schedule(), 10**4)
    v = full_verdict(seq, 10**4)
    assert v.conditions_met
    assert v.mu0_hat == pytest.approx(0.5, abs=1e-3)


def test_schedule_residuals_decay_along_checkpoints():
    s = log2_indicator_schedule()
    cps = geometric_checkpoints(10**6)
    residuals = schedule_summatory(s, cps) - cps * 0.5
    fit = fit_remainders(cps, residuals)
    assert fit.classification == DECAYING
