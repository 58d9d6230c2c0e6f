import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import (
    fair_coin_schedule,
    log2_indicator_schedule,
    log_coin_schedule,
    realize_greedy,
    schedule_mean,
    schedule_summatory,
    schedule_to_json_dict,
    two_value_schedule,
    TwoPointSchedule,
)


def test_log_schedule_mean_value():
    s = log_coin_schedule()
    assert schedule_mean(s, 9) == pytest.approx(2 / (10 * math.log(10)), rel=1e-14)


def test_fair_coin_mean_is_zero_everywhere():
    s = fair_coin_schedule()
    assert np.all(schedule_mean(s, np.arange(1, 100)) == 0.0)


def test_log2_schedule_mean_formula():
    s = log2_indicator_schedule()
    for n in (5, 100, 10**6):
        want = 0.5 + 1.0 / ((n + 1) * math.log(n + 1) ** 2)
        assert schedule_mean(s, n) == pytest.approx(want, rel=1e-13)


def test_log_schedule_summatory_exact_form():
    s = log_coin_schedule()
    for n in (10**2, 10**4, 10**6):
        want = 2 * n / ((n + 1) * math.log(n + 1))
        assert schedule_summatory(s, n) == pytest.approx(want, rel=1e-12)
    # n = 9 in closed form: 18 / (10 log 10)
    assert schedule_summatory(s, 9) == pytest.approx(18 / (10 * math.log(10)), rel=1e-13)


def test_summatory_is_n_times_mean():
    for s in (log_coin_schedule(), log2_indicator_schedule(), fair_coin_schedule()):
        n = np.arange(1, 2000, 13)
        assert np.all(schedule_summatory(s, n) == n * schedule_mean(s, n))


def test_unperturbed_indicator_summatory():
    eps = lambda n: np.zeros_like(np.asarray(n, dtype=np.float64))
    s = two_value_schedule(1.0, 0.0, 0.5, eps)
    for n in (1, 7, 1000):
        assert schedule_summatory(s, n) == n / 2


def test_probabilities_sum_to_one_exactly():
    for s in (log_coin_schedule(), log2_indicator_schedule()):
        n = np.arange(1, 5000, dtype=np.float64)
        probs = s.probabilities(n)
        assert np.all(probs.sum(axis=0) == 1.0)
        assert probs.min() >= 0.0 and probs.max() <= 1.0


def test_small_n_clamping_and_n_min():
    s = log_coin_schedule()
    # The raw formula leaves [0, 1] only at n = 1 (natural log).
    assert s.n_min == 2
    raw = 0.5 + 1.0 / (2 * math.log(2))
    assert raw > 1.0
    assert s.probabilities(1)[0, 0] == 1.0  # clamped
    s2 = log2_indicator_schedule()
    assert s2.n_min == 2
    assert s2.probabilities(1)[0, 0] == 1.0


def test_n_min_is_found_with_few_eps1_calls():
    calls = []

    def eps(n):  # 1 + eps1(n) > 1 until n = 70000, past the first chunk
        calls.append(np.size(n))
        return np.where(n < 70000, 1.0 / np.asarray(n, dtype=np.float64) ** 2, 0.0)

    assert two_value_schedule(1.0, -1.0, 1.0, eps).n_min == 70000
    calls.clear()
    with pytest.raises(ValueError, match="never enters"):
        two_value_schedule(1.0, -1.0, 1.0, lambda n: calls.append(n) or 1.0 / n**2)
    assert len(calls) <= 16


def test_schedule_validation_rejects_bad_inputs():
    zeros = lambda n: np.zeros_like(np.asarray(n, dtype=np.float64))
    with pytest.raises(ValueError):
        TwoPointSchedule(1.0, 1.0, 0.5, zeros)  # duplicate values
    with pytest.raises(ValueError):
        TwoPointSchedule(1.0, -1.0, -0.1, zeros)  # negative prob
    with pytest.raises(ValueError):
        TwoPointSchedule(1.0, -1.0, 1.1, zeros)  # second prob negative
    with pytest.raises(ValueError):
        # violates the o(1/n) decay contract
        two_value_schedule(1.0, -1.0, 0.5, lambda n: 0.1 + 0.0 * n)


def test_fair_coin_realization_counts():
    seq = realize_greedy(fair_coin_schedule(), 4)
    vals = seq.values(1, 4)
    counts = np.cumsum(vals == 1.0)
    # First-value tie-break: counts follow ceil(n/2).
    assert counts.tolist() == [1, 1, 2, 2]


def test_degenerate_schedule_realizes_constant():
    eps = lambda n: np.zeros_like(np.asarray(n, dtype=np.float64))
    s = two_value_schedule(3.0, 7.0, 1.0, eps)
    seq = realize_greedy(s, 50)
    assert np.all(seq.values(1, 50) == 3.0)


def test_greedy_counts_track_proportional_target():
    for s in (log_coin_schedule(), log2_indicator_schedule(), fair_coin_schedule()):
        N = 10**4
        seq = realize_greedy(s, N)
        counts = np.cumsum(seq.values(1, N) == s.a1)
        n = np.arange(1, N + 1, dtype=np.float64)
        target = n * s.probabilities(n)[0]
        assert np.max(np.abs(counts - target)) <= 1.0


def test_realized_summatory_tracks_schedule_summatory():
    for s in (log_coin_schedule(), log2_indicator_schedule()):
        N = 10**4
        seq = realize_greedy(s, N)
        gap_bound = abs(s.a1 - s.a2)
        running = np.cumsum(seq.values(1, N))
        n = np.arange(1, N + 1)
        assert np.max(np.abs(running - schedule_summatory(s, n))) <= gap_bound


@settings(max_examples=30, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0), N=st.integers(min_value=1, max_value=2000))
def test_greedy_deviation_bound_for_constant_probability(p, N):
    eps = lambda n: np.zeros_like(np.asarray(n, dtype=np.float64))
    s = two_value_schedule(1.0, -1.0, p, eps)
    seq = realize_greedy(s, N)
    counts = np.cumsum(seq.values(1, N) == 1.0)
    n = np.arange(1, N + 1, dtype=np.float64)
    assert np.max(np.abs(counts - n * p)) <= 1.0


def test_greedy_fallback_when_the_rounded_target_steps_down():
    # n p_1(n) + 1/2 = n**-1 + 1/2 rounds to 1, 1, then 0 from n = 3, so the
    # closed form does not apply and the step-by-step rule runs.
    s = two_value_schedule(1.0, -1.0, 0.0, lambda n: 1 / n**2)
    N = 50
    counts = np.cumsum(realize_greedy(s, N).values(1, N) == 1.0)
    assert counts.tolist() == [1] * N
    n = np.arange(1, N + 1, dtype=np.float64)
    assert np.max(np.abs(counts - n * s.probabilities(n)[0])) == pytest.approx(0.98)


def test_greedy_fallback_loop_matches_closed_form():
    # The sequential deficit rule and the rounded-target closed form must
    # agree wherever the closed form applies.
    s = log_coin_schedule()
    N = 300
    seq = realize_greedy(s, N)
    n = np.arange(1, N + 1, dtype=np.float64)
    rounded = np.floor(n * s.probabilities(n)[0] + 0.5)
    c = 0.0
    loop_counts = []
    for i in range(N):
        if c < rounded[i]:
            c += 1.0
        loop_counts.append(c)
    counts = np.cumsum(seq.values(1, N) == 1.0)
    assert counts.tolist() == loop_counts


def test_schedule_json_round_trip():
    for build in (log_coin_schedule, log2_indicator_schedule, fair_coin_schedule):
        s = build()
        doc = schedule_to_json_dict(s)
        assert set(doc) == {"values", "base_probs", "perturbation"}
        assert set(doc["perturbation"]) == {"kind", "n_min"}


def test_custom_schedule_is_not_serializable():
    eps = lambda n: 1.0 / (n + 1.0) ** 2
    s = two_value_schedule(1.0, -1.0, 0.5, eps)
    with pytest.raises(ValueError):
        schedule_to_json_dict(s)
