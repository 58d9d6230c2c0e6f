import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from summatoria import (
    BoundError,
    DegenerateSampleError,
    empirical_cdf,
    empirical_mean,
    empirical_moments,
    independence_estimator,
    ks_distance,
    liouville_sequence,
    mertens_trace,
    mobius_sequence,
    sequence_from_function,
    sequence_from_values,
)
from summatoria.empirical import _ERFC_CUT, _SQRT1_2, _normal_cdf_sorted

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_empirical_mean_examples():
    assert empirical_mean(mobius_sequence(10), 10) == -0.1
    ones = sequence_from_function(lambda k: np.ones_like(k), 100,
                                  name="one", magnitude_bound=1.0)
    assert empirical_mean(ones, 7) == 1.0
    assert empirical_mean(liouville_sequence(10), 10) == 0.0


def test_empirical_mean_is_exact_trace_ratio():
    seq = mobius_sequence(5000)
    for n in (10, 137, 4999):
        exact = int(mertens_trace(n, [n]).values[0])
        assert empirical_mean(seq, n) == exact / n


def test_empirical_mean_bound_error():
    with pytest.raises(BoundError):
        empirical_mean(mobius_sequence(10), 11)
    with pytest.raises(ValueError):
        empirical_mean(mobius_sequence(10), 0)


def test_empirical_moments_examples():
    mean, var = empirical_moments(mobius_sequence(10), 10)
    assert mean == -0.1
    assert var == 0.69  # 7 nonzero mu values in 1..10: the exact 69/100, rounded once
    const = sequence_from_function(lambda k: np.full_like(k, 2.5), 50,
                                   name="c", magnitude_bound=2.5)
    _, var_c = empirical_moments(const, 50)
    assert var_c == pytest.approx(0.0, abs=1e-12)
    mean_l, var_l = empirical_moments(liouville_sequence(10), 10)
    assert (mean_l, var_l) == (0.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
    scale=st.floats(min_value=0.1, max_value=10),
    n=st.integers(min_value=2, max_value=500),
)
def test_variance_shift_and_scale(shift, scale, n):
    rng = np.random.default_rng(n)
    base = rng.standard_normal(600)
    seq = sequence_from_values(base)
    _, v0 = empirical_moments(seq, n)
    _, v_shift = empirical_moments(sequence_from_values(base + shift), n)
    _, v_scale = empirical_moments(sequence_from_values(base * scale), n)
    assert v_shift == pytest.approx(v0, rel=1e-10, abs=1e-12)
    assert v_scale == pytest.approx(scale * scale * v0, rel=1e-10, abs=1e-12)


def test_empirical_cdf_examples():
    d = empirical_cdf([3, 1, 2])
    assert d.cdf(1.5) == pytest.approx(1 / 3)
    single = empirical_cdf([5])
    assert single.cdf(4.9) == 0.0
    assert single.cdf(5) == 1.0
    ties = empirical_cdf([1, 1, 2, 2])
    assert ties.cdf(1) == 0.5


def test_empirical_cdf_rejects_empty():
    with pytest.raises(ValueError):
        empirical_cdf([])


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_empirical_cdf_is_valid_cdf(values):
    d = empirical_cdf(values)
    assert np.all(np.diff(d.sample) >= 0)
    assert d.cdf(d.sample[0] - 1) == 0.0
    assert d.cdf(d.sample[-1]) == 1.0
    grid = np.linspace(d.sample[0] - 1, d.sample[-1] + 1, 97)
    assert np.all(np.diff(d.cdf(grid)) >= 0)
    assert d.mean == pytest.approx(np.mean(values), rel=1e-12, abs=1e-12)
    assert d.variance >= 0


def test_ks_quantile_grid_is_astride_reference():
    n = 100
    grid = ndtri((np.arange(1, n + 1) - 0.5) / n)
    d = ks_distance(empirical_cdf(grid), standardize=False)
    assert d <= 0.5 / n + 1e-6


def test_ks_seeded_normal_draw_within_critical_band():
    rng = np.random.default_rng(20260810)
    sample = rng.standard_normal(10**4)
    assert ks_distance(empirical_cdf(sample)) <= 1.63 / math.sqrt(10**4)


def _ulps(a, b):
    # Both arrays hold floats >= 0, whose bit patterns are ordered like their values.
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_normal_cdf_within_4_ulps_of_ndtr():
    a = np.linspace(-40.0, 40.0, 800_001)
    assert _ulps(_normal_cdf_sorted(a), ndtr(a)).max() <= 4


def test_normal_cdf_close_to_mpmath():
    # Rounding a / sqrt(2) alone moves exp(-a*a/2) by about a*a/2 ulps in the tail.
    a = np.sort(np.concatenate([np.linspace(-37.5, 8.2, 301),
                                np.random.default_rng(3).uniform(-37.5, 8.2, 200)]))
    exact = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in a])
    rel = np.abs(_normal_cdf_sorted(a) - exact) / exact
    assert np.all(rel <= 4 * np.finfo(float).eps * (1 + a * a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normal_cdf_exact_at_branch_edges():
    assert _normal_cdf_sorted(np.array([-np.inf, -0.0, 0.0, np.inf])).tolist() == [
        0.0, 0.5, 0.5, 1.0]
    assert np.isnan(_normal_cdf_sorted(np.array([0.0, np.nan]))[1])
    # Branches change where |a / sqrt(2)| crosses sqrt(1/2), 1, 8 and the exp
    # underflow cut-off; take a few floats on each side of each crossing.
    near = []
    for edge in (_SQRT1_2, 1.0, 8.0, _ERFC_CUT):
        for v in (edge / _SQRT1_2, -edge / _SQRT1_2):
            near.append((np.array([v]).view(np.int64) + np.arange(-3, 4)).view(np.float64))
            x = np.abs(near[-1] * _SQRT1_2)
            assert (x < edge).any() and (x > edge).any()
    a = np.sort(np.concatenate(near))
    assert _normal_cdf_sorted(a).tolist() == ndtr(a).tolist()
    cut = -_ERFC_CUT / _SQRT1_2
    assert _normal_cdf_sorted(np.array([np.nextafter(cut, -np.inf), cut])).tolist() == [
        0.0, ndtr(cut)]
    assert ndtr(cut) > 0.0


def _ks_distance_with_ndtr(sample, standardize=True):
    """The KS statistic by ndtr and both step arrays, as the package had it."""
    d = empirical_cdf(sample)
    z = (d.sample - d.mean) / math.sqrt(d.variance) if standardize else d.sample
    ref = ndtr(z)
    steps_hi = np.arange(1, d.n + 1, dtype=np.float64) / d.n
    steps_lo = np.arange(0, d.n, dtype=np.float64) / d.n
    return float(max(np.max(np.abs(steps_hi - ref)), np.max(np.abs(steps_lo - ref))))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ks_distance_bytes_match_ndtr_reference(seed):
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.integers(-1, 2, 200_000)).astype(np.float64)  # many ties
    for sample in (walk, rng.standard_normal(50_000), rng.integers(-1, 2, 9999) * 1.0):
        assert ks_distance(empirical_cdf(sample)) == _ks_distance_with_ndtr(sample)
    grid = np.sort(rng.standard_normal(1000))
    assert (ks_distance(empirical_cdf(grid), standardize=False)
            == _ks_distance_with_ndtr(grid, standardize=False))


def test_ks_uniform_reference_point_mass():
    assert ks_distance(empirical_cdf([0.5]), "uniform(0,1)") == 0.5


def test_ks_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        ks_distance(empirical_cdf([2.0, 2.0, 2.0]))


def test_ks_unknown_reference():
    with pytest.raises(ValueError):
        ks_distance(empirical_cdf([1.0, 2.0]), "cauchy")


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(min_value=0.05, max_value=20),
    shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ks_invariant_under_increasing_affine_maps(scale, shift, seed):
    rng = np.random.default_rng(seed)
    sample = rng.standard_normal(300)
    d0 = ks_distance(empirical_cdf(sample))
    d1 = ks_distance(empirical_cdf(scale * sample + shift))
    assert abs(d0 - d1) < 1e-12


def test_independence_constant_is_exactly_zero():
    const = sequence_from_values(np.full(500, 0.1))
    assert independence_estimator(const, 400, 7) == 0.0
    const2 = sequence_from_function(lambda k: np.full_like(k, -3.7), 100,
                                    name="c", magnitude_bound=3.7)
    assert independence_estimator(const2, 50, 2) == 0.0


def test_independence_alternating_sequence():
    vals = np.array([(-1.0) ** k for k in range(1, 201)])
    seq = sequence_from_values(vals)
    assert independence_estimator(seq, 100, 1) == -1.0


def test_independence_matches_double_pass_oracle():
    seq = mobius_sequence(10**4 + 2)
    vals = [float(v) for v in seq.values(1, 10**4 + 2)]
    n = 10**4
    for h in (1, 2):
        prod = 0.0
        left = 0.0
        right = 0.0
        for k in range(1, n + 1):
            prod += vals[k - 1] * vals[k + h - 1]
            left += vals[k - 1]
            right += vals[k + h - 1]
        oracle = prod / n - (left / n) * (right / n)
        assert independence_estimator(seq, n, h) == pytest.approx(oracle, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(finite_floats, min_size=12, max_size=120),
    h=st.integers(min_value=1, max_value=5),
)
def test_independence_matches_oracle_on_random_arrays(data, h):
    arr = np.asarray(data)
    n = arr.size - h
    if n < 1:
        return
    seq = sequence_from_values(arr)
    x, y = arr[:n], arr[h : h + n]
    oracle = float(np.dot(x, y)) / n - (x.sum() / n) * (y.sum() / n)
    assert independence_estimator(seq, n, h) == pytest.approx(oracle, abs=1e-10)


def test_independence_bound_error():
    seq = sequence_from_values(np.arange(10, dtype=np.float64))
    with pytest.raises(BoundError):
        independence_estimator(seq, 10, 1)


def test_exact_moments_do_not_wrap_int64():
    # f(k) = 1e8 + (k mod 2): sum f**2 over 1e5 terms is about 1e21.
    k = np.arange(1, 10**5 + 1)
    seq = sequence_from_values(1e8 + k % 2)
    assert seq.integer_valued
    assert empirical_moments(seq, 10**5) == (1e8 + 0.5, 0.25)


def test_integer_rho_rounds_once_from_exact_sums():
    # mean_xy - mean_x * mean_y cancels to 0.0 here; the true gap is about -0.25.
    n, h = 99995, 3
    f = [10**8 + k % 2 for k in range(1, n + h + 1)]
    seq = sequence_from_values(np.array(f, dtype=np.float64))
    assert seq.integer_valued
    p, s, c = sum(a * b for a, b in zip(f, f[h:])), sum(f[:n]), sum(f[h:])
    exact = Fraction(n * p - s * c, n * n)
    assert independence_estimator(seq, n, h) == float(exact)
    assert independence_estimator(seq, n, h) == pytest.approx(-0.25, abs=1e-9)


def test_float_variance_survives_a_large_offset():
    # E[f^2] - mean^2 cancels to 0.0 here; merged (count, mean, M2) does not.
    k = np.arange(1, 10**5 + 1)
    seq = sequence_from_values(1e8 + 0.5 * (k % 2))
    assert not seq.integer_valued
    assert empirical_moments(seq, 10**5) == (1e8 + 0.25, 0.0625)


def test_moments_and_lags_stream_exactly_across_blocks(monkeypatch):
    values = np.random.default_rng(7).integers(-9, 10, 300).astype(np.float64)
    seq = sequence_from_values(values)
    expected = (empirical_moments(seq, 290), independence_estimator(seq, 290, 7))
    monkeypatch.setenv("SUMMATORIA_BLOCK_SIZE", "4")
    assert (empirical_moments(seq, 290), independence_estimator(seq, 290, 7)) == expected
