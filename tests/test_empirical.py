import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from summatoria import (
    BoundError,
    DegenerateSampleError,
    empirical_cdf,
    independence_estimator,
    ks_distance,
    liouville_sequence,
    mobius_sequence,
    sequence_from_function,
    sequence_from_values,
)
from summatoria import cli, empirical, sieve
from summatoria.empirical import _ERFC_CUT, _KS_SLACK, _SQRT1_2, _normal_cdf_sorted

from moments import moments
from reference_ks import ks_distance_full

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_empirical_moments_examples():
    mean, var = moments(mobius_sequence(10), 10)
    assert mean == -0.1
    assert var == 0.69  # 7 nonzero mu values in 1..10: the exact 69/100, rounded once
    const = sequence_from_function(lambda k: np.full_like(k, 2.5), 50, name="c")
    _, var_c = moments(const, 50)
    assert var_c == pytest.approx(0.0, abs=1e-12)
    mean_l, var_l = moments(liouville_sequence(10), 10)
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
    _, v0 = moments(seq, n)
    _, v_shift = moments(sequence_from_values(base + shift), n)
    _, v_scale = moments(sequence_from_values(base * scale), n)
    assert v_shift == pytest.approx(v0, rel=1e-10, abs=1e-12)
    assert v_scale == pytest.approx(scale * scale * v0, rel=1e-10, abs=1e-12)


def test_empirical_cdf_examples():
    d = empirical_cdf([3, 1, 2])
    assert (d.sample.tolist(), d.n, d.mean, d.variance) == ([1.0, 2.0, 3.0], 3, 2.0, 2 / 3)
    single = empirical_cdf([5])
    assert (single.sample.tolist(), single.mean, single.variance) == ([5.0], 5.0, 0.0)
    ties = empirical_cdf([1, 1, 2, 2])
    assert (ties.sample.tolist(), ties.mean, ties.variance) == ([1.0, 1.0, 2.0, 2.0], 1.5, 0.25)


def test_empirical_cdf_rejects_empty():
    with pytest.raises(ValueError):
        empirical_cdf([])


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_empirical_cdf_is_valid_cdf(values):
    d = empirical_cdf(values)
    assert np.all(np.diff(d.sample) >= 0)
    assert d.mean == pytest.approx(np.mean(values), rel=1e-12, abs=1e-12)
    assert d.variance >= 0


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


def test_normal_cdf_evaluates_no_branch_polynomial_on_an_empty_slice():
    calls = []

    def spy(x, coef, monic=False):
        assert x.size > 0, "a branch polynomial ran on an empty slice"
        calls.append(x.size)
        return polevl(x, coef, monic)

    polevl = empirical._polevl
    everywhere = np.linspace(-40.0, 40.0, 1001)
    with mock.patch.object(empirical, "_polevl", spy):
        for a in (np.array([-0.3, 0.4]), np.array([2.0]), np.array([-50.0, 50.0]),
                  np.array([]), everywhere):
            assert _ulps(_normal_cdf_sorted(a), ndtr(a)).max(initial=0) <= 4
        assert ks_distance(empirical_cdf(np.arange(5.0))) > 0.0
    assert calls and max(calls) < everywhere.size


def _ks_distance_with_ndtr(sample):
    """The KS statistic by ndtr and both step arrays, as the package had it."""
    d = empirical_cdf(sample)
    z = (d.sample - d.mean) / math.sqrt(d.variance)
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


# The branch cuts of Phi, in x = a / sqrt(2).
_CUTS = (_SQRT1_2, 1.0, 8.0, _ERFC_CUT)


def _astride_cuts(rng, n):
    """A normal sample plus 16 points that standardize to 0.99 and 1.01
    times each cut of Phi, on both sides of 0; n must be well above 6,200."""
    t = np.array([s * f * c / _SQRT1_2 for c in _CUTS for s in (-1, 1) for f in (0.99, 1.01)])
    bulk = rng.standard_normal(n - t.size)
    m = bulk.mean()  # the points t cancel in the mean, and add sd^2 sum(t^2) to n var
    sd = math.sqrt(np.sum((bulk - m) ** 2) / (n - np.sum(t * t)))
    return np.concatenate([bulk, m + sd * t])


@st.composite
def ks_samples(draw):
    kind = draw(st.sampled_from(["normal", "uniform", "ties", "walk", "cauchy", "cuts"]))
    n = draw(st.integers(10_000, 100_000) if kind == "cuts" else
             st.one_of(st.integers(2, 256), st.integers(257, 100_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cuts":
        return kind, _astride_cuts(rng, n)
    return kind, {"normal": lambda: rng.standard_normal(n),
                  "uniform": lambda: rng.uniform(-1.0, 1.0, n),
                  "ties": lambda: rng.integers(-2, 3, n) * 1.0,
                  "walk": lambda: np.cumsum(rng.integers(-1, 2, n)) * 1.0,
                  "cauchy": lambda: rng.standard_cauchy(n)}[kind]()


@settings(max_examples=80, deadline=None)
@given(drawn=ks_samples(), data=st.data())
def test_pruned_ks_distance_equals_the_full_evaluation(drawn, data):
    kind, sample = drawn
    d = empirical_cdf(sample)
    if d.variance <= 0.0:
        return
    if kind == "cuts":
        x = (d.sample - d.mean) / math.sqrt(d.variance) * _SQRT1_2
        for c in _CUTS:
            for side in (x, -x):
                assert ((0.98 * c < side) & (side < c)).any()
                assert ((c < side) & (side < 1.02 * c)).any()
    # Every grid step on a short sample, where a bound off by one step shows.
    for g in range(1, d.n + 1) if d.n <= 256 else [data.draw(st.integers(1, d.n))]:
        with mock.patch.object(empirical, "_KS_GRID", g):
            assert ks_distance(d) == ks_distance_full(d), g


def test_the_ks_slack_is_far_above_every_decrease_of_phi():
    # ks_distance's run bounds take Phi as increasing; near its branch cuts it
    # dips by about one ulp of 1 (2.2e-16 on numpy 2.4), a far cry from the slack.
    worst = 0.0
    for c in _CUTS:
        for edge in (c / _SQRT1_2, -c / _SQRT1_2):
            ulps = (np.array([edge]).view(np.int64) + np.arange(-50_000, 50_001)).view(np.float64)
            for a in (np.sort(ulps), np.linspace(edge * (1 - 1e-10), edge * (1 + 1e-10), 100_001),
                      np.linspace(edge - 1e-3, edge + 1e-3, 100_001)):
                worst = max(worst, -np.diff(_normal_cdf_sorted(a)).min())
    assert worst <= 1e-3 * _KS_SLACK


def test_ks_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        ks_distance(empirical_cdf([2.0, 2.0, 2.0]))


def test_ks_unknown_reference():
    # the self-standardized normal law is the only reference: no second argument
    with pytest.raises(TypeError):
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
    const2 = sequence_from_function(lambda k: np.full_like(k, -3.7), 100, name="c")
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
    assert moments(seq, 10**5) == (1e8 + 0.5, 0.25)


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
    # E[f^2] - mean^2 in floats cancels to 0.0 here; n sum f^2 - S(n)^2, exact
    # from exact products and rounded once, does not.
    k = np.arange(1, 10**5 + 1)
    seq = sequence_from_values(1e8 + 0.5 * (k % 2))
    assert not seq.integer_valued
    assert moments(seq, 10**5) == (1e8 + 0.25, 0.0625)


def test_integer_lag_products_across_blocks_of_different_dtypes(monkeypatch):
    # Block 1 needs Python ints, block 2 fits int64: f(2) f(3) = 2**64.
    f = [2**52, 2**52, 2**12, 2**12]
    seq = sequence_from_values(np.array(f, dtype=np.float64))
    n, h = 3, 1
    p, s, c = sum(a * b for a, b in zip(f[:n], f[h:])), sum(f[:n]), sum(f[h:])
    monkeypatch.setattr(sieve, "DEFAULT_BLOCK_SIZE", 2)
    assert independence_estimator(seq, n, h) == float(Fraction(n * p - s * c, n * n))


def test_a_repeated_lag_counts_once(capsys):
    assert cli.main(["analyze", "--function", "mu", "--N", "100", "--lag", "1,1,2",
                     "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    rho = [float(row.rsplit(",", 1)[1]) for row in rows]
    assert rho[0] == rho[1] == independence_estimator(mobius_sequence(102), 100, 1)


def test_moments_and_lags_stream_exactly_across_blocks(monkeypatch):
    values = np.random.default_rng(7).integers(-9, 10, 300).astype(np.float64)
    seq = sequence_from_values(values)
    expected = (moments(seq, 290), independence_estimator(seq, 290, 7))
    monkeypatch.setattr(sieve, "DEFAULT_BLOCK_SIZE", 4)
    assert (moments(seq, 290), independence_estimator(seq, 290, 7)) == expected


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-1100, 1000), st.integers(-500, -450), st.integers(480, 520)),
       st.integers(2, 3000), st.integers(0, 2**32 - 1))
def test_ks_distance_is_that_of_the_sample_scaled_near_one(e, n, seed):
    # z, and so D, are those of the sample scaled by 2**k, k = -frexp(max|x|)[1],
    # both where np.var of the raw sample keeps its bits and where it is
    # subnormal, zero or past DBL_MAX.
    x = np.ldexp(np.random.default_rng(seed).standard_normal(n), e)
    scaled = np.ldexp(x, -math.frexp(np.abs(x).max())[1])
    if np.ptp(scaled) == 0.0:  # subnormal draws can all round to one value
        with pytest.raises(DegenerateSampleError):
            ks_distance(empirical_cdf(x))
        return
    assert ks_distance(empirical_cdf(x)) == ks_distance(empirical_cdf(scaled))


# Ties, both zeros, subnormals, values near 1e150 (their squares near
# 1e300) and ordinary ones, drawn from a small pool so that ties are common.
moment_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e150, -1e150,
                     1.0000000000000002e150, 9.999999999999999e149, 1.0, -3.5]),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_subnormal=True))


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(moment_floats, min_size=1, max_size=60))
def test_one_pass_moments_are_numpys_bit_for_bit(values):
    arr = np.array(values)
    ordered = np.sort(arr)
    with np.errstate(all="ignore"):
        mean, variance = float(np.mean(ordered)), float(np.var(ordered))
    dist = empirical_cdf(arr)
    assert dist.sample.tobytes() == ordered.tobytes() and dist.n == arr.size
    assert (bits(dist.mean), bits(dist.variance)) == (bits(mean), bits(variance))


def test_one_point_has_its_own_mean_and_no_spread():
    for x in (-0.0, 5e-324, 1e150):
        dist = empirical_cdf([x])
        assert (bits(dist.mean), bits(dist.variance)) == (bits(np.mean([x])), bits(np.var([x])))


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=80), st.integers(1, 6))
def test_ks_distances_of_a_strides_prefixes(values, parts):
    # The prefixes one stride's checkpoints take, in increasing order; a
    # degenerate one reads nan, as a verdict reports it.
    arr = np.array(values)
    ends = sorted({max(1, arr.size * j // parts) for j in range(1, parts + 1)})
    samples = {e: arr[:e] for e in ends}
    expected = []
    for sample in samples.values():
        try:
            expected.append(ks_distance(empirical_cdf(sample)))
        except DegenerateSampleError:
            expected.append(math.nan)
    got = empirical.ks_distances(samples)
    assert list(got) == ends
    assert [bits(d) for d in got.values()] == [bits(d) for d in expected]


prefix_floats = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5]), finite_floats)


@settings(max_examples=200, deadline=None)
@given(st.lists(prefix_floats, min_size=1, max_size=60), st.data())
def test_ks_distances_sorts_each_prefix_in_place(values, data):
    # Increasing prefixes of one array, with ties, both zeros and single
    # points: each D has the bits of a sorted copy's, and each prefix is,
    # when its D is taken, its own values sorted (-0.0 and 0.0 may swap).
    arr = np.array(values)
    ends = sorted(data.draw(st.sets(st.integers(1, arr.size), min_size=1)))
    original = [arr[:e].copy() for e in ends]
    expected = []
    for sample in original:
        try:
            expected.append(ks_distance(empirical_cdf(sample)))
        except DegenerateSampleError:
            expected.append(math.nan)
    seen = []
    with mock.patch.object(empirical, "ks_distance",
                           lambda dist: seen.append(dist.sample.copy()) or ks_distance(dist)):
        got = empirical.ks_distances({e: arr[:e] for e in ends})
    assert [bits(d) for d in got.values()] == [bits(d) for d in expected]
    assert len(seen) == len(ends)
    assert all(np.array_equal(s, np.sort(o)) for s, o in zip(seen, original))
    assert np.array_equal(arr[: ends[-1]], np.sort(original[-1]))


def test_finishing_a_stride_holds_one_more_array():
    # The prefixes are sorted in place, so only the squared deviations of
    # the longest are an array of its size; a sorted copy beside them would
    # make two.
    N = 2**20
    arr = np.cumsum(np.random.default_rng(5).integers(-1, 2, N)) * 1.0
    tracemalloc.start()
    try:
        got = empirical.ks_distances({n: arr[:n] for n in (N // 4, N // 2, N)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(got) == [N // 4, N // 2, N] and peak <= 1.25 * 8 * N
