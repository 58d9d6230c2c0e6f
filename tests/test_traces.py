import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import (
    NumericError,
    geometric_checkpoints,
    liouville_trace,
    mertens_trace,
    mobius_oracle,
    mobius_sequence,
    sequence_from_function,
    sequence_from_values,
    summatory_trace,
    weighted_mobius_trace,
    write_trace_csv,
)


def test_mertens_examples():
    assert mertens_trace(10, [10]).values.tolist() == [-1]
    assert mertens_trace(1, [1]).values.tolist() == [1]
    # Frozen from the trial-division oracle: sum of mu(k) for k <= 100.
    assert sum(mobius_oracle(k) for k in range(1, 101)) == 1
    assert mertens_trace(100, [100]).values.tolist() == [1]


def test_mertens_trace_is_exact_integer():
    trace = mertens_trace(1000, [10, 100, 1000])
    assert trace.accumulation_kind == "exact-integer"
    assert trace.values.dtype == np.int64


def test_values_beyond_two_to_the_53_are_not_integer_valued():
    seq = sequence_from_values(np.array([1e19, 1.0]))
    assert not seq.integer_valued
    assert summatory_trace(seq, 2, [1, 2]).values.tolist() == [1e19, 1e19 + 1.0]
    assert sequence_from_values(np.array([2.0**53, -1.0])).integer_valued


def test_liouville_examples():
    assert liouville_trace(10, [10]).values.tolist() == [0]
    assert liouville_trace(1, [1]).values.tolist() == [1]
    assert liouville_trace(2, [2]).values.tolist() == [0]


def test_weighted_mobius_examples():
    assert weighted_mobius_trace(1, [1]).values.tolist() == [1.0]
    got = weighted_mobius_trace(3, [3]).values[0]
    assert got == pytest.approx(1 - Fraction(1, 2) - Fraction(1, 3), abs=1e-15)
    exact = sum(Fraction(mobius_oracle(k), k) for k in range(1, 11))
    got10 = weighted_mobius_trace(10, [10]).values[0]
    assert abs(got10 - float(exact)) <= 1e-14
    assert weighted_mobius_trace(10, [10]).accumulation_kind == "compensated-float"


def test_trace_against_oracle_cumsum():
    checkpoints = [10, 50, 100, 500, 1000]
    trace = mertens_trace(1000, checkpoints)
    running, expected = 0, []
    idx = iter(checkpoints)
    target = next(idx)
    for n in range(1, 1001):
        running += mobius_oracle(n)
        if n == target:
            expected.append(running)
            target = next(idx, None)
    assert trace.values.tolist() == expected


def test_trace_additivity_across_block_splits():
    cps = [7, 64, 500, 4999]
    one = mertens_trace(4999, cps)
    for size in (64, 97, 1024):
        split = mertens_trace(4999, cps, block_size=size)
        assert np.array_equal(one.values, split.values)


def test_weighted_trace_stable_across_block_splits():
    cps = [10, 100, 1000, 10000]
    one = weighted_mobius_trace(10**4, cps)
    split = weighted_mobius_trace(10**4, cps, block_size=129)
    assert np.allclose(one.values, split.values, rtol=0, atol=1e-15)


def test_threaded_trace_is_identical():
    cps = geometric_checkpoints(200_000)
    base = weighted_mobius_trace(200_000, cps, block_size=4096, threads=1)
    for threads in (2, 4):
        other = weighted_mobius_trace(200_000, cps, block_size=4096, threads=threads)
        assert np.array_equal(base.values, other.values)
    exact = mertens_trace(200_000, cps, block_size=4096, threads=3)
    assert np.array_equal(exact.values, mertens_trace(200_000, cps).values)


def test_triviality_bounds():
    cps = geometric_checkpoints(100_000)
    m = mertens_trace(100_000, cps)
    l = liouville_trace(100_000, cps)
    assert np.all(np.abs(m.values) <= cps)
    assert np.all(np.abs(l.values) <= cps)


def test_weighted_terms_bounded_by_one():
    from summatoria import weighted_mobius_sequence

    seq = weighted_mobius_sequence(10_000)
    vals = seq.values(1, 10_000)
    assert np.max(np.abs(vals)) <= 1.0


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        mertens_trace(100, [])
    with pytest.raises(ValueError):
        mertens_trace(100, [10, 10])
    with pytest.raises(ValueError):
        mertens_trace(100, [50, 20])
    with pytest.raises(ValueError):
        mertens_trace(100, [10, 200])
    with pytest.raises(ValueError):
        mertens_trace(100, [0, 10])


def test_geometric_checkpoints():
    cps = geometric_checkpoints(100)
    assert cps.tolist() == [10, 20, 40, 80]
    assert geometric_checkpoints(10).tolist() == [10]
    with pytest.raises(ValueError):
        geometric_checkpoints(100, ratio=1.0)
    with pytest.raises(ValueError):
        geometric_checkpoints(5, start=10)
    fractional = geometric_checkpoints(50, start=10, ratio=1.5)
    assert fractional.tolist() == [10, 15, 22, 34, 51][:4]


def test_csv_format_exact_and_float():
    buf = io.StringIO()
    write_trace_csv(mertens_trace(100, [10, 100]), buf)
    assert buf.getvalue() == "n,S\n10,-1\n100,1\n"
    buf = io.StringIO()
    write_trace_csv(weighted_mobius_trace(3, [1, 3]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,S"
    assert lines[1] == "1,1"
    # 17 significant digits, enough to round-trip the double exactly
    assert float(lines[2].split(",")[1]) == weighted_mobius_trace(3, [3]).values[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=2000), st.integers(min_value=1, max_value=400))
def test_trace_matches_direct_sum_of_materialized_values(n, seed_len):
    rng = np.random.default_rng(seed_len)
    vals = rng.integers(-3, 4, size=n).astype(np.float64)
    seq = sequence_from_values(vals)
    trace = summatory_trace(seq, n, [n], block_size=37)
    assert trace.values[0] == int(vals.sum())


def test_summatory_trace_respects_sequence_bound():
    seq = mobius_sequence(100)
    with pytest.raises(ValueError):
        summatory_trace(seq, 200, [200])


@pytest.mark.parametrize("fn", [
    lambda k: np.full_like(k, 1e19),  # beyond int64: the sum used to wrap negative
    lambda k: k / 2,  # not integers: the sum used to truncate to 25, not 27.5
])
def test_closed_form_declared_integer_fails_loudly(fn):
    seq = sequence_from_function(fn, 10, magnitude_bound=1e19, integer_valued=True)
    with pytest.raises(NumericError, match="integer-valued"):
        summatory_trace(seq, 10, [10])
