import io
import itertools
import math
import operator
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summatoria import (
    ArithmeticSequence,
    CapacityError,
    NumericError,
    geometric_checkpoints,
    liouville_trace,
    mertens_trace,
    mobius_oracle,
    mobius_sequence,
    sequence_from_function,
    sequence_from_values,
    summatory_trace,
    weighted_mobius_sequence,
    weighted_mobius_trace,
    write_trace_csv,
)
from summatoria import sieve, sublinear, traces
from summatoria.empirical import independence_estimator
from summatoria.traces import Block, Strided, exact_prefix_sums, stream

from moments import moments


def blocks_of(size):
    """Stream in blocks of ``size`` entries: the one blocking seam."""
    return mock.patch.object(sieve, "DEFAULT_BLOCK_SIZE", size)


def test_mertens_examples():
    assert mertens_trace(10, [10]).values.tolist() == [-1]
    assert mertens_trace(1, [1]).values.tolist() == [1]
    # Frozen from the trial-division oracle: sum of mu(k) for k <= 100.
    assert sum(mobius_oracle(k) for k in range(1, 101)) == 1
    assert mertens_trace(100, [100]).values.tolist() == [1]


def test_mertens_trace_is_exact_integer():
    trace = mertens_trace(1000, [10, 100, 1000])
    assert trace.values.dtype == np.int64


def test_values_beyond_two_to_the_53_are_not_integer_valued():
    seq = sequence_from_values(np.array([1e19, 1.0]))
    assert not seq.integer_valued
    assert summatory_trace(seq, 2, [1, 2]).values.tolist() == [1e19, 1e19 + 1.0]
    assert sequence_from_values(np.array([2.0**53, -1.0])).integer_valued


def test_integer_sums_past_int64_stay_exact():
    # S(1) fits int64 and S(1100) does not: one array of both must not be float64
    seq = sequence_from_values(np.full(1100, 2.0**53 - 1))
    trace = summatory_trace(seq, 1100, [1, 1100])
    assert trace.values.tolist() == [2**53 - 1, 1100 * (2**53 - 1)]
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    assert buf.getvalue() == f"n,S\n1,{2**53 - 1}\n1100,{1100 * (2**53 - 1)}\n"


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
        with blocks_of(size):
            split = mertens_trace(4999, cps)
        assert np.array_equal(one.values, split.values)


def test_weighted_trace_stable_across_block_splits():
    cps = [10, 100, 1000, 10000]
    one = weighted_mobius_trace(10**4, cps)
    with blocks_of(129):
        split = weighted_mobius_trace(10**4, cps)
    assert np.allclose(one.values, split.values, rtol=0, atol=1e-15)


def test_threaded_trace_is_identical():
    # The name predates the one-thread stream; only the blocking varies here.
    # Blocks of 4096 stream mu(k)/k, 49 blocks against one.
    cps = geometric_checkpoints(200_000)
    base = weighted_mobius_trace(200_000, cps)
    exact = mertens_trace(200_000, cps)
    with blocks_of(4096):
        assert np.array_equal(base.values, weighted_mobius_trace(200_000, cps).values)
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


def geometric_loop(N, start, ratio):
    """The one-product-per-step loop that ``geometric_checkpoints`` replaced,
    which raised OverflowError at round(inf) where this one stops."""
    out, x = [], float(start)
    while math.isfinite(x) and round(x) <= N:
        if not out or round(x) > out[-1]:
            out.append(round(x))
        x *= ratio
    return out


@settings(max_examples=200, deadline=None)
@given(N=st.integers(1, 10**6), start_fraction=st.floats(0.0, 1.0),
       ratio=st.one_of(st.floats(1.001, 1.1), st.floats(1.1, 1e3),
                       st.sampled_from([1.5, 2.0, 10.0, 1e150, 1e308, 2, 3, 10**200])),
       chunk=st.sampled_from([1, 2, 3, 7, 1 << 16]))
def test_geometric_checkpoints_match_the_loop(N, start_fraction, ratio, chunk):
    # small chunks put chunk ends everywhere, and give chunks with no new value
    start = max(1, int(start_fraction * N))
    with mock.patch.object(traces, "_GEOMETRIC_CHUNK", chunk), warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes
        got = geometric_checkpoints(N, start, ratio)
    assert got.dtype == np.int64
    assert got.tolist() == geometric_loop(N, start, ratio)


def test_geometric_checkpoints_edges():
    assert geometric_checkpoints(100, start=10, ratio=1e308).tolist() == [10]
    # N beyond 2**53: round(x) <= N compares exactly
    big = 2**53 + 1
    assert geometric_checkpoints(big, start=big, ratio=2.0).tolist() == [2**53]
    with pytest.raises(ValueError):
        geometric_checkpoints(100, ratio=math.nan)
    with pytest.raises(ValueError, match="int64"):
        geometric_checkpoints(10**30, start=10**19, ratio=2.0)


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
    with blocks_of(37):
        trace = summatory_trace(seq, n, [n])
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
    seq = ArithmeticSequence("f", 10, True,
                             lambda lo, hi: fn(np.arange(lo, hi + 1, dtype=np.float64)))
    with pytest.raises(NumericError, match="integer-valued"):
        summatory_trace(seq, 10, [10])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=1, max_size=300)
       .filter(lambda v: any(x != round(x) for x in v)),
       st.integers(1, 64))
def test_stream_merges_block_sums_exactly(values, block_size):
    # Exact block sums, merged exactly and rounded once: the correctly
    # rounded total at every block size.
    seq = sequence_from_values(np.array(values))
    assert not seq.integer_valued
    with blocks_of(block_size):
        assert stream(seq, len(values), []).tolist() == [math.fsum(values)]


def test_stream_total_is_correctly_rounded():
    # A compensated float running sum can return 1.0 here; the true sum rounds up.
    seq = sequence_from_values(np.array([1.0, 2.0**-53, 2.0**-110]))
    with blocks_of(1):
        assert stream(seq, 3, []).tolist() == [1.0000000000000002]


near_2_62 = st.builds(operator.mul, st.sampled_from([-1, 1]), st.integers(2**62 - 2**20, 2**62))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=1, max_size=200),
                 st.lists(st.integers(-3, 3), min_size=1, max_size=200),
                 st.lists(near_2_62, min_size=1, max_size=40)),
       st.integers(1, 64), st.data())
def test_stream_returns_the_sum_at_each_n_rounded_once(values, block_size, data):
    # Several n in one block and the last n inside its block: each S(n) is
    # the exact prefix sum rounded once, and integers stay exact past int64.
    integers = isinstance(values[0], int)
    arr = np.array(values, dtype=np.int64 if integers else np.float64)
    seq = ArithmeticSequence("f", arr.size, integers, lambda lo, hi: arr[lo - 1 : hi])
    last = data.draw(st.integers(1, arr.size).filter(lambda n: block_size == 1 or n % block_size))
    lo = data.draw(st.integers(0, (last - 1) // block_size)) * block_size + 1
    inside = data.draw(st.lists(st.integers(lo, min(lo + block_size - 1, last)), max_size=6))
    ns = sorted({*inside, *data.draw(st.lists(st.integers(1, last), max_size=6)), last})
    exact = list(itertools.accumulate(map(Fraction, values)))
    expected = [int(exact[n - 1]) if integers else float(exact[n - 1]) for n in ns]
    with blocks_of(block_size):
        got, alone = stream(seq, np.array(ns), []), stream(seq, last, [])
    assert got.tolist() == expected and alone.tolist() == expected[-1:]
    fits = all(-2**63 <= v < 2**63 for v in expected)
    assert got.dtype == (np.float64 if not integers else np.int64 if fits else object)


class Keep:
    """Probe: every block it is handed."""

    def __init__(self):
        self.blocks = []

    def add(self, block):
        self.blocks.append(block)


def spy_cumsum():
    return mock.patch.object(np, "cumsum", wraps=np.cumsum)


def cumsums_built(blocks, spy) -> list[int]:
    """The lo of each block whose values ``np.cumsum`` copied whole into a
    new array: a block's worth of memory."""
    return [block.lo for call in spy.call_args_list for block in blocks
            if call.args[0] is block.values and call.kwargs.get("out") is None]


@pytest.mark.parametrize("ns", [1000, [450, 1000], [1, 100, 101, 450, 999, 1000]])
def test_no_block_builds_a_cumsum(ns):
    # S(last) is rounded from the exact total and an earlier S(n) from sums
    # of the segments up to it, so no block is copied whole into an int64
    # cumsum, a block's worth of memory.
    keep = Keep()
    with blocks_of(100), spy_cumsum() as spy:
        stream(mobius_sequence(1000), ns, [keep])
    assert len(keep.blocks) == 10 and cumsums_built(keep.blocks, spy) == []


def test_the_sublinear_table_stream_builds_no_cumsum():
    # The table's own cumsum writes into the table: no block-sized copy.
    keep = Keep()

    class Table(sublinear.Table):
        def add(self, block):
            super().add(block)
            keep.add(block)

    with blocks_of(8), mock.patch.object(sublinear, "Table", Table), spy_cumsum() as spy:
        assert sublinear.sums(mobius_sequence(1000), [1000], 40) == [2]  # M(1000)
    assert len(keep.blocks) == 5 and cumsums_built(keep.blocks, spy) == []
    assert spy.call_count == 5


@pytest.mark.parametrize("block_size", [8, 1000])
@pytest.mark.parametrize("values", [
    [1.0] * 8 + [2.0**53] * 4000,  # an int64 block, then object blocks in one cell
    [2.0**53] * 1100 + [1.0] * 3000,  # S leaves int64 before blocks of small values
], ids=["int64-then-object", "small-past-int64"])
def test_integer_strided_sums_are_exact_across_block_dtypes(values, block_size):
    # An np.int64 sum carried into object blocks would overflow, and so
    # would an int64 block whose S(k) leave int64.
    exact = list(itertools.accumulate(int(v) for v in values))
    n, ns = len(values), [4, 1105, 2001, len(values)]
    probe = Strided(n, n)  # stride 1: every S(k)
    with mock.patch.object(traces, "RUN_CELL", 4096), blocks_of(block_size):
        got = stream(sequence_from_values(np.array(values)), ns, [probe])
    assert probe.sample(n).tolist() == [float(s) for s in exact]
    assert got.tolist() == [exact[k - 1] for k in ns]


def test_infinite_term_fails_loudly():
    seq = sequence_from_function(lambda k: np.where(k == 5, np.inf, 1.0), 10)
    with blocks_of(3), pytest.raises(NumericError, match=r"f\(4\.\.6\) is not finite"):
        summatory_trace(seq, 10, [10])


@pytest.mark.parametrize("block_size", [1, 2])
def test_overflowing_sum_fails_loudly(block_size):
    seq = sequence_from_values(np.array([1e308, 1e308]))
    with blocks_of(block_size), pytest.raises(NumericError, match="not finite"):
        stream(seq, 2, [])


# Terms across the whole float64 range: subnormals, signed zeros, and
# mantissas scaled by every exponent.
any_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
)


def block_sum(values) -> float:
    block = Block(1, np.array(values, dtype=np.float64), 0, False)
    return block.rounded(block.total)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_float, min_size=1, max_size=200))
def test_block_sum_is_correctly_rounded(values):
    try:
        expected = math.fsum(values)
    except OverflowError:  # fsum overflows inside even where the exact sum fits
        try:
            expected = float(sum(map(Fraction, values)))
        except OverflowError:
            with pytest.raises(NumericError, match="not finite"):
                block_sum(values)
            return
    assert block_sum(values) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(any_float, min_size=0, max_size=120), st.data(), st.integers(1, 4096))
def test_exact_prefix_sums_match_fractions(values, data, max_bins):
    # A small _MAX_BINS splits the segments over several bincount calls.
    ends = sorted(data.draw(st.lists(st.integers(0, len(values)), min_size=1, max_size=30)))
    saved, traces._MAX_BINS = traces._MAX_BINS, max_bins
    try:
        got = exact_prefix_sums(np.array(values, dtype=np.float64), ends)
    finally:
        traces._MAX_BINS = saved
    assert got == [sum(map(Fraction, values[:e]), Fraction(0)) for e in ends]


@st.composite
def narrow_sums(draw):
    # Terms whose bits all lie in [2**(top - 93), 2**top), top short of the
    # float range, and ends that include 0, duplicates and n.
    top = draw(st.integers(-1030, 900))
    term = st.builds(math.ldexp, st.integers(-2**53 + 1, 2**53 - 1),
                     st.integers(top - 93, top - 53))
    values = draw(st.lists(st.one_of(term, st.just(0.0)), max_size=150))
    ends = st.one_of(st.integers(0, len(values)), st.sampled_from([0, len(values)]))
    return values, sorted(draw(st.lists(ends, min_size=1, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(narrow_sums(), st.integers(1, 64))
@example(([0.5, 2.0**-30, -3.0], [0, 1, 1, 3, 3]), 1)
@example(([0.5, 2.0**-30, -3.0], [0, 1, 1, 3, 3]), 64)
@example(([1 - 2.0**-53] * 5 + [-3 * 2.0**-51], [6]), 64)  # sigma = 4, not 8, would round
def test_peeled_prefix_sums_match_fractions(case, chunk):
    # A small _CHUNK cuts the segments at chunk boundaries; a narrow span
    # is peeled in at most _LEVELS levels and never binned.
    values, ends = case
    with (mock.patch.object(traces, "_CHUNK", chunk),
          mock.patch.object(traces, "_binned_sums", side_effect=AssertionError("binned"))):
        got = exact_prefix_sums(np.array(values, dtype=np.float64), ends)
    assert got == [sum(map(Fraction, values[:e]), Fraction(0)) for e in ends]


def exact_prefixes(values: np.ndarray, ends) -> list[Fraction]:
    # Fraction sums of values[:e], over one common power of two.
    pairs = [v.as_integer_ratio() for v in values.tolist()]
    shift = max(d for _, d in pairs).bit_length() - 1
    acc = [0, *itertools.accumulate(n << (shift + 1 - d.bit_length()) for n, d in pairs)]
    return [Fraction(acc[e], 1 << shift) for e in ends]


@pytest.mark.parametrize("values, binned", [
    (1.0 / np.arange(1, 2**20 + 1), False),  # harmonic: 73 bits of span
    (np.exp(-np.arange(1, 2**16 + 1) / 1000), True),  # 147 bits: a rest is left
    (np.tile([1e300, 5e-324, -1e300, 3.0], 2**14), True),  # sigma would overflow
], ids=["harmonic", "exp", "huge"])
def test_block_sums_peel_or_bin_and_are_exact(values, binned):
    ns = np.array([1, 2, 3, 1000, values.size // 2, values.size - 1])
    block = Block(1, values, 0, False)
    with mock.patch.object(traces, "_binned_sums", wraps=traces._binned_sums) as spy:
        _, sums = block.sums_at(ns)
        total = Block(1, values, 0, False).total
    assert spy.called == binned
    assert [*sums, total] == exact_prefixes(values, [*ns, values.size])


@pytest.mark.parametrize("values, dtype", [
    (np.random.default_rng(1).integers(-1, 2, 5000).astype(np.int8), np.int64),
    (np.random.default_rng(2).integers(-2**20, 2**20, 5000), np.int64),
    (np.random.default_rng(3).integers(-2**60, 2**60, 5000), object),  # |f|**2 * size > 2**63
], ids=["int8", "int64", "object"])
def test_exact_block_sums_at_match_a_cumsum(values, dtype):
    lo, start = 1001, -(2**62)
    block = Block(lo, values, start, True)
    assert block.dtype is dtype
    expected = start + np.cumsum(values.astype(object))  # S(lo..lo + i) as Python ints
    rng = np.random.default_rng(4)
    hi = lo + values.size - 1
    cases = [[lo], [hi], [lo, hi], [lo + 1, lo + 2, lo + 3],
             *(np.sort(rng.choice(np.arange(lo, hi + 1), k, replace=False))
               for k in (1, 2, 7, 100))]
    for hits in cases:
        ns = np.array([1, lo - 1, *hits, hi + 1, hi + 10**6])  # ns outside the block are skipped
        got_hits, sums = block.sums_at(ns)
        assert got_hits.tolist() == list(map(int, hits))
        assert sums == expected[np.subtract(hits, lo)].tolist()
        assert all(type(s) is int for s in sums)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_block_sum_of_a_non_finite_term_fails_loudly(bad):
    with pytest.raises(NumericError, match=r"a sum through f\(1\.\.3\) is not finite"):
        block_sum([1.0, bad, 2.0])


def test_block_sum_overflow_fails_only_at_rounding():
    # Binning by exponent cannot overflow: an exact sum back in range is fine.
    big = sys.float_info.max
    assert block_sum([big, big, -big]) == big
    with pytest.raises(NumericError, match="not finite"):
        block_sum([1e308, 1e308])


def block_dot(x, y):
    # One block holding x then y: the span pairing x[i] with y[i].
    block = Block(1, np.array([*x, *y], dtype=np.float64), 0, False)
    return block.dots(block.values, [(0, len(x) - 1, len(x))])[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(any_float, any_float), max_size=100))
def test_block_dot_is_exact(pairs):
    # Subnormals, signed zeros, products that underflow or pass DBL_MAX.
    x, y = [a for a, _ in pairs], [b for _, b in pairs]
    assert block_dot(x, y) == sum((Fraction(a) * Fraction(b) for a, b in pairs), Fraction(0))


def test_block_dot_of_extreme_products():
    tiny, big = 5e-324, sys.float_info.max
    assert block_dot([tiny, -tiny], [tiny, 0.5]) == Fraction(tiny) ** 2 - Fraction(tiny) / 2
    assert block_dot([big, big], [big, -big]) == 0
    assert block_dot([big], [2.0]) == 2 * Fraction(big)
    chunk = traces._DOT_CHUNK + 3  # more pairs than one pass takes
    k = np.arange(chunk) - 1000
    assert block_dot(k * 2.0**-1000, k[::-1] * 2.0**-900) == Fraction(int(k @ k[::-1]), 2**1900)


@pytest.mark.parametrize("kind", ["int8", "int64", "object", "float"])
def test_block_dots_sum_every_span_through_the_windows(kind):
    # Windows of 16 pairs: several lags on one x, spans that cross window
    # boundaries or start past the first window, and empty spans (b < a),
    # one with b < 0, which must not slice from the end of x.
    rng = np.random.default_rng(5)
    x = {"int8": rng.integers(-128, 128, 100).astype(np.int8),  # products leave int8
         "int64": rng.integers(-10**6, 10**6, 100),
         "object": rng.integers(-10**6, 10**6, 100).astype(object) * 2**70,
         "float": rng.standard_normal(100) * 2.0 ** rng.integers(-1000, 960, 100)}[kind]
    block = Block(1, x, 0, kind != "float")
    assert block.dtype is {"int8": np.int64, "int64": np.int64, "object": object,
                           "float": np.float64}[kind]
    spans = [(0, 99, 0), (0, 89, 10), (3, 40, 5), (12, 20, 3), (20, 60, 39), (40, 47, 1),
             (0, -1, 2), (30, 29, 1), (0, -5, 0)]
    F = [Fraction(v) for v in x.tolist()]
    with mock.patch.object(traces, "_DOT_CHUNK", 16):
        got = block.dots(x, spans)
    assert got == [sum((F[k] * F[k + h] for k in range(a, b + 1)), Fraction(0))
                   for a, b, h in spans]
    assert all(type(t) is (int if kind != "float" else Fraction) for t in got)


@pytest.mark.parametrize("n", [3, 8, 40])
def test_squares_that_underflow_give_the_exact_variance_and_rho(n):
    # f(k) near 1e-160: f(k)**2 is subnormal as a float, not as a Fraction.
    h = 1
    for seed in range(10):
        F = [Fraction(v) for v in 1e-160 * np.random.default_rng(seed).uniform(0.5, 2, n + h)]
        S = [Fraction(0), *itertools.accumulate(F)]
        gap = [n * sum(a * b for a, b in zip(F[:n], F[d:])) - S[n] * (S[n + d] - S[d])
               for d in (0, h)]
        seq = sequence_from_values(np.array(F, dtype=np.float64))
        for block_size in (n + h, 2):
            with blocks_of(block_size):
                got = (*moments(seq, n), independence_estimator(seq, n, h))
            assert got == (float(S[n] / n), float(gap[0] / n**2), float(gap[1] / n**2))


def test_variance_beyond_the_float_range_fails_loudly():
    seq = sequence_from_values(np.array([1e200, -1e200, 1e200]))
    with pytest.raises(NumericError, match="the variance is not finite"):
        moments(seq, 2)
    with pytest.raises(NumericError, match="rho at lag 1 is not finite"):
        independence_estimator(seq, 2, 1)


def test_checkpoints_inside_a_block_are_correctly_rounded():
    # 1/k summed naively drifts; each checkpoint must be the exact sum, rounded once.
    n = 3000
    terms = np.array([1.0 / k for k in range(1, n + 1)])
    exact = list(itertools.accumulate(map(Fraction, terms.tolist())))
    cps = list(range(1, n + 1, 7))
    seq = sequence_from_values(terms)
    for block_size in (n, 64, 1):
        with blocks_of(block_size):
            got = summatory_trace(seq, n, cps).values.tolist()
        assert got == [float(exact[c - 1]) for c in cps]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=200)
       .filter(lambda v: any(x != round(x) for x in v)),
       st.integers(1, 40), st.integers(1, 40))
def test_strided_sums_restart_from_the_rounded_sum_at_each_cell(values, cell, block_size):
    # S(k) is the correctly rounded S(c) plus the float cumsum of f(c+1..k),
    # for c the last multiple of RUN_CELL below k, at every block size.
    exact = [Fraction(0), *itertools.accumulate(map(Fraction, values))]
    expected = []
    for k in range(1, len(values) + 1):
        c = (k - 1) // cell * cell
        expected.append(float(exact[c]) + float(np.cumsum(values[c:k])[-1]))
    probe = Strided(len(values), len(values))
    with mock.patch.object(traces, "RUN_CELL", cell), blocks_of(block_size):
        stream(sequence_from_values(np.array(values)), len(values), [probe])
    assert probe.sample(len(values)).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 600), min_size=1, max_size=8, unique=True).map(sorted),
       st.integers(1, 400), st.integers(1, 300), st.integers(1, 200),
       st.sampled_from(["real", "integer", "mu-over-k"]), st.booleans(), st.integers(0, 99))
def test_one_probe_for_a_schedule_samples_as_one_probe_per_n(ns, cap, block_size, cell, kind,
                                                             sums, seed):
    rng = np.random.default_rng(seed)
    values = {"real": lambda: rng.standard_normal(ns[-1]),
              "integer": lambda: rng.integers(-3, 4, ns[-1]).astype(np.float64),
              "mu-over-k": lambda: weighted_mobius_sequence(ns[-1]).values(1, ns[-1])}[kind]()
    pooled = Strided(ns, cap, sums=sums)
    alone = [Strided(n, cap, sums=sums) for n in ns]
    with mock.patch.object(traces, "RUN_CELL", cell), blocks_of(block_size):
        stream(sequence_from_values(values), ns[-1], [pooled, *alone])
    assert [pooled.sample(n).tolist() for n in ns] == [p.sample(n).tolist()
                                                       for p, n in zip(alone, ns)]
    assert len(pooled._arrays) == len({-(-n // cap) for n in ns})


def test_strided_samples_beyond_the_budget_are_refused():
    cps = geometric_checkpoints(10**9, 10**6, 1.01)  # about 3.3e8 sample points
    with pytest.raises(CapacityError, match="budget of 134217728"):
        Strided(cps, 10**6)
    Strided(geometric_checkpoints(10**9), 10**6)  # the default schedule: 76 MiB
