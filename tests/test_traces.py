import contextlib
import io
import itertools
import math
import operator
import sys
import tracemalloc
import warnings
import weakref
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
from summatoria import cli, empirical, sieve, sublinear, traces
from summatoria.empirical import KSTrace, LagCorrelations, independence_estimator, ks_distances
from summatoria.traces import Block, exact_prefix_sums, stream

from moments import moments


def blocks_of(size):
    """Stream in blocks of ``size`` entries: the one blocking seam."""
    return mock.patch.object(sieve, "DEFAULT_BLOCK_SIZE", size)


@contextlib.contextmanager
def ks_samples(cap, cell):
    """KS samples of at most ``cap`` points and cells of ``cell`` entries for
    the probes built inside; yields the list of what each ``ks_distances``
    call gets, as {n: sample as a list}, and calls it through."""
    calls = []

    def record(samples):
        calls.append({n: sample.tolist() for n, sample in samples.items()})
        return ks_distances(samples)
    with mock.patch.object(empirical, "KS_SAMPLE_CAP", cap), \
            mock.patch.object(empirical, "RUN_CELL", cell), \
            mock.patch.object(empirical, "ks_distances", record):
        yield calls


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


@pytest.mark.parametrize("kind", ["integers", "reals"])
def test_wrapping_values_adds_under_a_byte_a_value(kind):
    # The array is held as given and its checks take chunks; checks of the
    # whole array would add 9 bytes a value.
    N = 2**20
    values = np.arange(N) % 3.0 if kind == "integers" else np.linspace(-1.0, 1.0, N)
    tracemalloc.start()
    try:
        seq = sequence_from_values(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.integer_valued == (kind == "integers") and np.shares_memory(seq.values(1, N), values)
    assert peak <= N


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
    with ks_samples(n, 4096) as calls, blocks_of(block_size):  # stride 1: every S(k)
        got = stream(sequence_from_values(np.array(values)), ns, [KSTrace(n)])
    assert calls == [{n: [float(s) for s in exact]}]
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
@given(st.lists(any_float, min_size=0, max_size=120), st.data(), st.integers(1, 128))
def test_exact_prefix_sums_match_fractions(values, data, chunk):
    # A small _CHUNK cuts the terms into several chunks, each sliced on its
    # own grid; every chunk's rows sum back to its segments.
    ends = sorted(data.draw(st.lists(st.integers(0, len(values)), min_size=1, max_size=30)))
    with mock.patch.object(traces, "_CHUNK", chunk), slices_seen() as seen:
        got = exact_prefix_sums(np.array(values, dtype=np.float64), ends)
    assert got == [sum(map(Fraction, values[:e]), Fraction(0)) for e in ends]
    for w, rows, g, bits, cuts in seen:
        check_slices(w, rows, g, bits, cuts)


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
    # is sliced in at most 3 rows of 37 bits and never takes the row of ints.
    values, ends = case
    with mock.patch.object(traces, "_CHUNK", chunk), slices_seen() as seen:
        got = exact_prefix_sums(np.array(values, dtype=np.float64), ends)
    assert got == [sum(map(Fraction, values[:e]), Fraction(0)) for e in ends]
    assert all(len(rows) <= 3 and rows[0].dtype != object for _, rows, *_ in seen)


def exact_prefixes(values: np.ndarray, ends) -> list[Fraction]:
    # Fraction sums of values[:e], over one common power of two.
    pairs = [v.as_integer_ratio() for v in values.tolist()]
    shift = max(d for _, d in pairs).bit_length() - 1
    acc = [0, *itertools.accumulate(n << (shift + 1 - d.bit_length()) for n, d in pairs)]
    return [Fraction(acc[e], 1 << shift) for e in ends]


@pytest.mark.parametrize("values, falls_back", [
    (1.0 / np.arange(1, 2**20 + 1), False),  # harmonic: 73 bits of span
    (np.exp(-np.arange(1, 2**16 + 1) / 1000), False),  # 147 bits, but chunk by chunk
    (np.tile([1e300, 5e-324, -1e300, 3.0], 2**14), True),  # 2070 bits in every chunk
], ids=["harmonic", "exp", "huge"])
def test_block_sums_peel_or_bin_and_are_exact(values, falls_back):
    ns = np.array([1, 2, 3, 1000, values.size // 2, values.size - 1])
    block = Block(1, values, 0, False)
    with slices_seen() as seen:
        _, sums = block.sums_at(ns)
        total = Block(1, values, 0, False).total
    assert any(rows[0].dtype == object for _, rows, *_ in seen) == falls_back
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


@contextlib.contextmanager
def slices_seen():
    """Record (w, rows, g, bits, cuts) of every ``traces._slices`` call."""
    seen, real = [], traces._slices

    def record(w, bits, cuts=None, out=None):
        rows, g = real(w, bits, cuts, out)
        seen.append((w.copy(), rows, g, bits, cuts))
        return rows, g

    with mock.patch.object(traces, "_slices", record):
        yield seen


def bit_span(w) -> int:
    # e - low for max|w| < 2**e and 2**low the least set bit of w: 8 rows of
    # b bits hold a span of up to 7b bits, and never one past 8b.
    ratios = [v.as_integer_ratio() for v in w.tolist() if v]
    low = min((n & -n).bit_length() - d.bit_length() for n, d in ratios)
    return math.frexp(max(map(abs, w.tolist())))[1] - low


def check_slices(w, rows, g, bits, cuts):
    # The rows sum back to w exactly, or, summed over the segments that
    # start at cuts, to w's segment sums; sliced rows are integers within
    # 2**bits a term, and w falls back to one row of ints only when it must:
    # where it needs more than 8 rows or reaches 2**(970 + bits), at which
    # the first sigma would overflow.
    starts = range(w.size) if cuts is None else cuts.tolist()
    sizes = np.diff([*starts, w.size])
    assert [sum((Fraction(int(row[i])) * Fraction(2) ** (g + bits * k)
                 for k, row in enumerate(rows)), Fraction(0)) for i in range(len(starts))] == \
        [sum(map(Fraction, w[a : a + n].tolist()), Fraction(0)) for a, n in zip(starts, sizes)]
    if rows[0].dtype == object:
        assert len(rows) == 1
        assert np.abs(w).max() >= 2.0 ** (970 + bits) or bit_span(w) > 7 * bits
    else:
        assert len(rows) <= 8
        assert all(np.all(np.abs(row) <= 2.0**bits * sizes) and np.all(row == np.round(row))
                   for row in rows)
        assert not w.any() or (np.abs(w).max() < 2.0 ** (970 + bits) and bit_span(w) <= 8 * bits)


@st.composite
def dot_cases(draw):
    # Windows of 1, 3 or 8 pairs (a patched _DOT_CHUNK) and lags up to
    # thrice that; terms whose bits lie within 53 to 2100 bits below a top
    # exponent, any float (subnormals, near DBL_MAX), zeros, and whole
    # windows of zeros.
    chunk = draw(st.sampled_from([1, 3, 8]))
    top = draw(st.integers(-1021, 1024))
    span = draw(st.sampled_from([53, 100, 140, 150, 2100]))
    term = st.builds(math.ldexp, st.integers(-2**53 + 1, 2**53 - 1),
                     st.integers(top - span, top - 53))
    values = draw(st.lists(st.one_of(term, any_float, st.just(0.0)), min_size=1, max_size=40))
    for k in draw(st.sets(st.integers(0, len(values) // chunk), max_size=3)):
        values[k * chunk : (k + 1) * chunk] = [0.0] * len(values[k * chunk : (k + 1) * chunk])
    n, spans = len(values), []
    for h in draw(st.lists(st.integers(0, 3 * chunk + 1), min_size=1, max_size=4)):
        spans.append((draw(st.integers(0, n - 1)), draw(st.integers(-1, max(-1, n - 1 - h))), h))
    return values, chunk, spans


def exact_dots(values, spans) -> list[Fraction]:
    F = [Fraction(v) for v in values]
    return [sum((F[k] * F[k + h] for k in range(a, b + 1)), Fraction(0)) for a, b, h in spans]


@settings(max_examples=300, deadline=None)
@given(dot_cases())
@example(([0.0] * 9 + [1.5, -2.0**-60], 3, [(0, 10, 0), (0, 6, 4)]))  # a window of zeros
@example(([5e-324, -3e-320, 2.0**-1022] * 3, 3, [(0, 8, 0), (0, 2, 6)]))  # subnormals
@example(([sys.float_info.max, -2.0**987, 2.0**988, 1.0], 1, [(0, 3, 0), (0, 0, 3)]))
@example(([1.0, 2.0**-150, 3.0, 2.0**-130] * 4, 8, [(0, 15, 0), (0, 5, 10)]))  # 151 bits
def test_sliced_dots_match_fraction_sums(case):
    values, chunk, spans = case
    x = np.array(values, dtype=np.float64)
    with mock.patch.object(traces, "_DOT_CHUNK", chunk), slices_seen() as seen:
        got = Block(1, x, 0, False).dots(x, spans)
    assert got == exact_dots(values, spans)
    for w, rows, g, bits, cuts in seen:
        check_slices(w, rows, g, bits, cuts)


def test_a_window_of_the_largest_rows_dots_exactly():
    # 2**15 + 1 copies of 1 - 2**-53: the top row is 2**18 everywhere, so
    # its dot with itself over one window is 2**51, the most it may be.
    C, v = traces._DOT_CHUNK, 1 - 2.0**-53
    x = np.full(C + 1, v)
    with slices_seen() as seen:
        got = Block(1, x, 0, False).dots(x, [(0, C - 1, 1), (0, C, 0)])
    assert got == [C * Fraction(v) ** 2, (C + 1) * Fraction(v) ** 2]
    (_, rows, *_), *_ = seen
    assert np.all(rows[-1] == 2.0**18) and np.dot(rows[-1][:C], rows[-1][1:]) == 2.0**51


@settings(max_examples=200, deadline=None)
@given(dot_cases(), st.integers(0, 2**16), st.booleans())
@example(([2.0**987, -3.0, 2.0**900], 1, [(0, 2, 0), (0, 0, 2)]), 1, True)
def test_dots_of_a_sample_scaled_by_a_power_of_two_scale_exactly(case, pick, at_edge):
    # dots(x * 2**k) = 4**k dots(x) for every k at which the scaling is
    # exact, on narrow and wide samples, and across max|x| = 2**988, where
    # slicing gives way to the fallback (k at the edge).
    values, chunk, spans = case
    x = np.array(values, dtype=np.float64)
    k = pick % 2201 - 1100
    if x.any():
        e, span = math.frexp(np.abs(x).max())[1], bit_span(x)
        lowest, highest = -1074 - (e - span), 1024 - e
        edge = [j for j in (988 - e, 989 - e) if lowest <= j <= highest]
        k = edge[pick % len(edge)] if at_edge and edge else lowest + pick % (highest - lowest + 1)
    with mock.patch.object(traces, "_DOT_CHUNK", chunk):
        block = Block(1, x, 0, False)
        scaled = np.ldexp(x, k)
        assert np.array_equal(np.ldexp(scaled, -k), x)  # the scaling is exact
        assert block.dots(scaled, spans) == [t * Fraction(4) ** k for t in block.dots(x, spans)]


def test_a_far_lag_reads_one_window_of_its_own():
    # Each window takes _DOT_CHUNK values at a lag past it, not the whole
    # stretch up to that lag.  So the traced peak of dots is two windows'
    # rows and their values (8 windows' worth at lag 1, 20 and 22 at lags of
    # 4 and 16 windows), where slicing the stretch took 52 and 166.
    C = traces._DOT_CHUNK
    x = weighted_mobius_sequence(20 * C).values(1, 20 * C)
    block = Block(1, x, 0, False)
    pairs = [v.as_integer_ratio() for v in x.tolist()]  # x as ints over 2**shift
    shift = max(d for _, d in pairs).bit_length() - 1
    ints = np.array([n << (shift + 1 - d.bit_length()) for n, d in pairs], dtype=object)
    for h in (1, 4 * C, 16 * C):
        spans = [(0, 4 * C - 1, 0), (0, 4 * C - 1, 3), (0, 4 * C - 1, h)]
        tracemalloc.start()
        try:
            got = block.dots(x, spans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * C * 8, h
        assert got == [Fraction(int(np.dot(ints[a : b + 1], ints[a + d : b + d + 1])),
                                1 << 2 * shift) for a, b, d in spans]


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
    with ks_samples(len(values), cell) as calls, blocks_of(block_size):
        stream(sequence_from_values(np.array(values)), len(values), [KSTrace(len(values))])
    assert calls == [{len(values): expected}]


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
    with ks_samples(cap, cell) as pooled, blocks_of(block_size):
        stream(sequence_from_values(values), ns[-1], [KSTrace(ns, sums=sums)])
    with ks_samples(cap, cell) as alone, blocks_of(block_size):
        stream(sequence_from_values(values), ns[-1], [KSTrace(n, sums=sums) for n in ns])
    assert [got for call in pooled for got in call.items()] == [
        got for call in alone for got in call.items()]
    assert len(pooled) == len({-(-n // cap) for n in ns})  # one KS call per stride


def test_strided_samples_beyond_the_budget_are_refused():
    cps = geometric_checkpoints(10**9, 10**6, 1.01)  # about 3.3e8 sample points
    with pytest.raises(CapacityError, match="budget of 134217728"):
        KSTrace(cps)
    KSTrace(geometric_checkpoints(10**9))  # the default schedule: 76 MiB


@pytest.mark.parametrize("argv", [
    ["verdict", "--function", "mu-over-k", "--N", "6000", "--checkpoints", "geometric(20,1.3)"],
    ["analyze", "--function", "mu", "--N", "3000", "--lag", "1,100"],
], ids=["verdict", "analyze"])
def test_each_stride_is_finished_once_between_blocks(monkeypatch, argv):
    # A KS cap of 100 gives the verdict many strides.  Each stride reaches
    # ks_distances once, over its checkpoints in increasing order, when the
    # stream has passed the largest and the last block built is dead; the
    # first strides are finished while blocks are still to come.
    monkeypatch.setattr(empirical, "KS_SAMPLE_CAP", 100)
    real_block = traces.Block
    blocks, finished = [], []

    def block(*args):
        made = real_block(*args)
        blocks.append(weakref.ref(made))
        return made

    def spied(samples):
        finished.append((list(samples), len(blocks), blocks[-1]() is None))
        return ks_distances(samples)

    def run():
        out = io.StringIO()
        with blocks_of(64), contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    plain = run()
    with mock.patch.object(traces, "Block", block), \
            mock.patch.object(empirical, "ks_distances", spied):
        assert run() == plain
    N = int(argv[4])
    ns = cli.parse_checkpoints(argv[6], N).tolist() if argv[0] == "verdict" else [N]
    groups = [got for got, _, _ in finished]
    assert [n for group in groups for n in group] == ns  # once each, in increasing order
    strides = [{-(-n // 100) for n in group} for group in groups]
    assert all(len(s) == 1 for s in strides) and len(set().union(*strides)) == len(groups)
    assert len({-(-n // 100) for n in ns}) == len(groups) > (10 if argv[0] == "verdict" else 0)
    assert all(dead for _, _, dead in finished)
    assert finished[0][1] < len(blocks)
    for group, built, _ in finished:  # the stream had passed the largest n, not the next block
        assert (built - 1) * 64 < max(group) <= built * 64 or built == len(blocks)


def test_finished_strides_leave_memory_as_the_stream_passes_them():
    # tracemalloc counts an array from its allocation, and a probe makes its
    # stride arrays when it is built, so its traced peak holds all of them;
    # the resident pages of a stride array grow as the stream writes it.
    # What tracemalloc does show is each array leaving: when a stride is
    # finished, the memory traced since the probe was built is no more than
    # the arrays of the strides not yet finished, and at the end it is less
    # than one of them, where before the probe held every array to the end.
    size, cap = 1 << 15, 8000
    cps = geometric_checkpoints(1 << 21, cap, 1.1)
    seq = weighted_mobius_sequence(int(cps[-1]))
    strides = {}
    for n in cps.tolist():
        strides[-(-n // cap)] = n
    arrays = [8 * (n // s) for s, n in strides.items()]  # bytes, in finishing order
    held = []
    with blocks_of(size), mock.patch.object(empirical, "KS_SAMPLE_CAP", cap):
        # the prime table, the small-prime tile and a first finish
        stream(seq, 3 * size, [KSTrace([size, 2 * size])])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]

            def finish(samples):
                held.append(tracemalloc.get_traced_memory()[0] - base)
                return ks_distances(samples)
            with mock.patch.object(empirical, "ks_distances", finish):
                stream(seq, int(cps[-1]), [KSTrace(cps)])
            end = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    assert len(arrays) == len(held) > 40
    # Slack: one array, for the checkpoint sums, the spy's list and the
    # interpreter's own caches (about 24 KB measured).
    assert all(h <= sum(arrays[j:]) + 8 * cap for j, h in enumerate(held))
    assert end < 8 * cap < sum(arrays) / 40


@pytest.mark.parametrize("kind", ["integer", "object", "real"])
@pytest.mark.parametrize("block_size", [1, 5, 13, 64, 500])
def test_lag_sums_straddle_a_tail_longer_than_a_block(kind, block_size):
    # Pairs whose first term is before the block come from the carried tail
    # and the block's head; the rest read the block in place, in windows of
    # 4 pairs.  Lags up to 12 make the tail longer than the smaller blocks;
    # "object" starts with values whose squares leave int64, so a block of
    # small ones follows an object tail.
    rng = np.random.default_rng(11)
    n, lags = 200, (0, 1, 3, 12)
    values = {"integer": rng.integers(-9, 10, n + 12).astype(np.float64),
              "object": np.concatenate((rng.integers(-2**40, 2**40, 30),
                                        rng.integers(-9, 10, n - 18))).astype(np.float64),
              "real": rng.standard_normal(n + 12) * 2.0 ** rng.integers(-60, 60, n + 12)}[kind]
    probe = LagCorrelations(n, lags)
    with blocks_of(block_size), mock.patch.object(traces, "_DOT_CHUNK", 4):
        stream(sequence_from_values(values), n + 12, [probe])
    F = [Fraction(v) for v in values.tolist()]
    assert probe.products == {h: sum((F[k] * F[k + h] for k in range(n)), Fraction(0))
                              for h in lags}
