"""Sums of mu and lambda past the sieve: the hyperbola recursion against the
stream, the choice of the table size, and the bounds of every path."""

import functools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import (
    BoundError,
    cli,
    liouville_sequence,
    mobius_sequence,
    sieve_block,
    summatory_trace,
    weighted_mobius_sequence,
)
from summatoria import sieve, sublinear
from summatoria.sequences import SUBLINEAR_BOUND
from summatoria.traces import stream

TOP = 2 * 10**6
SEQUENCES = {"mu": mobius_sequence, "lambda": liouville_sequence}


@functools.cache
def sieved_sums(name: str) -> np.ndarray:
    """S(0..TOP) from one sieve block."""
    blk = sieve_block(1, TOP)
    return np.concatenate(([0], np.cumsum(blk.mu if name == "mu" else blk.lam)))


def near_blocks():
    return st.integers(1, TOP // 2**20).flatmap(
        lambda k: st.sampled_from([k * 2**20 - 1, k * 2**20 + 1]))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SEQUENCES)),
       xs=st.lists(st.integers(1, TOP) | near_blocks(), min_size=1, max_size=6, unique=True),
       data=st.data())
def test_sublinear_sums_equal_the_sieve(name, xs, data):
    xs = sorted(xs)
    limit = data.draw(st.integers(math.isqrt(xs[-1]) + 1, max(math.isqrt(xs[-1]) + 1, 1 << 17)))
    got = sublinear.sums(SEQUENCES[name](TOP), xs, limit)
    assert got == sieved_sums(name)[xs].tolist()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SEQUENCES)),
       xs=st.lists(st.integers(1, 1000), min_size=1, max_size=8, unique=True),
       data=st.data(), block_size=st.integers(1, 64))
def test_tiny_tables_at_every_blocking(name, xs, data, block_size):
    xs = sorted(xs)
    limit = data.draw(st.integers(math.isqrt(xs[-1]) + 1, 40))
    with mock.patch.object(sieve, "DEFAULT_BLOCK_SIZE", block_size):
        got = sublinear.sums(SEQUENCES[name](1000), xs, limit)
    assert got == sieved_sums(name)[xs].tolist()


def test_a_table_below_the_square_root_is_refused():
    with pytest.raises(ValueError, match="reaches x <= 100"):
        sublinear.sums(mobius_sequence(1000), [101], 10)


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_sieve_and_sublinear_agree_at_1e8(name):
    seq, x = SEQUENCES[name](10**8), 10**8
    assert sublinear.table_limit(np.array([x])) < x
    assert summatory_trace(seq, x, [x]).values.tolist() == stream(seq, x, []).tolist()


def test_liouville_from_mertens_values():
    # L(x) = sum_{d <= sqrt x} M(x // d**2): the two hyperbola rules agree.
    x = 10**7
    xs = sorted({x // (d * d) for d in range(1, math.isqrt(x) + 1)})
    M = dict(zip(xs, sublinear.sums(mobius_sequence(x), xs, 20000)))
    expected = sum(M[x // (d * d)] for d in range(1, math.isqrt(x) + 1))
    assert sublinear.sums(liouville_sequence(x), [x], 20000) == [expected]


@pytest.mark.parametrize("checkpoints", [
    [10], [10**6], list(range(1, 1001)), [10**k for k in range(1, 8)] + [3 * 10**7],
    [10**9], [10**10, 10**11], [5 * 10**10],
])
def test_table_limit_stays_in_its_range(checkpoints):
    cps = np.array(checkpoints)
    limit, last = sublinear.table_limit(cps), checkpoints[-1]
    assert limit <= last
    if limit < last:
        assert math.isqrt(last) < limit <= sublinear.TABLE_MAX
    if last > 10**9:
        assert limit < last  # the sieve stops at 10**9


def test_dense_and_small_schedules_stream():
    dense = cli.parse_checkpoints("geometric(1,1.0001)", 10**6)
    assert sublinear.table_limit(dense) == dense[-1]
    assert sublinear.table_limit(np.array([10, 100, 1000])) == 1000


@pytest.mark.parametrize("function", ["mu", "lambda"])
@pytest.mark.parametrize("N, checkpoints, streams", [
    (30_000_000, "geometric(10,2)", False), (30_000_000, "1000,30000000", False),
    (10**6, "geometric(1,1.001)", True), (1000, "geometric(10,1.5)", True),
])
def test_threads_do_not_change_bytes_on_either_path(function, N, checkpoints, streams, capsys):
    cps = cli.parse_checkpoints(checkpoints, N)
    assert (sublinear.table_limit(cps) == cps[-1]) == streams
    argv = ["compute", "--function", function, "--N", str(N), "--checkpoints", checkpoints]
    outs = []
    for threads in ("1", "2"):
        assert cli.main([*argv, "--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_sequences_refuse_bounds_past_their_reach():
    with pytest.raises(BoundError, match="mu is available up to 100000000000"):
        mobius_sequence(SUBLINEAR_BOUND + 1)
    with pytest.raises(BoundError, match="mu-over-k is available up to 1000000000,"):
        weighted_mobius_sequence(10**9 + 1)
    assert mobius_sequence(SUBLINEAR_BOUND).bound == 10**9


def test_stream_refuses_a_bound_before_any_block():
    calls = []
    seq = mobius_sequence(100)
    seq = type(seq)(seq.name, seq.bound, 1.0, True, lambda lo, hi: calls.append(lo))
    with pytest.raises(BoundError, match="index 101 exceeds the sequence bound 100"):
        stream(seq, 101, [])
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--function", "mu", "--N", "1000000000000", "--lag", "5"],
    ["analyze", "--function", "mu", "--N", "1000000000", "--lag", "5"],
    ["verdict", "--function", "lambda", "--N", "2000000000"],
    ["compute", "--function", "mu-over-k", "--N", "2000000000"],
    ["compute", "--function", "mu", "--N", "100000000001", "--checkpoints", "10"],
])
def test_past_the_bound_exits_one_at_once(argv, capsys):
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 3.0
    err = capsys.readouterr().err
    assert "exceeds" in err or "is available up to" in err
