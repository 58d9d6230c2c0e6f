"""The one streaming engine: the blocking changes nothing but speed.

The golden hashes pin the output of every invocation in the README's
"Reproducing the reported values" table, as recorded before the statistics
were rebuilt on ``traces.stream``.  Five were re-pinned when float sums
became exact and rho began to round once: the two ``analyze mu`` rows, the
``mu-over-k`` verdict and both ``harmonic`` rows.  The ``analyze mu --N 10``
row moved again when the integer variance began to round once.  Each value
that moved has 0 ulps of error against an oracle sharing no code with the
package (exact prefix sums for S, exact fractions for rho and the variance).
The ``selftest`` row moved when the sieve-vs-sublinear suite was added: its
report gained that suite's line and counts six suites.  The M(10**11) and
L(10**11) rows came with the sublinear path; they hold the published values
(OEIS A084237, A090410).
"""

import contextlib
import hashlib
import io
import itertools
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import (
    cli,
    empirical,
    full_verdict,
    mobius_oracle,
    mobius_sequence,
    sequence_from_values,
    sieve,
    sublinear,
    summatory_trace,
    traces,
    weighted_mobius_sequence,
)
from summatoria.empirical import KSTrace, LagCorrelations, empirical_cdf, ks_distance
from summatoria.traces import stream

README_TABLE = {
    "compute --function mu --N 10 --checkpoints 10":
        "8b389d831d065b4a79a892bf2de5a4b1e7f5486733a546fa9a6149eb39430859",
    "compute --function mu --N 100 --checkpoints 10,100":
        "fd68eae2fb3ac15966a6f268814314c76599008702be55fd0123e04c62b716a2",
    "compute --function mu --N 1000000 --checkpoints 1000000":
        "40bfeb3330f56ba762008d02113860c26cb0ffcc382d9e47827a456e4efaf6ce",
    "compute --function mu --N 100000000000 --checkpoints 100000000000":
        "ea3a530a79d0b84be187c29107009cbd4dacc069b59f0535918f0a5eb14b3d64",
    "compute --function lambda --N 100000000000 --checkpoints 100000000000":
        "f806a6167a88127963db1d9c93d7bf943b960e51bfb0668260d40ac4deb236a8",
    "compute --function lambda --N 10 --checkpoints 2,10":
        "6709c36e49e3891bd375afdd142bcfb7056979ac844bf5bc827f91199e33e113",
    "compute --function mu-over-k --N 3 --checkpoints 3":
        "2b340a6407b3dc45ddd848b48c24a632531e48659dea82863c2f6d941cbbbbff",
    "verdict --function mu-over-k --N 10000000 --checkpoints geometric(1000,2)":
        "700fee42255763a53f27c343b830d43fc7ef9f96fee650d66dc225649aabc52c",
    "analyze --function mu --N 10 --lag 1":
        "534e80724e08445ae0f0d40299f1af14f2e40c18b3f84735bf739521c4e34889",
    "analyze --function mu --N 10000 --lag 1,2":
        "5b6658f34901833c4594d18e8cd6eb5432758e37fb149f88353dead30ad761af",
    "verdict --function harmonic --N 1000000":
        "de9e3e6171ecc6a1e5674e71f9620d2c88ed7d96dfc658ab356d9400cefe2c42",
    "compute --function harmonic --N 1000000 --checkpoints 1000000":
        "7209a75035b830baa6da90c70246a3b7d39741f4461e8442228494d5772f7f62",
    "synth --function synth:log --N 9 --format json":
        "15b1ea91cf1f85d5b8e0a7f3e6fbef571f03efe6cbecb67a88fb0d737a0a4a5c",
    "synth --function synth:log --N 10000":
        "63a9a4d34e790314d4032cad1825c944d101e13fb8b9f39f77b96e1c17193759",
    "verdict --function synth:log2 --N 1000000 --checkpoints geometric(10,2)":
        "ab17186a7a4a40822bfda3997391f84cd44b227f54a94a2238458b83cd31542f",
    "verdict --function synth:log --N 1000000":
        "77ff8be2e11029e03538bf064dd6c08af2c76bd0adfff49fa382b926b20d37d6",
    "selftest --seed 20260810":
        "caa9730d3d25dd3e7887c8821a900a32b679d19f3f1f1dc7ac49d1491b53a45d",
}


def blocks_of(size):
    """Stream in blocks of ``size`` entries: the one blocking seam."""
    return mock.patch.object(sieve, "DEFAULT_BLOCK_SIZE", size)


def cli_bytes(*argv, block_size=None) -> bytes:
    """stdout of one in-process CLI run, at the default block size or the
    given one."""
    buf = io.StringIO()
    with blocks_of(block_size or sieve.DEFAULT_BLOCK_SIZE), contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("invocation", sorted(README_TABLE))
def test_readme_table_output_is_pinned(invocation):
    assert hashlib.sha256(cli_bytes(*invocation.split())).hexdigest() == README_TABLE[invocation]


@settings(max_examples=25, deadline=None)
@given(
    function=st.sampled_from(["mu", "lambda", "synth:log2"]),
    N=st.integers(min_value=80, max_value=5000),
    block_size=st.integers(min_value=1, max_value=64),
    lags=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
)
def test_blocking_does_not_change_bytes(function, N, block_size, lags):
    lag = ",".join(map(str, lags))
    runs = [
        ("compute", "--function", function, "--N", N, "--checkpoints", "geometric(3,1.7)"),
        ("verdict", "--function", function, "--N", N),
        ("analyze", "--function", function, "--N", N, "--lag", lag),
        ("analyze", "--function", function, "--N", N, "--lag", lag, "--format", "csv"),
    ]
    for argv in runs:
        assert cli_bytes(*argv, block_size=block_size) == cli_bytes(*argv)


@settings(max_examples=25, deadline=None)
@given(
    function=st.sampled_from(["mu-over-k", "harmonic"]),
    N=st.integers(min_value=80, max_value=5000),
    block_size=st.integers(min_value=1, max_value=64),
)
def test_float_sums_are_correctly_rounded_at_every_checkpoint(function, N, block_size):
    terms = [(mobius_oracle(k) if function == "mu-over-k" else 1) / k for k in range(1, N + 1)]
    exact = list(itertools.accumulate(map(Fraction, terms)))
    compute = ("compute", "--function", function, "--N", N, "--checkpoints", "geometric(1,1.05)")
    verdict = ("verdict", "--function", function, "--N", N)
    out = cli_bytes(*compute, block_size=block_size)
    rows = [line.split(",") for line in out.decode().splitlines()[1:]]
    assert [float(s) for _, s in rows] == [float(exact[int(n) - 1]) for n, _ in rows]
    assert out == cli_bytes(*compute)
    assert cli_bytes(*verdict, block_size=block_size) == cli_bytes(*verdict)


@settings(max_examples=25, deadline=None)
@given(
    function=st.sampled_from(["mu-over-k", "harmonic"]),
    N=st.integers(min_value=80, max_value=5000),
    block_size=st.integers(min_value=1, max_value=64),
    lags=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
)
def test_real_analyze_is_exact_at_every_blocking(function, N, block_size, lags):
    # Mean, variance and every rho: the exact rational value, rounded once.
    f = [Fraction((mobius_oracle(k) if function == "mu-over-k" else 1) / k)
         for k in range(1, N + max(lags) + 1)]
    S = [Fraction(0), *itertools.accumulate(f)]

    def gap(h):  # n**2 rho(n, h); h = 0 gives n**2 times the variance
        return N * sum(a * b for a, b in zip(f[:N], f[h:])) - S[N] * (S[N + h] - S[h])
    argv = ("analyze", "--function", function, "--N", N, "--lag", ",".join(map(str, lags)))
    out = cli_bytes(*argv, block_size=block_size)
    assert out == cli_bytes(*argv)
    doc = json.loads(out)
    assert doc["mean"] == float(S[N] / N)
    assert doc["variance"] == float(gap(0) / N**2)
    assert [r["rho"] for r in doc["independence"]] == [float(gap(h) / N**2) for h in lags]


def test_analyze_ks_sample_keeps_its_stride_across_blocks(monkeypatch):
    # With 1000 sample points over N = 5000, the sample is f(5), f(10), ...
    monkeypatch.setattr(empirical, "KS_SAMPLE_CAP", 1000)
    reference = cli_bytes("analyze", "--function", "mu", "--N", 5000, "--lag", 3)
    for block_size in (7, 64, 999):
        assert cli_bytes("analyze", "--function", "mu", "--N", 5000, "--lag", 3,
                         block_size=block_size) == reference
    mu = mobius_sequence(5000).values(1, 5000)
    assert json.loads(reference)["ks_normal_D"] == ks_distance(empirical_cdf(mu[4::5]))


class Recorder:
    def __init__(self):
        self.seen = []

    def add(self, block):
        self.seen.append((block.lo, block.hi, block.base, block.values.tolist()))


@pytest.mark.parametrize("denominator", [1, 2])  # an integer sequence, and a real one
def test_stream_feeds_each_block_once_in_order(denominator):
    vals = np.arange(1.0, 24.0) / denominator
    probes = [Recorder(), Recorder()]
    with blocks_of(5):
        sums = stream(sequence_from_values(vals), 23, probes)
    assert sums.tolist() == [276 / denominator]
    expected = [(lo, min(lo + 4, 23), (lo - 1) * lo / 2 / denominator,
                 [k / denominator for k in range(lo, min(lo + 4, 23) + 1)])
                for lo in range(1, 24, 5)]
    assert probes[0].seen == probes[1].seen == expected


def test_strided_probe_matches_direct_slices(monkeypatch):
    vals = np.linspace(-1.0, 1.0, 100)
    samples, ks_distances = [], empirical.ks_distances
    monkeypatch.setattr(empirical, "ks_distances",
                        lambda got: samples.append(got[97]) or ks_distances(got))
    monkeypatch.setattr(empirical, "KS_SAMPLE_CAP", 14)  # stride 7
    with blocks_of(9):
        stream(sequence_from_values(vals), 100, [KSTrace(97), KSTrace(97, sums=False)])
    sums, values = samples
    assert values.tolist() == vals[6:97:7].tolist()
    assert np.allclose(sums, np.cumsum(vals)[6:97:7], rtol=0, atol=1e-12)


@pytest.mark.parametrize("run, last", [
    (lambda: summatory_trace(weighted_mobius_sequence(100), 100, [50, 100]), 100),
    (lambda: full_verdict(mobius_sequence(100), 100, [12, 25, 50, 100]), 100),
    (lambda: sublinear.sums(mobius_sequence(1000), [1000], 40), 40),
], ids=["summatory_trace", "full_verdict", "sublinear.sums"])
def test_every_stream_reads_the_block_size_when_called(run, last):
    # A size bound when a module or a function is defined would give one
    # block here, and every blocking property would test nothing.
    with blocks_of(7), mock.patch.object(traces, "Block", wraps=traces.Block) as spy:
        run()
    widths = [call.args[1].size for call in spy.call_args_list]
    assert widths == [min(7, last + 1 - lo) for lo in range(1, last + 1, 7)]


@pytest.mark.parametrize("probe", ["none", "sums", "values", "lags"])
@pytest.mark.parametrize("function", ["harmonic", "mu-over-k", "mu", "synth:log2"])
def test_a_real_stream_holds_one_block_at_a_time(function, probe):
    # One block of f plus chunk-sized scratch, at most a float64 block's
    # worth for reals and integers alike, by tracemalloc, which counts
    # numpy's buffers whatever the allocator keeps mapped.  Two live blocks,
    # a quotient beside its index array, a block-sized rest of the exact sum
    # or an int64 cumsum of a whole block for its partial sums would each
    # pass 1.5 blocks.  Lag sums add the pairs that straddle a block
    # boundary and one window of Block.dots and its rows: 2.13 blocks
    # measured for mu-over-k and 2.01 for harmonic at this size, where
    # splitting whole blocks took 7.3 and copying each block 3.7.
    size, last = 1 << 18, 8 << 18
    with blocks_of(size), mock.patch.object(empirical, "KS_SAMPLE_CAP", 1000):
        seq = cli.resolve_function(function, last)
        stream(seq, size, [])  # the prime table and the small-prime tile
        probes = {"none": [], "sums": [KSTrace(last)], "values": [KSTrace(last, sums=False)],
                  "lags": [LagCorrelations(last, (0, 1, 2, 5, 10))]}[probe]
        tracemalloc.start()
        try:
            stream(seq, last, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= (3 if probe == "lags" else 1.5) * size * 8


@pytest.mark.parametrize("function", ["mu", "lambda"])
def test_an_integer_analyze_adds_no_block_to_the_stream(function):
    # analyze's probes over int8 blocks: S(n) at the lag points comes from
    # segment sums up to the last point, so the peak stays the bare stream's
    # 1.38 float64 blocks; an int64 cumsum of the whole block measured 2.13.
    # No D is computed: the KS of the 699,047-point sample would add about
    # 11 MB of sort and deviation arrays, after the last block.
    size, last = 1 << 18, 8 << 18
    N = last - 10
    with blocks_of(size), mock.patch.object(empirical, "ks_distances", lambda samples: {}):
        seq = cli.resolve_function(function, last)
        stream(seq, size, [])  # the prime table and the small-prime tile
        probes = [KSTrace(N, sums=False), LagCorrelations(N, (0, 1, 2, 5, 10))]
        tracemalloc.start()
        try:
            stream(seq, last, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.5 * size * 8
