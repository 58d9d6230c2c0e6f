"""Before/after numbers of the package's kernels, written to BENCH_kernels.json.

    PYTHONPATH=src python3 bench/kernels.py kernel [--parent DIR]
    PYTHONPATH=src python3 bench/kernels.py sum [--parent DIR]
    PYTHONPATH=src python3 bench/kernels.py ks
    PYTHONPATH=src python3 bench/kernels.py moments --parent DIR
    PYTHONPATH=src python3 bench/kernels.py sublinear --parent DIR
    PYTHONPATH=src python3 bench/kernels.py synth --parent DIR
    PYTHONPATH=src python3 bench/kernels.py samples --parent DIR
    PYTHONPATH=src python3 bench/kernels.py memory --parent DIR
    python3 bench/kernels.py startup --parent DIR
    python3 bench/kernels.py calls --parent DIR
    python3 bench/kernels.py pairs --parent DIR --workload NAME --seeds 1,2,3 [--section NAME]
    python3 bench/kernels.py traced --parent DIR --workload NAME --seed 1

Run from the root of a checkout; DIR is the parent checkout.  Every timed
CLI call is a fresh child process, started through perfbench's launcher
(``perfbench/launcher.py``), so that its peak RSS is its own and not this
process's, in perfbench's pinned environment plus
PYTHONDONTWRITEBYTECODE=1, so that each child compiles the modules it
loads.  A child runs the CLI's process entry, ``python -m summatoria.cli``,
or, on a side that runs code of its own first, that code and then
``cli.run()``.  A side is a checkout and that code.  The runs of the sides
alternate, in reversed order every other round, and a call whose runs
write different bytes is not recorded (``alternate``).

``kernel`` times the 2**20 entries ending
at each of ``BLOCK_ENDS`` (2 * 2**20, then 4 * 2**20 and 10 * 2**20, where
stats-analyze's verdict, N = 4,096,000, and float-accumulate's
``mu-over-k`` call end, then 1e7, 3e7, 1e8 and 1e9), each kernel in blocks
of its package's ``DEFAULT_BLOCK_SIZE``, median and best of 15 in this
process with the kernels' runs alternating: the reference kernel of
``tests/reference_sieve.py``, in blocks of this package's size, and
``summatoria.sieve.sieve_block``, after
checking that both give the same bytes; then ``mertens_trace(3e7)`` forced to stream
(``sublinear.table_limit`` replaced by the last checkpoint), best of 3,
with each kernel and its block size swapped in for ``sieve.sieve_block``
and ``sieve.DEFAULT_BLOCK_SIZE``.  With
``--parent``, the package of DIR is loaded into the
same process under another name, and its ``sieve_block`` is a third
kernel in every comparison.
``sum`` times ``traces.exact_prefix_sums`` of one 2**20 block, best and
median of 7, which cuts each chunk of 2**15 terms into rows of 37 bits
(``traces._slices``), with the least and largest number of rows per
chunk and the number of chunks that fall back to one row of ints; with
``--parent``, against the ``exact_prefix_sums`` of DIR's package, loaded
as for ``kernel``, after checking that both give the same Fraction:
mu(k)/k and 1/k ending at 2**20, 10 * 2**20 and 3e7, a standard normal
sample, exp(-k/1000) and a tiled 1e300/subnormal mix.  Then the
microseconds per call on the first 1, 7, 64 and 4096 terms of mu(k)/k,
best and median of 5 runs of 100 calls.  The runs of the two sides
alternate.
``ks`` times ``ks_distance`` against the full evaluation it replaced (Phi
and both step arrays at every sorted point, ``tests/reference_ks.py``) on the KS samples
of ``analyze mu --N 1e6`` (10**6 points), of ``verdict mu-over-k --N
4096000`` (13 samples, 3.04e6 points) and of ``verdict mu-over-k --N 3e6
--checkpoints "geometric(1000,1.02)"`` (405 samples), after checking
that both give the same D at every sample: the sum over the samples of
each call's best of 5, the two sides alternating, with the number of
points at which ``ks_distance`` evaluates Phi.
``moments`` times ``Block.dots`` of DIR's package, loaded as for
``kernel``, against this one's, which cuts each window into 18-bit
slices (``traces._slices``), on the same raw values and spans, best and
median of 5 with the two sides alternating, after checking that both
give the same Fractions: ``analyze``'s lags 0, 1, 2, 5 and 10 over a
2**20 block of mu(k)/k and of 1/k ending at 2**20, 10 * 2**20 and 3e7,
and over a standard normal block, then lags 1 and 2**19 over mu(k)/k
(a far lag), with the least and largest number of rows per window;
then ``analyze --N 1e6`` of mu, mu-over-k and harmonic in DIR and here,
best of 5, with each run's peak RSS.
``sublinear`` runs ``compute --function mu|lambda`` on the schedules of
``SUBLINEAR_RUNS``, best of 3 (of 1 for the 10**9 stream), with each
run's peak RSS: as the CLI picks its path, and forced to stream
(``sublinear.table_limit`` replaced by the last checkpoint); the dense
schedules also run in DIR, best of 5.
It then fits the constants of ``sublinear``'s cost model in this process:
stream and table seconds per entry at 2**24, and ``sublinear.from_table``
on slices of a 2**24 table for checkpoints 10**9..10**11 and geometric
schedules, by least squares of the relative error with no negative
constant.
``synth`` runs ``synth --function synth:log2 --N 1e6`` in DIR and here,
best of 5, with each run's peak RSS; then the
tracemalloc peak of ``schedules.realize_greedy`` at that N in each
checkout; then, in this process, the CSV rows of that realization written
to os.devnull by ``cli.csv_rows`` in blocks of ``cli._CSV_ROWS`` rows,
best of 5, after checking that they are the bytes the CLI wrote; then
``cli._load_file_sequence`` of DIR's package, loaded as for ``kernel``,
and of this one on that CSV and on a CSV of ``SYNTH_N`` standard normal
values written as ``.17g``, best of 5, the two sides alternating, after
checking that both read the same bits, with its tracemalloc peak per row
in a child in each checkout.
``samples`` runs verdicts in DIR and here, 5 runs each unless
``SAMPLES_RUNS`` says otherwise, and keeps the medians of wall time and
peak RSS and the sha256 of the report both sides wrote: ``file:`` of a
``synth:log2`` CSV at 1e6, then ``SAMPLES_RUNS``, whose checkpoints share
KS sample strides, and μ streams at 1e8 and 1e9 on the default schedule.
``memory`` runs sieve-stream's and float-accumulate's two ``compute`` calls
each, stats-analyze's ``analyze`` and ``verdict`` at seed 1 (all without
``--threads``), ``MEMORY_VERDICT`` (an integer
stream with partial-sum KS samples) and ``MEMORY_ANALYZE`` (a real
``analyze``) in DIR and here, 11 runs each, and keeps each side's median
wall time, median and largest peak RSS and median minor page faults,
which each child counts itself (``FAULTS``); then, in a child in each
checkout, the ``tracemalloc`` peak of ``traces.stream`` over
``MEMORY_BLOCKS`` blocks of 2**18 entries of harmonic, mu-over-k and mu,
in float64 blocks, with no probe, a partial-sum ``KSTrace``, a value
``KSTrace`` (both of samples of 1000 points) and a ``LagCorrelations``
at lags 0, 1, 2, 5 and 10 (``BLOCK_PEAKS``).
``startup`` runs, in ``STARTUP_ROUNDS`` rounds, in DIR and here:
``import summatoria.cli`` with and without ``gc.freeze()`` after it, then
every perfbench call at seed 1 in its workload's order.  It keeps each
side's quartiles of wall time, medians of CPU time and peak RSS, the
number of ``summatoria.*`` modules each run loads (counted in a separate
process), and the quartiles of each workload's calls' wall time summed
within a round.
``calls`` runs each of ``CALLS`` in DIR and here, and keeps the sha256
of what both sides wrote and each side's median wall time, median and
largest peak RSS and median minor page faults (as ``memory`` does).
``pairs`` runs ``perfbench/run.py --trace 0`` for each seed in DIR and
here, alternating which goes first, and keeps every
run's metrics with each side's median and quartiles.  Each command
replaces its own section of the JSON file and the machine record; with
``--section NAME``, a command writes into that
section, which need not belong to a command (``verdict_errors`` does not),
under its own name (``pairs`` under ``perfbench_pairs``); ``pairs`` without
it writes into the sieve kernel's top-level ``perfbench_pairs``.
``traced`` runs ``perfbench/run.py --trace 1`` once in DIR and once here,
and keeps each run's per-layer metrics under ``perfbench_traced``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # this checkout
OUT = os.path.join(ROOT, "BENCH_kernels.json")
# perfbench's launcher, environment and workloads; the tests' reference kernels
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]
from run import LAUNCHER, PINNED_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENV = dict(os.environ, **PINNED_ENV, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
BLOCK = 1 << 20
BLOCK_ENDS = (2 * BLOCK, 4 * BLOCK, 10 * BLOCK, 10**7, 30_000_000, 10**8, 10**9)
TRACE_N = 30_000_000
SUM_BLOCK_ENDS = (BLOCK, 10 * BLOCK, 30_000_000)
CALLS_N = 1 << 12
KS_ANALYZE_N = 1_000_000
KS_VERDICT_N = 4_096_000
KS_DENSE_N = 3_000_000
MOMENTS_LAGS = (0, 1, 2, 5, 10)  # analyze's lag 0 and default lags
MOMENTS_FAR = 1 << 19
ANALYZE_N = 1_000_000
# perfbench's sieve-stream schedule, with four checkpoints inside blocks
SIEVE_STREAM = ("10,100,1000,10000,100000,1000000,10000000,"
                "12345678,17654321,23456789,29999999,30000000")
# (function, N, checkpoints); streaming past the sieve bound is not possible
SUBLINEAR_RUNS = [
    ("mu", 30_000_000, SIEVE_STREAM), ("lambda", 30_000_000, SIEVE_STREAM),
    ("mu", 10**8, "geometric(10,2)"), ("mu", 10**9, "geometric(10,2)"),
    ("mu", 10**6, "geometric(1,1.0001)"), ("mu-over-k", 10**6, "geometric(1,1.0001)"),
    ("mu", 10**10, "10000000000"), ("lambda", 10**10, "10000000000"),
    ("mu", 10**11, "100000000000"), ("lambda", 10**11, "100000000000"),
]
FIT_TABLE = 1 << 24
SYNTH_N = 1_000_000
# (function, N, checkpoints or None for the default, runs per side) of the
# ``samples`` verdicts, after the file
SAMPLES_RUNS = [
    ("mu-over-k", KS_VERDICT_N, "geometric(1000,2)", 5),
    ("mu-over-k", 10**7, "geometric(1000,2)", 5),
    ("mu", 3 * 10**7, "geometric(1000000,1.1)", 5),
    ("mu-over-k", 3 * 10**6, "geometric(1000,1.02)", 5),
    ("mu", 10**8, None, 5), ("mu", 10**9, None, 1),
]
FORCE_STREAM = ("from summatoria import sublinear\n"
                "sublinear.table_limit = lambda cps: int(cps[-1])\n")


class Side(NamedTuple):
    """A checkout, and code its children run before the CLI's process entry."""

    root: str
    prelude: str = ""


class Run(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    err: str  # the child's stderr


def alternate(k: int, sides: dict[str, Side], calls: list) -> list[tuple[dict, str]]:
    """Run each call k times on each side: in each round side after side, in
    reversed order every other round, and the calls in order within a side.
    A call is the CLI's arguments, or a program of its own as a str.  Per
    call: ({side: its Runs}, the sha256 of what every run wrote, its
    ``--output`` file or else its stdout); runs that write different bytes
    end the bench."""
    got = [({name: [] for name in sides}, set()) for _ in calls]
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        launchers = {root: stack.enter_context(subprocess.Popen(
            [sys.executable, LAUNCHER], cwd=root, env=ENV, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE))
            for root in {side.root for side in sides.values()}}
        stdout, stderr = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
        for i in range(k):
            for name in list(sides)[:: 1 if i % 2 == 0 else -1]:
                root, prelude = sides[name]
                for call, (runs, digests) in zip(calls, got):
                    if isinstance(call, str):
                        argv, written = ["-c", call], stdout
                    else:
                        entry = (["-c", f"{prelude}\nfrom summatoria import cli\ncli.run()"]
                                 if prelude else ["-m", "summatoria.cli"])
                        argv = entry + call
                        written = call[call.index("--output") + 1] if "--output" in call else stdout
                    request = {"argv": [sys.executable, *argv], "stdout": stdout,
                               "stderr": stderr, "timeout": 600}
                    launchers[root].stdin.write(json.dumps(request) + "\n")
                    launchers[root].stdin.flush()
                    reply = json.loads(launchers[root].stdout.readline())
                    with open(stderr, encoding="utf-8", errors="replace") as fh:
                        err = fh.read()
                    if reply["code"]:
                        raise SystemExit(f"{call} failed in {root}: {err.strip()[-300:]}")
                    with open(written, "rb") as fh:
                        digests.add(hashlib.file_digest(fh, "sha256").hexdigest())
                    if len(digests) > 1:
                        raise SystemExit(f"{call}: the sides write different bytes")
                    runs[name].append(Run(reply["wall"], reply["cpu"], reply["rss_mb"], err))
    return [(runs, digest) for runs, (digest,) in got]


STATS = {"best_s": lambda runs: round(min(r.wall for r in runs), 3),
         "median_s": lambda runs: round(statistics.median(r.wall for r in runs), 3),
         "peak_rss_mb": lambda runs: round(max(r.rss_mb for r in runs), 1),
         "median_peak_rss_mb": lambda runs: round(statistics.median(r.rss_mb for r in runs), 1)}


def summary(by_side: dict, keys=("best_s", "median_s", "peak_rss_mb")) -> dict:
    """{f"{side}_{key}": that STATS of the side's runs} for each key and side."""
    return {f"{side}_{key}": STATS[key](runs) for key in keys for side, runs in by_side.items()}


def python_in(root: str, code: str) -> str:
    """The stdout of ``python -c code`` in the checkout ``root``, untimed."""
    return subprocess.run([sys.executable, "-c", code], cwd=root, env=ENV, check=True,
                          capture_output=True, text=True).stdout


def times_of(k: int, fns: dict) -> dict:
    """{name: the times of k runs}; the runs of the functions alternate,
    so that each sees the same phases of a machine whose speed drifts."""
    times = {name: [] for name in fns}
    for _ in range(k):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return times


def best_of(k: int, fns: dict) -> dict:
    """{name: least time of k alternating runs}."""
    return {name: min(t) for name, t in times_of(k, fns).items()}


def load_parent(parent: str, module: str):
    """A module of the package in DIR/src, imported under another name
    beside this checkout's."""
    import importlib
    import importlib.util

    init = os.path.join(os.path.abspath(parent), "src", "summatoria", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        "parent_summatoria", init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{spec.name}.{module}")


def joined(blocks) -> list[bytes]:
    """The mu bytes and the lam bytes of consecutive sieve blocks."""
    return [b"".join(getattr(blk, f).tobytes() for blk in blocks) for f in ("mu", "lam")]


def kernel_section(parent: str | None) -> dict:
    from unittest import mock

    from reference_sieve import reference_sieve_block
    from summatoria import sieve, sublinear, traces

    parent_sieve = load_parent(parent, "sieve") if parent else None
    kernels = {"reference": reference_sieve_block,
               **({"parent": parent_sieve.sieve_block} if parent else {}),
               "new": sieve.sieve_block}
    sizes = {"reference": sieve.DEFAULT_BLOCK_SIZE, "new": sieve.DEFAULT_BLOCK_SIZE,
             **({"parent": parent_sieve.DEFAULT_BLOCK_SIZE} if parent else {})}
    blocks = []
    for hi in BLOCK_ENDS:
        lo = hi - BLOCK + 1
        primes = sieve.primes_up_to(math.isqrt(hi))

        def entries(kernel, size):  # the blocks of [lo, hi]
            return lambda: [kernel(a, min(a + size - 1, hi)) for a in range(lo, hi + 1, size)]
        runs = {name: entries(k, sizes[name]) for name, k in kernels.items()}
        runs["reference"] = entries(lambda a, b: reference_sieve_block(a, b, primes=primes),
                                    sizes["reference"])
        want = joined(runs["reference"]())
        for name, run in runs.items():
            if joined(run()) != want:
                raise SystemExit(f"{name} kernel differs from the reference on [{lo}, {hi}]")
        times = times_of(15, runs)
        row = {"lo": lo, "hi": hi, **{f"{name}_block": size for name, size in sizes.items()}}
        for name, t in times.items():
            row[f"{name}_median_ms"] = round(1e3 * statistics.median(t), 1)
            row[f"{name}_best_ms"] = round(1e3 * min(t), 1)
        row["new_ns_per_entry"] = round(1e9 * statistics.median(times["new"]) / BLOCK, 1)
        if parent:
            row["new_over_parent_median"] = round(
                statistics.median(times["new"]) / statistics.median(times["parent"]), 3)
        blocks.append(row)
        print(json.dumps(row), flush=True)

    def trace_with(name):
        def run():  # forced to stream: no table of sublinear
            with mock.patch.object(sieve, "sieve_block", kernels[name]), \
                    mock.patch.object(sieve, "DEFAULT_BLOCK_SIZE", sizes[name]), \
                    mock.patch.object(sublinear, "table_limit", lambda cps: int(cps[-1])):
                return traces.mertens_trace(TRACE_N).values.tolist()
        return run

    runs = {name: trace_with(name) for name in kernels}
    want = runs["reference"]()
    if any(run() != want for run in runs.values()):
        raise SystemExit("mertens_trace values differ")
    secs = best_of(3, runs)
    trace_rows = [{"N": TRACE_N, **{f"{name}_s": round(t, 3) for name, t in secs.items()}}]
    return {
        "command": "PYTHONPATH=src python3 bench/kernels.py kernel"
                   + (" --parent DIR" if parent else ""),
        "entries_2pow20_median_of_15": blocks,
        "mertens_trace_best_of_3": trace_rows,
    }


def sum_section(parent: str | None) -> dict:
    from unittest import mock

    from summatoria import sequences, traces

    sides = {"change": traces, **({"parent": load_parent(parent, "traces")} if parent else {})}
    blocks = []
    for hi in SUM_BLOCK_ENDS:
        lo = hi - BLOCK + 1
        blocks += [(f"mu(k)/k, k = {lo}..{hi}",
                    sequences.weighted_mobius_sequence(hi).values(lo, hi)),
                   (f"1/k, k = {lo}..{hi}", 1.0 / np.arange(lo, hi + 1))]
    mix = [1e300, 5e-324, -1e300, 3.0]
    blocks += [("standard normal, seed 1", np.random.default_rng(1).standard_normal(BLOCK)),
               ("exp(-k/1000), k = 1..2**20", np.exp(-np.arange(1, BLOCK + 1) / 1000)),
               (f"{mix} tiled", np.tile(mix, BLOCK // 4))]
    rows = []
    for name, x in blocks:
        runs = {side: lambda m=m: m.exact_prefix_sums(x, [BLOCK]) for side, m in sides.items()}
        counts = []

        def counted(*args, slices=traces._slices):  # records the rows of each chunk
            rows, g = slices(*args)
            counts.append(None if rows[0].dtype == object else len(rows))  # None: fell back
            return rows, g

        with mock.patch.object(traces, "_slices", counted):
            if len({tuple(run()) for run in runs.values()}) != 1:
                raise SystemExit(f"{name}: the sides give different sums")
        ms = {side: [1e3 * t for t in ts] for side, ts in times_of(7, runs).items()}
        sliced = [c for c in counts if c is not None]
        rows.append({"terms": name,
                     "rows_per_chunk": [min(sliced), max(sliced)] if sliced else None,
                     "chunks_falling_back": counts.count(None),
                     **{f"{side}_best_ms": round(min(ms[side]), 1) for side in runs},
                     **{f"{side}_median_ms": round(statistics.median(ms[side]), 1)
                        for side in runs}})
        print(json.dumps(rows[-1]), flush=True)

    # One exact sum of the first few terms of mu(k)/k: the fixed cost of a call.
    values = sequences.weighted_mobius_sequence(CALLS_N).values(1, CALLS_N)
    calls = []
    for n in (1, 7, 64, CALLS_N):
        x = values[:n]
        runs = {side: lambda m=m: [m.exact_prefix_sums(x, [n]) for _ in range(100)]
                for side, m in sides.items()}
        if len({tuple(run()[0]) for run in runs.values()}) != 1:
            raise SystemExit(f"{n} terms: the sides give different sums")
        us = {side: [1e4 * t for t in ts] for side, ts in times_of(5, runs).items()}
        calls.append({"terms": f"mu(k)/k, k = 1..{n}",
                      **{f"{side}_best_us": round(min(us[side]), 1) for side in us},
                      **{f"{side}_median_us": round(statistics.median(us[side]), 1)
                         for side in us}})
        print(json.dumps(calls[-1]), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py sum"
                       + (" --parent DIR" if parent else ""),
            "block_2pow20_of_7": rows, "call_us_of_5": calls}


def ks_section() -> dict:
    from unittest import mock

    from reference_ks import ks_distance_full as ks_full
    from summatoria import cli, empirical, sequences, traces
    from summatoria.empirical import empirical_cdf, ks_distance

    phi = empirical._normal_cdf_sorted

    def counted(z):  # Phi, counting the points ks_distance evaluates it at
        evaluated[0] += z.size
        return phi(z)

    rows = []
    for name, seq, cps, sums in [
            ("analyze mu --N 1e6", sequences.mobius_sequence, [KS_ANALYZE_N], False),
            ("verdict mu-over-k --N 4096000", sequences.weighted_mobius_sequence,
             [1000 * 2**k for k in range(13)], True),  # geometric(1000,2)
            ("verdict mu-over-k --N 3e6 --checkpoints geometric(1000,1.02)",
             sequences.weighted_mobius_sequence,
             cli.parse_checkpoints("geometric(1000,1.02)", KS_DENSE_N).tolist(), True)]:
        samples = {}  # each n's sample, as the probe hands it to ks_distances
        with mock.patch.object(empirical, "ks_distances", lambda got: samples.update(got) or {}):
            traces.stream(seq(cps[-1]), cps[-1], [empirical.KSTrace(cps, sums=sums)])
        secs, evaluated = {"ks_full": 0.0, "ks_distance": 0.0}, [0]
        for n in cps:  # one sorted sample at a time, so that memory stays small
            dist = empirical_cdf(samples[n])
            empirical._normal_cdf_sorted = counted
            try:
                same = ks_distance(dist) == ks_full(dist)
            finally:
                empirical._normal_cdf_sorted = phi
            if not same:
                raise SystemExit(f"{name}: D at n={n} differs from the full evaluation")
            for side, t in best_of(5, {"ks_full": lambda: ks_full(dist),
                                       "ks_distance": lambda: ks_distance(dist)}).items():
                secs[side] += t
        points = sum(samples[n].size for n in cps)
        rows.append({"samples": name, "checkpoints": len(cps), "points": points,
                     "phi_points_pruned": evaluated[0],
                     **{f"{side}_s": round(t, 4) for side, t in secs.items()}})
        print(json.dumps(rows[-1]), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py ks",
            "ks_sum_of_best_of_5": rows}


def moments_section(parent: str) -> dict:
    sides = {"parent": Side(os.path.abspath(parent)), "change": Side(ROOT)}
    analyze = []
    for function in ("mu", "mu-over-k", "harmonic"):
        (runs, _), = alternate(5, sides, [["analyze", "--function", function,
                                           "--N", str(ANALYZE_N)]])
        analyze.append({"function": function, "N": ANALYZE_N, "same_bytes": True,
                        **summary(runs)})

    from unittest import mock

    from summatoria import sequences, traces

    before = load_parent(parent, "traces")
    cases = []
    for hi in SUM_BLOCK_ENDS:
        lo, end = hi - BLOCK + 1, hi + max(MOMENTS_LAGS)
        cases += [(f"mu(k)/k, k = {lo}..{hi}", MOMENTS_LAGS,
                   sequences.weighted_mobius_sequence(end).values(lo, end)),
                  (f"1/k, k = {lo}..{hi}", MOMENTS_LAGS, 1.0 / np.arange(lo, end + 1))]
    cases += [("standard normal, seed 1", MOMENTS_LAGS,
               np.random.default_rng(1).standard_normal(BLOCK + max(MOMENTS_LAGS))),
              ("mu(k)/k, k = 1..2**20, far lag", (1, MOMENTS_FAR),
               sequences.weighted_mobius_sequence(BLOCK + MOMENTS_FAR).values(
                   1, BLOCK + MOMENTS_FAR))]
    rows = []
    for name, lags, x in cases:
        spans = [(0, BLOCK - 1, h) for h in lags]
        blocks = {"parent": before.Block(1, x, 0, False), "change": traces.Block(1, x, 0, False)}
        counts = []

        def counted(*args, slices=traces._slices):  # records the rows of each window
            rows, g = slices(*args)
            counts.append(len(rows))
            return rows, g

        with mock.patch.object(traces, "_slices", counted):
            same = blocks["change"].dots(x, spans) == blocks["parent"].dots(x, spans)
        if not same:
            raise SystemExit(f"{name}: the sides give different sums")
        ms = {side: [1e3 * t for t in ts] for side, ts in times_of(
            5, {side: lambda b=b: b.dots(x, spans) for side, b in blocks.items()}).items()}
        rows.append({"terms": name, "lags": list(lags), "rows_per_window": [min(counts),
                                                                          max(counts)],
                     **{f"{side}_best_ms": round(min(t), 1) for side, t in ms.items()},
                     **{f"{side}_median_ms": round(statistics.median(t), 1)
                        for side, t in ms.items()},
                     "speedup": round(statistics.median(ms["parent"])
                                      / statistics.median(ms["change"]), 2)})
        print(json.dumps(rows[-1]), flush=True)

    return {"command": "PYTHONPATH=src python3 bench/kernels.py moments --parent DIR",
            "dots_2pow20_pairs_of_5": rows, "analyze_best_of_5": analyze}


def sublinear_section(parent: str) -> dict:
    runs = []
    for function, N, cps in SUBLINEAR_RUNS:
        argv = ["compute", "--function", function, "--N", str(N), "--checkpoints", cps]
        sides = {"picked": Side(ROOT)}
        if N <= 10**9:
            sides["stream"] = Side(ROOT, FORCE_STREAM)
        if cps.startswith("geometric(1,"):
            sides["parent"] = Side(os.path.abspath(parent))
        k = 1 if N == 10**9 else 5 if "parent" in sides else 3
        (got, _), = alternate(k, sides, [argv])
        row = {"function": function, "N": N, "checkpoints": cps, "runs": k,
               **summary(got, ("best_s", "peak_rss_mb"))}
        runs.append(row)
        print(json.dumps(row), flush=True)

    from summatoria import cli, sublinear

    for row in runs:
        if row["function"] in ("mu", "lambda"):
            cps = cli.parse_checkpoints(row["checkpoints"], row["N"])
            row["table_limit"] = sublinear.table_limit(cps)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py sublinear --parent DIR",
            "compute_threads_1": runs, "fit": sublinear_fit()}


def sublinear_fit() -> dict:
    from summatoria import sequences, sublinear, traces

    seq = sequences.mobius_sequence(FIT_TABLE)
    runs = {"stream": lambda: traces.stream(seq, FIT_TABLE, []),
            "table": lambda: traces.stream(seq, FIT_TABLE, [sublinear.Table(FIT_TABLE)])}
    per_entry = {name: t / FIT_TABLE for name, t in best_of(3, runs).items()}
    table = sublinear.Table(FIT_TABLE)
    traces.stream(seq, FIT_TABLE, [table])
    schedules = {"1e9": [10**9], "1e10": [10**10], "1e11": [10**11],
                 "geometric(10,2) to 1e9": traces.geometric_checkpoints(10**9).tolist(),
                 "geometric(10,2) to 1e11": traces.geometric_checkpoints(10**11).tolist(),
                 "sieve-stream": [int(c) for c in SIEVE_STREAM.split(",")],
                 "geometric(1,1.01) to 3e7": traces.geometric_checkpoints(
                     30_000_000, 1, 1.01).tolist(),
                 "geometric(1,1.05) to 1e9": traces.geometric_checkpoints(10**9, 1, 1.05).tolist()}
    fits = []
    for name, xs in schedules.items():
        for L in (1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24):
            if L * L < xs[-1] or L >= xs[-1]:
                continue
            part = table.values[: L + 1]
            secs = best_of(3 if xs[-1] <= 10**10 else 1,
                           {"r": lambda: sublinear.from_table(part, lambda x: 1, xs)})["r"]
            above = [x for x in xs if x > L]
            fits.append({"checkpoints": name, "L": L, "recursion_s": round(secs, 4),
                         "features": [sum(above) / math.sqrt(L), sum(above) / L]})
    A = np.array([f["features"] for f in fits])
    y = np.array([f["recursion_s"] for f in fits])
    # Least squares of the relative error, over the subsets of the two
    # features whose fitted constants are all nonnegative.
    candidates = []
    for mask in range(1, 4):
        cols = [j for j in range(2) if mask >> j & 1]
        coef = np.zeros(2)
        coef[cols] = np.linalg.lstsq(A[:, cols] / y[:, None], np.ones(len(y)), rcond=None)[0]
        if (coef >= 0).all():
            candidates.append((float(np.sum((A @ coef / y - 1) ** 2)), mask, coef))
    coef = min(candidates)[2]
    for f in fits:
        f["predicted_s"] = round(float(np.dot(f.pop("features"), coef)), 4)
    return {"stream_s_per_entry": per_entry["stream"], "table_s_per_entry": per_entry["table"],
            "element_s": coef[0], "value_s": coef[1],
            "recursion_runs": fits,
            "in_use": {k: getattr(sublinear, k) for k in
                       ("STREAM_S", "TABLE_S", "ELEMENT_S", "VALUE_S")}}


def synth_section(parent: str) -> dict:
    sides = {"parent": Side(os.path.abspath(parent)), "change": Side(ROOT)}
    argv = ["synth", "--function", "synth:log2", "--N", str(SYNTH_N)]
    (runs, digest), = alternate(5, sides, [argv])
    peak = ("import tracemalloc\nfrom summatoria import schedules\ntracemalloc.start()\n"
            f"schedules.realize_greedy(schedules.log2_indicator_schedule(), {SYNTH_N})\n"
            "print(tracemalloc.get_traced_memory()[1])")
    realize_mb = {name: int(python_in(side.root, peak)) / 1e6 for name, side in sides.items()}

    from summatoria import cli, schedules

    values = schedules.realize_greedy(schedules.log2_indicator_schedule(), SYNTH_N).values(
        1, SYNTH_N)

    def blocks(out):
        for lo in range(1, SYNTH_N + 1, cli._CSV_ROWS):
            out.write(cli.csv_rows(lo, values[lo - 1 : lo - 1 + cli._CSV_ROWS]))

    buf = io.StringIO()
    blocks(buf)
    if hashlib.sha256(("k,f\n" + buf.getvalue()).encode("ascii")).hexdigest() != digest:
        raise SystemExit("csv_rows gives other text than the CLI")
    with open(os.devnull, "w", encoding="utf-8", newline="\n") as null:
        writer_s = best_of(5, {"blocks": lambda: blocks(null)})

    loaders = {"parent": load_parent(parent, "cli")._load_file_sequence,
               "change": cli._load_file_sequence}
    reader = {}
    with tempfile.TemporaryDirectory() as tmp:
        reals = np.random.default_rng(0).standard_normal(SYNTH_N)
        normal = "".join(cli.csv_rows(lo, reals[lo - 1 : lo - 1 + cli._CSV_ROWS])
                         for lo in range(1, SYNTH_N + 1, cli._CSV_ROWS))
        for name, rows in (("synth_log2", buf.getvalue()), ("normal_17g", normal)):
            path = os.path.join(tmp, f"{name}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("k,f\n" + rows)
            read = {side: load(path).values(1, SYNTH_N) for side, load in loaders.items()}
            if read["parent"].tobytes() != read["change"].tobytes():
                raise SystemExit(f"the readers give other values on {name}")
            reader[name] = {f"{side}_s": round(t, 4) for side, t in best_of(
                5, {side: lambda load=load: load(path) for side, load in loaders.items()}).items()}
            load_peak = ("import tracemalloc\nfrom summatoria import cli\ntracemalloc.start()\n"
                         f"cli._load_file_sequence({path!r})\n"
                         "print(tracemalloc.get_traced_memory()[1])")
            reader[name].update({f"{side}_tracemalloc_bytes_per_row": round(
                int(python_in(sides[side].root, load_peak)) / SYNTH_N, 1) for side in sides})
    return {
        "command": "PYTHONPATH=src python3 bench/kernels.py synth --parent DIR",
        "cli_best_of_5": {"argv": argv, "sha256": digest, **summary(runs)},
        "realize_greedy_tracemalloc_peak_mb": {side: round(mb, 1)
                                               for side, mb in realize_mb.items()},
        "writer_to_devnull_best_of_5": {
            "rows": SYNTH_N,
            **{f"{name}_s": round(t, 4) for name, t in writer_s.items()},
            **{f"{name}_ns_per_row": round(1e9 * t / SYNTH_N, 1)
               for name, t in writer_s.items()}},
        "load_file_sequence_best_of_5": {"rows": SYNTH_N, **reader},
    }


def samples_section(parent: str) -> dict:
    sides = {"parent": Side(os.path.abspath(parent)), "change": Side(ROOT)}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "synth_log2.csv")
        alternate(1, {"change": Side(ROOT)},
                  [["synth", "--function", "synth:log2", "--N", str(SYNTH_N), "--output", csv]])
        for argv, k in [(["verdict", "--function", f"file:{csv}", "--N", str(SYNTH_N)], 5),
                        *[(["verdict", "--function", f, "--N", str(N),
                            *(["--checkpoints", cps] if cps else [])], k)
                          for f, N, cps, k in SAMPLES_RUNS]]:
            (runs, digest), = alternate(k, sides, [argv])
            argv[2] = argv[2].replace(csv, "synth_log2.csv")
            rows.append({"argv": argv, "runs": k, "same_bytes": True, "sha256": digest,
                         **summary(runs, ("median_s", "median_peak_rss_mb"))})
            print(json.dumps(rows[-1]), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py samples --parent DIR",
            "verdict_medians": rows}


# The tracemalloc peak of one ``traces.stream`` over MEMORY_BLOCKS blocks of
# 2**18 entries, in float64 blocks, after a one-block stream has built the
# prime table: with no probe, with a partial-sum ``KSTrace``, with a value
# ``KSTrace`` and with ``analyze``'s lag sums.  It runs in a child in each
# checkout.
MEMORY_BLOCKS = 8
MEMORY_VERDICT = ["verdict", "--function", "mu", "--N", "30000000"]
MEMORY_ANALYZE = ["analyze", "--function", "mu-over-k", "--N", "10000000"]
BLOCK_PEAKS = f"""
import json, tracemalloc
from unittest import mock
from summatoria import cli, empirical, sieve, traces
size, last, peaks = 1 << 18, {MEMORY_BLOCKS} << 18, {{}}
def strided(sums):
    with mock.patch.object(empirical, "KS_SAMPLE_CAP", 1000):
        return empirical.KSTrace(last, sums=sums)
with mock.patch.object(sieve, "DEFAULT_BLOCK_SIZE", size):
    for function in ("harmonic", "mu-over-k", "mu"):
        seq = cli.resolve_function(function, last)
        for probe, probes in (("none", lambda: []),
                              ("strided_sums", lambda: [strided(True)]),
                              ("strided_values", lambda: [strided(False)]),
                              ("lag_correlations",
                               lambda: [empirical.LagCorrelations(last, (0, 1, 2, 5, 10))])):
            traces.stream(seq, size, [])
            ready = probes()
            tracemalloc.start()
            traces.stream(seq, last, ready)
            peaks[f"{{function}}, {{probe}}"] = round(tracemalloc.get_traced_memory()[1] / (8 * size), 3)
            tracemalloc.stop()
print(json.dumps(peaks))
"""


# Each memory child writes its own minor page faults to stderr at exit:
# the launcher's reply holds no fault count.
FAULTS = ("import atexit, resource, sys\natexit.register(lambda: print("
          "resource.getrusage(resource.RUSAGE_SELF).ru_minflt, file=sys.stderr))")


def side_stats(runs: list[Run]) -> dict:
    """Median wall time, median and largest peak RSS and median minor page
    faults of one side's runs of a call, each counted under FAULTS."""
    return {"median_s": STATS["median_s"](runs),
            "median_peak_rss_mb": STATS["median_peak_rss_mb"](runs),
            "max_peak_rss_mb": STATS["peak_rss_mb"](runs),
            "median_minor_faults": int(statistics.median(int(r.err.split()[-1]) for r in runs))}


def memory_section(parent: str) -> dict:
    sides = {"parent": Side(os.path.abspath(parent), FAULTS), "change": Side(ROOT, FAULTS)}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        calls = [*(call.args for workload in ("sieve-stream", "float-accumulate", "stats-analyze")
                   for call in WORKLOADS[workload](1, tmp).calls),
                 MEMORY_VERDICT, MEMORY_ANALYZE]
        for args in calls:
            (runs, _), = alternate(11, sides, [args])
            rows.append({"argv": " ".join(args[:5]), "same_bytes": True,
                         **{side: side_stats(got) for side, got in runs.items()}})
            print(json.dumps(row), flush=True)
    peaks = {name: json.loads(python_in(side.root, BLOCK_PEAKS)) for name, side in sides.items()}
    print(json.dumps(peaks), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py memory --parent DIR",
            "cli_of_11_seed_1": rows, "stream_tracemalloc_peak_blocks": peaks}


# (CLI arguments, runs per side) of ``calls``: streams of 1e8 and 1e9 entries
# and a sublinear sum, which no perfbench workload runs
CALLS = [("verdict --function mu --N 100000000", 7), ("verdict --function mu --N 1000000000", 5),
         ("analyze --function mu --N 100000000", 7), ("compute --function mu --N 100000000000", 7)]


def calls_section(parent: str) -> dict:
    sides = {"parent": Side(os.path.abspath(parent), FAULTS), "change": Side(ROOT, FAULTS)}
    rows = []
    for call, k in CALLS:
        (runs, digest), = alternate(k, sides, [call.split()])
        rows.append({"argv": call, "runs": k, "same_bytes": True, "sha256": digest,
                     **{side: side_stats(got) for side, got in runs.items()}})
        print(json.dumps(rows[-1]), flush=True)
    return {"command": "python3 bench/kernels.py calls --parent DIR", "cli": rows}


STARTUP_ROUNDS = 15
STARTUP_IMPORTS = {"import": "import summatoria.cli",
                   "import_frozen": "import gc, summatoria.cli; gc.freeze()"}
LOADED = "print(sum(m.startswith('summatoria.') for m in sys.modules))"


def startup_section(parent: str) -> dict:
    sides = {"parent": Side(os.path.abspath(parent)), "change": Side(ROOT)}
    with tempfile.TemporaryDirectory() as tmp:
        calls = {f"{name}:{call.label}": call.argv(2) for name, make in WORKLOADS.items()
                 for call in make(1, tmp).calls}
        runs = {**STARTUP_IMPORTS, **calls}
        got = {name: by_side for name, (by_side, _) in
               zip(runs, alternate(STARTUP_ROUNDS, sides, list(runs.values())))}
        loaded = {}  # the summatoria.* modules each run loads, in a separate process
        for name, run in runs.items():
            code = (run if name in STARTUP_IMPORTS
                    else f"from summatoria import cli; cli.main({run!r})")
            loaded[name] = {side: int(python_in(root, f"import sys\n{code}\n{LOADED}"))
                            for side, (root, _) in sides.items()}

    rows = {}
    for name, by_side in got.items():
        rows[name] = {side: {"wall_s_q1_median_q3": quartiles([r.wall for r in rs]),
                             "median_cpu_s": round(statistics.median(r.cpu for r in rs), 3),
                             "median_peak_rss_mb": round(statistics.median(r.rss_mb for r in rs), 2),
                             "modules": loaded[name][side]}
                      for side, rs in by_side.items()}
        print(name, json.dumps(rows[name]), flush=True)
    per_workload = {}  # the wall time of a workload's calls, summed in each round
    for workload in WORKLOADS:
        names = [name for name in calls if name.startswith(workload + ":")]
        per_workload[workload] = {side: quartiles([sum(got[name][side][i].wall for name in names)
                                                   for i in range(STARTUP_ROUNDS)])
                                  for side in sides}
    print(json.dumps(per_workload), flush=True)
    return {"command": "python3 bench/kernels.py startup --parent DIR",
            "rounds": STARTUP_ROUNDS, "env": "PYTHONDONTWRITEBYTECODE=1",
            "runs": rows, "workload_calls_wall_s_q1_median_q3": per_workload}


def run_perfbench(root: str, workload: str, seed: int, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "25", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            **{k: round(v["value"], 3) for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [round(q1, 3), round(q2, 3), round(q3, 3)]


def pairs_section(parent: str, workload: str, seeds: list[int]) -> dict:
    sides = {"parent": os.path.abspath(parent), "change": ROOT}
    runs = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_perfbench(sides[side], workload, seed)
            print(workload, seed, side, json.dumps(pair[side]), flush=True)
        runs.append(pair)
    metrics = [k for k in runs[0]["parent"] if k not in ("failed", "attempted")]
    return {
        "command": "python3 perfbench/run.py --workload %s --seed SEED --seconds 25 --trace 0"
                   " (in each checkout)" % workload,
        "pairs": runs,
        "q1_median_q3": {side: {m: quartiles([r[side][m] for r in runs]) for m in metrics}
                         for side in ("parent", "change")},
        "change_wins_wall_s": sum(r["change"]["wall_s"] < r["parent"]["wall_s"] for r in runs),
    }


def traced_section(parent: str, workload: str, seed: int) -> dict:
    sides = {"parent": os.path.abspath(parent), "change": ROOT}
    runs = {side: run_perfbench(root, workload, seed, trace=1) for side, root in sides.items()}
    return {"command": "python3 perfbench/run.py --workload %s --seed %d --seconds 25 --trace 1"
                       " (in each checkout)" % (workload, seed), **runs}


def machine() -> dict:
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}


# command -> (its function, whether its --parent is required; None: it takes none)
SECTIONS = {"kernel": (kernel_section, False), "sum": (sum_section, False),
            "ks": (ks_section, None), "moments": (moments_section, True),
            "sublinear": (sublinear_section, True), "synth": (synth_section, True),
            "samples": (samples_section, True), "memory": (memory_section, True),
            "startup": (startup_section, True), "calls": (calls_section, True)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, parent) in SECTIONS.items():
        command = sub.add_parser(name)
        if parent is not None:
            command.add_argument("--parent", required=parent)
        command.add_argument("--section")  # any name but kernel: a section of its own
    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in s.split(",")])
    pairs.add_argument("--section")
    traced = sub.add_parser("traced")
    traced.add_argument("--parent", required=True)
    traced.add_argument("--workload", required=True)
    traced.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)

    doc = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            doc = json.load(fh)
    # The sieve kernel's numbers, machine record and perfbench pairs are top-level.
    given = getattr(args, "section", None)
    name = given or (args.command if args.command in SECTIONS else None)
    section = doc if name in (None, "kernel") else doc.setdefault(name, {})
    if args.command == "kernel":
        section["kernel"] = kernel_section(args.parent)
    elif args.command in SECTIONS:
        run, parent = SECTIONS[args.command]
        got = run() if parent is None else run(args.parent)
        section.update({args.command: got} if given else got)
    elif args.command == "traced":
        doc.setdefault("perfbench_traced", {})[args.workload] = traced_section(
            args.parent, args.workload, args.seed)
    else:
        section.setdefault("perfbench_pairs", {})[args.workload] = pairs_section(
            args.parent, args.workload, args.seeds)
    section["machine"] = machine()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
