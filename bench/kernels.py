"""Before/after numbers of the package's kernels, written to BENCH_kernels.json.

    PYTHONPATH=src python3 bench/kernels.py kernel [--parent DIR]
    PYTHONPATH=src python3 bench/kernels.py sum [--parent DIR]
    PYTHONPATH=src python3 bench/kernels.py ks
    PYTHONPATH=src python3 bench/kernels.py moments --parent DIR
    PYTHONPATH=src python3 bench/kernels.py sublinear --parent DIR
    PYTHONPATH=src python3 bench/kernels.py synth --parent DIR
    PYTHONPATH=src python3 bench/kernels.py stream
    PYTHONPATH=src python3 bench/kernels.py samples --parent DIR
    PYTHONPATH=src python3 bench/kernels.py memory --parent DIR
    python3 bench/kernels.py pairs --parent DIR --workload NAME --seeds 1,2,3 [--section NAME]
    python3 bench/kernels.py traced --parent DIR --workload NAME --seed 1

Run from the root of a checkout.  ``kernel`` times one 2**20 block ending
at each of ``BLOCK_ENDS`` (4 * 2**20 and 10 * 2**20, at the last blocks
of stats-analyze's verdict, N = 4,096,000, and of float-accumulate's
``mu-over-k`` call, then 3e7 and 1e9), median and best of 15 in this
process with the kernels' runs alternating: the reference kernel of
``tests/reference_sieve.py`` and ``summatoria.sieve.sieve_block``, after
checking that both give the same bytes; then ``mertens_trace(3e7)`` forced to stream
(``sublinear.table_limit`` replaced by the last checkpoint), best of 3,
with each kernel swapped in for ``sieve.sieve_block``.  With
``--parent``, the package of DIR (the parent checkout) is loaded into the
same process under another name, and its ``sieve_block`` is a third
kernel in every comparison.
``sum`` times the exact sum of one 2**20 block, best and median of 7,
by the level-peeling front (``traces._peeled_sums``, which bins the
whole block where its levels leave a rest) against exponent binning
alone (``_binned_sums``), and with ``--parent`` against the
``_peeled_sums`` of DIR's package (the parent checkout), loaded as for
``kernel``, after checking that all give the same Fraction: mu(k)/k and
1/k ending at 2**20, 10 * 2**20 and 3e7, a standard normal sample,
exp(-k/1000) and a tiled 1e300/subnormal mix.  Then the microseconds per ``Block.sums_at``
call at block sizes 1 and 64 over mu(k)/k, k <= 4096, with every k a
checkpoint, best and median of 5, with each kernel behind ``sums_at``,
after checking both give the same sums.  The runs of the two sides
alternate.
``ks`` times ``ks_distance`` against the full evaluation it replaced (Phi
and both step arrays at every sorted point, kept here) on the KS samples
of ``analyze mu --N 1e6`` (10**6 points), of ``verdict mu-over-k --N
4096000`` (13 samples, 3.04e6 points) and of ``verdict mu-over-k --N 3e6
--checkpoints "geometric(1000,1.02)"`` (405 samples), after checking
that both give the same D at every sample: the sum over the samples of
each call's best of 5, the two sides alternating, with the number of
points at which ``ks_distance`` evaluates Phi.
``moments`` times, per 2**20 block of mu(k)/k and of 1/k ending at
2**20, 10 * 2**20 and 3e7, best of 5: the sum of the rounded products
f(k) f(k+3) by ``exact_prefix_sums`` against the exact ``Block.dot`` of
the split values, with the once-per-block ``Block.split`` timed on its
own; then ``analyze --N 1e6 --threads 2`` of mu, mu-over-k and harmonic
in DIR (the parent checkout) and here, best of 5 with the two sides
alternating, with each run's peak RSS and whether the two sides'
reports are the same bytes.
``sublinear`` runs ``compute --function mu|lambda`` on the schedules of
``SUBLINEAR_RUNS`` in fresh processes at 1 thread, best of 3 (of 1 for
the 10**9 stream), with each run's peak RSS: as the CLI picks its path,
and forced to stream (``sublinear.table_limit`` replaced by the last
checkpoint), after checking both give the same bytes; the dense schedules
also run in DIR (the parent checkout), best of 5 alternating with here.
It then fits the constants of ``sublinear``'s cost model in this process:
stream and table seconds per entry at 2**24, and ``sublinear.from_table``
on slices of a 2**24 table for checkpoints 10**9..10**11 and geometric
schedules, by least squares of the relative error with no negative
constant.
``synth`` runs ``synth --function synth:log2 --N 1e6`` in fresh processes
in DIR (the parent checkout) and here, best of 5 alternating, with each
run's peak RSS, after checking both give the same bytes; then the
tracemalloc peak of ``schedules.realize_greedy`` at that N in each
checkout; then, in this process, the CSV rows of that realization written
to os.devnull one f-string and one write per row against
``cli.csv_rows`` in blocks of ``cli._CSV_ROWS`` rows, best of 5, after
checking both give the same text.
``stream`` runs ``compute --function F --N 10 * 2**20`` for F = mu, mu-over-k,
harmonic and a ``file:`` CSV of ``synth:log2`` at that N, in fresh processes,
best of 5 with the two sides alternating, with each run's peak RSS:
``traces.stream`` as it is (every block inline), and with each next block
evaluated one ahead on a background thread (``AHEAD``), after checking both
give the same bytes.  mu is forced to stream (``sublinear.table_limit``
replaced by the last checkpoint).
``samples`` runs five verdicts in fresh processes in DIR (the parent
checkout) and here, 5 runs with the two sides alternating, and keeps the
medians of wall time and peak RSS, after checking both give the same
bytes: ``file:`` of a ``synth:log2`` CSV at 1e6, then ``SAMPLES_RUNS``,
whose checkpoints share KS sample strides.
``memory`` runs float-accumulate's two ``compute`` calls, stats-analyze's
``verdict`` at seed 1 and ``MEMORY_VERDICT`` (an integer stream with
partial-sum KS samples) in fresh processes in DIR (the parent checkout)
and here, 11 runs with the two sides alternating, after checking both
give the same bytes, and keeps each side's median wall time, median and
largest peak RSS and median minor page faults; then, in a child in each
checkout, the ``tracemalloc`` peak of ``traces.stream`` over
``MEMORY_BLOCKS`` blocks of 2**18 entries of harmonic, mu-over-k and mu,
in float64 blocks, with no probe, a partial-sum ``Strided`` and a value
``Strided`` (``BLOCK_PEAKS``).
``pairs`` runs ``perfbench/run.py --trace 0`` for each seed in DIR (the
parent checkout) and here, alternating which goes first, and keeps every
run's metrics with each side's median and quartiles.  Each command
replaces its own section of the JSON file and the machine record; with
``--section sum``, ``ks``, ``moments``, ``sublinear``, ``synth``,
``stream``, ``samples`` or ``memory``, ``pairs`` writes into that
section, else into the sieve kernel's top-level ``perfbench_pairs``.
``traced`` runs ``perfbench/run.py --trace 1`` once in DIR (the parent
checkout) and once here, and keeps each run's per-layer metrics under
``perfbench_traced``.
"""

from __future__ import annotations

import argparse
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

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, os.pardir, "BENCH_kernels.json")
BLOCK = 1 << 20
BLOCK_ENDS = (4 * BLOCK, 10 * BLOCK, 30_000_000, 1_000_000_000)
TRACE_N = 30_000_000
SUM_BLOCK_ENDS = (BLOCK, 10 * BLOCK, 30_000_000)
CALLS_N = 1 << 12
KS_ANALYZE_N = 1_000_000
KS_VERDICT_N = 4_096_000
KS_DENSE_N = 3_000_000
MOMENTS_LAG = 3
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
# (function, N, checkpoints) of the ``samples`` verdicts, after the file: one
SAMPLES_RUNS = [
    ("mu-over-k", KS_VERDICT_N, "geometric(1000,2)"), ("mu-over-k", 10**7, "geometric(1000,2)"),
    ("mu", 3 * 10**7, "geometric(1000000,1.1)"), ("mu-over-k", 3 * 10**6, "geometric(1000,1.02)"),
]
STREAM_N = 10 * BLOCK


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


def kernel_section(parent: str | None) -> dict:
    sys.path.insert(0, os.path.join(HERE, os.pardir, "tests"))
    from unittest import mock

    from reference_sieve import reference_sieve_block
    from summatoria import sieve, sublinear, traces

    kernels = {"reference": reference_sieve_block,
               **({"parent": load_parent(parent, "sieve").sieve_block} if parent else {}),
               "new": sieve.sieve_block}
    blocks = []
    for hi in BLOCK_ENDS:
        lo = hi - BLOCK + 1
        primes = sieve.primes_up_to(math.isqrt(hi))
        runs = {name: (lambda k=k: k(lo, hi)) for name, k in kernels.items()}
        runs["reference"] = lambda: reference_sieve_block(lo, hi, primes=primes)
        want = runs["reference"]()
        for name, run in runs.items():
            got = run()
            if got.mu.tobytes() != want.mu.tobytes() or got.lam.tobytes() != want.lam.tobytes():
                raise SystemExit(f"{name} kernel differs from the reference on [{lo}, {hi}]")
        times = times_of(15, runs)
        row = {"lo": lo, "hi": hi}
        for name, t in times.items():
            row[f"{name}_median_ms"] = round(1e3 * statistics.median(t), 1)
            row[f"{name}_best_ms"] = round(1e3 * min(t), 1)
        row["new_ns_per_entry"] = round(1e9 * statistics.median(times["new"]) / BLOCK, 1)
        if parent:
            row["new_over_parent_median"] = round(
                statistics.median(times["new"]) / statistics.median(times["parent"]), 3)
        blocks.append(row)
        print(json.dumps(row), flush=True)

    def trace_with(kernel):
        def run():
            sieve.sieve_block = kernel
            try:  # forced to stream: no table of sublinear
                with mock.patch.object(sublinear, "table_limit", lambda cps: int(cps[-1])):
                    return traces.mertens_trace(TRACE_N).values.tolist()
            finally:
                sieve.sieve_block = kernels["new"]
        return run

    runs = {name: trace_with(k) for name, k in kernels.items()}
    want = runs["reference"]()
    if any(run() != want for run in runs.values()):
        raise SystemExit("mertens_trace values differ")
    secs = best_of(3, runs)
    trace_rows = [{"N": TRACE_N, **{f"{name}_s": round(t, 3) for name, t in secs.items()}}]
    return {
        "command": "PYTHONPATH=src python3 bench/kernels.py kernel"
                   + (" --parent DIR" if parent else ""),
        "block_2pow20_median_of_15": blocks,
        "mertens_trace_best_of_3": trace_rows,
    }


def sum_section(parent: str | None) -> dict:
    from unittest import mock

    from summatoria import sequences, traces

    before = load_parent(parent, "traces") if parent else None

    def binned(x, ends):  # the exponent-binning kernel on its own
        return traces._binned_sums(*np.frexp(x), ends)

    def exact(run):  # the one sum of a kernel as a Fraction
        (num,), exp = run()
        return traces._fraction(num, exp)

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
        runs = {"peel": lambda: traces._peeled_sums(x, [BLOCK]),
                "bin": lambda: binned(x, [BLOCK]),
                **({"parent_peel": lambda: before._peeled_sums(x, [BLOCK])} if before else {})}
        with mock.patch.object(traces, "_binned_sums", wraps=traces._binned_sums) as spy:
            runs["peel"]()
        if len({exact(run) for run in runs.values()}) != 1:
            raise SystemExit(f"{name}: peeling and binning give different sums")
        ms = {side: [1e3 * t for t in ts] for side, ts in times_of(7, runs).items()}
        rows.append({"terms": name, "peeling_bins_a_rest": spy.called,
                     **{f"{side}_best_ms": round(min(ms[side]), 1) for side in runs},
                     **{f"{side}_median_ms": round(statistics.median(ms[side]), 1)
                        for side in runs},
                     "speedup": round(statistics.median(ms["bin"])
                                      / statistics.median(ms["peel"]), 2)})
        print(json.dumps(rows[-1]), flush=True)

    # Block.sums_at at small block sizes, every k a checkpoint: its fixed cost.
    values = sequences.weighted_mobius_sequence(CALLS_N).values(1, CALLS_N)
    ns = np.arange(1, CALLS_N + 1)
    calls = []
    for size in (1, 64):
        us, out = {"peel": [], "bin": []}, {}
        for i in range(5):
            for side in (["peel", "bin"] if i % 2 == 0 else ["bin", "peel"]):
                with mock.patch.object(traces, "_peeled_sums",
                                       traces._peeled_sums if side == "peel" else binned):
                    built = [traces.Block(lo, values[lo - 1 : lo - 1 + size], 0, False)
                             for lo in range(1, CALLS_N + 1, size)]
                    start = time.perf_counter()
                    out[side] = [block.sums_at(ns)[1] for block in built]
                    us[side].append(1e6 * (time.perf_counter() - start) / len(built))
        if out["peel"] != out["bin"]:
            raise SystemExit(f"sums_at at block size {size}: peeling and binning differ")
        calls.append({"terms": f"mu(k)/k, k = 1..{CALLS_N}", "block_size": size,
                      **{f"{side}_best_us": round(min(us[side]), 1) for side in us},
                      **{f"{side}_median_us": round(statistics.median(us[side]), 1)
                         for side in us}})
        print(json.dumps(calls[-1]), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py sum"
                       + (" --parent DIR" if parent else ""),
            "block_2pow20_of_7": rows, "sums_at_call_of_5": calls}


def ks_section() -> dict:
    from summatoria import cli, empirical, limits, sequences, traces
    from summatoria.empirical import empirical_cdf, ks_distance

    phi = empirical._normal_cdf_sorted

    def ks_full(dist):  # ks_distance before pruning: Phi and both steps at every point
        z = dist.sample - dist.mean
        z /= math.sqrt(dist.variance)
        ref = phi(z)
        steps = np.arange(dist.n + 1) / dist.n
        above = np.max(steps[1:] - ref)
        ref -= steps[:-1]
        return float(max(above, np.max(ref)))

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
        probe = traces.Strided(cps, limits.KS_SAMPLE_CAP, sums=sums)
        traces.stream(seq(cps[-1]), cps[-1], [probe])
        secs, evaluated = {"ks_full": 0.0, "ks_distance": 0.0}, [0]
        for n in cps:  # one sorted sample at a time, so that memory stays small
            dist = empirical_cdf(probe.sample(n))
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
        points = sum(probe.sample(n).size for n in cps)
        rows.append({"samples": name, "checkpoints": len(cps), "points": points,
                     "phi_points_pruned": evaluated[0],
                     **{f"{side}_s": round(t, 4) for side, t in secs.items()}})
        print(json.dumps(rows[-1]), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py ks",
            "ks_sum_of_best_of_5": rows}


def moments_section(parent: str) -> dict:
    # The analyze runs come first: a child's ru_maxrss starts from the peak
    # RSS of this process at the fork, which stays small until then.
    sides = {"parent": os.path.abspath(parent),
             "change": os.path.abspath(os.path.join(HERE, os.pardir))}
    analyze = []
    for function in ("mu", "mu-over-k", "harmonic"):
        argv = [sys.executable, "-m", "summatoria.cli", "analyze", "--function", function,
                "--N", str(ANALYZE_N), "--threads", "2"]
        secs, rss, out = {side: [] for side in sides}, {side: [] for side in sides}, {}
        for i in range(5):
            for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
                start = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=sides[side], stdout=subprocess.PIPE,
                                        env=dict(os.environ, PYTHONPATH="src"))
                out[side] = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                secs[side].append(time.perf_counter() - start)
                rss[side].append(usage.ru_maxrss / 1024)
                if status:
                    raise SystemExit(f"analyze {function} failed in {sides[side]}")
        analyze.append({"function": function, "N": ANALYZE_N, "threads": 2,
                        "same_bytes": out["parent"] == out["change"],
                        **{f"{side}_best_s": round(min(secs[side]), 3) for side in sides},
                        **{f"{side}_median_s": round(statistics.median(secs[side]), 3)
                           for side in sides},
                        **{f"{side}_peak_rss_mb": round(max(rss[side]), 1) for side in sides}})

    from summatoria import sequences, traces

    rows = []
    for hi in SUM_BLOCK_ENDS:
        lo = hi - BLOCK + 1
        for name, seq in (("mu(k)/k", sequences.weighted_mobius_sequence(hi + MOMENTS_LAG)),
                          ("1/k", sequences.sequence_from_function(lambda k: 1.0 / k,
                                                                   hi + MOMENTS_LAG))):
            x = seq.values(lo, hi + MOMENTS_LAG)
            block = traces.Block(lo, x, 0, False)
            split = block.split()
            runs = {
                "rounded": lambda: traces.exact_prefix_sums(x[:BLOCK] * x[MOMENTS_LAG:], [BLOCK]),
                "split": block.split,
                "dot": lambda: block.dot(split[:, :BLOCK], split[:, MOMENTS_LAG:]),
            }
            ms = {side: 1e3 * t for side, t in best_of(5, runs).items()}
            rows.append({"terms": name, "lag": MOMENTS_LAG, "lo": lo, "hi": hi,
                         "rounded_product_ms": round(ms["rounded"], 1),
                         "split_ms": round(ms["split"], 1),
                         "exact_dot_ms": round(ms["dot"], 1)})

    return {"command": "PYTHONPATH=src python3 bench/kernels.py moments --parent DIR",
            "block_2pow20_best_of_5": rows, "analyze_best_of_5": analyze}


def child_usage(argv: list[str], cwd: str, code: str = ""):
    """Seconds, resource usage and stdout of a CLI call run in a fresh
    interpreter; ``code`` runs first in that interpreter."""
    prog = f"import sys\n{code}\nfrom summatoria import cli\nsys.exit(cli.main(sys.argv[1:]))"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", prog, *argv], cwd=cwd,
                            stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH="src"))
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    if status:
        raise SystemExit(f"{argv} failed in {cwd}")
    return time.perf_counter() - start, usage, out


def child(argv: list[str], cwd: str, code: str = "") -> tuple[float, float, bytes]:
    """Seconds, peak RSS (MB) and stdout of a CLI call run in a fresh
    interpreter; ``code`` runs first in that interpreter."""
    secs, usage, out = child_usage(argv, cwd, code)
    return secs, usage.ru_maxrss / 1024, out


def sublinear_section(parent: str) -> dict:
    here = os.path.abspath(os.path.join(HERE, os.pardir))
    force_stream = ("from summatoria import sublinear; "
                    "sublinear.table_limit = lambda cps: int(cps[-1])")
    runs = []
    for function, N, cps in SUBLINEAR_RUNS:  # children first: see moments_section
        argv = ["compute", "--function", function, "--N", str(N), "--checkpoints", cps,
                "--threads", "1"]
        sides = {"picked": (here, "")}
        if N <= 10**9:
            sides["stream"] = (here, force_stream)
        if cps.startswith("geometric(1,"):
            sides["parent"] = (os.path.abspath(parent), "")
        k = 1 if N == 10**9 else 5 if "parent" in sides else 3
        secs, rss, out = {s: [] for s in sides}, {s: [] for s in sides}, {}
        for i in range(k):
            for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
                t, r, out[side] = child(argv, *sides[side])
                secs[side].append(t)
                rss[side].append(r)
        if len(set(out.values())) != 1:
            raise SystemExit(f"{argv}: the paths give different bytes")
        row = {"function": function, "N": N, "checkpoints": cps, "runs": k}
        for side in sides:
            row[f"{side}_best_s"] = round(min(secs[side]), 3)
            row[f"{side}_peak_rss_mb"] = round(max(rss[side]), 1)
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


def rows_one_at_a_time(values, out) -> None:
    """The synth writer before ``cli.csv_rows``: one f-string and one write per row."""
    for k, f in enumerate(values, start=1):
        out.write(f"{k},{format(float(f), '.17g')}\n")


def synth_section(parent: str) -> dict:
    sides = {"parent": os.path.abspath(parent),
             "change": os.path.abspath(os.path.join(HERE, os.pardir))}
    argv = ["synth", "--function", "synth:log2", "--N", str(SYNTH_N)]
    secs, rss, out = {side: [] for side in sides}, {side: [] for side in sides}, {}
    for i in range(5):  # children first: see moments_section
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            t, r, out[side] = child(argv, sides[side])
            secs[side].append(t)
            rss[side].append(r)
    if out["parent"] != out["change"]:
        raise SystemExit(f"{argv}: parent and change give different bytes")
    peak = ("import tracemalloc\nfrom summatoria import schedules\ntracemalloc.start()\n"
            f"schedules.realize_greedy(schedules.log2_indicator_schedule(), {SYNTH_N})\n"
            "print(tracemalloc.get_traced_memory()[1])")
    realize_mb = {side: int(subprocess.run(
        [sys.executable, "-c", peak], cwd=root, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH="src")).stdout) / 1e6 for side, root in sides.items()}

    from summatoria import cli, schedules

    values = schedules.realize_greedy(schedules.log2_indicator_schedule(), SYNTH_N).values(
        1, SYNTH_N)

    def blocks(out):
        for lo in range(1, SYNTH_N + 1, cli._CSV_ROWS):
            out.write(cli.csv_rows(lo, values[lo - 1 : lo - 1 + cli._CSV_ROWS]))

    writers = {"row_at_a_time": lambda out: rows_one_at_a_time(values, out), "blocks": blocks}
    texts = {}
    for name, write in writers.items():
        buf = io.StringIO()
        write(buf)
        texts[name] = buf.getvalue()
    if "k,f\n" + texts["blocks"] != out["change"].decode("ascii") or len(set(texts.values())) != 1:
        raise SystemExit("the two writers give different text")
    with open(os.devnull, "w", encoding="utf-8", newline="\n") as null:
        writer_s = best_of(5, {name: lambda w=w: w(null) for name, w in writers.items()})
    return {
        "command": "PYTHONPATH=src python3 bench/kernels.py synth --parent DIR",
        "cli_best_of_5": {"argv": argv, "sha256": hashlib.sha256(out["change"]).hexdigest(),
                          **{f"{side}_best_s": round(min(secs[side]), 3) for side in sides},
                          **{f"{side}_median_s": round(statistics.median(secs[side]), 3)
                             for side in sides},
                          **{f"{side}_peak_rss_mb": round(max(rss[side]), 1) for side in sides}},
        "realize_greedy_tracemalloc_peak_mb": {side: round(mb, 1)
                                               for side, mb in realize_mb.items()},
        "writer_to_devnull_best_of_5": {
            "rows": SYNTH_N,
            **{f"{name}_s": round(t, 4) for name, t in writer_s.items()},
            **{f"{name}_ns_per_row": round(1e9 * t / SYNTH_N, 1)
               for name, t in writer_s.items()}},
    }


def samples_section(parent: str) -> dict:
    sides = {"parent": os.path.abspath(parent),
             "change": os.path.abspath(os.path.join(HERE, os.pardir))}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "synth_log2.csv")
        child(["synth", "--function", "synth:log2", "--N", str(SYNTH_N), "--output", csv],
              sides["change"])
        for argv in [["verdict", "--function", f"file:{csv}", "--N", str(SYNTH_N)],
                     *[["verdict", "--function", f, "--N", str(N), "--checkpoints", cps]
                       for f, N, cps in SAMPLES_RUNS]]:
            secs, rss, out = {side: [] for side in sides}, {side: [] for side in sides}, {}
            for i in range(5):
                for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
                    t, r, out[side] = child(argv, sides[side])
                    secs[side].append(t)
                    rss[side].append(r)
            if out["parent"] != out["change"]:
                raise SystemExit(f"{argv}: parent and change give different bytes")
            argv[2] = argv[2].replace(csv, "synth_log2.csv")
            rows.append({"argv": argv, "same_bytes": True,
                         **{f"{side}_median_s": round(statistics.median(secs[side]), 3)
                            for side in sides},
                         **{f"{side}_median_peak_rss_mb": round(statistics.median(rss[side]), 1)
                            for side in sides}})
            print(json.dumps(rows[-1]), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py samples --parent DIR",
            "verdict_median_of_5": rows}


# The worker side of ``stream``: ``traces.stream`` unchanged, over a
# sequence whose next block is evaluated on one background thread while the
# probes work on the current one.
AHEAD = """
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from summatoria import sieve, traces

inline = traces.stream


class Ahead:
    def __init__(self, seq, last, size, pool):
        self.seq, self.last, self.size, self.pool = seq, last, size, pool
        self.pending = pool.submit(seq.values, 1, min(size, last))

    def __getattr__(self, name):
        return getattr(self.seq, name)

    def values(self, lo, hi):
        arr = self.pending.result()
        if hi < self.last:
            self.pending = self.pool.submit(self.seq.values, hi + 1,
                                            min(hi + self.size, self.last))
        return arr


def ahead(seq, ns, probes):
    last = int(np.atleast_1d(ns)[-1])
    with ThreadPoolExecutor(max_workers=1) as pool:
        return inline(Ahead(seq, last, sieve.DEFAULT_BLOCK_SIZE, pool), ns, probes)


traces.stream = ahead
"""


def stream_section() -> dict:
    here = os.path.abspath(os.path.join(HERE, os.pardir))
    modes = {"inline": "", "worker": AHEAD}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:  # children first: see moments_section
        csv = os.path.join(tmp, "synth_log2.csv")
        child(["synth", "--function", "synth:log2", "--N", str(STREAM_N), "--output", csv], here)
        # (function id, the id whose values it holds)
        for function, source in (("mu", "mu"), ("mu-over-k", "mu-over-k"),
                                 ("harmonic", "harmonic"), (f"file:{csv}", "synth:log2")):
            argv = ["compute", "--function", function, "--N", str(STREAM_N)]
            secs, rss, out = {m: [] for m in modes}, {m: [] for m in modes}, {}
            for i in range(5):
                for mode in list(modes)[:: 1 if i % 2 == 0 else -1]:
                    code = ("from summatoria import sublinear\n"
                            "sublinear.table_limit = lambda cps: int(cps[-1])\n" + modes[mode])
                    t, r, out[mode] = child(argv, here, code)
                    secs[mode].append(t)
                    rss[mode].append(r)
            if out["inline"] != out["worker"]:
                raise SystemExit(f"{argv}: inline and worker give different bytes")
            row = {"function": function.replace(tmp + os.sep, ""), "values_of": source,
                   "N": STREAM_N,
                   **{f"{m}_best_s": round(min(secs[m]), 3) for m in modes},
                   **{f"{m}_median_s": round(statistics.median(secs[m]), 3) for m in modes},
                   **{f"{m}_peak_rss_mb": round(max(rss[m]), 1) for m in modes}}
            rows.append(row)
            print(json.dumps(row), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py stream",
            "compute_best_of_5": rows}


# The tracemalloc peak of one ``traces.stream`` over MEMORY_BLOCKS blocks of
# 2**18 entries, in float64 blocks, after a one-block stream has built the
# prime table: with no probe, with a partial-sum ``Strided`` and with a
# value ``Strided``.  It runs in a child in each checkout.
MEMORY_BLOCKS = 8
MEMORY_VERDICT = ["verdict", "--function", "mu", "--N", "30000000"]
BLOCK_PEAKS = f"""
import json, tracemalloc
from unittest import mock
from summatoria import cli, sieve, traces
size, last, peaks = 1 << 18, {MEMORY_BLOCKS} << 18, {{}}
with mock.patch.object(sieve, "DEFAULT_BLOCK_SIZE", size):
    for function in ("harmonic", "mu-over-k", "mu"):
        seq = cli.resolve_function(function, last)
        for probe, probes in (("none", lambda: []),
                              ("strided_sums", lambda: [traces.Strided(last, 1000)]),
                              ("strided_values", lambda: [traces.Strided(last, 1000, sums=False)])):
            traces.stream(seq, size, [])
            ready = probes()
            tracemalloc.start()
            traces.stream(seq, last, ready)
            peaks[f"{{function}}, {{probe}}"] = round(tracemalloc.get_traced_memory()[1] / (8 * size), 3)
            tracemalloc.stop()
print(json.dumps(peaks))
"""


def memory_section(parent: str) -> dict:
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    import workloads

    sides = {"parent": os.path.abspath(parent),
             "change": os.path.abspath(os.path.join(HERE, os.pardir))}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:  # children first: see moments_section
        calls = [*(call.args for call in workloads.WORKLOADS["float-accumulate"](1, tmp).calls),
                 workloads.WORKLOADS["stats-analyze"](1, tmp).calls[1].args, MEMORY_VERDICT]
        for args in calls:
            argv = args + ["--threads", "2"]
            runs, out = {side: [] for side in sides}, {}
            for i in range(11):
                for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
                    secs, usage, out[side] = child_usage(argv, sides[side])
                    runs[side].append((secs, usage.ru_maxrss / 1024, usage.ru_minflt))
            if out["parent"] != out["change"]:
                raise SystemExit(f"{argv}: parent and change give different bytes")
            row = {"argv": " ".join(args[:5]), "same_bytes": True}
            for side, got in runs.items():
                secs, rss, faults = zip(*got)
                row[side] = {"median_s": round(statistics.median(secs), 3),
                             "median_peak_rss_mb": round(statistics.median(rss), 1),
                             "max_peak_rss_mb": round(max(rss), 1),
                             "median_minor_faults": int(statistics.median(faults))}
            rows.append(row)
            print(json.dumps(row), flush=True)
    peaks = {side: json.loads(subprocess.run(
        [sys.executable, "-c", BLOCK_PEAKS], cwd=root, capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH="src")).stdout) for side, root in sides.items()}
    print(json.dumps(peaks), flush=True)
    return {"command": "PYTHONPATH=src python3 bench/kernels.py memory --parent DIR",
            "cli_of_11_seed_1": rows, "stream_tracemalloc_peak_blocks": peaks}


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
    sides = {"parent": os.path.abspath(parent), "change": os.path.abspath(os.path.join(HERE, os.pardir))}
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
    sides = {"parent": os.path.abspath(parent), "change": os.path.abspath(os.path.join(HERE, os.pardir))}
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("kernel").add_argument("--parent")
    sub.add_parser("sum").add_argument("--parent")
    sub.add_parser("ks")
    sub.add_parser("moments").add_argument("--parent", required=True)
    sub.add_parser("sublinear").add_argument("--parent", required=True)
    sub.add_parser("synth").add_argument("--parent", required=True)
    sub.add_parser("stream")
    sub.add_parser("samples").add_argument("--parent", required=True)
    sub.add_parser("memory").add_argument("--parent", required=True)
    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in s.split(",")])
    traced = sub.add_parser("traced")
    traced.add_argument("--parent", required=True)
    traced.add_argument("--workload", required=True)
    traced.add_argument("--seed", required=True, type=int)
    pairs.add_argument("--section",
                       choices=["sum", "ks", "moments", "sublinear", "synth", "stream",
                                "samples", "memory"])
    args = parser.parse_args(argv)

    doc = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            doc = json.load(fh)
    sections = ("sum", "ks", "moments", "sublinear", "synth", "stream", "samples", "memory")
    name = args.command if args.command in sections else getattr(args, "section", None)
    section = doc.setdefault(name, {}) if name else doc
    if args.command == "kernel":
        doc["kernel"] = kernel_section(args.parent)
    elif args.command == "sum":
        section.update(sum_section(args.parent))
    elif args.command == "ks":
        section.update(ks_section())
    elif args.command == "moments":
        section.update(moments_section(args.parent))
    elif args.command == "sublinear":
        section.update(sublinear_section(args.parent))
    elif args.command == "synth":
        section.update(synth_section(args.parent))
    elif args.command == "stream":
        section.update(stream_section())
    elif args.command == "samples":
        section.update(samples_section(args.parent))
    elif args.command == "memory":
        section.update(memory_section(args.parent))
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
