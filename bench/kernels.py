"""Before/after numbers of the package's kernels, written to BENCH_kernels.json.

    PYTHONPATH=src python3 bench/kernels.py kernel
    PYTHONPATH=src python3 bench/kernels.py sum
    PYTHONPATH=src python3 bench/kernels.py ks
    python3 bench/kernels.py pairs --parent DIR --workload NAME --seeds 1,2,3 [--section sum|ks]

Run from the root of a checkout.  ``kernel`` times one 2**20 block ending
at 3e7 and one ending at 1e9, best of 5 in this process, with the
reference kernel of ``tests/reference_sieve.py`` and with
``summatoria.sieve.sieve_block``, after checking that both give the same
bytes; then ``mertens_trace(3e7)``, best of 3, at 1 and 2 threads with
each kernel (the reference is swapped in for ``sieve.sieve_block``).
``sum`` times the sum of one 2**20 block of mu(k)/k and of 1/k ending at
2**20, 10 * 2**20 and 3e7, best of 5: ``math.fsum(x.tolist())`` against
the exact ``traces.Block`` sum rounded once, after checking both give
the same float.  The runs of the two sides alternate.
``ks`` times ``import scipy.special`` after numpy in fresh interpreters,
then the normal CDF of the KS samples of ``analyze mu --N 1e6`` (10**6
points) and of ``verdict mu-over-k --N 4096000`` (13 samples, 3.04e6
points), best of 5: ``scipy.special.ndtr`` against the package's Phi,
and the whole KS statistic by ndtr and two step arrays against
``ks_distance``, after checking that both give the same D.
``pairs`` runs ``perfbench/run.py --trace 0`` for each seed in DIR (the
parent checkout) and here, alternating which goes first, and keeps every
run's metrics with each side's median and quartiles.  Each command
replaces its own section of the JSON file and the machine record; with
``--section sum`` or ``ks``, ``pairs`` writes into that section, else
into the sieve kernel's top-level ``perfbench_pairs``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, os.pardir, "BENCH_kernels.json")
BLOCK = 1 << 20
BLOCK_ENDS = (30_000_000, 1_000_000_000)
TRACE_N = 30_000_000
SUM_BLOCK_ENDS = (BLOCK, 10 * BLOCK, 30_000_000)
KS_ANALYZE_N = 1_000_000
KS_VERDICT_N = 4_096_000


def best_of(k: int, fns: dict) -> dict:
    """{name: least time of k runs}; the runs of the functions alternate,
    so that each sees the same phases of a machine whose speed drifts."""
    times = {name: [] for name in fns}
    for _ in range(k):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return {name: min(t) for name, t in times.items()}


def kernel_section() -> dict:
    sys.path.insert(0, os.path.join(HERE, os.pardir, "tests"))
    from reference_sieve import reference_sieve_block
    from summatoria import sieve, traces

    kernels = {"reference": reference_sieve_block, "new": sieve.sieve_block}
    blocks = []
    for hi in BLOCK_ENDS:
        lo = hi - BLOCK + 1
        primes = sieve.primes_up_to(math.isqrt(hi))
        runs = {name: lambda k=k: k(lo, hi, primes=primes) for name, k in kernels.items()}
        old, new = runs["reference"](), runs["new"]()
        if old.mu.tobytes() != new.mu.tobytes() or old.lam.tobytes() != new.lam.tobytes():
            raise SystemExit(f"kernels differ on [{lo}, {hi}]")
        ms = {name: 1e3 * t for name, t in best_of(5, runs).items()}
        blocks.append({"lo": lo, "hi": hi, "reference_ms": round(ms["reference"], 1),
                       "new_ms": round(ms["new"], 1),
                       "new_ns_per_entry": round(1e6 * ms["new"] / BLOCK, 1),
                       "speedup": round(ms["reference"] / ms["new"], 2)})

    def trace_with(kernel, threads):
        def run():
            sieve.sieve_block = kernel
            try:
                return traces.mertens_trace(TRACE_N, threads=threads).values.tolist()
            finally:
                sieve.sieve_block = kernels["new"]
        return run

    trace_rows = []
    for threads in (1, 2):
        runs = {name: trace_with(k, threads) for name, k in kernels.items()}
        if runs["reference"]() != runs["new"]():
            raise SystemExit(f"mertens_trace values differ at {threads} threads")
        secs = best_of(3, runs)
        trace_rows.append({"N": TRACE_N, "threads": threads,
                           "reference_s": round(secs["reference"], 3),
                           "new_s": round(secs["new"], 3)})
    return {
        "command": "PYTHONPATH=src python3 bench/kernels.py kernel",
        "block_2pow20_best_of_5": blocks,
        "mertens_trace_best_of_3": trace_rows,
    }


def sum_section() -> dict:
    from summatoria import sequences, traces

    def exact(x, lo):
        block = traces.Block(lo, x, 0, False)
        return block.rounded(block.total)

    rows = []
    for hi in SUM_BLOCK_ENDS:
        lo = hi - BLOCK + 1
        for name, seq in (("mu(k)/k", sequences.weighted_mobius_sequence(hi)),
                          ("1/k", sequences.sequence_from_function(
                              lambda k: 1.0 / k, hi, magnitude_bound=1.0))):
            x = seq.values(lo, hi)
            runs = {"fsum": lambda: math.fsum(x.tolist()), "exact": lambda: exact(x, lo)}
            if runs["fsum"]() != runs["exact"]():
                raise SystemExit(f"{name}: sums differ on [{lo}, {hi}]")
            ms = {side: 1e3 * t for side, t in best_of(5, runs).items()}
            rows.append({"terms": name, "lo": lo, "hi": hi,
                         "fsum_tolist_ms": round(ms["fsum"], 1),
                         "exact_ms": round(ms["exact"], 1),
                         "speedup": round(ms["fsum"] / ms["exact"], 2)})
    return {"command": "PYTHONPATH=src python3 bench/kernels.py sum",
            "block_2pow20_best_of_5": rows}


def scipy_import_s(k: int = 5) -> list[float]:
    """Seconds of ``import scipy.special`` after numpy, in k fresh interpreters."""
    code = ("import time, numpy; t = time.perf_counter(); import scipy.special; "
            "print(time.perf_counter() - t)")
    return sorted(float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True).stdout) for _ in range(k))


def ks_section() -> dict:
    from scipy.special import ndtr

    from summatoria import limits, sequences, traces
    from summatoria.empirical import _normal_cdf_sorted, empirical_cdf, ks_distance

    def ks_with_ndtr(dist):
        z = (dist.sample - dist.mean) / math.sqrt(dist.variance)
        ref = ndtr(z)
        hi = np.arange(1, dist.n + 1, dtype=np.float64) / dist.n
        lo = np.arange(0, dist.n, dtype=np.float64) / dist.n
        return float(max(np.max(np.abs(hi - ref)), np.max(np.abs(lo - ref))))

    analyze = traces.Strided(KS_ANALYZE_N, limits.KS_SAMPLE_CAP, sums=False)
    traces.stream(sequences.mobius_sequence(KS_ANALYZE_N), KS_ANALYZE_N, [analyze])
    cps = [1000 * 2**k for k in range(13)]  # geometric(1000,2) to KS_VERDICT_N
    verdict = [traces.Strided(n, limits.KS_SAMPLE_CAP) for n in cps]
    traces.stream(sequences.weighted_mobius_sequence(KS_VERDICT_N), cps[-1], verdict)

    rows = []
    for name, samples in (("analyze mu --N 1e6", [analyze.sample]),
                          ("verdict mu-over-k --N 4096000", [v.sample for v in verdict])):
        dists = [empirical_cdf(x) for x in samples]
        if [ks_with_ndtr(d) for d in dists] != [ks_distance(d) for d in dists]:
            raise SystemExit(f"{name}: D differs between ndtr and ks_distance")
        zs = [(d.sample - d.mean) / math.sqrt(d.variance) for d in dists]
        secs = best_of(5, {
            "ndtr": lambda: [ndtr(z) for z in zs],
            "phi": lambda: [_normal_cdf_sorted(z) for z in zs],
            "ks_ndtr": lambda: [ks_with_ndtr(d) for d in dists],
            "ks_distance": lambda: [ks_distance(d) for d in dists],
        })
        rows.append({"samples": name, "points": sum(d.n for d in dists),
                     **{f"{side}_s": round(t, 4) for side, t in secs.items()}})
    imports = scipy_import_s()
    return {"command": "PYTHONPATH=src python3 bench/kernels.py ks",
            "import_scipy_special_after_numpy_s": {
                "best": round(imports[0], 3), "median": round(imports[2], 3), "runs": 5},
            "normal_cdf_best_of_5": rows}


def run_perfbench(root: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "25", "--trace", "0"]
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
    sub.add_parser("kernel")
    sub.add_parser("sum")
    sub.add_parser("ks")
    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in s.split(",")])
    pairs.add_argument("--section", choices=["sum", "ks"])
    args = parser.parse_args(argv)

    doc = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            doc = json.load(fh)
    name = args.command if args.command in ("sum", "ks") else getattr(args, "section", None)
    section = doc.setdefault(name, {}) if name else doc
    if args.command == "kernel":
        doc["kernel"] = kernel_section()
    elif args.command == "sum":
        section.update(sum_section())
    elif args.command == "ks":
        section.update(ks_section())
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
