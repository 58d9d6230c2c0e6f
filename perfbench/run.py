"""Benchmark of the summatoria command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program under test is
``src/summatoria`` there, run as ``python -m summatoria.cli``.

A run is closed-loop: one process at a time, each one fresh.  A cycle is
one set-up sample (``python -c "import summatoria.cli"``) and then the
workload's CLI calls in order; a run of the reference process
(``reference.py``) comes before the first cycle and after every cycle.
Cycles repeat for ``--seconds``: after the first whole cycle, a step
starts only if its median time, and the reference after it, still fit.
Every output is checked against the oracles in ``oracles.py``.
The last stdout line is a JSON object with ``correct``, ``attempted``
(CLI calls made), ``failed`` (calls that exited nonzero or whose output
disagrees with an oracle or with the timed output) and ``metrics``.

On the 2-vCPU shared virtual machine of ``baseline.json`` each process
runs either at full speed or 30-60 % slower, switching every few seconds,
and the share of slow time drifts over minutes.  So call times are averaged, not taken
as medians: a median of a few such samples jumps between the two speeds,
a mean follows the share of slow time.  And times are scaled to
reference speed: divided by the mean time of the run's reference runs
and multiplied by REF_S, the reference's mean time on the machine of
``baseline.json``.  In ten runs of each workload there, wall_s as the
unscaled sum of medians spread (q3 - q1 over the median) up to 0.27;
as scaled means it spread 0.10 to 0.15.  The unscaled metrics are
printed on a ``raw:`` line.

``--trace 0`` reports:
  wall_s       spawn-to-exit time of a cycle's calls: the sum over the
               workload's calls of each call's mean, scaled by the
               reference's mean wall time
  cpu_s        user + sys time of the child processes, summed likewise,
               scaled by the reference's mean user + sys time
  peak_rss_mb  child ru_maxrss (not scaled): the largest over the calls
               of each call's median
  setup_s      spawn-to-exit time of the set-up samples: their median,
               scaled by the reference's mean wall time

``--trace 1`` runs the same loop, then the calls three more times in
this process with ``--threads 1``: a warm-up pass, a traced pass (see
``tracing.py``) and an untraced pass.  It reports the per-layer metrics
of ``tracing.layer_metrics`` plus
  trace.untraced_s     wall time of the untraced pass
  trace.overhead_s     traced minus untraced wall time
  traces.float_ulp_max largest ulp distance of a float checkpoint from
                       its correctly rounded value (0 without floats)
The outputs of all three passes must equal the timed ``--threads 2``
outputs byte for byte (the README's thread-count promise).  Spans are
written to ``perfbench/_out/spans-<workload>-<seed>.json``.

Children get a pinned environment: no SUMMATORIA_BLOCK_SIZE, one BLAS
thread, PYTHONHASHSEED=0.  The machine (cores, L2/L3 sizes, Python,
numpy and scipy versions) is printed on a ``machine:`` line.
"""

from __future__ import annotations

import os
import sys

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
BLOCK_SIZE_ENV_VAR = "SUMMATORIA_BLOCK_SIZE"

if __name__ == "__main__" and (
        BLOCK_SIZE_ENV_VAR in os.environ
        or any(os.environ.get(k) != v for k, v in PINNED_ENV.items())):
    # Restart under the pinned environment, so that numpy's thread pools
    # and hash seeds match the children's in the in-process passes.
    env = {k: v for k, v in os.environ.items() if k != BLOCK_SIZE_ENV_VAR}
    env.update(PINNED_ENV)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = 2  # every timed call; equals the core count of the reference machine
REF_S = 1.6  # about the mean wall and cpu seconds of reference.py on the baseline machine
SETUP_ARGV = [sys.executable, "-c", "import summatoria.cli"]
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
RUN_BUDGET_S = 170  # a run must end within 180 s
OUT_DIR = os.path.join("perfbench", "_out")
SETUP = "set-up"  # the label of the set-up samples

PROBE = (
    "import json, sys, numpy, scipy, summatoria.cli; "
    "print(json.dumps({'module': summatoria.cli.__file__, 'python': sys.version.split()[0], "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)


class CallFailed(Exception):
    pass


class Runner:
    """Spawns processes one at a time through ``launcher.py`` and measures
    each.  Use as a context manager: leaving it stops the launcher."""

    def __init__(self, src: str, deadline: float, work: str):
        self.deadline = deadline
        self.work = work
        env = {k: v for k, v in os.environ.items() if k != BLOCK_SIZE_ENV_VAR}
        env.update(PINNED_ENV, PYTHONPATH=src)
        self.attempted = 0
        self.failed = 0
        self.launcher = subprocess.Popen([sys.executable, LAUNCHER], env=env, text=True,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str]):
        """Run argv to completion; (wall s, cpu s, max rss MB, exit code,
        stderr text, stdout bytes)."""
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        request = {"argv": argv, "stdout": out_path, "stderr": err_path,
                   "timeout": self.deadline - time.monotonic()}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise CallFailed(f"the launcher exited with {self.launcher.wait()}")
        reply = json.loads(reply)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            stdout, stderr = out.read(), err.read().decode(errors="replace")
        return reply["wall"], reply["cpu"], reply["rss_mb"], reply["code"], stderr, stdout

    def cli(self, call, threads: int):
        """One counted CLI call; returns (wall, cpu, rss, output bytes or None)."""
        self.attempted += 1
        _remove(call.output)
        wall, cpu, rss, code, stderr, _ = self.spawn(
            [sys.executable, "-m", "summatoria.cli", *call.argv(threads)])
        if code != 0:
            self.fail(f"{call.label}: exit {code}: {stderr.strip()[-300:]}")
            return wall, cpu, rss, None
        with open(call.output, "rb") as fh:
            return wall, cpu, rss, fh.read()

    def reference(self) -> tuple[float, float]:
        """One run of the reference process; (wall s, cpu s)."""
        wall, cpu, _, code, stderr, _ = self.spawn([sys.executable, REFERENCE])
        if code != 0:
            raise CallFailed(f"reference process: exit {code}: {stderr.strip()[-300:]}")
        return wall, cpu

    def helper(self, call) -> bytes:
        """An untimed call whose output an oracle needs."""
        *_, data = self.cli(call, THREADS)
        if data is None:
            raise CallFailed(f"oracle call {call.label} failed")
        return data

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def machine_record(probe: dict) -> dict:
    def getconf(name):
        try:
            return int(subprocess.run(["getconf", name], capture_output=True,
                                      text=True, check=True).stdout.strip() or 0)
        except (OSError, ValueError, subprocess.CalledProcessError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
    }


def measure(runner, workload, seconds: float, reserve_cycles: float):
    """Closed loop of cycles (see the module docstring) for ``seconds``.

    The first cycle always runs whole.  After it, a step starts only if
    its median time and a reference run fit in ``seconds`` and leave
    ``reserve_cycles`` cycles of time before the run's deadline.  Returns
    the samples {label: [(wall, cpu, rss)]} with the set-up samples under
    SETUP, the reference runs' [(wall, cpu)], and the last output of each
    call.
    """
    steps = [(SETUP, None)] + [(call.label, call) for call in workload.calls]
    raw = {label: [] for label, _ in steps}
    outputs = {}
    start = time.monotonic()
    refs = [runner.reference()]

    def fits(label) -> bool:
        ref = statistics.median(r[0] for r in refs)
        cycle = ref + sum(statistics.median(s[0] for s in v) for v in raw.values())
        expected = statistics.median(s[0] for s in raw[label])
        now = time.monotonic()
        return (now - start + expected + ref <= seconds
                and now + expected + reserve_cycles * cycle <= runner.deadline)

    done = False
    while not done:
        started = False
        for label, call in steps:
            if raw[label] and not fits(label):
                done = True
                break
            if call is None:
                wall, cpu, rss, code, stderr, _ = runner.spawn(SETUP_ARGV)
                if code != 0:
                    raise CallFailed(f"set-up sample: exit {code}: {stderr.strip()[-300:]}")
            else:
                wall, cpu, rss, data = runner.cli(call, THREADS)
                if data is not None:
                    outputs[label] = data
                    problems = workload.check(call, data)
                    if problems:
                        runner.fail("; ".join(problems))
            raw[label].append((wall, cpu, rss))
            started = True
        if not started:
            break
        refs.append(runner.reference())
    return raw, refs, outputs


def in_process_pass(runner, workload, expected: dict, tracer=None) -> float:
    """The workload's calls in this process with --threads 1; wall seconds.
    Outputs must equal the timed outputs byte for byte."""
    from summatoria import cli

    total = 0.0
    for run_id, call in enumerate(workload.calls):
        runner.attempted += 1
        if tracer is not None:
            tracer.run = run_id
        _remove(call.output)
        start = time.perf_counter()
        try:
            code = cli.main(call.argv(1))
        except Exception as exc:  # a crash is one failed call, not a lost run
            code = repr(exc)
        total += time.perf_counter() - start
        if code != 0:
            runner.fail(f"{call.label}: in-process exit {code}")
            continue
        with open(call.output, "rb") as fh:
            if fh.read() != expected.get(call.label):
                runner.fail(f"{call.label}: --threads 1 output differs from --threads {THREADS}")
    return total


def traced_metrics(runner, workload, outputs, src, spans_path, machine) -> dict:
    sys.path.insert(0, src)
    import summatoria

    # The first pass only warms the allocator and caches, so that the
    # traced pass and the untraced pass after it start from the same state.
    in_process_pass(runner, workload, outputs)
    tracer = Tracer()
    tracer.install(summatoria)
    try:
        traced = in_process_pass(runner, workload, outputs, tracer)
    finally:
        tracer.uninstall()
    untraced = in_process_pass(runner, workload, outputs)
    tracer.dump(spans_path, workload=workload.name, seed=workload.seed, machine=machine)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["traces.float_ulp_max"] = workload.ulp_max
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "summatoria", "cli.py")):
        print(f"error: {src}/summatoria not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        with Runner(src, start + RUN_BUDGET_S, work) as runner:
            *_, code, stderr, out = runner.spawn([sys.executable, "-c", PROBE])
            if code != 0:
                print(f"error: cannot import summatoria.cli: {stderr}", file=sys.stderr)
                return 2
            probe = json.loads(out)
            if not os.path.realpath(probe["module"]).startswith(os.path.realpath(src) + os.sep):
                print(f"error: summatoria.cli loaded from {probe['module']}, not {src}",
                      file=sys.stderr)
                return 2
            machine = machine_record(probe)
            print("machine: " + json.dumps(machine), flush=True)

            workload = WORKLOADS[args.workload](args.seed, work)
            workload.prepare(runner)

            # Tracing adds three passes at one thread, each up to twice a cycle.
            samples, refs, outputs = measure(runner, workload, args.seconds, 1 + 6 * args.trace)
            print("samples: " + json.dumps({k: [[round(x, 3) for x in s] for s in v]
                                             for k, v in samples.items()}), flush=True)
            print("reference: " + json.dumps([[round(x, 3) for x in r] for r in refs]),
                  flush=True)

            if args.trace:
                spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.json")
                metrics = traced_metrics(runner, workload, outputs, src, spans_path, machine)
            else:
                calls = [v for k, v in samples.items() if k != SETUP]
                raw = {
                    "wall_s": sum(statistics.fmean(s[0] for s in v) for v in calls),
                    "cpu_s": sum(statistics.fmean(s[1] for s in v) for v in calls),
                    "peak_rss_mb": max(statistics.median(s[2] for s in v) for v in calls),
                    "setup_s": statistics.median(s[0] for s in samples[SETUP]),
                }
                print("raw: " + json.dumps(raw), flush=True)
                wall_scale = REF_S / statistics.fmean(r[0] for r in refs)
                cpu_scale = REF_S / statistics.fmean(r[1] for r in refs)
                metrics = {
                    "wall_s": raw["wall_s"] * wall_scale,
                    "cpu_s": raw["cpu_s"] * cpu_scale,
                    "peak_rss_mb": raw["peak_rss_mb"],
                    "setup_s": raw["setup_s"] * wall_scale,
                }
    except CallFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


def declared_units(kind: str) -> dict[str, str]:
    """{metric name: unit} of one metric list in BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
