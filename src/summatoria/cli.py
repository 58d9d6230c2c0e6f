"""Command-line front end.

Five subcommands: ``compute`` (summatory trace CSV), ``analyze``
(value-distribution summary plus lagged-correlation table), ``synth``
(greedy schedule realization as CSV, or the schedule itself as JSON),
``verdict`` (full limit-law evidence report as JSON), and ``selftest``
(oracle-vs-sieve, identity, deviation and KS-calibration suites).

Exit status: 0 on success, 1 on validation errors, 2 on numeric or
capacity errors (and on selftest failures).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import contextmanager

import numpy as np

from . import schedules, sequences, sieve, traces
from .empirical import (
    KS_CRITICAL_1PCT,
    LagCorrelations,
    Moments,
    empirical_cdf,
    ks_distance,
)
from .errors import BoundError, CapacityError, DegenerateSampleError, NumericError
from .limits import KS_SAMPLE_CAP, full_verdict, verdict_to_json_dict
from .sequences import ArithmeticSequence
from .traces import geometric_checkpoints, validate_checkpoints

FUNCTION_IDS = ("mu", "lambda", "mu-over-k", "harmonic", "synth:log", "synth:log2")
DEFAULT_LAGS = (1, 2, 5, 10)

_GEOMETRIC_RE = re.compile(r"^geometric\(\s*(\d+)\s*,\s*([0-9.]+)\s*\)$")


class _CliError(ValueError):
    """Validation failure that should exit with status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the convention here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(message)


def parse_checkpoints(spec: str, N: int) -> np.ndarray:
    """Parse 'geometric(start,ratio)' or a comma list like '10,100,1000'."""
    spec = spec.strip()
    m = _GEOMETRIC_RE.match(spec)
    if m:
        start = int(m.group(1))
        ratio = float(m.group(2))
        if ratio <= 1.0:
            raise _CliError(f"geometric ratio must exceed 1, got {ratio}")
        return geometric_checkpoints(N, start=start, ratio=ratio)
    try:
        values = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise _CliError(f"malformed checkpoint list {spec!r}: {exc}") from None
    if not values:
        raise _CliError(f"empty checkpoint specification {spec!r}")
    try:
        return validate_checkpoints(values, N)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _load_file_sequence(path: str) -> ArithmeticSequence:
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if header.strip() != "k,f":
                raise _CliError(f"{path}: expected header 'k,f', got {header.strip()!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise _CliError(f"{path}:{lineno}: expected two fields")
                k, f = int(parts[0]), float(parts[1])
                if k != len(values) + 1:
                    raise _CliError(f"{path}:{lineno}: indices must run 1,2,... got {k}")
                values.append(f)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    if not values:
        raise _CliError(f"{path}: no data rows")
    return sequences.sequence_from_values(np.asarray(values), name=f"file:{path}")


def resolve_function(function_id: str, N: int) -> ArithmeticSequence:
    """Map a function id to a sequence bounded by N."""
    if function_id == "mu":
        return sequences.mobius_sequence(N)
    if function_id == "lambda":
        return sequences.liouville_sequence(N)
    if function_id == "mu-over-k":
        return sequences.weighted_mobius_sequence(N)
    if function_id == "harmonic":
        return sequences.sequence_from_function(
            lambda k: 1.0 / k, N, name="harmonic", magnitude_bound=1.0
        )
    if function_id.startswith("synth:"):
        return schedules.realize_greedy(_resolve_schedule(function_id), N)
    if function_id.startswith("file:"):
        seq = _load_file_sequence(function_id[len("file:"):])
        if seq.bound < N:
            raise _CliError(f"{function_id} holds {seq.bound} values, fewer than N={N}")
        return seq
    raise _CliError(
        f"unknown function id {function_id!r}; expected one of "
        f"{', '.join(FUNCTION_IDS)} or file:PATH"
    )


def _resolve_schedule(function_id: str) -> schedules.TwoPointSchedule:
    if function_id == "synth:log":
        return schedules.log_coin_schedule()
    if function_id == "synth:log2":
        return schedules.log2_indicator_schedule()
    raise _CliError(f"unknown synthetic schedule {function_id!r}; use synth:log or synth:log2")


@contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from None
    with fh:
        yield fh


def _write_json(doc: dict, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def cmd_compute(args) -> int:
    seq = resolve_function(args.function, args.N)
    cps = parse_checkpoints(args.checkpoints, args.N)
    trace = traces.summatory_trace(seq, args.N, cps, threads=args.threads)
    with _open_output(args.output) as out:
        if args.format == "csv":
            traces.write_trace_csv(trace, out)
        else:
            _write_json(
                {
                    "function": seq.name,
                    "N": args.N,
                    "accumulation_kind": trace.accumulation_kind,
                    "trace": [
                        {"n": int(n), "S": int(v) if trace.accumulation_kind == traces.EXACT_INTEGER else float(v)}
                        for n, v in zip(trace.checkpoints, trace.values)
                    ],
                },
                out,
            )
    return 0


def cmd_analyze(args) -> int:
    N, lags = args.N, args.lag
    seq = resolve_function(args.function, N + max(lags))
    moments = Moments(N, seq.integer_valued)
    values = traces.Strided(N, KS_SAMPLE_CAP, sums=False)
    correlations = LagCorrelations(N, lags, seq.integer_valued)
    traces.stream(seq, N + max(lags), [moments, values, correlations],
                  threads=args.threads)
    mean, variance = moments.result()
    dist = empirical_cdf(values.sample)
    try:
        ks_normal = ks_distance(dist)
    except DegenerateSampleError:
        ks_normal = float("nan")
    rho = list(zip(lags, correlations.result()))

    with _open_output(args.output) as out:
        if args.format == "json":
            _write_json(
                {
                    "function": seq.name,
                    "N": args.N,
                    "mean": mean,
                    "variance": variance,
                    "min": float(dist.sample[0]),
                    "max": float(dist.sample[-1]),
                    "ks_normal_D": None if math.isnan(ks_normal) else ks_normal,
                    "independence": [{"h": h, "rho": r} for h, r in rho],
                },
                out,
            )
        else:
            out.write("n,mean,variance,ks_normal_D,h,rho\n")
            for h, r in rho:
                out.write(
                    f"{args.N},{format(mean, '.17g')},{format(variance, '.17g')},"
                    f"{format(ks_normal, '.17g')},{h},{format(r, '.17g')}\n"
                )
    return 0


def cmd_synth(args) -> int:
    schedule = _resolve_schedule(args.function)
    with _open_output(args.output) as out:
        if args.format == "json":
            _write_json(schedules.schedule_to_json_dict(schedule), out)
            return 0
        seq = schedules.realize_greedy(schedule, args.N)
        vals = seq.values(1, args.N)
        out.write("k,f\n")
        for k, f in enumerate(vals, start=1):
            out.write(f"{k},{format(float(f), '.17g')}\n")
    return 0


def cmd_verdict(args) -> int:
    if args.format == "csv":
        raise _CliError("verdict reports are JSON only; drop --format csv")
    seq = resolve_function(args.function, args.N)
    cps = parse_checkpoints(args.checkpoints, args.N)
    verdict = full_verdict(seq, args.N, cps, threads=args.threads)
    with _open_output(args.output) as out:
        _write_json(verdict_to_json_dict(verdict), out)
    return 0


def _selftest_suites(seed: int):
    """Yield (suite name, callable returning True on pass)."""

    def oracle_vs_sieve():
        bound = 20000
        blk = sieve.sieve_block(1, bound)
        mu_ok = all(sieve.mobius_oracle(n) == int(blk.mu[n - 1]) for n in range(1, bound + 1))
        lam_ok = all(sieve.liouville_oracle(n) == int(blk.lam[n - 1]) for n in range(1, bound + 1))
        return mu_ok and lam_ok

    def divisor_identity():
        bound = 2000
        mu = sieve.sieve_block(1, bound).mu.astype(np.int64)
        sums = np.zeros(bound + 1, dtype=np.int64)
        for d in range(1, bound + 1):
            sums[d::d] += mu[d - 1]
        return sums[1] == 1 and bool(np.all(sums[2:] == 0))

    def trace_additivity():
        one = traces.mertens_trace(5000, [10, 100, 1000, 5000])
        split = traces.mertens_trace(5000, [10, 100, 1000, 5000], block_size=97)
        return bool(np.array_equal(one.values, split.values))

    def greedy_deviation():
        for s in (schedules.log_coin_schedule(), schedules.log2_indicator_schedule(),
                  schedules.fair_coin_schedule()):
            N = 10**4
            seq = schedules.realize_greedy(s, N)
            counts = np.cumsum(seq.values(1, N) == s.values[0])
            n = np.arange(1, N + 1, dtype=np.float64)
            if np.max(np.abs(counts - n * s.probabilities(n)[0])) > 1.0:
                return False
        return True

    def ks_calibration():
        rng = np.random.default_rng(seed)
        critical = KS_CRITICAL_1PCT / math.sqrt(10**4)
        d_normal = ks_distance(empirical_cdf(rng.standard_normal(10**4)))
        d_uniform = ks_distance(empirical_cdf(rng.random(10**4)))
        return d_normal <= critical < d_uniform

    yield "oracle-vs-sieve", oracle_vs_sieve
    yield "mobius-divisor-identity", divisor_identity
    yield "trace-additivity", trace_additivity
    yield "greedy-deviation-bound", greedy_deviation
    yield "ks-calibration", ks_calibration


def cmd_selftest(args) -> int:
    passed = 0
    failed = 0
    for name, suite in _selftest_suites(args.seed):
        ok = suite()
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if ok:
            passed += 1
        else:
            failed += 1
    print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 2


def _add_common(parser, *, needs_n=True):
    parser.add_argument("--function", help=f"one of {', '.join(FUNCTION_IDS)} or file:PATH")
    if needs_n:
        parser.add_argument("--N", type=int, help="stream bound (largest index)")
    parser.add_argument("--checkpoints", default="geometric(10,2)",
                        help="'geometric(start,ratio)' or comma list; default geometric(10,2)")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for KS calibration draws only; never affects "
                             "number-theoretic output")
    parser.add_argument("--threads", type=int, default=1, help="sieve worker threads")
    parser.add_argument("--config", help="JSON config file; explicit flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="summatoria",
                     description="Summatory arithmetic functions and limit-law diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="write a summatory trace")
    _add_common(p)

    p = sub.add_parser("analyze", help="value-distribution summary and lag correlations")
    _add_common(p)
    p.add_argument("--lag", default="1,2,5,10",
                   help="comma list of lags for the independence table")

    p = sub.add_parser("synth", help="realize a schedule as CSV, or emit the schedule JSON")
    _add_common(p)

    p = sub.add_parser("verdict", help="full limit-law evidence report (JSON)")
    _add_common(p)

    p = sub.add_parser("selftest", help="run the built-in consistency suites")
    _add_common(p, needs_n=False)

    return parser


_DEFAULT_FORMATS = {"compute": "csv", "analyze": "json", "synth": "csv",
                    "verdict": "json", "selftest": "json"}


def _apply_config(args) -> None:
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot load config {args.config}: {exc}") from None
    if not isinstance(doc, dict):
        raise _CliError(f"config {args.config} must hold a JSON object")
    for key in ("function", "N", "checkpoints", "output", "format", "seed",
                "threads", "lag"):
        if key in doc and getattr(args, key, None) in (None, _ARG_DEFAULTS.get(key)):
            setattr(args, key, doc[key])


_ARG_DEFAULTS = {"checkpoints": "geometric(10,2)", "seed": 0, "threads": 1,
                 "lag": "1,2,5,10"}


def _validate(args) -> None:
    if args.format is None:
        args.format = _DEFAULT_FORMATS[args.command]
    if args.command == "selftest":
        return
    if not args.function:
        raise _CliError(f"{args.command} requires --function")
    if args.N is None:
        raise _CliError(f"{args.command} requires --N")
    if args.N < 1:
        raise _CliError(f"--N must be positive, got {args.N}")
    if args.threads < 1:
        raise _CliError(f"--threads must be positive, got {args.threads}")
    if isinstance(args.checkpoints, list):
        args.checkpoints = ",".join(str(c) for c in args.checkpoints)
    if args.command == "analyze":
        try:
            args.lag = tuple(int(p) for p in str(args.lag).split(",") if p.strip())
        except ValueError:
            raise _CliError(f"malformed --lag {args.lag!r}") from None
        if not args.lag or min(args.lag) < 1:
            raise _CliError("--lag needs positive integers")


_COMMANDS = {"compute": cmd_compute, "analyze": cmd_analyze, "synth": cmd_synth,
             "verdict": cmd_verdict, "selftest": cmd_selftest}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        _validate(args)
        return _COMMANDS[args.command](args)
    except (BoundError, DegenerateSampleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, NumericError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
