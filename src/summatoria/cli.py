"""Command-line front end.

Five subcommands: ``compute`` (summatory trace CSV), ``analyze``
(value-distribution summary plus lagged-correlation table), ``synth``
(greedy schedule realization as CSV, or the schedule itself as JSON),
``verdict`` (full limit-law evidence report as JSON), and ``selftest``
(oracle-vs-sieve, identity, deviation and KS-calibration suites).

Each subcommand accepts only the options it reads (``_SUBCOMMANDS``), plus
``--config FILE``: a JSON object whose keys become flags placed before the
explicit ones, so both pass the same argparse checks and explicit flags win.

Exit status: 0 on success, 1 on validation errors, 2 on numeric or
capacity errors (and on selftest failures).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from . import schedules, sequences, sieve, traces
from .empirical import KS_CRITICAL_1PCT, LagCorrelations, Moments, empirical_cdf, ks_distance
from .errors import BoundError, CapacityError, DegenerateSampleError, NumericError
from .limits import KS_SAMPLE_CAP, full_verdict, verdict_to_json_dict
from .sequences import ArithmeticSequence
from .traces import geometric_checkpoints, validate_checkpoints

DEFAULT_LAGS = (1, 2, 5, 10)

_GEOMETRIC_RE = re.compile(r"^geometric\(\s*(\d+)\s*,\s*([0-9.]+)\s*\)$")

_SCHEDULES = {"synth:log": schedules.log_coin_schedule,
              "synth:log2": schedules.log2_indicator_schedule}


# function id -> sequence bounded by N
_SEQUENCES = {
    "mu": sequences.mobius_sequence,
    "lambda": sequences.liouville_sequence,
    "mu-over-k": sequences.weighted_mobius_sequence,
    "harmonic": lambda N: sequences.sequence_from_function(
        lambda k: 1.0 / k, N, name="harmonic", magnitude_bound=1.0),
    **{fid: lambda N, make=make: schedules.realize_greedy(make(), N)
       for fid, make in _SCHEDULES.items()},
}
FUNCTION_IDS = tuple(_SEQUENCES)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the convention here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def parse_checkpoints(spec: str, N: int) -> np.ndarray:
    """Parse 'geometric(start,ratio)' or a comma list like '10,100,1000'."""
    m = _GEOMETRIC_RE.match(spec.strip())
    if m:
        return geometric_checkpoints(N, start=int(m.group(1)), ratio=float(m.group(2)))
    return validate_checkpoints([int(part) for part in spec.split(",") if part.strip()], N)


def _load_file_sequence(path: str) -> ArithmeticSequence:
    """Read a ``k,f`` CSV whose indices run 1..n; every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "k,f":
                raise ValueError(f"expected header 'k,f', got {header!r}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty: reported below
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        if rows.size == 0:
            raise ValueError("no data rows")
        if rows.shape[1] != 2:
            raise ValueError("expected two fields per row")
        bad = np.flatnonzero(rows[:, 0] != np.arange(1, len(rows) + 1))
        if bad.size:
            raise ValueError(f"indices must run 1,2,... got {rows[bad[0], 0]:g} "
                             f"in data row {bad[0] + 1}")
        return sequences.sequence_from_values(rows[:, 1], name=f"file:{path}")
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def resolve_function(function_id: str, N: int) -> ArithmeticSequence:
    """Map a function id to a sequence bounded by N."""
    if function_id.startswith("file:"):
        seq = _load_file_sequence(function_id[len("file:"):])
        if seq.bound < N:
            raise ValueError(f"{function_id} holds {seq.bound} values, fewer than N={N}")
        return seq
    if function_id not in _SEQUENCES:
        raise ValueError(f"unknown function id {function_id!r}; expected one of "
                         f"{', '.join(FUNCTION_IDS)} or file:PATH")
    return _SEQUENCES[function_id](N)


@contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
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
            exact = trace.accumulation_kind == traces.EXACT_INTEGER
            _write_json({"function": seq.name, "N": args.N,
                         "accumulation_kind": trace.accumulation_kind,
                         "trace": [{"n": int(n), "S": int(v) if exact else float(v)}
                                   for n, v in zip(trace.checkpoints, trace.values)]}, out)
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
            _write_json({"function": seq.name, "N": N, "mean": mean, "variance": variance,
                         "min": float(dist.sample[0]), "max": float(dist.sample[-1]),
                         "ks_normal_D": None if math.isnan(ks_normal) else ks_normal,
                         "independence": [{"h": h, "rho": r} for h, r in rho]}, out)
        else:
            out.write("n,mean,variance,ks_normal_D,h,rho\n")
            for h, r in rho:
                out.write(f"{N},{mean:.17g},{variance:.17g},{ks_normal:.17g},{h},{r:.17g}\n")
    return 0


def cmd_synth(args) -> int:
    if args.function not in _SCHEDULES:
        raise ValueError(f"unknown synthetic schedule {args.function!r}; "
                         f"use {' or '.join(_SCHEDULES)}")
    schedule = _SCHEDULES[args.function]()
    with _open_output(args.output) as out:
        if args.format == "json":
            _write_json(schedules.schedule_to_json_dict(schedule), out)
            return 0
        seq = schedules.realize_greedy(schedule, args.N)
        out.write("k,f\n")
        for k, f in enumerate(seq.values(1, args.N), start=1):
            out.write(f"{k},{format(float(f), '.17g')}\n")
    return 0


def cmd_verdict(args) -> int:
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
    passed = failed = 0
    for name, suite in _selftest_suites(args.seed):
        ok = suite()
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        passed, failed = passed + ok, failed + (not ok)
    print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 2


_COMMANDS = {"compute": cmd_compute, "analyze": cmd_analyze, "synth": cmd_synth,
             "verdict": cmd_verdict, "selftest": cmd_selftest}


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _lags(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(part) for part in text.split(","))


def _report_format(command: str, formats: tuple[str, ...]) -> dict:
    """argparse keywords of ``--format``; the first format is the default."""
    def report_format(text: str) -> str:
        if text not in formats:
            raise argparse.ArgumentTypeError(
                f"{command} reports are {'/'.join(formats).upper()}, not {text!r}")
        return text

    return dict(type=report_format, default=formats[0], metavar="{" + ",".join(formats) + "}",
                help=f"report format; default {formats[0]}")


# option -> argparse keywords; --format comes from _report_format
_OPTIONS = {
    "config": dict(help="JSON file of option values; explicit flags override it"),
    "function": dict(required=True,
                     help=f"one of {', '.join(FUNCTION_IDS)} or file:PATH "
                          f"(synth takes {' or '.join(_SCHEDULES)} only)"),
    "N": dict(type=_positive_int, required=True, help="stream bound (largest index)"),
    "checkpoints": dict(default="geometric(10,2)",
                        help="'geometric(start,ratio)' or comma list; default geometric(10,2)"),
    "lag": dict(type=_lags, default=DEFAULT_LAGS,
                help="comma list of lags for the independence table; default 1,2,5,10"),
    "threads": dict(type=_positive_int, default=1, help="sieve worker threads"),
    "output": dict(help="output path (default: stdout)"),
    "seed": dict(type=int, default=0, help="seed for KS calibration draws only; never "
                                           "affects number-theoretic output"),
}

# subcommand -> (help, options it reads, report formats with the default first).
# Handlers are looked up in _COMMANDS at call time, so wrappers put there see them.
_SUBCOMMANDS = {
    "compute": ("write a summatory trace",
                ("function", "N", "checkpoints", "threads", "output", "format"), ("csv", "json")),
    "analyze": ("value-distribution summary and lag correlations",
                ("function", "N", "lag", "threads", "output", "format"), ("json", "csv")),
    "synth": ("realize a schedule as CSV, or emit the schedule JSON",
              ("function", "N", "output", "format"), ("csv", "json")),
    "verdict": ("full limit-law evidence report (JSON)",
                ("function", "N", "checkpoints", "threads", "output", "format"), ("json",)),
    "selftest": ("run the built-in consistency suites", ("seed",), ()),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="summatoria",
                     description="Summatory arithmetic functions and limit-law diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, formats) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for option in ("config", *options):
            kwargs = _report_format(command, formats) if option == "format" else _OPTIONS[option]
            p.add_argument(f"--{option}", **kwargs)
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Insert the options a ``--config`` file sets, as flags, right after the
    subcommand: argparse then checks them like any flag, and explicit flags,
    coming later, win.  Keys the subcommand does not read are skipped."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return argv
    pre = _Parser(prog=f"summatoria {argv[0]}", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    flags = []
    for key in _SUBCOMMANDS[argv[0]][1]:
        if key in doc:
            items = doc[key] if isinstance(doc[key], list) else [doc[key]]
            if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
                       for v in items):
                raise ValueError(f"config {path}: {key!r} must be a string, "
                                 "a number or a list of them")
            flags.append(f"--{key}=" + ",".join(map(str, items)))
    return [argv[0], *flags, *argv[1:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_expand_config(argv))
        return _COMMANDS[args.command](args)
    except (BoundError, DegenerateSampleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, NumericError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
