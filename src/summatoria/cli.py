"""Command-line front end.

Five subcommands: ``compute`` (summatory trace CSV), ``analyze``
(value-distribution summary plus lagged-correlation table), ``synth``
(greedy schedule realization as CSV, or the schedule itself as JSON),
``verdict`` (full limit-law evidence report as JSON), and ``selftest``
(oracle-vs-sieve, identity, deviation, sieve-vs-sublinear and KS-calibration
suites).

Each subcommand accepts only the options it reads (``_SUBCOMMANDS``), plus
``--config FILE``: a JSON object whose keys become flags placed before the
explicit ones, so both pass the same argparse checks and explicit flags win.

Exit status: 0 on success, 1 on validation errors, 2 on numeric or
capacity errors (and on selftest failures).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import stat
import sys
import warnings
from contextlib import contextmanager

import numpy as np

# What compute runs; the other commands import empirical, limits and
# schedules in their bodies, so a process loads only its command's modules.
from . import sequences, sieve, traces
from .errors import CapacityError, NumericError
from .sequences import ArithmeticSequence
from .traces import geometric_checkpoints, validate_checkpoints

DEFAULT_LAGS = (1, 2, 5, 10)

_GEOMETRIC_RE = re.compile(r"^geometric\(([^,()]*),([^,()]*)\)$")


def _schedules():
    from . import schedules  # only synth and the synth:* ids need it
    return schedules


_SCHEDULES = {"synth:log": lambda: _schedules().log_coin_schedule(),
              "synth:log2": lambda: _schedules().log2_indicator_schedule()}


# function id -> sequence bounded by N
_SEQUENCES = {
    "mu": sequences.mobius_sequence,
    "lambda": sequences.liouville_sequence,
    "mu-over-k": sequences.weighted_mobius_sequence,
    "harmonic": lambda N: sequences.sequence_from_function(lambda k: np.divide(1.0, k, out=k), N,
                                                           name="harmonic"),
    **{fid: lambda N, make=make: _schedules().realize_greedy(make(), N)
       for fid, make in _SCHEDULES.items()},
}
FUNCTION_IDS = tuple(_SEQUENCES)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the convention here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _number(kind, part: str):
    try:
        return kind(part)
    except ValueError:
        raise ValueError(f"--checkpoints: cannot read {part.strip()!r}; use geometric(start,ratio) "
                         "or a comma list of integers such as 10,100,1000") from None


def parse_checkpoints(spec: str, N: int) -> np.ndarray:
    """Parse 'geometric(start,ratio)' or a comma list like '10,100,1000'."""
    m = _GEOMETRIC_RE.match(spec.strip())
    if m:
        return geometric_checkpoints(N, _number(int, m[1]), _number(float, m[2]))
    return validate_checkpoints([_number(int, p) for p in spec.split(",") if p.strip()], N)


_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # suffixes np.loadtxt decompresses


def _load_file_sequence(path: str) -> ArithmeticSequence:
    """Read a ``k,f`` CSV whose indices run 1..n; every error names the file.

    numpy's reader takes a regular file by its absolute path and pulls it in
    large chunks, faster than a line at a time from a handle.  A pipe, which
    cannot be opened twice, and a name numpy would decompress keep the
    handle; an absolute path is never taken for a URL.  The peak is the
    parsed rows and one copy of the values, about 24 bytes a row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "k,f":
                raise ValueError(f"expected header 'k,f', got {header!r}")
            source, skip = fh, 0
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and not path.endswith(_COMPRESSED):
                source, skip = os.path.abspath(path), 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty: reported below
                rows = np.loadtxt(source, delimiter=",", ndmin=2, comments=None,
                                  skiprows=skip, encoding="utf-8")
        if rows.size == 0:
            raise ValueError("no data rows")
        if rows.shape[1] != 2:
            raise ValueError("expected two fields per row")
        for lo in range(0, len(rows), _CSV_ROWS):
            index = rows[lo : lo + _CSV_ROWS, 0]
            bad = np.flatnonzero(index != np.arange(lo + 1, lo + 1 + index.size)) + lo
            if bad.size:
                raise ValueError(f"indices must run 1,2,... got {rows[bad[0], 0]:g} "
                                 f"in data row {bad[0] + 1}")
        values = rows[:, 1].copy()
        del rows, index  # the sequence holds the values alone
        return sequences.sequence_from_values(values, name=f"file:{path}")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text; file: reads a plain-text k,f CSV") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def resolve_function(function_id: str, N: int, need: str | None = None) -> ArithmeticSequence:
    """Map a function id to a sequence bounded by N; ``need`` names that
    bound where it is not the N given on the command line."""
    if function_id.startswith("file:"):
        seq = _load_file_sequence(function_id[len("file:"):])
        if seq.bound < N:
            raise ValueError(f"{function_id} holds {seq.bound} values, "
                             f"fewer than {need or f'N={N}'}")
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
    trace = traces.summatory_trace(seq, args.N, cps)
    with _open_output(args.output) as out:
        if args.format == "csv":
            traces.write_trace_csv(trace, out)
        else:
            exact = trace.values.dtype != np.float64  # int64, or object past int64
            _write_json({"function": seq.name, "N": args.N,
                         "accumulation_kind": "exact-integer" if exact else "compensated-float",
                         "trace": [{"n": n, "S": v} for n, v in
                                   zip(trace.checkpoints.tolist(), trace.values.tolist())]}, out)
    return 0


def cmd_analyze(args) -> int:
    from .empirical import KSTrace, LagCorrelations

    N, lags = args.N, args.lag
    seq = resolve_function(args.function, N + max(lags), f"N + max lag = {N + max(lags)}")
    ks = KSTrace(N, sums=False)
    correlations = LagCorrelations(N, (0, *lags))  # lag 0 is the variance
    traces.stream(seq, N + max(lags), [ks, correlations])
    mean, (variance, *rhos), ks_normal = correlations.mean(), correlations.result(), ks.distances[N]
    rho = list(zip(lags, rhos))

    with _open_output(args.output) as out:
        if args.format == "json":
            _write_json({"function": seq.name, "N": N, "mean": mean, "variance": variance,
                         "min": float(correlations.low), "max": float(correlations.high),
                         "ks_normal_D": None if math.isnan(ks_normal) else ks_normal,
                         "independence": [{"h": h, "rho": r} for h, r in rho]}, out)
        else:
            out.write("n,mean,variance,ks_normal_D,h,rho\n")
            for h, r in rho:
                out.write(f"{N},{mean:.17g},{variance:.17g},{ks_normal:.17g},{h},{r:.17g}\n")
    return 0


_CSV_ROWS = 1 << 16  # rows of one write of synth's CSV, and of one index check of file:
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)  # ASCII, as index digits


def csv_rows(lo: int, values: np.ndarray) -> str:
    """The CSV rows ``k,f`` for k = lo, lo + 1, ... and f in ``values``, with
    f written as ``format(f, '.17g')``.  Each distinct value is formatted
    once; the rows are built as a byte matrix, padded with NUL bytes, which
    ASCII text never holds, so dropping them leaves the text."""
    keys, which = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.uint64),
                            return_inverse=True)  # bit patterns: -0.0 keeps its "-0"
    labels = [f",{format(float(v), '.17g')}\n".encode("ascii") for v in keys.view(np.float64)]
    table = np.zeros((len(labels), max(map(len, labels))), dtype=np.uint8)
    for row, label in zip(table, labels):
        row[: len(label)] = np.frombuffer(label, dtype=np.uint8)
    hi = lo + len(values) - 1
    width = len(str(hi))
    mat = np.empty((len(values), width + table.shape[1]), dtype=np.uint8)
    for col in range(width):
        # k // power runs through q0..q1, each q on `power` consecutive k
        # (fewer on the first and last run); its digit cycles through 0-9.
        power = 10 ** (width - 1 - col)
        q0, q1 = lo // power, hi // power
        digits = np.tile(_DIGITS, (q1 - q0) // 10 + 2)[q0 % 10 : q0 % 10 + q1 - q0 + 1]
        if q0 == 0:
            digits[0] = 0  # k < power: no digit here
        runs = np.full(q1 - q0 + 1, power, dtype=np.intp)
        runs[0] -= lo - q0 * power
        runs[-1] -= (q1 + 1) * power - 1 - hi
        mat[:, col] = np.repeat(digits, runs)
    mat[:, width:] = table[which]
    return mat.tobytes().replace(b"\0", b"").decode("ascii")


def cmd_synth(args) -> int:
    from . import schedules

    if args.function not in _SCHEDULES:
        raise ValueError(f"unknown synthetic schedule {args.function!r}; "
                         f"use {' or '.join(_SCHEDULES)}")
    schedule = _SCHEDULES[args.function]()
    if args.format == "json":
        with _open_output(args.output) as out:
            _write_json(schedules.schedule_to_json_dict(schedule), out)
        return 0
    if args.N is None:
        raise ValueError("synth needs --N for its CSV realization (the schedule JSON "
                         "of --format json does not)")
    values = schedules.realize_greedy(schedule, args.N).values(1, args.N)  # before the file opens
    with _open_output(args.output) as out:
        out.write("k,f\n")
        for lo in range(1, args.N + 1, _CSV_ROWS):
            out.write(csv_rows(lo, values[lo - 1 : lo - 1 + _CSV_ROWS]))
    return 0


def cmd_verdict(args) -> int:
    from .limits import full_verdict, verdict_to_json_dict

    seq = resolve_function(args.function, args.N)
    cps = parse_checkpoints(args.checkpoints, args.N)
    verdict = full_verdict(seq, args.N, cps)
    with _open_output(args.output) as out:
        _write_json(verdict_to_json_dict(verdict), out)
    return 0


def _selftest_suites(seed: int):
    """Yield (suite name, callable returning True on pass)."""
    from . import schedules
    from .empirical import KS_CRITICAL_1PCT, empirical_cdf, ks_distance

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
        cps = [10, 100, 1000, 5000]
        blocks = [sieve.sieve_block(lo, min(lo + 96, 5000)).mu for lo in range(1, 5001, 97)]
        split = np.cumsum(np.concatenate(blocks), dtype=np.int64)[np.subtract(cps, 1)]
        return bool(np.array_equal(traces.mertens_trace(5000, cps).values, split))

    def greedy_deviation():
        for s in (schedules.log_coin_schedule(), schedules.log2_indicator_schedule(),
                  schedules.fair_coin_schedule()):
            N = 10**4
            seq = schedules.realize_greedy(s, N)
            counts = np.cumsum(seq.values(1, N) == s.a1)
            n = np.arange(1, N + 1, dtype=np.float64)
            if np.max(np.abs(counts - n * s.probabilities(n)[0])) > 1.0:
                return False
        return True

    def sieve_vs_sublinear():
        from . import sublinear  # only this suite and sums of mu and lambda need it

        xs = [999, 65537, 2**20 - 1, 2**20 + 1, 1234567, 2 * 10**6]
        blk = sieve.sieve_block(1, xs[-1])
        at = np.subtract(xs, 1)
        return all(sublinear.sums(make(xs[-1]), xs, 2048) == np.cumsum(f)[at].tolist()
                   for make, f in ((sequences.mobius_sequence, blk.mu),
                                   (sequences.liouville_sequence, blk.lam)))

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
    yield "sieve-vs-sublinear", sieve_vs_sublinear
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
    "threads": dict(type=_positive_int, default=1,
                    help="accepted for compatibility and ignored: every stream runs "
                         "on one thread"),
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
            if (command, option) == ("synth", "N"):  # the schedule JSON reads no N
                kwargs = {**kwargs, "required": False}
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
    with warnings.catch_warnings():  # restores the caller's showwarning on return
        # one line, with no source path, so stderr is the same in every checkout
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(_expand_config(argv))
            return _COMMANDS[args.command](args)
        except (ValueError, CapacityError, NumericError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, ValueError) else 2  # BoundError is a ValueError


def run() -> None:
    """The process entry (``python -m summatoria.cli``, the ``summatoria``
    script).  After ``gc.freeze()`` no collection, the one at exit included,
    walks the objects the imports left; ``main`` freezes nothing, as tests
    call it in-process.  ``sys.exit``, not ``os._exit``, so atexit runs."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
