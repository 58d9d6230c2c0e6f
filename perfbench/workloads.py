"""The benchmark's workloads: the CLI calls of one cycle, their oracles and
the checks of each call's output.

Every workload is a fixed list of ``python -m summatoria.cli`` calls.  The
seed only adds ``EXTRA_CHECKPOINTS`` checkpoints to each ``compute`` call,
at positions that fall inside a sieve block (never on a block's last
entry), so the run length does not depend on the seed.  ``analyze`` and
``verdict`` calls take the same arguments for every seed: each extra
verdict checkpoint adds a KS sample whose size depends on where it falls.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

import oracles

BLOCK = 1 << 20  # the package's default sieve block size
EXTRA_CHECKPOINTS = 4
FLOAT_TOLERANCE = 1e-9  # of sum |f(k)|: far above any rounding, far below a wrong sum
VERDICT_KEYS = ["function", "N", "checkpoints", "mu0_hat", "mean_rate",
                "asymptotic_form", "ks_trace", "conditions_met", "notes"]
ANALYZE_KEYS = ["function", "N", "mean", "variance", "min", "max", "ks_normal_D",
                "independence"]


@dataclass
class Call:
    """One CLI call; ``args`` omit ``--threads`` and ``--output``."""

    label: str
    args: list[str]
    output: str
    threaded: bool = True

    def argv(self, threads: int) -> list[str]:
        extra = ["--threads", str(threads)] if self.threaded else []
        return self.args + extra + ["--output", self.output]


def inside_block_checkpoints(rng: random.Random, N: int, taken) -> list[int]:
    out = set()
    while len(out) < EXTRA_CHECKPOINTS:
        x = rng.randrange(1, N)
        if x % BLOCK and x not in taken:
            out.add(x)
    return sorted(out)


def with_extras(rng, N: int, base: list[int]) -> list[int]:
    return sorted(set(base) | set(inside_block_checkpoints(rng, N, set(base))))


def _comma(values) -> str:
    return ",".join(str(v) for v in values)


def _trace_rows(data: bytes, checkpoints, problems) -> list[str]:
    """The S column of a ``compute`` CSV, after checking its n column."""
    lines = data.decode("ascii").split("\n")
    if lines[0] != "n,S" or lines[-1] != "":
        problems.append("trace CSV lacks the n,S header or the final newline")
        return []
    rows = [line.split(",") for line in lines[1:-1]]
    if [int(r[0]) for r in rows] != list(checkpoints):
        problems.append("trace CSV checkpoints differ from the requested ones")
        return []
    return [r[1] for r in rows]


class Workload:
    name = ""
    calls: list[Call]

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.ulp_max = 0
        self._checked: dict = {}

    def path(self, name: str) -> str:
        return f"{self.work}/{name}"

    def prepare(self, runner) -> None:
        """Compute the oracles; may run untimed helper calls through runner."""

    def check(self, call: Call, data: bytes) -> list[str]:
        """Problems with one call's output; repeated outputs are checked once.
        Float checkpoints also raise ``ulp_max``."""
        key = (call.label, hashlib.sha256(data).digest())
        if key not in self._checked:
            try:
                problems, ulps = self._check(call, data)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems, ulps = [f"{call.label}: malformed output: {exc!r}"], []
            self._checked[key] = problems
            self.ulp_max = max([self.ulp_max, *ulps])
        return self._checked[key]

    def _check(self, call: Call, data: bytes) -> tuple[list[str], list[int]]:
        raise NotImplementedError


class SieveStream(Workload):
    """M(x) and L(x) to 3*10**7: exact int64 accumulation, mostly sieve time."""

    name = "sieve-stream"
    N = 3 * 10**7

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = random.Random(seed)
        base = [10**k for k in range(1, 8)] + [self.N]  # ends at N for every seed
        self.cps = {"mu": with_extras(rng, self.N, base),
                    "lambda": with_extras(rng, self.N, base)}
        self.calls = [
            Call(fn, ["compute", "--function", fn, "--N", str(self.N),
                      "--checkpoints", _comma(self.cps[fn])], self.path(f"{fn}.csv"))
            for fn in ("mu", "lambda")
        ]

    def prepare(self, runner):
        oracle = oracles.MertensOracle(int(self.N ** (2 / 3)) + 1)
        published = {"mu": oracles.PUBLISHED_MERTENS, "lambda": oracles.PUBLISHED_LIOUVILLE}
        compute = {"mu": oracle.mertens, "lambda": oracle.liouville}
        self.expected = {
            fn: [published[fn][x] if x in published[fn] else compute[fn](x) for x in cps]
            for fn, cps in self.cps.items()
        }

    def _check(self, call, data):
        problems = []
        got = _trace_rows(data, self.cps[call.label], problems)
        if got and [int(v) for v in got] != self.expected[call.label]:
            problems.append(f"{call.label}: summatory values differ from the oracle")
        return problems, []


class FloatAccumulate(Workload):
    """sum mu(k)/k and sum 1/k to 10*2**20, checked against correctly rounded sums."""

    name = "float-accumulate"
    N = 10 * 2**20

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = random.Random(seed)
        base = [10 * 2**k for k in range(21)]
        self.cps = {"mu-over-k": with_extras(rng, self.N, base),
                    "harmonic": with_extras(rng, self.N, base)}
        self.calls = [
            Call(fn, ["compute", "--function", fn, "--N", str(self.N),
                      "--checkpoints", _comma(self.cps[fn])], self.path(f"{fn}.csv"))
            for fn in ("mu-over-k", "harmonic")
        ]

    def prepare(self, runner):
        mu = oracles.mobius_table(self.N)
        terms = {
            "mu-over-k": lambda lo, hi: mu[lo : hi + 1] / np.arange(lo, hi + 1, dtype=np.float64),
            "harmonic": lambda lo, hi: 1.0 / np.arange(lo, hi + 1, dtype=np.float64),
        }
        self.expected = {fn: oracles.correctly_rounded_prefix_sums(terms[fn], cps)
                         for fn, cps in self.cps.items()}

    def _check(self, call, data):
        cps = self.cps[call.label]
        problems = []
        got = _trace_rows(data, cps, problems)
        ulps = []
        for n, text, exact, scale in zip(cps, got, *self.expected[call.label]):
            value = float(text)
            ulps.append(oracles.ulp_distance(value, exact))
            if abs(value - exact) > FLOAT_TOLERANCE * scale:
                problems.append(f"{call.label}: S({n}) = {text}, correctly rounded {exact!r}")
        return problems, ulps


class StatsAnalyze(Workload):
    """analyze mu (moments, KS, lag correlations) and a mu-over-k verdict."""

    name = "stats-analyze"
    N_ANALYZE = 1_000_000
    LAGS = (1, 2, 5, 10)
    N_VERDICT = 4_096_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.verdict_cps = [1000 * 2**k for k in range(13)]  # geometric(1000,2) to N_VERDICT
        self.calls = [
            Call("analyze", ["analyze", "--function", "mu", "--N", str(self.N_ANALYZE),
                             "--lag", _comma(self.LAGS)], self.path("analyze.json")),
            Call("verdict", ["verdict", "--function", "mu-over-k", "--N", str(self.N_VERDICT),
                             "--checkpoints", "geometric(1000,2)"], self.path("verdict.json")),
        ]

    def prepare(self, runner):
        last = self.verdict_cps[-1]
        mu = oracles.mobius_table(max(self.N_ANALYZE + max(self.LAGS), last))
        self.analyze = oracles.analyze_exact(mu, self.N_ANALYZE, self.LAGS)
        terms = lambda lo, hi: mu[lo : hi + 1] / np.arange(lo, hi + 1, dtype=np.float64)
        (s,), (scale,) = oracles.correctly_rounded_prefix_sums(terms, [last])
        self.mu0 = (s / last, scale / last)

    def _check(self, call, data):
        doc = json.loads(data)
        if call.label == "analyze":
            return self._check_analyze(doc), []
        return self._check_verdict(doc), []

    def _check_analyze(self, doc):
        exact = self.analyze
        problems = []
        if list(doc) != ANALYZE_KEYS or doc["function"] != "mu" or doc["N"] != self.N_ANALYZE:
            return ["analyze: unexpected keys, function or N"]
        for key in ("mean", "variance"):
            if not oracles.close(doc[key], exact[key], abs(float(exact[key]))):
                problems.append(f"analyze: {key} {doc[key]!r} is not {float(exact[key])!r}")
        if not -1.0 <= doc["min"] <= doc["max"] <= 1.0:
            problems.append("analyze: min/max outside [-1, 1]")
        if not 0.0 <= doc["ks_normal_D"] <= 1.0:
            problems.append("analyze: ks_normal_D outside [0, 1]")
        if [row["h"] for row in doc["independence"]] != list(self.LAGS):
            return problems + ["analyze: lag list differs"]
        for row in doc["independence"]:
            rho, scale = exact["rho"][row["h"]]
            if not oracles.close(row["rho"], rho, scale):
                problems.append(f"analyze: rho(h={row['h']}) {row['rho']!r} is not {float(rho)!r}")
        return problems

    def _check_verdict(self, doc):
        problems = []
        if list(doc) != VERDICT_KEYS or doc["function"] != "mu-over-k" or doc["N"] != self.N_VERDICT:
            return ["verdict: unexpected keys, function or N"]
        if doc["checkpoints"] != self.verdict_cps:
            problems.append("verdict: checkpoints differ from geometric(1000,2)")
        mu0, scale = self.mu0
        if abs(doc["mu0_hat"] - mu0) > FLOAT_TOLERANCE * scale:
            problems.append(f"verdict: mu0_hat {doc['mu0_hat']!r}, correctly rounded {mu0!r}")
        if doc["mean_rate"] != doc["asymptotic_form"]:
            problems.append("verdict: mean_rate and asymptotic_form differ")
        if doc["conditions_met"] != (doc["mean_rate"]["class"] == "decaying"):
            problems.append("verdict: conditions_met disagrees with the mean-rate class")
        ks = doc["ks_trace"]
        if [row["n"] for row in ks] != self.verdict_cps or not all(
                row["D"] is None or 0.0 <= row["D"] <= 1.0 for row in ks):
            problems.append("verdict: ks_trace checkpoints or distances out of range")
        return problems


class FileRoundtrip(Workload):
    """synth:log2 written as CSV, then a verdict read back from that file."""

    name = "file-roundtrip"
    N = 1_000_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.csv = self.path("roundtrip.csv")
        self.calls = [
            Call("synth", ["synth", "--function", "synth:log2", "--N", str(self.N)],
                 self.csv, threaded=False),
            Call("verdict", ["verdict", "--function", f"file:{self.csv}", "--N", str(self.N)],
                 self.path("roundtrip.json")),
        ]

    def prepare(self, runner):
        direct = Call("direct", ["verdict", "--function", "synth:log2", "--N", str(self.N)],
                      self.path("direct.json"))
        self.direct = json.loads(runner.helper(direct))
        self.direct.pop("function")

    def _check(self, call, data):
        if call.label == "synth":
            return self._check_synth(data.decode("ascii")), []
        doc = json.loads(data)
        problems = []
        if doc.pop("function") != f"file:{self.csv}":
            problems.append("verdict: function id is not the file: id")
        if doc != self.direct:
            problems.append("verdict: file: report differs from the direct synth:log2 report")
        return problems, []

    def _check_synth(self, text):
        rows = text.split("\n")
        values = np.array([row.endswith(",1") for row in rows[1:-1]], dtype=np.float64)
        if values.size != self.N:
            return [f"synth: {values.size} rows, expected {self.N}"]
        expected = "k,f\n" + "".join(f"{k},{int(v)}\n" for k, v in enumerate(values, start=1))
        if text != expected:
            return ["synth: CSV is not 'k,f' then one 'k,0' or 'k,1' row per k = 1..N"]
        return oracles.log2_greedy_problems(values)


WORKLOADS = {w.name: w for w in (SieveStream, FloatAccumulate, StatsAnalyze, FileRoundtrip)}
