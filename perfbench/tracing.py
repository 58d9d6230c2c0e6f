"""Spans around the summatoria layers, recorded from outside the package.

``Tracer.install`` replaces every public function of the package modules
(and every public method of their classes) with a wrapper that records a
span: name, start, end, parent span and run id.  Names imported into
another module, such as ``cli.full_verdict``, and functions held in
module-level dicts, such as the ``cli`` command table, get the same
wrapper.  Spans stay in memory; ``layer_metrics`` turns them into
per-layer totals and ``dump`` writes them out at the end of a run.

Spans nest only when calls run on one thread, so traced runs use
``--threads 1``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = ("sieve", "sequences", "traces", "empirical", "limits", "schedules", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)


def _attrs(name: str, args: tuple, result) -> dict:
    """Counts recorded at the layer boundary."""
    if name == "sieve.sieve_block":
        lo, hi = args[0], args[1]
        return {"lo": int(lo), "hi": int(hi)}
    if name == "empirical.ks_distance":
        return {"points": int(args[0].n)}
    if name == "traces.summatory_trace":
        return {"entries": int(result.checkpoints[-1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, 0.0, parent, tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.attrs = _attrs(name, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and methods of every layer module."""
        prefix = package.__name__ + "."
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}

        def wrapper_for(fn):
            if fn not in wrappers:
                layer = fn.__module__[len(prefix):]
                wrappers[fn] = self._wrap(f"{layer}.{fn.__qualname__}", fn)
            return wrappers[fn]

        def public(obj) -> bool:
            return (inspect.isfunction(obj) and obj.__module__.startswith(prefix)
                    and not obj.__name__.startswith("_"))

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if public(obj):
                    self._patch(module, attr, wrapper_for(obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if public(value):
                            self._patch(obj, key, wrapper_for(value))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if public(fn):
                            self._patch(obj, meth, wrapper_for(fn))

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [asdict(s) for s in self.spans]}, fh)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[i] if c.end > s.start and c.start < s.end
        )
        out.append(s.end - s.start - covered)
    return out


def _outermost(spans: list[Span], i: int) -> bool:
    """True when no ancestor of span i has the same name."""
    p = spans[i].parent
    while p is not None:
        if spans[p].name == spans[i].name:
            return False
        p = spans[p].parent
    return True


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals from one traced pass.

    ``*_s`` metrics are self time (duration minus wrapped callees), except
    ``traces.write_s`` and ``schedules.realize_s``, which are inclusive.
    A layer the workload never calls reports 0.
    """
    own = self_times(spans)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        self_s[s.name] += own[i]
        calls[s.name] += 1
        if _outermost(spans, i):
            incl_s[s.name] += s.end - s.start

    blocks = [s for s in spans if s.name == "sieve.sieve_block"]
    entries = sum(s.attrs["hi"] - s.attrs["lo"] + 1 for s in blocks)
    needed = 0
    by_run = defaultdict(list)
    for s in blocks:
        by_run[s.run].append((s.attrs["lo"], s.attrs["hi"] + 1))
    for intervals in by_run.values():
        needed += int(union_length(intervals))
    block_s = self_s["sieve.sieve_block"]

    streamed = sum(s.attrs["entries"] for s in spans if s.name == "traces.summatory_trace")
    trace_s = self_s["traces.summatory_trace"]

    return {
        "sieve.block_s": block_s,
        "sieve.ns_per_entry": block_s / entries * 1e9 if entries else 0.0,
        "sieve.blocks": len(blocks),
        "sieve.entries": entries,
        "sieve.useful_ratio": needed / entries if entries else 0.0,
        "sieve.primes_calls": calls["sieve.primes_up_to"],
        "sieve.primes_s": self_s["sieve.primes_up_to"],
        "sequences.values_s": self_s["sequences.ArithmeticSequence.values"],
        "sequences.values_calls": calls["sequences.ArithmeticSequence.values"],
        "traces.trace_s": trace_s,
        "traces.entries_per_s": streamed / trace_s if trace_s > 0 else 0.0,
        "traces.write_s": incl_s["traces.write_trace_csv"],
        "empirical.moments_s": self_s["empirical.empirical_moments"],
        "empirical.independence_s": self_s["empirical.independence_estimator"],
        "empirical.cdf_s": self_s["empirical.empirical_cdf"],
        "empirical.ks_s": self_s["empirical.ks_distance"],
        "empirical.ks_points": sum(s.attrs["points"] for s in spans
                                   if s.name == "empirical.ks_distance"),
        "limits.verdict_s": self_s["limits.full_verdict"],
        "limits.fit_s": sum(self_s[n] for n in ("limits.estimate_limit_mean",
                                               "limits.mean_rate_fit",
                                               "limits.fit_remainders")),
        "schedules.realize_s": incl_s["schedules.realize_greedy"],
        "cli.resolve_s": self_s["cli.resolve_function"],
        "cli.command_s": sum(v for k, v in self_s.items() if k.startswith("cli.cmd_")),
    }
