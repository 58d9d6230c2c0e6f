"""Summatory arithmetic functions at scale, with empirical limit-law
diagnostics: segmented sieves for mu and lambda, checkpointed traces,
empirical distribution statistics, remainder-class fits, and perturbed
two-valued schedules with deterministic realizations.

Each public name is imported from its module on first use (PEP 562), so
``import summatoria`` loads no submodule and a CLI command loads only the
modules it runs."""

import importlib

# module -> the public names it exports
_EXPORTS = {
    "empirical": ("EmpiricalDistribution", "empirical_cdf", "independence_estimator",
                  "ks_distance"),
    "errors": ("BoundError", "CapacityError", "DegenerateSampleError", "NumericError"),
    "limits": ("BOUNDED", "DECAYING", "GROWING", "INCONCLUSIVE", "LimitVerdict",
               "RemainderFit", "estimate_limit_mean", "euler_maclaurin_gap", "fit_remainders",
               "full_verdict", "mean_rate_fit", "vanishing_sum_verdict",
               "verdict_to_json_dict"),
    "schedules": ("TwoPointSchedule", "fair_coin_schedule", "log2_indicator_schedule",
                  "log_coin_schedule", "realize_greedy", "schedule_mean", "schedule_summatory",
                  "schedule_to_json_dict", "two_value_schedule"),
    "sequences": ("ArithmeticSequence", "liouville_sequence", "mobius_sequence",
                  "sequence_from_function", "sequence_from_values", "weighted_mobius_sequence"),
    "sieve": ("SieveBlock", "liouville_oracle", "mobius_oracle", "primes_up_to", "sieve_block"),
    "traces": ("SummatoryTrace", "geometric_checkpoints", "liouville_trace", "mertens_trace",
               "summatory_trace", "weighted_mobius_trace", "write_trace_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# Every name of the table is public; the subpackage modules are not.
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in ("cli", "sublinear", *_EXPORTS):  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
