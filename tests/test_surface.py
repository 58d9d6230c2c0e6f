"""The public surface: the names ``summatoria`` exports, and the ones its
demos import, which must exist."""

import ast
import importlib
import pathlib

import summatoria

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))

PUBLIC = [
    "ArithmeticSequence", "BOUNDED", "BoundError", "CapacityError", "DECAYING",
    "DegenerateSampleError", "EmpiricalDistribution", "GROWING", "INCONCLUSIVE",
    "LimitVerdict", "NumericError", "RemainderFit", "SieveBlock", "SummatoryTrace",
    "TwoPointSchedule", "empirical_cdf", "estimate_limit_mean", "euler_maclaurin_gap",
    "fair_coin_schedule", "fit_remainders", "full_verdict", "geometric_checkpoints",
    "independence_estimator", "ks_distance", "liouville_oracle", "liouville_sequence",
    "liouville_trace", "log2_indicator_schedule", "log_coin_schedule", "mean_rate_fit",
    "mertens_trace", "mobius_oracle", "mobius_sequence", "primes_up_to", "realize_greedy",
    "schedule_mean", "schedule_summatory", "schedule_to_json_dict", "sequence_from_function",
    "sequence_from_values", "sieve_block", "summatory_trace", "two_value_schedule",
    "vanishing_sum_verdict", "verdict_to_json_dict", "weighted_mobius_sequence",
    "weighted_mobius_trace", "write_trace_csv",
]


def test_public_names_are_pinned():
    # A name added to or dropped from the package is a deliberate edit here.
    assert PUBLIC == sorted(PUBLIC)
    assert summatoria.__all__ == PUBLIC


def test_demos_import_only_existing_names():
    assert len(DEMOS) == 4
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(), str(demo))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "summatoria":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{demo.name} imports {missing} from {node.module}"
