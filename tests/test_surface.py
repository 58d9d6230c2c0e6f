"""The public surface: the names ``summatoria`` exports, and the ones its
demos and ``bench/kernels.py`` use, which must exist."""

import ast
import importlib
import pathlib

import summatoria

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = ROOT / "bench" / "kernels.py"

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


def test_bench_uses_only_existing_names():
    # A name the bench reads that is gone fails only when the bench runs:
    # check each function's summatoria imports and the attributes it reads
    # of the modules among them, and the same of the source AHEAD.
    tree = ast.parse(BENCH.read_text(), str(BENCH))
    ahead, = [node.value.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["AHEAD"]]
    scopes = [ast.parse(ahead), *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]
    seen, missing = set(), set()
    for scope in scopes:
        modules = {}  # the name a summatoria module is bound to -> the module
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "summatoria":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    try:
                        modules[alias.asname or alias.name] = importlib.import_module(
                            f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        if not hasattr(module, alias.name):
                            missing.add(f"{node.module}.{alias.name}")
        missing |= {f"{node.value.id}.{node.attr}" for node in ast.walk(scope)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)}
        seen |= modules.keys()
    assert {"cli", "sieve", "sublinear", "traces"} <= seen
    assert not missing, f"bench/kernels.py reads {sorted(missing)}"
