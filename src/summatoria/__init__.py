"""Summatory arithmetic functions at scale, with empirical limit-law
diagnostics: segmented sieves for mu and lambda, checkpointed traces,
empirical distribution statistics, remainder-class fits, and perturbed
two-valued schedules with deterministic realizations."""

from .empirical import (
    EmpiricalDistribution,
    empirical_cdf,
    independence_estimator,
    ks_distance,
)
from .errors import BoundError, CapacityError, DegenerateSampleError, NumericError
from .limits import (
    BOUNDED,
    DECAYING,
    GROWING,
    INCONCLUSIVE,
    LimitVerdict,
    RemainderFit,
    estimate_limit_mean,
    euler_maclaurin_gap,
    fit_remainders,
    full_verdict,
    mean_rate_fit,
    vanishing_sum_verdict,
    verdict_to_json_dict,
)
from .schedules import (
    TwoPointSchedule,
    fair_coin_schedule,
    log2_indicator_schedule,
    log_coin_schedule,
    realize_greedy,
    schedule_mean,
    schedule_summatory,
    schedule_to_json_dict,
    two_value_schedule,
)
from .sequences import (
    ArithmeticSequence,
    liouville_sequence,
    mobius_sequence,
    sequence_from_function,
    sequence_from_values,
    weighted_mobius_sequence,
)
from .sieve import (
    SieveBlock,
    liouville_oracle,
    mobius_oracle,
    primes_up_to,
    sieve_block,
)
from .traces import (
    SummatoryTrace,
    geometric_checkpoints,
    liouville_trace,
    mertens_trace,
    summatory_trace,
    weighted_mobius_trace,
    write_trace_csv,
)

from types import ModuleType as _ModuleType

# Every name imported above is public; the subpackage modules are not.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))

__version__ = "0.1.0"
