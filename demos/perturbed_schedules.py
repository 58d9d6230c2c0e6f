"""Two-valued schedules with vanishing perturbations, realized greedily.

A schedule gives the first of two values a1, a2 the probability
p1(n) = p1 + eps1(n) and the second the complement.  Its expected
summatory value is n * (a1 p1 + a2 (1 - p1)) plus a vanishing correction.  The greedy realization emits a deterministic
sequence whose running proportions track the schedule, so the realized
summatory values stay within one quantization step of the expected ones.
"""

import json

import numpy as np

from summatoria import (
    full_verdict,
    geometric_checkpoints,
    log2_indicator_schedule,
    log_coin_schedule,
    realize_greedy,
    schedule_summatory,
    schedule_to_json_dict,
    summatory_trace,
    vanishing_sum_verdict,
    verdict_to_json_dict,
)

N = 10**6
cps = geometric_checkpoints(N)

# --- the +1/-1 coin with a 1/((n+1) ln(n+1)) bias ------------------------
coin = log_coin_schedule()
print("log-biased coin:", json.dumps(schedule_to_json_dict(coin)))
print("expected S(n) = 2n/((n+1) ln(n+1)), vanishing:")
for n in (10, 10**3, 10**6):
    print(f"  n = {n:>9,}: {schedule_summatory(coin, n):.6f}")

realized = realize_greedy(coin, N)
trace = summatory_trace(realized, N, cps)
print("realized S(n) at checkpoints:", trace.values.tolist())
verdict = vanishing_sum_verdict(trace, 1.0)
print("vanishing-sum check:", verdict.mean_rate.classification,
      "| conditions met:", verdict.conditions_met)
print()

# --- the 1/0 indicator with a 1/((n+1) ln^2(n+1)) boost ------------------
ind = log2_indicator_schedule()
print("log^2-biased indicator: expected S(n) = n/2 + n/((n+1) ln^2(n+1))")
realized2 = realize_greedy(ind, N)
v = full_verdict(realized2, N)
print(f"estimated limiting mean: {v.mu0_hat}")
print(f"residual class: {v.mean_rate.classification} | conditions met: "
      f"{v.conditions_met}")

trace2 = summatory_trace(realized2, N, cps)
n = cps.astype(np.float64)
expected = n / 2 + n / ((n + 1) * np.log(n + 1) ** 2)
print("max |realized - expected| over checkpoints:",
      float(np.max(np.abs(trace2.values - expected))), "(quantization only)")
print()

# --- the full JSON report, as the CLI would emit it ----------------------
doc = verdict_to_json_dict(v)
doc["ks_trace"] = doc["ks_trace"][-2:]  # keep the printout short
print(json.dumps(doc, indent=2))
