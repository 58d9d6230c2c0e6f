"""Self-check of the benchmark harness on tiny inputs; runs in about a second.

    python3 perfbench/selfcheck.py

Checks the self-time arithmetic on nested spans and every oracle against
values worked out by hand or published, without running the program.
Exits 0 when every check passes.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import numpy as np

import oracles
from tracing import Span, layer_metrics, self_times, union_length
from workloads import BLOCK, EXTRA_CHECKPOINTS, inside_block_checkpoints

# mu(1..30), from the factorizations of 1..30.
HAND_MOBIUS = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1,
               0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1]


def check_spans():
    # root [0, 10] holds a [1, 4] and b [3, 6]; a holds c [2, 3].
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("sieve.sieve_block", 1.0, 4.0, 0, 0, {"lo": 1, "hi": 100}),
        Span("sieve.sieve_block", 3.0, 6.0, 0, 0, {"lo": 51, "hi": 150}),
        Span("sieve.primes_up_to", 2.0, 3.0, 1, 0),
        Span("sieve.sieve_block", 0.0, 1.0, None, 1, {"lo": 1, "hi": 50}),
    ]
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.0]
    m = layer_metrics(spans)
    assert m["sieve.block_s"] == 6.0 and m["sieve.blocks"] == 3
    assert m["sieve.entries"] == 250
    # run 0 needs [1, 150], run 1 needs [1, 50]: 200 of 250 entries.
    assert m["sieve.useful_ratio"] == 200 / 250
    assert m["sieve.primes_calls"] == 1 and m["sieve.primes_s"] == 1.0
    assert m["limits.verdict_s"] == 0.0


def check_mobius():
    assert oracles.primes_through(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert oracles.mobius_table(30)[1:].tolist() == HAND_MOBIUS
    # Segments shorter than the range cross a segment edge.
    assert oracles.mobius_table(30, segment=7)[1:].tolist() == HAND_MOBIUS
    M = np.cumsum(oracles.mobius_table(10**5), dtype=np.int64)
    for x in (1, 10, 100, 1000, 10**4, 10**5):
        assert M[x] == oracles.PUBLISHED_MERTENS[x]


def check_mertens_liouville():
    oracle = oracles.MertensOracle(10**4)
    for x in oracles.PUBLISHED_MERTENS:
        assert oracle.mertens(x) == oracles.PUBLISHED_MERTENS[x], x
        assert oracle.liouville(x) == oracles.PUBLISHED_LIOUVILLE[x], x
    # L(10): lambda(1..10) = 1, -1, -1, 1, -1, 1, -1, -1, 1, 1.
    assert oracle.liouville(10) == 0 and oracle.liouville(9) == -1


def check_float_sums():
    tenth = lambda lo, hi: np.full(hi - lo + 1, 0.1)
    (s,), (scale,) = oracles.correctly_rounded_prefix_sums(tenth, [10])
    # Ten copies of fl(0.1) sum to 1 + 2**-54 + ..., which rounds to 1.0;
    # adding them in order gives 0.9999999999999999.
    assert s == 1.0 and sum([0.1] * 10) != 1.0 and scale == 1.0
    harmonic = lambda lo, hi: 1.0 / np.arange(lo, hi + 1, dtype=np.float64)
    sums, _ = oracles.correctly_rounded_prefix_sums(harmonic, [1, 3, 10], chunk=4)
    assert sums[:2] == [1.0, float(Fraction(11, 6))]
    assert abs(sums[2] - 7381 / 2520) < 1e-15  # H(10) = 7381/2520
    assert sums[2] == math.fsum(1.0 / k for k in range(1, 11))
    assert oracles.ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert oracles.ulp_distance(-0.0, 0.0) == 0
    assert oracles.ulp_distance(-5e-324, 5e-324) == 2


def check_analyze():
    exact = oracles.analyze_exact(oracles.mobius_table(12), 10, [1])
    # M(10) = -1, seven squarefree k <= 10, sum mu(k)mu(k+1) = -3,
    # sum_{k=2}^{11} mu(k) = -3.
    assert exact["mean"] == Fraction(-1, 10)
    assert exact["variance"] == Fraction(7 * 10 - 1, 100)
    rho, scale = exact["rho"][1]
    assert rho == Fraction(-3 * 10 - 3, 100) and abs(scale - 0.33) < 1e-15
    assert oracles.close(-0.33, rho, scale) and not oracles.close(-0.3300001, rho, scale)


def check_greedy():
    # p_1(1) = 1/2 + 1/(2 ln^2 2) clips to 1; 2 p_1(2) = 1.552, 3 p_1(3) = 1.890,
    # 4 p_1(4) = 2.309: count_1 = 1, 2, 2, 2, so the values are 1, 1, 0, 0.
    good = np.array([1.0, 1.0, 0.0, 0.0])
    assert oracles.log2_greedy_problems(good) == []
    assert oracles.log2_greedy_problems(np.array([1.0, 0.0, 1.0, 0.0])) != []
    assert oracles.log2_greedy_problems(np.array([1.0, 2.0, 0.0, 0.0])) != []


def check_checkpoints():
    extra = inside_block_checkpoints(random.Random(7), 10**8, {10**7})
    assert len(extra) == EXTRA_CHECKPOINTS and all(x % BLOCK for x in extra)
    assert extra == inside_block_checkpoints(random.Random(7), 10**8, {10**7})


CHECKS = [check_spans, check_mobius, check_mertens_liouville, check_float_sums,
          check_analyze, check_greedy, check_checkpoints]


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
            print(f"ok   {check.__name__}")
        except Exception as exc:  # report every check, not just the first failure
            failed += 1
            print(f"FAIL {check.__name__} {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
