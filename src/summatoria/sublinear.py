"""S(x) = sum_{k<=x} f(k) past the sieve, for the f of a hyperbola rule.

Where the Dirichlet convolution f * 1 has a known summatory function G,

    sum_{d<=x} S(x // d) = G(x),

so S(x) = G(x) - sum_{d>=2} S(x // d): G = 1 for f = mu (M(x), Mertens)
and G = isqrt(x) for f = lambda (L(x), Liouville: the divisor sums of
lambda mark the squares).  Every x // d in that sum is some x // k, so
S at a checkpoint x above a table of S(1..L) needs S at the x // k > L
only, k <= x / L; they are computed once each, smallest first, into a
memo that checkpoints share.  The terms x // d <= L are table reads:
for d <= sqrt(x) one by one, and for d > sqrt(x) grouped by the value
v = x // d, which d runs over an interval (Deléglise & Rivat 1996).  Each
such value y costs about sqrt(y) numpy element operations and y / L memo
reads, so a checkpoint x about x / sqrt(L) of them, against L sieved
entries for the table.

``table_limit`` picks L from the schedule with a cost model whose
constants were fitted to timings (``bench/kernels.py sublinear``); L at
the last checkpoint means plain streaming.  The values are exact
integers, so the choice changes speed, never a result.
"""

from __future__ import annotations

import math

import numpy as np

from . import traces
from .sieve import GLOBAL_SIEVE_BOUND

# Entries of the int32 table at most: 128 MB.  For x = 10**11
# (``sequences.SUBLINEAR_BOUND``) the cost model picks about 7.6e6.
TABLE_MAX = 1 << 25

# Cost model, in seconds per unit, fitted by ``bench/kernels.py sublinear``
# on a 2-vCPU Xeon (BENCH_kernels.json, ``sublinear.fit``): streaming
# costs STREAM_S per entry, a table TABLE_S per entry, and a checkpoint x
# above a table of L entries ELEMENT_S * x / sqrt(L) + VALUE_S * x / L.
# The fit is within a factor of two of every measured recursion: it
# overcounts the values that nested checkpoints share.
STREAM_S = 25e-9
TABLE_S = 29e-9
ELEMENT_S = 5e-9
VALUE_S = 9e-6


class Table:
    """Probe: S(0..n) as int32, for an integer sequence with |f| <= 1 and
    n <= GLOBAL_SIEVE_BOUND < 2**31, so |S| fits."""

    def __init__(self, n: int):
        self.values = np.zeros(n + 1, dtype=np.int32)

    def add(self, block) -> None:
        out = self.values[block.lo : block.hi + 1]
        np.cumsum(block.values, dtype=np.int32, out=out)
        out += block.base


def table_limit(checkpoints: np.ndarray) -> int:
    """The table size L for an increasing schedule: the last checkpoint
    (stream them all) where the cost model finds nothing cheaper and the
    sieve reaches it, else the cheapest L on a grid below it."""
    last = int(checkpoints[-1])
    floor, cap = max(1 << 10, math.isqrt(last) + 1), min(TABLE_MAX, last - 1)
    if floor > cap:
        return last
    L = np.geomspace(floor, cap, 64).round()
    xs = checkpoints.astype(np.float64)
    first = np.searchsorted(xs, L, side="right")  # the first checkpoint above L
    above = np.append(np.cumsum(xs[::-1])[::-1], 0.0)[first]  # their sum
    cost = TABLE_S * L + ELEMENT_S * above / np.sqrt(L) + VALUE_S * above / L
    best = int(np.argmin(cost))
    if last <= GLOBAL_SIEVE_BOUND and STREAM_S * last <= cost[best]:
        return last
    return int(L[best])


def sums(seq, xs, limit: int) -> list[int]:
    """S(x) for each x of xs, from a table of S(0..limit) that ``stream``
    fills and ``seq.hyperbola`` above it; every x must be at most limit**2."""
    table = Table(limit)
    traces.stream(seq, limit, [table])
    return from_table(table.values, seq.hyperbola, xs)


def from_table(table: np.ndarray, hyperbola, xs) -> list[int]:
    """S(x) for each x of xs, from ``table`` = S(0..L) and G = ``hyperbola``;
    every x must be at most L**2."""
    L = table.size - 1
    if any(x > L * L for x in xs):
        raise ValueError(f"a table of {L} entries reaches x <= {L * L}")
    ys = sorted({x // k for x in xs if x > L for k in range(1, x // (L + 1) + 1)})
    top = math.isqrt(max(ys, default=0))
    f = np.diff(table[: top + 2]).astype(np.int64)  # f(v) at v - 1
    ds = np.arange(1, top + 1, dtype=np.float64)
    memo = {}
    for y in ys:
        u, big = math.isqrt(y), y // (L + 1)  # 1 <= big <= u; d <= big: y // d > L, memo
        # y // d for d = 1..u; a float quotient of integers below 2**52 floors exactly
        q = (y / ds[:u]).astype(np.int64)
        s = hyperbola(y) - sum(memo[y // d] for d in range(2, big + 1))
        s -= int(table[q[big:]].sum(dtype=np.int64))
        # d > u, by v = y // d <= t: the d of one v < t run over (q[v], q[v - 1]], of
        # v = t over (u, q[t - 1]]; by parts these terms sum to
        # sum_{v<=t} f(v) y // v - S(t) u.
        t = y // (u + 1)
        s -= int(np.dot(f[:t], q[:t])) - int(table[t]) * u
        memo[y] = s
    return [memo[x] if x > L else int(table[x]) for x in xs]
