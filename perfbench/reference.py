"""The reference process: fixed work that measures how fast the host is
running right now, next to the CLI calls.

    python3 perfbench/reference.py

It pays the same interpreter start and numpy/scipy imports as a CLI call,
then formats and parses CSV-like text in pure Python and makes strided
updates and a cumulative sum over a 16 MiB numpy array: the kinds of work
the calls do.  It shares no code with ``src/``, so a change to the program
never changes its time.  Exits 0 when its own result is right.
"""

import numpy as np
import scipy.integrate  # noqa: F401
import scipy.special  # noqa: F401

text = "".join(f"{k},{k % 3 // 2}\n" for k in range(1, 450_001))
ones = sum(int(line.rsplit(",", 1)[1]) for line in text.splitlines())

signs = np.ones(1 << 24, dtype=np.int8)
for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
    signs[::p] *= -1
total = int(np.cumsum(signs, dtype=np.int64)[-1])

if ones != 150_000 or not -(1 << 24) <= total <= 1 << 24:
    raise SystemExit(f"reference work went wrong: {ones}, {total}")
