"""A fixed pure-Python reference loop that the timed operations are divided by.

The machine the benchmark runs on may change speed by nearly 2x for seconds
at a time (a shared host). An operation's latency divided by the latency of
this loop, timed just before and just after it, cancels most of that: both
run on the same core in the same state. The loop never calls apmsim, so a
change to the program moves the ratio and nothing else does.

The loop is a discrete Frechet-style dynamic program over two fixed
sequences (interpreted float arithmetic, comparisons and list indexing, as
in the program's own hot paths) and takes about a millisecond.
"""

from __future__ import annotations

from time import perf_counter

SIZE = 48
_A = [((i * 7919) % 97) / 9.7 for i in range(SIZE)]
_B = [((i * 104729) % 89) / 8.9 for i in range(SIZE)]


def _loop() -> float:
    prev = [0.0] * SIZE
    for i, a in enumerate(_A):
        row = [0.0] * SIZE
        for j, b in enumerate(_B):
            d = abs(a - b)
            if i == 0 and j == 0:
                row[j] = d
            elif i == 0:
                row[j] = max(d, row[j - 1])
            elif j == 0:
                row[j] = max(d, prev[0])
            else:
                row[j] = max(d, min(prev[j], row[j - 1], prev[j - 1]))
        prev = row
    return prev[-1]


# Computed once so that every timed call does the same work and can be checked.
EXPECTED = _loop()


def time_loop() -> float:
    """Seconds for one run of the reference loop."""
    start = perf_counter()
    value = _loop()
    elapsed = perf_counter() - start
    if value != EXPECTED:
        raise RuntimeError(f"calibration loop returned {value!r}, expected {EXPECTED!r}")
    return elapsed
