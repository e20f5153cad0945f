"""Scaling of measured times to a reference machine speed.

The CPU speed of a shared virtual machine can drift between states about
45% apart that last from seconds to minutes: on the 2-core machine the
bounds were set on, a fixed pure-Python loop timed 7.0 ms or 10.3 ms
depending on the moment, and runs of identical inputs differed by 25% in op
time.  Wall times alone then spread more between runs than any
useful regression bound.

A fixed reference probe (a small fraction-free elimination on integer dict
rows, the kind of work the package's inner loops do) is timed right before
and after every op.  The op's wall time, multiplied by REFERENCE_S over the
mean of the two probe times, is its time at the speed where the probe takes
REFERENCE_S.  On a machine whose speed does not drift the factor is one
constant, so scaled times are wall times up to that constant; a change to
the package moves them as it moves wall time, because the probe does not
run package code.
"""

from __future__ import annotations

from time import perf_counter

# about the probe time on that machine (6.2e-5 s in its faster speed state,
# 9e-5 s in its slower one), so reference seconds read close to wall
# seconds there
REFERENCE_S = 7.5e-5
_SIZE = 14


def _reference_work():
    rows = [{c: (7 * c + 3 * r) % 11 + 1 for c in range(r, r + _SIZE)}
            for r in range(_SIZE)]
    for a in range(1, _SIZE):
        prow, row = rows[a - 1], rows[a]
        x, y = row.get(a, 0), prow[a]
        out = {c: y * v for c, v in row.items()}
        for c, v in prow.items():
            out[c] = out.get(c, 0) - x * v
        rows[a] = out


def probe() -> float:
    """Fastest of three timings of the reference work, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Multiplier taking a wall time measured between two probes to
    reference seconds."""
    return 2 * REFERENCE_S / (before + after)
