"""Machine-speed reference, interleaved with the ops of a run.

The benchmark's host is a small shared VM whose CPU speed drifts by up to
1.9x over seconds to minutes while nothing else runs inside it; process CPU
time drifts with wall time, so no choice of clock removes it.  A fixed
piece of work, timed right before every op, measures the machine's speed
while the op runs.  Each op's latency is multiplied by ``NOMINAL_REF_S``
over the median reference time of the op and its ``WINDOW`` neighbours on
each side, where ``NOMINAL_REF_S`` is the reference time of the defining
host when it runs fast (2-core Intel Xeon VM, Python 3.11, numpy 2.4).  The
result reads as time on that host at full speed, and moves only when the
program's own cost changes.  A local window follows the speed changes
inside a run, which a single factor per run leaves in the tail.

The reference never calls twistorcheck, so no change to the program moves
it.  It mixes the program's dominant kinds of work: dict iteration with
complex multiply-adds (like ``MPoly.evaluate``), Fraction arithmetic (like
the exact backend), float elimination, and small LAPACK least-squares
solves (like the Newton steps).
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

NOMINAL_REF_S = 1.2e-3
WINDOW = 3

_rng = random.Random("perfbench-reference")
_TERMS = {tuple(_rng.randint(0, 2) for _ in range(9)):
          complex(_rng.gauss(0, 1), _rng.gauss(0, 1)) for _ in range(40)}
_POINT = [_rng.gauss(0, 1) for _ in range(9)]
_FRACS = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(16)]
_MATRIX = [[_rng.gauss(0, 1) for _ in range(6)] for _ in range(6)]
_LSTSQ = []                   # (A, b), built on first use: numpy loads lazily


def _work():
    if not _LSTSQ:
        import numpy as np
        _LSTSQ.append((np, np.array([[_rng.gauss(0, 1) for _ in range(9)]
                                     for _ in range(16)]),
                       np.array([_rng.gauss(0, 1) for _ in range(16)])))
    np, a_mat, b_vec = _LSTSQ[0]
    for _ in range(3):
        np.linalg.lstsq(a_mat, b_vec, rcond=None)
    acc = 0
    for exps, c in _TERMS.items():
        t = c
        for i, p in enumerate(exps):
            for _ in range(p):
                t = t * _POINT[i]
        acc = acc + t
    q = Fraction(0)
    for a, b in zip(_FRACS, reversed(_FRACS)):
        q = q + a * b / (abs(b) + 1)
    rows = [r[:] for r in _MATRIX]
    for c in range(6):
        piv = max(range(c, 6), key=lambda r: abs(rows[r][c]))
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(c + 1, 6):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return acc, q, rows


def time_reference(repeats: int = 4) -> float:
    """Seconds for one reference unit (``repeats`` passes of the work).

    One untimed pass first brings the work back into the caches the op
    before it evicted, so the unit measures speed, not cache refill.
    """
    _work()
    start = time.perf_counter()
    for _ in range(repeats):
        _work()
    return time.perf_counter() - start


def speed_factor(refs) -> float:
    """Multiplier that takes times measured alongside ``refs`` to nominal speed."""
    return NOMINAL_REF_S / statistics.median(refs)


def normalise(latencies, refs):
    """Each latency at nominal speed, from the references around it."""
    return [lat * speed_factor(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i, lat in enumerate(latencies)]


def normalised_span(fn):
    """Run ``fn``; return (result, seconds, seconds at nominal speed).

    The speed estimate is the median of seven reference units right after
    the span, so that numpy is first imported inside the span.
    """
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed * speed_factor(
        [time_reference() for _ in range(7)])
