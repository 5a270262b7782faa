"""Machine-speed calibration for timings on a shared, drifting machine.

The machine the benchmark runs on is shared; its speed drifts by a third over
minutes, so raw times from two runs, or from two stretches of one run, are not
comparable, however long the run. The benchmark therefore times three fixed
loops (pure-Python integer arithmetic, small complex numpy matrices, and
Python object churn) right before each timed sample and scales the sample by
``CAL_REF_S / t``, where ``t`` is the geometric mean of the three loop times.
Reported times then read as seconds on a machine on which that mean is
``CAL_REF_S``. The loops belong to the benchmark, not to ``lglab``, so no
change to ``lglab`` moves them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CAL_REF_S = 6.0e-3


def _integer_loop():
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def _matrix_loop():
    a = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    v = np.array([0.6, 0.8j])
    ok = True
    for _ in range(300):
        m = a @ a
        ok &= float(np.vdot(v, m @ v).real) > 0
        ok &= np.allclose(m, m.conj().T, atol=1e-12, rtol=0)
    return ok


def _object_loop():
    d = {}
    for i in range(20_000):
        d[i % 97] = (i, str(i), [i] * 3)
    a = np.eye(2)
    for _ in range(200):
        a = np.asarray(a, dtype=complex).reshape(2, 2) + 0.0
    return d, a


LOOPS = (_integer_loop, _matrix_loop, _object_loop)


class Calibration:
    """Speed factors measured right before each timed sample."""

    def __init__(self, repeat: int = 3):
        self.repeat = repeat
        self.factors: list[float] = []

    def probe(self) -> float:
        """Time the loops now; return the factor to multiply the next measured time by."""
        clock = time.perf_counter
        logs = []
        for loop in LOOPS:
            times = []
            for _ in range(self.repeat):
                start = clock()
                loop()
                times.append(clock() - start)
            logs.append(math.log(statistics.median(times)))
        factor = CAL_REF_S / math.exp(sum(logs) / len(logs))
        self.factors.append(factor)
        return factor

    def median(self) -> float:
        return statistics.median(self.factors)
