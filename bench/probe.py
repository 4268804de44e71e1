"""Host-speed probe.

A fixed Gaussian elimination mod 5 on three small integer matrices: the
kind of work tricomplete's linear algebra does (numpy row operations
driven from Python), in code that belongs to the benchmark, so no change
to tricomplete changes it.  The worker times it between items; on a shared
host, co-tenants slow the probe and the items together, and the run's
probe times say by how much.
"""

import time

import numpy as np

P = 5
MATRICES = [(np.arange(r * c, dtype=np.int64).reshape(r, c) * 7 + 3) % P
            for r, c in ((6, 8), (9, 7), (5, 12))]


def _eliminate(a: np.ndarray) -> int:
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i, c]), None)
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * pow(int(a[r, c]), P - 2, P)) % P
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % P
        r += 1
        if r == rows:
            break
    return r


def probe() -> float:
    """Seconds the fixed elimination takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        for m in MATRICES:
            _eliminate(m.copy())
    return time.perf_counter() - t0
