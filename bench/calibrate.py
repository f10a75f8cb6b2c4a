"""A fixed calibration loop that times the machine, not funvol.

On a shared VM the same funvol code runs up to 2x slower for minutes at a
time, because other tenants load the host; CPU time slows as much as wall
time.  ``once()`` times a fixed mix of the kinds of work funvol does:
interpreted Python arithmetic, small numpy arrays, a 3x3 ``eigh``,
``scipy.integrate.quad`` with a Python integrand and a qhull ``ConvexHull``.
Its time moves with the machine's speed, and no change to funvol moves it.

The worker calls ``once()`` after every op, and multiplies each pass's
times by ``REF_S / mean(calibration times in that pass)``; a set-up process
does the same with the median of ``median_of`` calls.  The timing metrics
thus read in seconds of a reference machine on which one call takes
``REF_S``.  On a 2-core Xeon VM at 2.1 GHz one call took 0.9 to 2.1 ms,
depending on the load from other tenants.
"""
from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np
from scipy.integrate import quad
from scipy.spatial import ConvexHull

REF_S = 1.0e-3

_X = np.linspace(0.0, 1.0, 64)
_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
_PTS = np.random.default_rng(0).standard_normal((150, 3))


def _integrand(t):
    return math.exp(-t * t) * math.cos(3.0 * t)


def _loop() -> float:
    s = 0.0
    for i in range(300):
        s += math.sin(i * 0.1) * math.exp(-i * 1e-3)
    for i in range(40):
        s += float(np.sum(np.sin(_X * i) * np.exp(-_X)))
        s += float(np.linalg.eigh(_M + i * 1e-3)[0][0])
    s += quad(_integrand, 0.0, 5.0, epsabs=1e-12, epsrel=1e-12)[0]
    s += ConvexHull(_PTS).volume
    return s


def once() -> float:
    """Seconds for one run of the loop, with the garbage collector off, so
    that the heap funvol leaves behind does not change the time."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _loop()
        return time.perf_counter() - t
    finally:
        if was_on:
            gc.enable()


def median_of(calls: int) -> float:
    """Median time of ``calls`` runs after two untimed ones, which pay for
    lazy set-up inside numpy and scipy."""
    for _ in range(2):
        _loop()
    return statistics.median(once() for _ in range(calls))
