"""A fixed reference computation that gauges the machine's speed.

The machine the benchmark runs on is shared: the same single-threaded
Python code runs up to twice as fast or as slow from one second to the
next, and such phases last from seconds to minutes, longer than a run.
Raw stage times then spread by 15 to 35% between runs of the same code.
To take that drift out, each timed stage is bracketed by two runs of
the reference below, and the stage's time is reported scaled to a
machine on which the reference takes ``NOMINAL_S``:

    scaled = seconds * NOMINAL_S / mean(reference before, reference after)

The reference mixes what the package's hot paths do (a pure-Python
float loop, small numpy calls on 3-vectors, float formatting) and does
not call the package, so no change to the program moves it.
"""

import math
from time import perf_counter

import numpy as np

#: About the reference's time on the machine the figures in README.md
#: come from, in its slower phase (13 ms in the faster one).
NOMINAL_S = 0.025

_W = np.array([0.6, 0.48, 0.64])


def sample():
    """Seconds taken by one run of the reference computation."""
    t0 = perf_counter()
    s = 0.0
    for i in range(1, 22001):
        s += math.sqrt(i) * 1.0001 - s * 1e-6
    v = np.array([0.0, 0.0, 1.0])
    for _ in range(2200):
        d = float(np.dot(v, _W))
        v = v - 0.5 * d * _W
        v = v / math.sqrt(float(np.dot(v, v)))
    text = ",".join("%.17g" % (k * 0.1 + s * 1e-9) for k in range(4500))
    if not (math.isfinite(s) and len(text) > 0 and np.isfinite(v).all()):
        raise ArithmeticError("reference computation went wrong")
    return perf_counter() - t0


def scaled(seconds, before, after):
    """``seconds`` scaled to the nominal machine speed, given the
    reference times measured just before and just after."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
