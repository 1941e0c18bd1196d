"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same work can take nearly twice as long in one
minute as in the next, and the speed drifts within seconds.  The benchmark
therefore runs this computation right before and right after every timed
step and divides the step's time by a power of the mean slowness of the
two calibrations, reporting seconds as they would read on the machine the
benchmark was defined on.  The computation never calls the library, so a
change to the library cannot move it.

The reference has two parts, because the machine does not slow all code
alike: a small numpy scoring kernel and a small pure-Python loop of
dictionary probes.  In a row of separate processes the Python loop took
0.12 ms in some and 0.24 ms in others while the numpy kernel's time moved
by at most a third, and the library's instances are a mix of both kinds of
code.  The slowness is the weighted geometric mean of the two parts' times
over their nominal times (see NOTES.md for how the weights were chosen).
"""

from __future__ import annotations

import time

import numpy as np

# median seconds of one pass of each part on the 2-core machine the
# benchmark was defined on; they fix the scale of the reported timings,
# not their spread
NOMINAL_NUMPY_S = 0.0012
NOMINAL_PYTHON_S = 0.0002
# share of the numpy part in the log of the slowness
NUMPY_WEIGHT = 0.5
# how strongly the library's times follow the slowness: a step's time is
# divided by the slowness to this power.  Over two sets of ten seeds per
# workload, the largest spread of an end-to-end time was smallest at 0.75
# (see NOTES.md): some steps, such as the radius-3 check of an n=7 flock
# over 823 543 points, hardly slowed down when the reference did
ELASTICITY = 0.75

_PTS = (np.arange(40_000, dtype=np.float64).reshape(10_000, 4) * 7919) % 19 - 9
_WEIGHTS = np.arange(4 * 12, dtype=np.float64).reshape(4, 12) % 3
_BITS = np.int64(1) << np.arange(_WEIGHTS.shape[1])
# every array of a pass is allocated here once: a pass that allocated its
# own megabyte arrays ran 1.7 times slower in a process whose allocator had
# not been warmed by large arrays, so its time followed the library's
# allocation pattern instead of the machine's speed
_SCORES = np.empty((10_000, 12))
_BEST = np.empty(10_000)
_ARGMAX = np.empty((10_000, 12), dtype=np.int64)
_CODES = np.empty(10_000, dtype=np.int64)

_KEYS = list(range(0, 600, 3))
_TABLE = {k: k % 13 for k in range(0, 1200, 3)}


def _numpy_pass() -> float:
    """Score, argmax-mask and sort over a 10 000-point window, in place."""
    t0 = time.perf_counter()
    np.matmul(_PTS, _WEIGHTS, out=_SCORES)
    np.max(_SCORES, axis=1, out=_BEST)
    np.equal(_SCORES, _BEST[:, None], out=_ARGMAX)
    np.matmul(_ARGMAX, _BITS, out=_CODES)
    _CODES.sort()
    return time.perf_counter() - t0


def _python_pass() -> float:
    """Dictionary probes and small tuples, as the library's loops make."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(4):
        for i in range(len(_KEYS)):
            key = _KEYS[(i * 7919) % len(_KEYS)]
            acc += _TABLE.get(key, 1) + len((key, acc))
    return time.perf_counter() - t0


def calibrate() -> tuple:
    """Seconds for one pass of each part, each the median of seven."""
    return (sorted(_numpy_pass() for _ in range(7))[3],
            sorted(_python_pass() for _ in range(7))[3])


def slowness(cal) -> float:
    """How many times slower than nominal a calibration says the machine is."""
    numpy_s, python_s = cal
    return ((numpy_s / NOMINAL_NUMPY_S) ** NUMPY_WEIGHT
            * (python_s / NOMINAL_PYTHON_S) ** (1 - NUMPY_WEIGHT))


def scaled(seconds: float, before, after) -> float:
    """A time measured between two calibrations, at nominal machine speed."""
    return seconds / ((slowness(before) + slowness(after)) / 2) ** ELASTICITY
