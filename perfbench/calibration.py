"""Machine-speed calibration for timing on a shared host.

Other tenants of a shared host slow every process on it, by up to a
third and for seconds to minutes at a time, so the wall time of one run
says as much about the neighbours as about ``mixorder``. The runner
therefore times fixed kernels that never touch ``mixorder`` around the
items it measures and reports item times at reference speed: wall time
divided by the slowdown, which is the kernels' measured time over their
reference time.

The neighbours slow interpreted code, numpy calls on one-point arrays,
small arrays and large array passes by different amounts, and every
workload mixes these, so the slowdown is the mean over one kernel of
each kind. A change to ``mixorder`` cannot move a kernel, so scaling
never favours one commit over another; it only removes noise.
"""

import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 512)
_LARGE = np.linspace(0.5, 2.0, 100_000)


def _interpreted():
    acc = 0
    for i in range(20_000):
        acc += i * i
    return acc


def _one_point_arrays():
    # the shape of a scalar evaluation in mixorder: wrap, mask, evaluate
    x = 0.5
    for _ in range(150):
        arr = np.asarray(x, dtype=float)
        out = np.zeros(arr.shape)
        if (arr > 0.1).any():
            out = np.exp(-arr) * 2.0
        x = float(out) * 0.5 + 0.25
    return x


def _small_arrays():
    for _ in range(250):
        np.exp(_SMALL).sum()


def _large_arrays():
    (_LARGE**1.7 / (1.0 + _LARGE)).sum()


#: (kernel, its time in seconds at reference speed); the reference times
#: are what the kernels took on a quiet moment of the 2-core Xeon host the
#: benchmark was written on, and only set the scale of reported times
KERNELS = (
    (_interpreted, 1.5e-3),
    (_one_point_arrays, 0.65e-3),
    (_small_arrays, 0.8e-3),
    (_large_arrays, 1.5e-3),
)


def slowdown():
    """Mean over the kernels of measured time / reference time."""
    total = 0.0
    for kernel, reference in KERNELS:
        t0 = time.perf_counter()
        kernel()
        total += (time.perf_counter() - t0) / reference
    return total / len(KERNELS)
