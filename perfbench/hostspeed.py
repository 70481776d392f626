"""Host-speed calibration for a shared machine.

Other tenants of a shared host slow the core this process runs on for seconds
at a time: one clip's inference takes ≈40 ms in one phase and ≈62 ms in the
next, with CPU time equal to wall time. Over ten 35 s runs of the same code,
that swung the mean inference time by 27% (IQR over median).

A fixed kernel, timed just before each operation, slows by about the same
factor. It has two parts, because contention hits two kinds of code: a loop of
small numpy calls (interpreter-bound, like the neuron loop) and two passes over
a 2 MB array (memory-bound, like the convolutions). Scaling an operation's
time by ``REF_KERNEL_S / kernel time`` gives its time at one reference host
speed. Over 30 s windows of a 150 s recording, that cut the spread of the mean
operation time from 0.16 to 0.045 on ``infer-b1``, and left ``train-b16``
about as steady as its raw times (0.07 against 0.09).
"""

from __future__ import annotations

import time

import numpy as np

REF_KERNEL_S = 0.005  # the kernel's time, rounded, on the 2-vCPU VM the bounds were set on


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((8, 16, 16)).astype(np.float32)
        self._large = rng.standard_normal(1 << 19).astype(np.float32)

    def kernel_s(self):
        """Time one run of the calibration kernel."""
        t0 = time.perf_counter()
        x = self._small
        for _ in range(300):
            x = np.tanh(x * 0.5 + 0.1)
            float(x.sum())
        y = self._large
        for _ in range(2):
            y = np.maximum(y * 0.9, y - 0.1)
        return time.perf_counter() - t0

    def factor(self):
        """``REF_KERNEL_S`` over the kernel's time now: below 1 on a slowed host."""
        return REF_KERNEL_S / self.kernel_s()
