"""Machine-speed calibration: a fixed kernel timed next to every measurement.

The benchmark runs on shared virtual machines whose speed changes by up to
about 1.6x for seconds to minutes at a time, as neighbours load the host.
Wall times taken minutes apart then differ by more than any regression
worth catching.  To cancel that, the benchmark times this kernel right
before and right after each timed operation and scales the operation's
wall time to a machine on which one pass of the kernel takes
:data:`REFERENCE_S`:

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

The kernel is the benchmark's own code with fixed inputs, so no change to
the program moves it; a change that slows the program still shows in full.
It mixes the kinds of work the pipeline does (interpreted Python, FFTs, a
small dense product, a sparse factorization and a copy through the
last-level cache); one pass takes about 0.15 to 0.25 s.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# about the kernel's time on a quiet 2-vCPU Xeon (Sapphire Rapids) virtual machine
REFERENCE_S = 0.15
# after an operation, the kernel runs for at least this share of its wall
# time, so a long operation is scaled by the speed over a longer window
SHARE = 0.08


class Calibration:
    """Callable returning the mean wall time of a pass of the fixed kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.random(1 << 14)
        self._dense = rng.random((128, 128))
        # preallocated, so the kernel adds a fixed 8 MB to the process's peak
        # resident memory and never raises it while an operation runs
        self._stream = rng.random(1 << 19)
        self._copy = np.empty_like(self._stream)
        n = 20000
        self._banded = sp.diags(
            [-np.ones(n - 1), 2.2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc"
        )
        self._rhs = np.ones(n)
        self()  # first pass pays page faults and lazy imports

    def __call__(self, min_seconds: float = 0.0) -> float:
        """Mean wall time of one pass, over at least one pass and ``min_seconds``."""
        passes = 0
        t0 = time.perf_counter()
        while True:
            self._pass()
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                return elapsed / passes

    def _pass(self) -> None:
        acc = 0
        for i in range(300_000):
            acc += i * i
        for _ in range(60):
            np.fft.ifft(np.fft.fft(self._signal))
        for _ in range(100):
            self._dense @ self._dense
        for _ in range(6):
            spla.spsolve(self._banded, self._rhs)
        for _ in range(48):
            np.copyto(self._copy, self._stream)
            self._copy.sum()


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds scaled to a machine on which the kernel takes REFERENCE_S."""
    return wall * REFERENCE_S / (0.5 * (before + after))
