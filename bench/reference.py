"""The host-speed reference that the benchmark's times are scaled by.

The 2-vCPU VM the benchmark was tuned on runs at one of two speeds about
1.45x apart and holds each for seconds to minutes: a fixed Python loop
reads 7.0 ms in one state and 10.1 ms in the other, and process CPU time
slows the same way, so it is no way out.  Runs of the same code a few
minutes apart then spread by 25-30% in raw seconds, whatever statistic a
run reports, because whole runs fall in one state or the other.

So the runner times a fixed piece of work that calls no package code
between operations: a Python loop, a dense complex matrix product and a
copy through twice REF_COPY_MB of memory, more than the last-level cache
holds (interpreter work, BLAS and memory traffic, the three kinds of work
the package does).  It scales every operation by the mean of the two
reference samples around it:

    scaled = raw * REF_S / reference

REF_S is the reference's time in the host's fast state, so scaled times
read as seconds on that host at its fast speed.  The reference does not
depend on the package, so a change in the package's cost moves the scaled
times in full.  The runner prints the raw times beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference's time in the fast state of a 2-vCPU Xeon VM.  It only sets
# the scale: scaled times are raw times in units of the reference, times REF_S.
REF_S = 0.055
# At most one reference sample per this much time, so that short
# operations pay for a sample only every other operation or so.
REF_EVERY_S = 0.25
REF_LOOP = 300_000
REF_DIM = 512
REF_COPY_MB = 64


def reference_s(a: np.ndarray, b: np.ndarray, src: np.ndarray, dst: np.ndarray) -> float:
    """Wall time of the fixed reference work.

    a and b are REF_DIM matrices, src and dst REF_COPY_MB buffers.
    """
    start = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i * i
    (a @ b).sum()
    np.copyto(dst, src)
    np.copyto(src, dst)
    return time.perf_counter() - start


class Pacer:
    """Reference samples taken between timed pieces of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (REF_DIM, REF_DIM)
        self.a = rng.random(shape) + 1j * rng.random(shape)
        self.b = rng.random(shape) + 1j * rng.random(shape)
        self.src = np.ones(REF_COPY_MB * 2**20 // 8)
        self.dst = np.empty_like(self.src)
        # warm-up: first-call costs and page faults
        reference_s(self.a, self.b, self.src, self.dst)
        self.samples = []
        self.last = float("-inf")

    def sample(self) -> int:
        """Take a sample; return its index."""
        self.samples.append(reference_s(self.a, self.b, self.src, self.dst))
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """Sample if REF_EVERY_S has passed since the last sample.

        Returns the index of the latest sample, the one before the work
        about to be timed.
        """
        if time.perf_counter() - self.last >= REF_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, raw: float, before: int) -> float:
        """raw scaled by the samples `before` and the one after it."""
        around = self.samples[before:before + 2]
        return raw * REF_S / statistics.fmean(around)
