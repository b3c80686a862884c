"""Host-speed calibration: a fixed kernel timed between operations.

On a shared host the same operation can run half again as long for a
minute at a time while neighbours are busy.  The benchmark times this kernel
before the first operation and after every operation, and rescales
each operation's wall time by ``REFERENCE_S / kernel time`` (the mean
of the two kernel timings around it).  The result reads as seconds on
a host that runs the kernel in ``REFERENCE_S``; the raw wall times are
printed next to it.

The kernel mixes the kinds of work symcrit does: interpreter overhead,
numpy on small node grids, and elementwise passes over 1 MB arrays
(kept small so the kernel adds little to ``peak_rss_mb``).  It shares
no code with the package, so no change to ``src/`` can alter it.
"""

import time

import numpy as np

# Kernel time on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11.7, numpy 2.4.6, one BLAS thread), median over 1500 timings.
REFERENCE_S = 0.0064


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small_v = rng.standard_normal((32, 32, 4))
        self.small_m = rng.standard_normal((32, 32, 4, 4))
        self.big = rng.standard_normal((2, 131_072))
        self.out = np.empty(131_072)

    def kernel_s(self) -> float:
        """Fastest of five timings of the fixed kernel (about 7 ms each);
        the minimum discards a timing hit by an interrupt."""
        return min(self._once() for _ in range(5))

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(20):
            d = np.roll(self.small_v, 1, 0) - np.roll(self.small_v, -1, 1)
            w = np.einsum("...ab,...b->...a", self.small_m, d)
            acc += float(np.sum(w * w))
        for _ in range(10):
            np.add(self.big[0], self.big[1], out=self.out)
            np.multiply(self.out, self.big[0], out=self.out)
        return time.perf_counter() - t0
