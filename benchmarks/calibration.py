"""Machine-speed calibration: a fixed kernel timed in between the program's work.

The hosts this benchmark runs on are shared, and their speed drifts by tens
of per cent over seconds to minutes: one fixed L=6 path run took anywhere
from 0.23 to 0.46 s within ten minutes on a 2-core host.  No statistic over
one run removes a drift that slow.  So an untraced run also times a
fixed kernel of the same kind of work as the program (a pure-Python
Gauss-Seidel sweep over numpy arrays and a sparse LU; it calls nothing of
``rveplast``) before every op and then every ``INTERVAL_S`` seconds, and the
study's time metrics are reported at a reference speed:

    reported seconds = measured seconds * REFERENCE_S / (mean kernel seconds while measuring)

``REFERENCE_S`` is a fixed constant, the kernel's typical time on a 2-core
x86-64 host, so the reported values stay close to the raw ones.  The time
the kernel itself takes is excluded from the measured seconds.  On a trace
of interleaved path runs and kernels, this brought the spread between
20-second windows from 0.11 to 0.03 of the median.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_S = 0.0130
INTERVAL_S = 0.3


def _laplacian(m: int) -> sp.csr_matrix:
    eye = sp.identity(m)
    tri = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(m, m))
    return (sp.kron(eye, tri) + sp.kron(tri, eye)).tocsr()


class Calibrator:
    """Times the kernel when due and keeps every sample's seconds."""

    def __init__(self):
        self.seconds: list[float] = []
        self._last_end = float("-inf")
        self._sweep = _laplacian(14)
        self._lu = _laplacian(40).tocsc()
        n = self._sweep.shape[0]
        self._f = np.linspace(-1.0, 1.0, n)
        self._r = np.full(n, 0.05)
        self._kernel()  # warm-up, not recorded

    def _kernel(self) -> float:
        A = self._sweep
        indptr, indices, data, f, r = A.indptr, A.indices, A.data, self._f, self._r
        y = np.zeros(A.shape[0])
        for _ in range(8):
            for i in range(y.shape[0]):
                rowsum = 0.0
                diag = 0.0
                for k in range(indptr[i], indptr[i + 1]):
                    j = indices[k]
                    if j == i:
                        diag = data[k]
                    else:
                        rowsum += data[k] * y[j]
                c1 = rowsum - f[i]
                if abs(c1) <= r[i]:
                    y[i] = 0.0
                elif c1 > r[i]:
                    y[i] = (r[i] - c1) / diag
                else:
                    y[i] = (-r[i] - c1) / diag
        x = spla.splu(self._lu).solve(np.ones(self._lu.shape[0]))
        return float(y @ f + x.sum())

    def measure(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self._last_end = time.perf_counter()
        self.seconds.append(self._last_end - t0)

    def tick(self) -> None:
        """Measure if ``INTERVAL_S`` seconds have passed since the last sample."""
        if time.perf_counter() - self._last_end >= INTERVAL_S:
            self.measure()

    def mark(self) -> int:
        """Measure now and return the sample's index, to begin a timing with."""
        self.measure()
        return len(self.seconds) - 1

    def since(self, first: int) -> float:
        """Kernel seconds spent after sample ``first``, to take out of a timing begun there."""
        return sum(self.seconds[first + 1 :])

    def scale(self, first: int) -> float:
        """REFERENCE_S over the mean kernel time from sample ``first`` on."""
        samples = self.seconds[first:]
        return REFERENCE_S * len(samples) / sum(samples)


class CalibratingList(list):
    """A ``reports`` list for ``run_path``: every appended increment report ticks the calibrator."""

    def __init__(self, calibrator: Calibrator | None):
        super().__init__()
        self.calibrator = calibrator

    def append(self, item) -> None:
        super().append(item)
        if self.calibrator is not None:
            self.calibrator.tick()
