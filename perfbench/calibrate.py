"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed one process gets drifts by tens of percent over
minutes, as other tenants come and go, and every kind of work slows
together.  The benchmark times this kernel before and after every
operation and reports the operation's wall time scaled by
``reference_s / kernel time``: the time the operation would take on a
machine where the kernel takes ``reference_s``.  The kernel uses no
hdgbounds code, so a change to the library cannot move it.  It mixes the
kinds of work the library does: interpreted loops around small dense
factorizations, batched small solves, einsum contractions, a sparse LU
factorization and dict-heavy Python.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class Calibration:
    # the kernel's usual time on the machine the bounds were tuned on
    # (2 vCPUs, x86_64, Python 3.11, numpy 2.4, scipy 1.17)
    reference_s = 0.2

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = rng.random((300, 12, 12)) + 12.0 * np.eye(12)
        self.batch = rng.random((2000, 15, 15)) + 15.0 * np.eye(15)
        self.rhs = rng.random((2000, 15, 4))
        self.tab = rng.random((4000, 16, 10))
        self.coef = rng.random((10, 10))
        k = 90
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
        eye = sp.eye(k)
        self.lap = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()

    def _kernel(self) -> None:
        for m in self.small:
            np.linalg.svd(m, compute_uv=False)
            np.linalg.lstsq(m, m[0], rcond=None)
        np.linalg.solve(self.batch, self.rhs)
        np.einsum("eqj,jk,eqk->e", self.tab, self.coef, self.tab)
        spla.splu(self.lap)
        d = {}
        for i in range(30000):
            d[i & 255] = d.get(i & 255, 0) + i

    def measure(self) -> float:
        """Seconds for two passes of the kernel."""
        t0 = time.perf_counter()
        self._kernel()
        self._kernel()
        return time.perf_counter() - t0
