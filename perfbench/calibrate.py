"""Host-speed calibration.

The benchmark's hosts share their cores: measured on a 2-core Xeon VM, the
speed of one process swung by a factor of 1.5 from one minute to the next,
while the work stayed the same. ``measure()`` times a fixed kernel that uses
no kramerslab code (a sparse LU factorization and solves, sparse and dense
vector arithmetic and an interpreted loop, the same kinds of work as the
workloads), so that ``run.py`` can bring each repetition's time to the
speed at which this kernel takes ``REFERENCE_S``. A change to kramerslab
cannot move the kernel.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the kernel's time on a 2-core Intel Xeon KVM guest (Python 3.11,
# numpy 2.4, scipy 1.17), rounded, in minutes when its host was quiet
REFERENCE_S = 0.04
REPEATS = 6
_N = 60


def _operator(n=_N):
    ident = sp.identity(n, format="csr")
    tri = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    return (sp.kron(ident, tri) + sp.kron(tri, ident)).tocsc()


_A = _operator()
_B = np.linspace(1.0, 2.0, _A.shape[0])


def kernel():
    lu = spla.splu(_A)
    x = _B
    for _ in range(60):
        x = lu.solve(x)
        x = x / np.linalg.norm(x)
        x = x + 1e-3 * (_A @ x)
    s = 0
    for i in range(180000):
        s += i * i
    return float(x[0]) + s


def measure(repeats=REPEATS):
    """Seconds of each of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times
