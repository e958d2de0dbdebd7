"""Host-speed probe: a fixed reference computation timed alongside robinlab.

The benchmark's virtual machine shares its cores with other tenants, so
the same code runs tens of percent faster or slower from one second to
the next.  While a call is timed, a SIGALRM handler runs ``kernel()``
every INTERVAL_S on the same CPU and times it; the call's wall time,
less the probes', divided by the mean probe time is the call's cost in
units of the probe, which the host's speed cancels out of.  Times are
reported in seconds at PROBE_REF_S, the probe's usual time on the
machine the baseline was taken on.

The kernel uses no robinlab code, so a change to the package cannot move
it.  It mixes the two kinds of work whose speed best followed
robinlab's as the host's changed: a scalar loop over small numpy rows
(Jacobi rotations, element assembly) and a sparse LU solve about the size
of robinlab's strip solves.  Its inputs are fixed, so every probe
does the same work.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

PROBE_REF_S = 4.0e-3  # about the mean probe time on the baseline's 2-vCPU x86-64 VM
INTERVAL_S = 0.08  # probes cost about 5% of a timed call


def _laplacian(k):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
    eye = sp.identity(k)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()


# A 10 000-unknown factor, about the size of robinlab's strip factors; its
# solve reads several MB, so it slows as robinlab's solves do when other
# tenants crowd the caches and memory bus.
_LU = splu(_laplacian(100))
_B = np.ones(100 * 100)
_M = np.random.default_rng(0).standard_normal((14, 14))


def kernel():
    """One probe's worth of reference work, its two parts about equally long;
    returns a value so none is skipped."""
    a = _M.copy()
    for _ in range(4):
        for p in range(13):
            for q in range(p + 1, 14):
                a[q] = a[p] * 0.5 + a[q] * 0.25
    x = _LU.solve(_B)
    return a[13, 0] + x[0]


def timed_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reference_seconds(seconds, probe_s):
    """Seconds measured while a probe took probe_s, at PROBE_REF_S."""
    return seconds * PROBE_REF_S / probe_s


class HostProbe:
    """Runs the kernel every INTERVAL_S of wall time between start() and stop()."""

    def __init__(self):
        self.spent_ns = 0  # in probes, over the process's life
        self.count = 0
        self._mark = (0, 0)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        kernel()
        self.spent_ns += time.perf_counter_ns() - start
        self.count += 1

    def clock_ns(self):
        """perf_counter_ns() less the time spent in probes, for spans that
        must not include them."""
        return time.perf_counter_ns() - self.spent_ns

    def start(self):
        self._mark = (self.spent_ns, self.count)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop probing; return (seconds spent in probes, probe count) since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return (self.spent_ns - self._mark[0]) / 1e9, self.count - self._mark[1]
