"""Machine-speed calibration for the end-to-end times.

The machine this benchmark runs on may be a few vCPUs of a shared host
whose speed drifts: a fixed `evaluate_point` loop was seen to take
between 210 and 480 us per call within one minute, on both vCPUs at
once, with the thread on the CPU all the time.  A time measured in one
run is then mostly a measure of the host.

So every run also times a fixed reference kernel, interleaved with its
operations, at most CAL_INTERVAL_S apart.  The kernel does the same
kinds of work as the program (small complex numpy matrices, their
eigensolvers, Python float arithmetic and formatting, one 16x16
eigensolve) but calls nothing of it, so a change to the program cannot
change the kernel's time.  Each operation's latency is scaled by
REF_NOMINAL_S over the kernel time measured around it: the end-to-end
times are what the operation would take on a machine where the kernel
takes REF_NOMINAL_S.  The raw times and the scale are printed as well.
"""

import bisect
import math
import statistics
import time

import numpy as np

CAL_INTERVAL_S = 0.1  # longest gap between two samples, unless one operation is longer
CAL_REPEATS = 5       # kernel calls per sample; the sample is their median
# Kernel time at the nominal speed, near its median on the 2-vCPU Intel
# Xeon host of results/baseline.json (160-360 us seen there).
REF_NOMINAL_S = 250e-6

_RHO = np.array([[0.40, 0.10 + 0.05j, 0.08, 0.02j],
                 [0.10 - 0.05j, 0.20, 0.03, 0.01],
                 [0.08, 0.03, 0.25, 0.04 - 0.02j],
                 [-0.02j, 0.01, 0.04 + 0.02j, 0.15]], dtype=complex)
_SHIFT = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
_SPIN = [np.kron(s, np.eye(2)) + np.kron(np.eye(2), s)
         for s in (np.array([[0, 1], [1, 0]], dtype=complex),
                   np.array([[0, -1j], [1j, 0]]),
                   np.array([[1, 0], [0, -1]], dtype=complex))]
_BIG = np.kron(_RHO, _RHO) + 0.1j * np.kron(_SHIFT, _RHO)


def kernel():
    """A fixed piece of work shaped like one evaluated point; returns a checksum."""
    rho = _RHO
    weights = np.linalg.eigvalsh(rho)
    c = np.array([[np.trace(rho @ a @ b).real for b in _SPIN] for a in _SPIN])
    values, vectors = np.linalg.eigh(c)
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    total = float(np.abs(np.linalg.eigvalsh(pt)).sum()) + float(vectors[0, -1])
    flip = rho @ _YY @ rho.conj() @ _YY
    total += float(np.sqrt(np.abs(np.linalg.eigvals(flip))).sum())
    total += sum(math.hypot(x, 0.5) for x in weights.tolist() + values.tolist())
    total += len(",".join(f"{x:.9g}" for x in weights.tolist() + values.tolist()))
    total += float(np.linalg.eigvalsh(_BIG @ _BIG.conj().T)[-1])
    return total


class Speed:
    """Kernel times sampled through a run, and the scale they give."""

    def __init__(self):
        self.at = []        # perf_counter() when each sample ended
        self.kernel_s = []  # the sample: median kernel time

    def sample(self):
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.kernel_s.append(statistics.median(times))
        self.at.append(time.perf_counter())

    def due(self):
        return not self.at or time.perf_counter() - self.at[-1] >= CAL_INTERVAL_S

    def scale(self, start, end):
        """REF_NOMINAL_S over the median of the last sample before `start`,
        the first after `end`, and any taken in between."""
        lo = max(0, bisect.bisect_right(self.at, start) - 1)
        hi = bisect.bisect_left(self.at, end) + 1
        return REF_NOMINAL_S / statistics.median(self.kernel_s[lo:hi])

    def describe(self):
        median = statistics.median(self.kernel_s)
        return (f"time scale {REF_NOMINAL_S / median:.4f}: median of {len(self.kernel_s)} "
                f"kernel samples {median * 1e6:.1f} us, nominal {REF_NOMINAL_S * 1e6:.0f} us")
