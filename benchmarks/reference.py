"""A speed gauge: a fixed reference computation timed while work runs.

The benchmark runs on a share of a busy host whose speed drifts by tens of
percent, both within a second and over minutes, so a wall time taken alone
carries that drift.  While an op (or the set-up) runs, a SIGALRM handler
times a short fixed computation every ``INTERVAL_S`` of wall time.  The
work's wall time, less the gauge's own, divided by the mean reference time
is its cost in units of the reference; times ``NOMINAL_S`` it is the time
the work takes on a machine that runs the reference in ``NOMINAL_S``
(``nominal_seconds``).  Drift that slows the work and the reference alike
cancels, because both are measured at the same moments.

The reference is interpreter-bound integer, bit and dict work, like the
library's determinant loops, then C-level checksums over a buffer, like the
compiled code under imports and numpy.  Interpreted code slows more than
compiled code when the host is busy; in fixed-input ops on a 2-vCPU Xeon,
this mix tracked the op times of all four workloads more closely than
either part alone.  It uses neither qselci nor the workload's inputs, so a
change to the program does not move it.  Python runs the handler between
bytecodes of the main thread, so a long call into numpy delays a sample but
does not lose it.
"""

import signal
import time
import zlib

INTERVAL_S = 0.02
ITERATIONS = 1500
BUFFER = bytes(range(256)) * 768  # 192 KiB
NOMINAL_S = 0.0008  # the reference's time at nominal speed (0.5-1.2 ms on a 2-vCPU Xeon)


def reference_computation():
    bins = {}
    total = 0
    for i in range(ITERATIONS):
        key = (i * 2654435761) & 0xFF
        bins[key] = bins.get(key, 0) + 1
        total += (key ^ i).bit_count()
    return total + len(bins) + zlib.crc32(BUFFER) + zlib.adler32(BUFFER)


def time_reference():
    t0 = time.perf_counter()
    reference_computation()
    return time.perf_counter() - t0


def nominal_seconds(seconds, reference_s):
    """``seconds`` of wall time, measured while the reference took
    ``reference_s``, rescaled to the nominal speed."""
    return seconds / reference_s * NOMINAL_S


class SpeedGauge:
    """Context manager sampling the reference computation during an op.

    With ``in_process=False`` the gauge takes no samples itself and holds
    only those its op's child processes took (``add``).  After the block, ``spent`` is
    the time the samples took and ``mean`` is their mean; a block with no
    samples gets one at its end, which ``spent`` leaves out.
    """

    def __init__(self, in_process=True):
        self.in_process = in_process
        self.samples = []
        self._previous = None

    def _sample(self, _signum, _frame):
        self.samples.append(time_reference())

    def add(self, samples):
        """Add samples a child process took (benchmarks/gauged_cli.py) while
        the block ran: the op's wall time holds their time too."""
        self.samples.extend(samples)

    def __enter__(self):
        self.samples = []
        if self.in_process:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        if self.in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.spent = sum(self.samples)
        if not self.samples:
            self.samples.append(time_reference())
        self.mean = sum(self.samples) / len(self.samples)
        return False

    def nominal(self, wall_s):
        """Wall time of the block just ended (``wall_s``, which holds the
        samples' own time) at nominal speed."""
        return nominal_seconds(wall_s - self.spent, self.mean)
