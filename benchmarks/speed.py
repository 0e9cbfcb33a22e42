"""The machine's speed during a run, measured by a fixed reference kernel.

The benchmark runs on shared machines whose speed drifts by 20 to 50 % over
minutes: other tenants' load on the same cores slows every instruction, so
the process's CPU time grows with its wall time.  Pass times taken minutes
apart then differ by more than any change to the library would.

``Sampler`` runs ``kernel`` from a timer signal every ``INTERVAL_S`` seconds
of the timed passes.  Python runs the handler between two bytecodes of the
main thread, so the samples fall inside the library's calls, spread over the
pass, and their time is taken out of the operation times.  A pass's
slowdown is its mean kernel time over ``REF_KERNEL_S``, and the benchmark
divides the pass's operation times by it: the figures are seconds at the
reference speed, and only a change in the library's own work moves them.

The kernel calls nothing in the library.  It mixes the two kinds of work
the library does: interpreted Python loops, and numpy gathers, ``unique``
and small-array calls.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# seconds one kernel call takes at the reference speed: its median over the
# 510 passes of the README's two sets of reference runs, on a 2-core machine
REF_KERNEL_S = 0.0035
INTERVAL_S = 0.1


def _scrambled(count: int, mod: int) -> np.ndarray:
    """Fixed pseudo-random integers in [0, mod), from a multiply-xorshift
    hash: numpy.random would do, but its import alone adds some 6 MB to the
    peak memory the benchmark reports."""
    x = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(29)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(32)
    return (x % np.uint64(mod)).astype(np.int64)


_TABLE = _scrambled(256 * 256, 256).reshape(256, 256)
_INDEX = _scrambled(2 * 8192, 256).reshape(2, 8192)
_ROWS = _scrambled(200 * 24, 2).reshape(200, 24)


def kernel() -> int:
    """A fixed amount of mixed work; the same on every call."""
    s = 0
    seen = {}
    for i in range(12000):
        s += (i * i) % 7
        seen[i & 255] = s
    v = _INDEX[0, :32]
    for _ in range(150):
        v = _TABLE[v, v[::-1]] ^ v
    return s + int(_TABLE[_INDEX[0], _INDEX[1]].sum()) + np.unique(_ROWS, axis=0).shape[0] + int(v.sum())


def slowdown(kernel_seconds: float, calls: int) -> float:
    """How many times slower than the reference speed the kernel ran."""
    return kernel_seconds / calls / REF_KERNEL_S


class Sampler:
    """Runs ``kernel`` every INTERVAL_S seconds while active.

    ``busy`` is the time spent in the kernel so far and ``calls`` the number
    of kernel calls; a caller takes differences of both around what it times.
    """

    def __init__(self):
        self.busy = 0.0
        self.calls = 0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.busy += time.perf_counter() - t0
        self.calls += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
