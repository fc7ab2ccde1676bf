"""Host pace: a fixed kernel timed between ops, to take the host's drift out of op times.

The benchmark's host is shared.  Its speed drifts by tens of per cent over
seconds to minutes, and raw op times follow.  ``Pace`` times a fixed
kernel, which calls nothing from archvar, in short bursts between the timed
ops.  An op's *paced* time is its wall time times ``ref_s`` over the median
kernel time within ``WINDOW_S`` of the op.  It reads in milliseconds of a
host on which the kernel takes ``ref_s``: a change to archvar moves it, a
change in the host's speed moves it much less.

The kernel does the kind of work archvar does: it hashes uint64 counters as
a counter-based generator does, turns them into doubles, takes a log and a
square root, and sums the rows a mask selects, over arrays larger than the
L2 cache.  It allocates nothing when it runs: with fresh temporaries its
time depended on the process's allocator state, and so on the workload
(4 ms after the mc_large_n studies, 7.5 ms after the var_grid calls).
Measured against a fixed set of archvar ops over minutes of drift, its
time moved with theirs; an interpreter-bound kernel of Python loops on
64-element arrays moved about twice as much as the ops did.
"""
from __future__ import annotations

import bisect
import time
from typing import Callable

import numpy as np

ROWS = 200_000      # the kernel's rows: 1.6 MB an array
REF_S = 4.5e-3      # about the kernel's median on the 2-core host the bounds were set on
EVERY_S = 0.5       # a burst after an op when this long has passed since the last
SHARE = 0.03        # a burst takes about this share of the time since the last
MIN_SAMPLES = 3     # kept samples per burst; one more runs first to warm the caches
WINDOW_S = 1.0      # an op is paced by the samples within this distance of it


def make_kernel(rows: int = ROWS) -> Callable[[], float]:
    keys = np.arange(rows, dtype=np.uint64)
    z, t = np.empty_like(keys), np.empty_like(keys)
    u, x = np.empty(rows), np.empty(rows)
    mask = np.empty(rows, dtype=bool)
    m1, m2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    s30, s27, s11 = np.uint64(30), np.uint64(27), np.uint64(11)

    def run():
        # every array is allocated once, above: the kernel's time must not
        # depend on the state archvar leaves the allocator in
        np.multiply(keys, m1, out=z)
        np.bitwise_xor(z, np.right_shift(z, s30, out=t), out=z)
        np.multiply(z, m2, out=z)
        np.bitwise_xor(z, np.right_shift(z, s27, out=t), out=z)
        np.right_shift(z, s11, out=t)
        np.copyto(u, t, casting="unsafe")
        np.multiply(np.add(u, 0.5, out=u), 2.0 ** -53, out=u)
        np.sqrt(np.negative(np.log(u, out=x), out=x), out=x)
        return float(np.sum(x, where=np.greater(u, 0.5, out=mask)))
    return run


class Pace:
    """Kernel samples taken in bursts between ops, with their start times."""

    def __init__(self, kernel: Callable[[], object] | None = None, ref_s: float = REF_S):
        self.kernel = kernel or make_kernel()
        self.ref_s = ref_s
        self.at = []
        self.took = []
        self.last = time.perf_counter()

    def burst(self, force: bool = False, samples: int = MIN_SAMPLES):
        """Time the kernel if ``EVERY_S`` has passed since the last burst."""
        gap = time.perf_counter() - self.last
        if gap < EVERY_S and not force:
            return
        spent, k = 0.0, 0
        while k <= samples or spent < SHARE * gap:
            t0 = time.perf_counter()
            self.kernel()
            dt = time.perf_counter() - t0
            if k:
                self.at.append(t0)
                self.took.append(dt)
            spent += dt
            k += 1
        self.last = time.perf_counter()

    def scale(self, start: float, end: float) -> float:
        """Reference over local kernel time, for an interval between bursts."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no pace sample near a timed interval")
        return self.ref_s / float(np.median(self.took[lo:hi]))
