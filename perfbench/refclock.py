"""A fixed reference kernel that measures how fast the host runs right now.

The shared 2-vCPU host changes speed under other tenants' load: the same
code runs anywhere from 1.0x to 1.6x its best time, in phases from under
a second to over a minute. A run that lands in a slow phase reads slow
whatever the program does. The benchmark therefore times this kernel
just before and just after each timed command (or each set-up build)
and scales the command's time by NOMINAL_S over the mean of the two
kernel times. The result is the command's time in seconds on a host that
runs the kernel in NOMINAL_S, which moves with the program and not with
the host's phase. The raw wall times are kept in the run record.

The kernel is single-threaded, like the ttckit commands, and mixes what
they spend their time on: interpreted Python (loops, float arithmetic,
dict and list work), many numpy calls on arrays of a few hundred
elements, and vectorised passes over larger ones. It never changes, so a
change to the program moves the scaled times by its full amount.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the kernel's time in the fast phase of a shared 2-vCPU x86-64 Linux
# VM with Python 3.11 and numpy 2.4, so scaled times read close to the
# wall times of that phase
NOMINAL_S = 0.1

_MEDIUM = np.linspace(0.5, 1.5, 400).reshape(200, 2)
_LARGE = np.linspace(1.0, 2.0, 50_000)


def kernel() -> float:
    """One pass of fixed work; returns a checksum so nothing is skipped.

    The shares (about 1/6 interpreted Python, 2/3 numpy calls on arrays of
    a few hundred elements, 1/6 passes over 50k elements) are the mix
    whose time best followed the times of `cluster`, `estimate` and
    `collision-map` over 8 minutes of interleaved runs: it cut their
    round-to-round spread from 0.16-0.18 to about 0.10.
    """
    total = 0.0
    table: dict[int, float] = {}
    for i in range(50_000):
        x = (i % 97) * 0.25 + 1.0
        total += math.sqrt(x) * 0.5 - x / (x + 1.0)
        table[i & 255] = total
    rows = [(i, float(i) * 0.5) for i in range(13_000)]
    total += sum(v for i, v in rows if i & 1)
    a = _MEDIUM
    for _ in range(2_000):
        d = a - a.mean(axis=0)
        n = np.hypot(d[:, 0], d[:, 1])
        total += float(np.dot(n, n)) + float((n < np.median(n)).sum())
        a = a[::-1]
    b = _LARGE
    for _ in range(200):
        b = np.sqrt(b * b + 1.0) / (b + 1.0) + 1.0
    return total + float(b.sum()) + len(table)


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class ScaledTimer:
    """Scales measured times by the reference kernel around them.

    start() times the kernel; scale(raw) times it again and scales raw by
    the mean of the two. The kernel after one timed call serves as the one
    before the next, so n calls in a row cost n + 1 kernel passes.
    """

    def __init__(self) -> None:
        kernel()  # warm up: first-call allocations and numpy dispatch caches
        self.start()

    def start(self) -> None:
        self.before = kernel_seconds()

    def scale(self, raw: float) -> float:
        after = kernel_seconds()
        scaled = raw * NOMINAL_S / (0.5 * (self.before + after))
        self.before = after
        return scaled
