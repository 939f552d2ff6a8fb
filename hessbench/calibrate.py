"""Host-speed calibration: a fixed reference kernel timed before, during and after every pass.

The benchmark's end-to-end times are scaled by how fast this kernel ran at
the time, so that a host whose speed drifts (a shared machine where other
tenants take turns on the same cores) does not show up as a change in the
program.  The kernel does not import hesslab, so no change to the library
moves it; it imitates the two kinds of work the library spends its time on:
a recursive enumeration of proper colorings that counts into dicts of tuples
(as ``dotchar.chromatic_qsym`` does) and Gauss-Jordan elimination over
``Fraction`` (as ``linalg`` does).

``REFERENCE_S`` is a fixed constant, about the kernel's time on the 2-vCPU
machine the baseline was measured on while its host ran fast; a scaled time
reads as seconds on a host that runs the kernel in ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.025
INTERVAL_S = 0.25  # work between two kernel samples inside a pass
NEIGHBOURS = 3  # a stretch of work is scaled by the median of the 2 * NEIGHBOURS samples around it
EDGE_SAMPLES = 4  # kernel samples right before and right after a pass
# Proper colorings with colors 1..6 of the graph joining i < j when j - i < 3,
# i.e. 6 * 5 * 4**4.
KERNEL_COLORINGS = 7680


def colorings(n: int = 6, reach: int = 3) -> int:
    """Proper colorings of the graph joining i < j when j - i < reach, bucketed by usage and ascents."""
    raw: dict[tuple[int, ...], dict[int, int]] = {}
    kappa = [0] * (n + 1)
    usage = [0] * (n + 1)

    def assign(v: int, asc: int) -> None:
        if v > n:
            bucket = raw.setdefault(tuple(usage[1:]), {})
            bucket[asc] = bucket.get(asc, 0) + 1
            return
        for c in range(1, n + 1):
            added = 0
            for i in range(max(1, v - reach + 1), v):
                if kappa[i] == c:
                    break
                added += kappa[i] < c
            else:
                kappa[v] = c
                usage[c] += 1
                assign(v + 1, asc + added)
                usage[c] -= 1
        kappa[v] = 0

    assign(1, 0)
    return sum(sum(bucket.values()) for bucket in raw.values())


def gauss_jordan(m: int = 9) -> list[list[Fraction]]:
    """Reduced row echelon form of a fixed m x (m + 1) matrix over Fraction."""
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(m)] + [Fraction(i)]
        for i in range(m)
    ]
    r = 0
    for c in range(m):
        pivot = next((k for k in range(r, m) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(m):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return rows


def kernel() -> None:
    """One sample of reference work, about REFERENCE_S long."""
    if colorings() != KERNEL_COLORINGS:
        raise AssertionError("calibration kernel miscounted colorings")
    for _ in range(2):
        gauss_jordan()


class Timeline:
    """Kernel samples taken before, between the units of, and after one pass.

    The host's speed changes within a pass as well as between passes, so the
    pass calls between() after each unit of work, and a kernel sample runs
    whenever INTERVAL_S of work has gone by since the last one.  Kernel time
    is not pass time: scaled() counts only the gaps between samples.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self.last = perf_counter()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            kernel()
            self.last = perf_counter()
            self.samples.append((t0, self.last))

    def between(self) -> None:
        if perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def slowdown(self, index: int) -> float:
        """Median kernel time of the samples around samples[index], over REFERENCE_S."""
        near = self.samples[max(0, index - NEIGHBOURS):index + NEIGHBOURS]
        return statistics.median(end - start for start, end in near) / REFERENCE_S

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """Work time between t0 and t1, as measured and scaled to the reference speed.

        Each stretch of work between two kernel samples is divided by the
        slowdown the samples around it show.
        """
        first = next(i for i, (start, _) in enumerate(self.samples) if start >= t0)
        inside = [span for span in self.samples if t0 <= span[0] and span[1] <= t1]
        edges = [t0] + [x for span in inside for x in span] + [t1]
        work = scaled = 0.0
        for j in range(len(inside) + 1):
            gap = edges[2 * j + 1] - edges[2 * j]
            work += gap
            scaled += gap / self.slowdown(first + j)
        return work, scaled
