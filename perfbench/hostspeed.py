"""The host's speed, read from a fixed reference kernel timed between items.

On a shared host the same code runs faster or slower from one second to the
next, and a slow spell can last longer than a run.  An item time is the
program's cost times the host's slowness at that moment.  A run therefore
times this kernel, which is pure Python like domdist but is part of the
benchmark and never changes, after every few items, and scales each item
time by REFERENCE_S over the kernel's local time.  Item times are then in
seconds at the reference speed: the speed at which one kernel call takes
REFERENCE_S.  The samples lie outside the item times.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import deque
from itertools import combinations

REFERENCE_S = 6e-4  # one kernel call at the reference speed
# Samples are taken at fixed item counts, not at fixed times, so that every
# pass allocates the same objects in the same order and the cyclic garbage
# collector runs at the same items in each pass.
EVERY = 64          # items between samples: 11 ms of lift-n8, 35 ms of corpus-n8
HALF_WINDOW = 3     # an item's host speed is the median of this many samples on each side

# The Petersen graph with one spoke subdivided: 11 vertices, diameter 3.
_ADJ = (
    (1, 4, 5), (0, 2, 6), (1, 3, 7), (2, 4, 8), (3, 0, 10),
    (0, 7, 8), (1, 8, 9), (2, 9, 5), (3, 5, 6), (6, 7), (4, 9),
)
_ADJ = tuple(tuple(sorted(set(a) | {v for v, b in enumerate(_ADJ) if u in b}))
             for u, a in enumerate(_ADJ))


def kernel() -> int:
    """A fixed amount of interpreter work: BFS, tuples, sets and small loops."""
    n = len(_ADJ)
    rows = []
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in _ADJ[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        rows.append(tuple(dist))
    total = 0
    for a, b, c in combinations(range(n), 3):
        total += max(rows[a][b], rows[b][c], rows[a][c])
    covered = 0
    for chosen in combinations(range(n), 4):
        seen = set(chosen)
        for v in chosen:
            seen.update(_ADJ[v])
        covered += len(seen) == n
    return total * 1000 + covered


def kernel_s() -> float:
    """The time of one kernel call, made right after an untimed one.

    The untimed call loads the kernel's code and data into the caches, so
    the reading depends on the host and not on what the program was doing
    just before: a first call after a pass over a large heap ran about 10%
    slower than the second.
    """
    clock = time.perf_counter
    kernel()
    start = clock()
    kernel()
    return clock() - start


class Sampler:
    """Times the kernel between items, after every `every`-th item.

    Call it with the number of items finished so far; it records that
    position with each sample.
    """

    def __init__(self, every: int = EVERY):
        self.every = every
        self.positions: list[int] = []
        self.kernel_s: list[float] = []

    def __call__(self, done: int) -> None:
        if done % self.every == 0:
            self.positions.append(done)
            self.kernel_s.append(kernel_s())

    def scale(self, n_items: int, half_window: int = HALF_WINDOW) -> list[float]:
        """Per item, REFERENCE_S over the median kernel time of the samples around it."""
        if not self.kernel_s:
            raise ValueError("no kernel samples were taken")
        m = len(self.kernel_s)
        out = []
        cached_at, cached = -1, 0.0
        for item in range(n_items):
            # samples before item `item` have position <= item
            j = bisect.bisect_right(self.positions, item)
            if j != cached_at:
                lo, hi = max(0, j - half_window), min(m, j + half_window)
                if lo >= hi:
                    lo, hi = max(0, m - half_window), m
                cached_at, cached = j, REFERENCE_S / statistics.median(self.kernel_s[lo:hi])
            out.append(cached)
        return out


def speed_scale() -> float:
    """REFERENCE_S over the median of nine kernel calls made now."""
    return REFERENCE_S / statistics.median(kernel_s() for _ in range(9))
