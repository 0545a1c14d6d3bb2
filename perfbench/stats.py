"""Order statistics shared by the runner, the spread check and the tests."""

from __future__ import annotations

import math

# Candidate tail percentiles, highest last.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999)
MIN_ABOVE = 10  # samples a tail percentile must have above it


def rank(p: float, n: int) -> int:
    """Nearest rank (1-based) of percentile p among n sorted samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_above(p: float, n: int) -> int:
    return n - rank(p, n)


def item_best(passes: list[list[float]]) -> list[float]:
    """Each item's shortest time over passes that handle the same items in order."""
    return [min(times) for times in zip(*passes)]


def expected_best(passes: list[list[float]], k: int) -> list[float]:
    """Each item's shortest time over k passes, averaged over every choice of k.

    Unlike a plain minimum, which reads lower the more passes it is taken
    over, this has the same expected value however many passes a run makes
    (at least k), and it still uses every pass.  The i-th shortest of p times
    is the minimum of C(p - 1 - i, k - 1) of the C(p, k) choices.
    """
    p = len(passes)
    if p < k:
        raise ValueError(f"{p} passes cannot give a shortest time over {k}")
    weights = [math.comb(p - 1 - i, k - 1) / math.comb(p, k) for i in range(p)]
    return [sum(w * t for w, t in zip(weights, sorted(times))) for times in zip(*passes)]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_ABOVE of n samples above it.

    The runner applies this to one time per item of a workload, however
    many passes a run makes, so a faster program that fits more passes into
    a run is measured at the same percentile.
    """
    fitting = [p for p in PERCENTILE_LADDER if samples_above(p, n) >= MIN_ABOVE]
    if not fitting:
        raise ValueError(f"{n} samples cannot put {MIN_ABOVE} above any percentile")
    return fitting[-1]


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[rank(p, len(ordered)) - 1]
