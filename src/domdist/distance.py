"""Distance-based invariants: all-pairs BFS, Wiener index, boundary, set eccentricity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop counts with per-vertex eccentricities and the diameter."""

    d: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    diam: int

    @property
    def n(self) -> int:
        return len(self.d)


@dataclass(frozen=True)
class BoundaryInfo:
    """The boundary B (vertices of maximum eccentricity) and its set eccentricity.

    ecc_of_boundary is max_v min_{b in B} d(v, b); witness is the
    lowest-indexed vertex attaining that maximum.
    """

    boundary: tuple[int, ...]
    ecc_of_boundary: int
    witness: int


def _bfs_row(g: Graph, source: int) -> tuple[int, ...]:
    # the next level is the union of this level's closed neighborhoods,
    # minus every vertex already reached
    masks = g.closed_masks
    dist = [0] * g.n
    seen = level = 1 << source
    d = 0
    while level:
        reach = 0
        while level:
            low = level & -level
            v = low.bit_length() - 1
            dist[v] = d
            reach |= masks[v]
            level ^= low
        d += 1
        level = reach & ~seen
        seen |= level
    return tuple(dist)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every source; connectivity is guaranteed by Graph."""
    rows = tuple(_bfs_row(g, v) for v in range(g.n))
    ecc = tuple(max(row) for row in rows)
    return DistanceMatrix(d=rows, ecc=ecc, diam=max(ecc))


def wiener_index(g: Graph, dm: DistanceMatrix | None = None) -> int:
    """Sum of distances over unordered vertex pairs."""
    if dm is None:
        dm = all_pairs_distances(g)
    return sum(sum(row) for row in dm.d) // 2


def average_distance(g: Graph, dm: DistanceMatrix | None = None) -> Fraction:
    """Wiener index divided by n(n-1), kept exact."""
    return Fraction(wiener_index(g, dm), g.n * (g.n - 1))


def boundary_and_set_ecc(g: Graph, dm: DistanceMatrix) -> BoundaryInfo:
    """Boundary vertices (eccentricity == diameter) and their set eccentricity."""
    if dm.n != g.n:
        raise ValueError("distance matrix does not match graph order")
    boundary = tuple(v for v in range(g.n) if dm.ecc[v] == dm.diam)
    best_dist = 0
    witness = 0
    for v in range(g.n):
        to_boundary = min(dm.d[v][b] for b in boundary)
        if to_boundary > best_dist:
            best_dist = to_boundary
            witness = v
    return BoundaryInfo(boundary=boundary, ecc_of_boundary=best_dist, witness=witness)
