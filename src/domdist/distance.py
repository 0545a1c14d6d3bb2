"""Distance-based invariants: all-pairs BFS, Wiener index, boundary, set eccentricity."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .graphs import Graph


@dataclass(frozen=True, slots=True)
class DistanceMatrix:
    """All-pairs hop counts and every distance invariant the bounds read.

    pair_dists lists d(u, v) for u < v in row order: (0, 1), (0, 2), ...,
    (0, n-1), (1, 2), ..., (n-2, n-1), the layout of the r-subset tables;
    wiener is W(G), the sum of d(u, v) over unordered pairs, so the sum of
    pair_dists; diametral_pair is the lexicographically first pair u < v
    with d(u, v) = diam; boundary_info is the boundary and its set
    eccentricity.  The eccentricity of v is max(d[v]).
    """

    d: tuple[tuple[int, ...], ...]
    diam: int
    wiener: int
    pair_dists: tuple[int, ...]
    diametral_pair: tuple[int, int]
    boundary_info: BoundaryInfo

    @property
    def n(self) -> int:
        return len(self.d)


@dataclass(frozen=True, slots=True)
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
    """BFS from every source, then every invariant from the rows.

    The eccentricities give diam and the boundary and are not kept.
    Connectivity is guaranteed by Graph.
    """
    rows = tuple(_bfs_row(g, v) for v in range(g.n))
    ecc = tuple(map(max, rows))
    diam = max(ecc)
    boundary = tuple(v for v, e in enumerate(ecc) if e == diam)
    # the lowest boundary vertex u starts the first diametral pair, and its
    # first partner v is above u, since a partner is a boundary vertex too
    u = boundary[0]
    # column v of the boundary rows holds d(b, v) for every b in B
    to_boundary = list(map(min, zip(*(rows[b] for b in boundary))))
    r_ecc = max(to_boundary)
    pair_dists = tuple(chain.from_iterable(row[v + 1:] for v, row in enumerate(rows)))
    return DistanceMatrix(
        d=rows,
        diam=diam,
        wiener=sum(pair_dists),
        pair_dists=pair_dists,
        diametral_pair=(u, rows[u].index(diam)),
        boundary_info=BoundaryInfo(boundary, r_ecc, to_boundary.index(r_ecc)),
    )


def wiener_index(g: Graph, dm: DistanceMatrix | None = None) -> int:
    """Sum of distances over unordered vertex pairs."""
    if dm is None:
        dm = all_pairs_distances(g)
    return dm.wiener


def boundary_and_set_ecc(g: Graph, dm: DistanceMatrix) -> BoundaryInfo:
    """Boundary vertices (eccentricity == diameter) and their set eccentricity."""
    if dm.n != g.n:
        raise ValueError("distance matrix does not match graph order")
    return dm.boundary_info
