"""Distance-based invariants: all-pairs BFS, Wiener index, boundary, set eccentricity.

all_pairs_distances builds only what the bounds read: the BFS rows, the
pair distances in the layout of the packed r-subset tables, W(G), the
first diametral pair, and the boundary with its set eccentricity.  Each
eccentricity is the depth its BFS ends at.  The set eccentricity ecc(B)
is the largest entry of the column minimum of the boundary rows, and its
witness the lowest vertex holding it; when B is every vertex, ecc(B) is 0
without a scan.

Each BFS reads a level's vertices from a byte table, _BYTE_BITS, whose
entry b lists the bits set in the byte b: a level below 256 is one lookup,
which is every level at n <= 8.  A wider level is read one set bit at a
time, lowest first.  Rows stay tuples of ints, so a distance of 256 or
more is held like any other.

DistanceMatrix and BoundaryInfo are named tuples: immutable, equal to a
plain tuple of the same fields, and hashable.  The order n is a field, so
reading it costs no call.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph


class DistanceMatrix(NamedTuple):
    """All-pairs hop counts and every distance invariant the bounds read.

    n is the order, len(d); pair_dists lists d(u, v) for u < v in row order: (0, 1), (0, 2), ...,
    (0, n-1), (1, 2), ..., (n-2, n-1), the layout of the r-subset tables;
    wiener is W(G), the sum of d(u, v) over unordered pairs, so the sum of
    pair_dists; diametral_pair is the lexicographically first pair u < v
    with d(u, v) = diam; boundary_info is the boundary and its set
    eccentricity.  The eccentricity of v is max(d[v]).
    """

    n: int
    d: tuple[tuple[int, ...], ...]
    diam: int
    wiener: int
    pair_dists: tuple[int, ...]
    diametral_pair: tuple[int, int]
    boundary_info: BoundaryInfo


class BoundaryInfo(NamedTuple):
    """The boundary B (vertices of maximum eccentricity) and its set eccentricity.

    ecc_of_boundary is max_v min_{b in B} d(v, b); witness is the
    lowest-indexed vertex attaining that maximum.
    """

    boundary: tuple[int, ...]
    ecc_of_boundary: int
    witness: int


# entry b lists the bits set in the byte b, lowest first
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every source, then every invariant from the rows.

    Each BFS expands one level per pass: the next level is the union of
    this level's closed neighborhoods minus every vertex already reached,
    and the depth of the last non-empty level is the source's eccentricity.
    A level's vertices are read from _BYTE_BITS, or one set bit at a time
    once the level is 256 or more.  Connectivity is guaranteed by Graph.
    """
    masks = g.closed_masks
    n = g.n
    bits = _BYTE_BITS
    rows = []
    ecc = []
    pairs: list[int] = []
    for source in range(n):
        dist = [0] * n
        seen = level = 1 << source
        depth = 0
        while True:
            reach = 0
            if level < 256:
                for v in bits[level]:
                    dist[v] = depth
                    reach |= masks[v]
            else:
                while level:
                    low = level & -level
                    v = low.bit_length() - 1
                    dist[v] = depth
                    reach |= masks[v]
                    level ^= low
            level = reach & ~seen
            if not level:
                break
            depth += 1
            seen |= level
        rows.append(tuple(dist))
        ecc.append(depth)
        pairs += dist[source + 1:]
    diam = max(ecc)
    boundary = tuple(v for v, e in enumerate(ecc) if e == diam)
    # the lowest boundary vertex u starts the first diametral pair, and its
    # first partner v is above u, since a partner is a boundary vertex too
    u = boundary[0]
    if len(boundary) == n:
        # B = V: every vertex is at distance 0 from B.  B never has fewer
        # than two vertices, both ends of a diametral pair.
        r_ecc = z = 0
    else:
        # column v of the boundary rows holds d(b, v) for every b in B
        to_boundary = list(map(min, *(rows[b] for b in boundary)))
        r_ecc = max(to_boundary)
        z = to_boundary.index(r_ecc)
    pair_dists = tuple(pairs)
    # positional, in field order: n, d, diam, wiener, pair_dists,
    # diametral_pair, boundary_info
    return DistanceMatrix(n, tuple(rows), diam, sum(pair_dists), pair_dists,
                          (u, rows[u].index(diam)), BoundaryInfo(boundary, r_ecc, z))


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
