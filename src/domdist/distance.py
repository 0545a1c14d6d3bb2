"""Distance-based invariants: all-pairs distances, Wiener index, boundary, set eccentricity.

all_pairs_distances builds only what the bounds read: the distance rows,
the pair distances in the layout of the packed r-subset tables, W(G), the
first diametral pair, and the boundary with its set eccentricity.  The set
eccentricity ecc(B) comes from one BFS over the closed masks that starts
from every boundary vertex at once: ecc(B) is the number of levels after
the first, and its witness the lowest vertex of the last level.  It is the
largest entry of the column minimum of the boundary rows, and the lowest
vertex holding it, without reading the rows; when B is every vertex, the
BFS stops at once with ecc(B) = 0 and witness 0.

Two kernels give the rows, the pair distances, the diameter and the
boundary; all_pairs_distances picks one by the order alone:

- n <= graphs._BYTE_MAX_N = 8, where every closed mask fits in one byte:
  _matrix_distances holds the ball of radius k around every vertex as one
  int of n*n bytes and grows all n balls at once, n multiplications per
  radius: a boolean matrix product with every entry in its own byte of one
  int.  The closed masks are spread to bytes through one 256-entry table,
  _SPREAD.  The distances are the sum of the balls' complements, read out
  as one bytes object: the rows by one zip, the pair distances by one
  per-order itemgetter.  The boundary is the rows that hold the diameter.
- n > 8: _bfs_distances runs a BFS from every source and reads each
  level one set bit at a time.  Each eccentricity is the depth its BFS
  ends at.  The matrix is kept off these orders: each of its radius steps
  costs n operations on ints of n*n bytes, and a version of it for any
  order ran 1.3 to 1.8 times as long as the BFS at n = 12 and 16, and 4.6
  to 9.4 times at n = 62, on random trees and sparse random graphs.

Rows are tuples of ints from both kernels, so a distance of 256 or more is
held like any other.

DistanceMatrix and BoundaryInfo are named tuples: immutable, equal to a
plain tuple of the same fields, and hashable.  The order n is a field, so
reading it costs no call.  all_pairs_distances builds them with
tuple.__new__ and every field in order, as bounds builds its report
records, which skips the Python frame of a named tuple's generated
__new__.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, NamedTuple

from .graphs import _BYTE_MAX_N, Graph


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


# entry m spreads the byte m over eight bytes: byte i is bit i of m
_SPREAD = tuple(int.from_bytes(bytes(m >> i & 1 for i in range(8)), "little")
                for m in range(256))

# rows, pair_dists, diam and boundary, as DistanceMatrix and BoundaryInfo hold them
_Distances = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int, tuple[int, ...]]


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """The distance rows, then every invariant from them, and ecc(B) from
    one BFS from the boundary.

    Orders up to _BYTE_MAX_N take _matrix_distances, larger ones
    _bfs_distances; both give the rows as tuples of ints, the pair
    distances, the diameter and the boundary.  Connectivity is guaranteed
    by Graph.
    """
    n = g.n
    masks = g.closed_masks
    if n <= _BYTE_MAX_N:
        rows, pair_dists, diam, boundary = _matrix_distances(masks, n)
    else:
        rows, pair_dists, diam, boundary = _bfs_distances(masks, n)
    # the lowest boundary vertex u starts the first diametral pair, and its
    # first partner v is above u, since a partner is a boundary vertex too
    u = boundary[0]
    # one BFS from all of B, over the closed masks: level holds the
    # vertices at distance r_ecc from B, seen those within it, and reach
    # the closed neighborhood of level
    level = reach = 0
    for b in boundary:
        level |= 1 << b
        reach |= masks[b]
    seen = level
    full = (1 << n) - 1
    r_ecc = 0
    while seen != full:
        level = reach & ~seen
        seen |= level
        r_ecc += 1
        if seen != full:  # the last level reaches no new vertex
            reach = 0
            rest = level
            while rest:
                low = rest & -rest
                reach |= masks[low.bit_length() - 1]
                rest ^= low
    z = (level & -level).bit_length() - 1
    # every field in order: n, d, diam, wiener, pair_dists, diametral_pair,
    # boundary_info
    return tuple.__new__(DistanceMatrix, (
        n, rows, diam, sum(pair_dists), pair_dists, (u, rows[u].index(diam)),
        tuple.__new__(BoundaryInfo, (boundary, r_ecc, z))))


def _bfs_distances(masks: tuple[int, ...], n: int) -> _Distances:
    """Rows, pair distances, diameter and boundary by a BFS from every source.

    Each BFS expands one level per pass: the next level is the union of
    this level's closed neighborhoods minus every vertex already reached,
    and the depth of the last non-empty level is the source's eccentricity.
    A level's vertices are read one set bit at a time, as
    graphs._require_connected reads them.
    """
    rows = []
    ecc = []
    pairs: list[int] = []
    for source in range(n):
        dist = [0] * n
        seen = level = 1 << source
        depth = 0
        while True:
            reach = 0
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
    return (tuple(rows), tuple(pairs), diam,
            tuple([v for v, e in enumerate(ecc) if e == diam]))


def _matrix_distances(masks: tuple[int, ...], n: int) -> _Distances:
    """Rows, pair distances, diameter and boundary of an order
    n <= _BYTE_MAX_N from the balls B_k, all n rows at once.

    B_k is one int of n*n bytes, row v at byte v*n, whose byte (v, u) is
    1 iff d(v, u) <= k.  B_1 is the closed masks spread to bytes, and
    B_{k+1} is the OR over u of column u of B_k, moved to byte 0 of each
    row, times the spread mask of u: row v gains N[u] where u is within k
    of v.  No byte of a product exceeds 1 and no product leaves its row.
    d(v, u) counts the k with byte (v, u) of B_k at 0, so the distances
    are the sum of ONES - B_k over k < diam, where ONES has every byte 1
    and B_diam = ONES.  Each distance is at most n - 1, so no byte carries.
    The boundary is the rows that hold diam.
    """
    ones, low, dist, spread_rows, upper = _matrix_table(n)
    ball = int.from_bytes(b"".join([spread_rows[m] for m in masks]), "little")
    spread = [_SPREAD[m] for m in masks]
    diam = 1
    while ball != ones:
        dist += ones - ball
        step = 0
        for s in spread:
            # column u of the ball at byte 0 of every row, times N[u]
            step |= (ball & low) * s
            ball >>= 8
        ball = step
        diam += 1
    flat = dist.to_bytes(n * n, "little")
    rows = tuple(zip(*[iter(flat)] * n))
    return rows, upper(flat), diam, tuple([v for v, row in enumerate(rows) if diam in row])


@cache
def _matrix_table(n: int) -> tuple[int, int, int, tuple[bytes, ...],
                                   Callable[[bytes], tuple[int, ...]]]:
    """The constants of _matrix_distances at order n <= _BYTE_MAX_N: ONES,
    the byte 0 of every row, ONES - B_0, the n-byte spread of every mask of
    order n, and a getter of the pair distances (u < v, in row order) from
    the matrix's bytes.

    Only _matrix_distances calls it, so the cache keeps at most the 7
    orders 2..8: 510 spread rows, under 5e4 bytes together.
    """
    ones = int.from_bytes(bytes([1]) * (n * n), "little")
    low = int.from_bytes(bytes([1] + [0] * (n - 1)) * n, "little")
    identity = sum(1 << 8 * (n + 1) * v for v in range(n))
    spread_rows = tuple(s.to_bytes(n, "little") for s in _SPREAD[:1 << n])
    upper = [v * n + u for v in range(n) for u in range(v + 1, n)]
    # itemgetter of a single index returns the item itself, not a 1-tuple
    getter = itemgetter(*upper) if len(upper) > 1 else (lambda flat: (flat[1],))
    return ones, low, ones - identity, spread_rows, getter


# public, with no caller in the package: perfbench/tracer.py looks it up by name
def wiener_index(g: Graph, dm: DistanceMatrix | None = None) -> int:
    """Sum of distances over unordered vertex pairs."""
    if dm is None:
        dm = all_pairs_distances(g)
    return dm.wiener


# public, with no caller in the package: perfbench/tracer.py looks it up by name
def boundary_and_set_ecc(g: Graph, dm: DistanceMatrix) -> BoundaryInfo:
    """Boundary vertices (eccentricity == diameter) and their set eccentricity."""
    if dm.n != g.n:
        raise ValueError("distance matrix does not match graph order")
    return dm.boundary_info
