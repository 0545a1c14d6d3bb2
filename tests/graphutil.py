"""Small-graph builders and independent oracles for the tests.

The oracles deliberately avoid the package's BFS/solver code paths:
distances come from exhaustive simple-path enumeration (or networkx), so a
matching value really is independent confirmation.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx

from domdist.graphs import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def spider(*leg_lengths: int) -> Graph:
    """Center 0 with one path of each given length attached."""
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r*cols + c at row r, column c."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph.from_edges(rows * cols, edges)


def random_tree(n: int, seed: int) -> Graph:
    """A random recursive tree: vertex v joins a uniform earlier vertex."""
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def distance_by_path_enumeration(g: Graph, s: int, t: int) -> int:
    """Length of the shortest s-t path found by enumerating simple paths."""
    if s == t:
        return 0
    best = g.n  # any simple path is shorter than n edges
    stack = [(s, {s}, 0)]
    while stack:
        v, visited, length = stack.pop()
        if length >= best:
            continue
        for u in g.adj[v]:
            if u == t:
                best = min(best, length + 1)
            elif u not in visited:
                stack.append((u, visited | {u}, length + 1))
    return best


def distance_matrix_by_enumeration(g: Graph) -> list[list[int]]:
    return [
        [distance_by_path_enumeration(g, s, t) for t in range(g.n)]
        for s in range(g.n)
    ]


def max_pair_sum_by_enumeration(g: Graph, r: int) -> int:
    """Exhaustive max over r-subsets of summed pairwise networkx distances."""
    dist = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
    return max(
        sum(dist[u][v] for u, v in combinations(subset, 2))
        for subset in combinations(range(g.n), r)
    )


def first_diametral_pair_by_scan(d: list[list[int]]) -> tuple[int, int]:
    """The minimum pair (u, v), u < v, with d(u, v) equal to the diameter."""
    n = len(d)
    diam = max(map(max, d))
    return min((u, v) for u in range(n) for v in range(u + 1, n) if d[u][v] == diam)


def boundary_by_scan(d: list[list[int]]) -> tuple[tuple[int, ...], int, int]:
    """(boundary, ecc(B), lowest vertex at distance ecc(B) from B) by plain loops."""
    n = len(d)
    ecc = [max(row) for row in d]
    diam = max(ecc)
    boundary = tuple(v for v in range(n) if ecc[v] == diam)
    best_dist = 0
    witness = 0
    for v in range(n):
        to_boundary = min(d[v][b] for b in boundary)
        if to_boundary > best_dist:
            best_dist = to_boundary
            witness = v
    return boundary, best_dist, witness
