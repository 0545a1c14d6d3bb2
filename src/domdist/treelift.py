"""Spanning trees in which a given minimum dominating set stays minimum.

Construction: every vertex outside M picks its lowest-indexed neighbor in M,
giving a forest of stars centered on M; the stars are then joined with the
lexicographically smallest available graph edges between components.  M still
dominates the tree, and since removing edges can only raise gamma, the tree's
domination number equals the graph's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .domination import ENUMERATION_CAP, gamma_bruteforce_oracle, gamma_exact, is_dominating_set
from .errors import Disconnected, NotAGammaSet
from .graphs import Graph


@dataclass(frozen=True)
class SpanningTreeLift:
    """Edge set of the lifted tree plus the dominator assignment realizing it.

    tree_edges is kept as a sorted edge tuple rather than a Graph so that
    verify_lift can classify invalid (e.g. disconnected) tampered inputs,
    which the Graph constructor would reject outright.
    """

    tree_edges: tuple[tuple[int, int], ...]
    dominator_of: dict[int, int]
    connector_edges: tuple[tuple[int, int], ...]

    def tree(self) -> Graph:
        """Materialize the tree as a Graph (validates it in the process)."""
        n = max(max(e) for e in self.tree_edges) + 1
        return Graph.from_edges(n, self.tree_edges)


@dataclass(frozen=True)
class LiftCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True


def lift_gamma_set_to_spanning_tree(g: Graph, m: Iterable[int]) -> SpanningTreeLift:
    """Build the star-plus-connectors spanning tree for a minimum dominating set.

    Raises NotAGammaSet when m is not dominating or not of minimum size.
    """
    mset = frozenset(m)
    g.check_vertices(mset)
    if not is_dominating_set(g, mset):
        raise NotAGammaSet(f"{sorted(mset)} does not dominate the graph")
    gamma = gamma_exact(g).gamma
    if len(mset) != gamma:
        raise NotAGammaSet(f"{sorted(mset)} has size {len(mset)}, but gamma = {gamma}")

    dominator_of = {
        v: min(g.adj[v] & mset) for v in range(g.n) if v not in mset
    }
    star_edges = sorted((min(v, d), max(v, d)) for v, d in dominator_of.items())

    uf = _UnionFind(g.n)
    for u, v in star_edges:
        uf.union(u, v)
    connectors = []
    for u, v in g.edges():
        if uf.union(u, v):
            connectors.append((u, v))

    tree_edges = tuple(sorted(star_edges + connectors))
    return SpanningTreeLift(
        tree_edges=tree_edges,
        dominator_of=dominator_of,
        connector_edges=tuple(connectors),
    )


def verify_lift(g: Graph, lift: SpanningTreeLift, m: Iterable[int]) -> LiftCheck:
    """Independently re-check every invariant of a lift; never raises on bad lifts.

    Once the tree is a spanning subgraph of g that M dominates,
    gamma(g) <= gamma(tree) <= |M|, so gamma(g) == |M| proves both equalities:
    that is the one solve on success, and gamma(tree) is solved only to name a
    mismatch.  Up to ENUMERATION_CAP vertices the solver is the brute-force
    oracle, which shares no search code with the lift's gamma_exact.
    """
    mset = frozenset(m)
    n = g.n
    graph_edges = set(g.edges())

    for edge in lift.tree_edges:
        if tuple(sorted(edge)) not in graph_edges:
            return LiftCheck(False, "NotSubgraph")
    if len(lift.tree_edges) != n - 1:
        return LiftCheck(False, "NotSpanningTree")
    try:
        # n - 1 edges of g, so connected means a tree; a repeated edge
        # leaves too few distinct edges to connect
        tree = Graph.from_edges(n, lift.tree_edges)
    except Disconnected:
        return LiftCheck(False, "NotSpanningTree")
    if not is_dominating_set(tree, mset):
        return LiftCheck(False, "MNotDominating")

    if set(lift.dominator_of) != set(range(n)) - mset:
        return LiftCheck(False, "BadDominatorMap")
    for v, dom in lift.dominator_of.items():
        if dom not in mset or not tree.has_edge(v, dom):
            return LiftCheck(False, "BadDominatorMap")

    solve = gamma_bruteforce_oracle if n <= ENUMERATION_CAP else gamma_exact
    if solve(g).gamma == len(mset):
        return LiftCheck(True)
    if solve(tree).gamma != len(mset):
        return LiftCheck(False, "TreeGammaMismatch")
    return LiftCheck(False, "GraphGammaMismatch")
