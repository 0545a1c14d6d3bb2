"""Spanning trees in which a given minimum dominating set stays minimum.

Construction: every vertex outside M picks its lowest-indexed neighbor in M
(the lowest bit of its closed-neighborhood mask inside M), giving a forest of
stars centered on M; the stars are then joined with the lexicographically
smallest graph edges between components, tracked as one component label per
vertex.  M still dominates the tree, and since removing edges can only raise
gamma, the tree's domination number equals the graph's.  The lift reads
gamma(G) from gamma_exact, which solves it once per Graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .domination import ENUMERATION_CAP, gamma_bruteforce_oracle, gamma_exact, is_dominating_set
from .errors import Disconnected, NotAGammaSet, VertexOutOfRange
from .graphs import Graph


@dataclass(frozen=True)
class SpanningTreeLift:
    """Edge set of the lifted tree plus the dominator assignment realizing it.

    dominator_of holds a (vertex, dominator) pair for every vertex outside
    M, sorted by vertex, so a lift is a hashable value.  tree_edges is kept
    as a sorted edge tuple rather than a Graph so that verify_lift can
    classify invalid (e.g. disconnected) tampered inputs, which the Graph
    constructor would reject outright.
    """

    tree_edges: tuple[tuple[int, int], ...]
    dominator_of: tuple[tuple[int, int], ...]
    connector_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LiftCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def lift_gamma_set_to_spanning_tree(g: Graph, m: Iterable[int]) -> SpanningTreeLift:
    """Build the star-plus-connectors spanning tree for a minimum dominating set.

    Raises NotAGammaSet when m is not dominating or not of minimum size, and
    VertexOutOfRange when a member of m is no int of 0..n-1.
    """
    try:
        mset = frozenset(m)
    except TypeError:  # an unhashable member
        raise VertexOutOfRange(f"a member of M is no int of 0..{g.n - 1}") from None
    if not is_dominating_set(g, mset):
        raise NotAGammaSet(f"{sorted(mset)} does not dominate the graph")
    gamma = gamma_exact(g).gamma
    if len(mset) != gamma:
        raise NotAGammaSet(f"{sorted(mset)} has size {len(mset)}, but gamma = {gamma}")

    in_m = 0
    for v in mset:
        in_m |= 1 << v
    # label[v] names v's component by a vertex of M; members[c] is the vertex
    # mask of the component named c
    label = list(range(g.n))
    members = {c: 1 << c for c in mset}
    dominator_of = []
    for v, mask in enumerate(g.closed_masks):
        if not in_m >> v & 1:
            options = mask & in_m
            d = label[v] = (options & -options).bit_length() - 1
            dominator_of.append((v, d))
            members[d] |= 1 << v
    star_edges = [(min(v, d), max(v, d)) for v, d in dominator_of]

    # the lexicographically first edge leaving a component joins it to
    # another, until one component is left
    connectors = []
    for u, mask in enumerate(g.closed_masks):
        if len(members) == 1:
            break
        while across := mask & (-2 << u) & ~members[label[u]]:
            v = (across & -across).bit_length() - 1
            connectors.append((u, v))
            keep, drop = label[u], label[v]
            members[keep] |= members.pop(drop)
            label = [keep if c == drop else c for c in label]

    tree_edges = tuple(sorted(star_edges + connectors))
    return SpanningTreeLift(
        tree_edges=tree_edges,
        dominator_of=tuple(dominator_of),
        connector_edges=tuple(connectors),
    )


def verify_lift(g: Graph, lift: SpanningTreeLift, m: Iterable[int]) -> LiftCheck:
    """Independently re-check every invariant of a lift; never raises on bad lifts.

    Once the tree is a spanning subgraph of g that M dominates,
    gamma(g) <= gamma(tree) <= |M|, so gamma(g) == |M| proves both equalities:
    that is the one solve on success, and gamma(tree) is solved only to name a
    mismatch.  Up to ENUMERATION_CAP vertices the solver is the brute-force
    oracle, which shares no search code with the lift's gamma_exact and never
    reads the gamma kept on g; above the cap it is gamma_exact itself.  Tree
    edges and M are checked to be ints of 0..n-1 before any mask is read, so
    malformed input gives NotSubgraph or MNotDominating instead of an
    exception.
    """
    try:
        mset = frozenset(m)
    except TypeError:  # an unhashable member
        return LiftCheck(False, "MNotDominating")
    n = g.n
    tree_masks = [1 << v for v in range(n)]
    for edge in lift.tree_edges:
        try:
            u, v = edge
            if not g.has_edge(u, v):
                return LiftCheck(False, "NotSubgraph")
        except (TypeError, ValueError):  # not a pair
            return LiftCheck(False, "NotSubgraph")
        tree_masks[u] |= 1 << v
        tree_masks[v] |= 1 << u
    if len(lift.tree_edges) != n - 1:
        return LiftCheck(False, "NotSpanningTree")
    try:
        # n - 1 edges of g, so connected means a tree; a repeated edge
        # leaves too few distinct edges to connect
        tree = Graph(n, tuple(tree_masks))
    except Disconnected:
        return LiftCheck(False, "NotSpanningTree")
    try:
        if not is_dominating_set(tree, mset):
            return LiftCheck(False, "MNotDominating")
    except VertexOutOfRange:
        return LiftCheck(False, "MNotDominating")

    try:  # each vertex outside M once, in order, with a tree neighbor in M
        if [v for v, _ in lift.dominator_of] != sorted(set(range(n)) - mset):
            return LiftCheck(False, "BadDominatorMap")
        for v, dom in lift.dominator_of:
            if dom not in mset or not tree.has_edge(v, dom):
                return LiftCheck(False, "BadDominatorMap")
    except (TypeError, ValueError):  # a malformed pair
        return LiftCheck(False, "BadDominatorMap")

    solve = gamma_bruteforce_oracle if n <= ENUMERATION_CAP else gamma_exact
    if solve(g).gamma == len(mset):
        return LiftCheck(True)
    if solve(tree).gamma != len(mset):
        return LiftCheck(False, "TreeGammaMismatch")
    return LiftCheck(False, "GraphGammaMismatch")
