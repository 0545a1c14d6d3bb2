"""Exact domination number solvers.

Closed neighborhoods are fixed-width bit masks over the vertices, so a
domination test is a mask union.  gamma_exact runs a branch-and-bound on the
set-cover formulation, pruned only by a counting bound;
gamma_bruteforce_oracle enumerates subsets by increasing size and shares no
code with the solver beyond the masks, which keeps it useful as an
independent check.  The masks are built once per Graph (Graph.closed_masks).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import TooLarge
from .graphs import Graph

ENUMERATION_CAP = 20  # guard against runaway subset enumeration


@dataclass(frozen=True)
class DominationResult:
    """gamma plus one witness set."""

    gamma: int
    witness: tuple[int, ...]


def closed_neighborhood_masks(g: Graph) -> tuple[int, ...]:
    """Bit mask of N[v] for every vertex v, shared by every caller for g."""
    return g.closed_masks


def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff the closed neighborhoods of s cover every vertex."""
    vertices = list(s)
    g.check_vertices(vertices)
    masks = closed_neighborhood_masks(g)
    covered = 0
    for v in vertices:
        covered |= masks[v]
    return covered == (1 << g.n) - 1


def _greedy_cover(n: int, masks: Sequence[int], full: int) -> list[int]:
    chosen: list[int] = []
    covered = 0
    while covered != full:
        best_v = -1
        best_gain = 0
        for v in range(n):
            gain = (masks[v] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen.append(best_v)
        covered |= masks[best_v]
    return chosen


def gamma_exact(g: Graph) -> DominationResult:
    """Exact gamma via branch-and-bound set cover over closed neighborhoods.

    Branching: take an uncovered vertex with the fewest coverage options
    (its closed neighborhood; ties to the lowest index) and branch on which
    neighbor covers it.  A greedy cover seeds the incumbent.  A branch is cut
    when |chosen| + ceil(|uncovered| / max gain) reaches the incumbent, where
    max gain is the most uncovered vertices one closed neighborhood covers.
    """
    n = g.n
    masks = closed_neighborhood_masks(g)
    full = (1 << n) - 1

    greedy = _greedy_cover(n, masks, full)
    best_size = len(greedy)
    best_set = tuple(sorted(greedy))

    chosen: list[int] = []

    def dfs(covered: int) -> None:
        nonlocal best_size, best_set
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = tuple(sorted(chosen))
            return
        uncovered = full & ~covered
        max_gain = max((m & uncovered).bit_count() for m in masks)
        if len(chosen) + -(-uncovered.bit_count() // max_gain) >= best_size:
            return
        # smallest closed neighborhood among uncovered vertices, lowest index first
        branch_vertex = -1
        branch_options = n + 2
        for v, m in enumerate(masks):
            if uncovered >> v & 1 and m.bit_count() < branch_options:
                branch_options = m.bit_count()
                branch_vertex = v
        options = masks[branch_vertex]
        while options:  # the members of N[branch_vertex], in increasing order
            low = options & -options
            u = low.bit_length() - 1
            chosen.append(u)
            dfs(covered | masks[u])
            chosen.pop()
            options ^= low

    dfs(0)
    return DominationResult(gamma=best_size, witness=best_set)


def gamma_bruteforce_oracle(g: Graph, max_n: int = ENUMERATION_CAP) -> DominationResult:
    """Exhaustive subset search in increasing size order.

    Independent of gamma_exact's search; the first dominating set found is
    the lexicographically least one of minimum size.
    """
    if g.n > max_n:
        raise TooLarge(f"n={g.n} exceeds enumeration cap {max_n}")
    masks = closed_neighborhood_masks(g)
    full = (1 << g.n) - 1
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            covered = 0
            for v in combo:
                covered |= masks[v]
            if covered == full:
                return DominationResult(gamma=k, witness=combo)
    raise AssertionError("the full vertex set always dominates")


def enumerate_min_dominating_sets(g: Graph, max_n: int = ENUMERATION_CAP) -> list[tuple[int, ...]]:
    """All dominating sets of size exactly gamma, in lexicographic order."""
    if g.n > max_n:
        raise TooLarge(f"n={g.n} exceeds enumeration cap {max_n}")
    gamma = gamma_exact(g).gamma
    masks = closed_neighborhood_masks(g)
    full = (1 << g.n) - 1
    found = []
    for combo in combinations(range(g.n), gamma):
        covered = 0
        for v in combo:
            covered |= masks[v]
        if covered == full:
            found.append(combo)
    return found
