"""Exact domination number solvers.

Closed neighborhoods are fixed-width bit masks over the vertices, so a
domination test is a mask union.  gamma_exact runs a branch-and-bound on the
set-cover formulation, pruned only by a packing bound (vertices whose
closed neighborhoods are pairwise disjoint each need their own dominator);
gamma_bruteforce_oracle enumerates subsets by increasing size.  The oracle
shares its subset loop, _dominating_sets, only with
enumerate_min_dominating_sets, and nothing but the masks with the solver,
which keeps it useful as an independent check.  The masks are the Graph
itself (Graph.closed_masks), and gamma_exact keeps its result on the Graph,
so every caller that asks for the gamma of one Graph shares one solve; the
oracle never reads that result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import TooLarge
from .graphs import Graph

ENUMERATION_CAP = 20  # guard against runaway subset enumeration


@dataclass(frozen=True, slots=True)
class DominationResult:
    """gamma plus one witness set (slotted: every solved Graph keeps one)."""

    gamma: int
    witness: tuple[int, ...]


# public, with no caller in the package: perfbench/tracer.py looks it up by name
def closed_neighborhood_masks(g: Graph) -> tuple[int, ...]:
    """Bit mask of N[v] for every vertex v: the public name of g.closed_masks."""
    return g.closed_masks


def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff the closed neighborhoods of s cover every vertex."""
    vertices = list(s)
    g.check_vertices(vertices)
    masks = g.closed_masks
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

    Solved once per Graph: the result is kept on g and returned by every
    later call.

    Branching: take an uncovered vertex with the fewest coverage options
    (its closed neighborhood; ties to the lowest index) and branch on which
    neighbor covers it, lowest first.  A greedy cover seeds the incumbent.  A
    branch is cut by a packing bound: walking the uncovered vertices in
    that same order, keep each one whose closed neighborhood misses those
    of the vertices kept so far.  The kept vertices are a 2-packing (Meir &
    Moon, Pacific J. Math. 61, 1975): no vertex dominates two of them and no
    chosen vertex dominates any, so a branch is cut as soon as
    |chosen| + kept reaches the incumbent.  The bound never cuts a branch
    that holds a smaller set, so the witness is the first minimum set in
    preorder, or the greedy set when that is already minimum.  A greedy set
    of at most 2 vertices is returned without a search: greedy first takes
    a vertex of the largest closed degree, which dominates every vertex
    when gamma = 1, so a greedy set of 2 proves gamma = 2.  The search is a
    loop over an explicit stack, so its depth is not bounded by the
    recursion limit.
    """
    if g._gamma is None:
        object.__setattr__(g, "_gamma", _branch_and_bound(g))
    return g._gamma


def _branch_and_bound(g: Graph) -> DominationResult:
    n = g.n
    masks = g.closed_masks
    full = (1 << n) - 1

    greedy = _greedy_cover(n, masks, full)
    best_size = len(greedy)
    best_set = tuple(sorted(greedy))
    if best_size <= 2:
        # greedy first takes a vertex of the largest closed degree, so it
        # ends after one vertex when gamma = 1: a cover of 2 is minimum too
        return DominationResult(gamma=best_size, witness=best_set)

    # the vertices by closed degree, ties to the lowest index (sorted is
    # stable): the first uncovered one is the branching vertex, and the
    # packing takes them in this order
    order = sorted(range(n), key=[m.bit_count() for m in masks].__getitem__)
    # (covered mask, chosen) nodes; children pushed highest first pop in preorder
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = tuple(sorted(chosen))
            continue
        room = best_size - len(chosen)
        kept = packed = options = 0
        for v in order:
            if not covered >> v & 1:
                m = masks[v]
                if not m & packed:
                    if not kept:  # the branching vertex
                        options = m
                    packed |= m
                    kept += 1
                    if kept >= room:
                        break
        if kept >= room:
            continue
        while options:  # the members of N[branch vertex], in decreasing order
            u = options.bit_length() - 1
            child = covered | masks[u]
            # a child that leaves a vertex uncovered keeps a packing of at
            # least one, so with room <= 2 only a dominating child can win
            if room > 2 or child == full:
                stack.append((child, (*chosen, u)))
            options ^= 1 << u
    return DominationResult(gamma=best_size, witness=best_set)


def _dominating_sets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """The dominating k-sets of g, in itertools.combinations order."""
    masks = g.closed_masks
    full = (1 << g.n) - 1
    for combo in combinations(range(g.n), k):
        covered = 0
        for v in combo:
            covered |= masks[v]
        if covered == full:
            yield combo


def gamma_bruteforce_oracle(g: Graph) -> DominationResult:
    """Exhaustive subset search in increasing size order.

    Independent of gamma_exact's search; the first dominating set found is
    the lexicographically least one of minimum size.
    """
    if g.n > ENUMERATION_CAP:
        raise TooLarge(f"n={g.n} exceeds enumeration cap {ENUMERATION_CAP}")
    for k in range(1, g.n + 1):
        for witness in _dominating_sets(g, k):
            return DominationResult(gamma=k, witness=witness)
    raise AssertionError("the full vertex set always dominates")


def enumerate_min_dominating_sets(g: Graph) -> list[tuple[int, ...]]:
    """All dominating sets of size exactly gamma, in lexicographic order."""
    if g.n > ENUMERATION_CAP:
        raise TooLarge(f"n={g.n} exceeds enumeration cap {ENUMERATION_CAP}")
    return list(_dominating_sets(g, gamma_exact(g).gamma))
