import hashlib
import json
import sys
import time
from itertools import combinations
from math import ceil

import pytest
from hypothesis import given, settings

from domdist.domination import (
    DominationResult,
    _greedy_cover,
    enumerate_min_dominating_sets,
    gamma_bruteforce_oracle,
    gamma_exact,
    is_dominating_set,
)
from domdist.errors import TooLarge, VertexOutOfRange
from domdist.graphs import Graph, parse_edgelist
from domdist.harness import COUNTEREXAMPLE_EDGES
from perfbench.inputs import large_mixed_blocks
from perfbench.workloads import ilp_gamma

from conftest import connected_graphs
from graphutil import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    shuffled_random_tree,
    spider,
    star_graph,
    to_networkx,
)

# sha256 of the compact JSON list of [gamma, witness] over the 40 large-mixed
# graphs of seed 11, recorded from the search with the counting bound
LARGE_MIXED_SEED11_GAMMA_SHA256 = (
    "ce46ac12f648cfe0993dc34abc7d7f426eb433dc50e2f3d15a51d11d2366c3c1")


class TestIsDominatingSet:
    def test_star_center(self):
        assert is_dominating_set(star_graph(3), {0})

    def test_p4_single_interior_vertex_fails(self):
        assert not is_dominating_set(path_graph(4), {1})  # vertex 3 uncovered

    def test_counterexample_pair(self):
        g = Graph.from_edges(6, COUNTEREXAMPLE_EDGES)
        assert is_dominating_set(g, {4, 5})

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            is_dominating_set(path_graph(3), {0, 7})

    def test_empty_set_never_dominates(self):
        assert not is_dominating_set(path_graph(2), set())


class TestGammaExact:
    def test_star(self):
        assert gamma_exact(star_graph(5)).gamma == 1

    def test_p4(self):
        res = gamma_exact(path_graph(4))
        assert res.gamma == 2
        assert is_dominating_set(path_graph(4), res.witness)

    def test_three_legged_spider(self):
        # oracle-confirmed below; the triple bound forces gamma >= 24/6 = 4
        res = gamma_exact(spider(4, 4, 4))
        assert res.gamma == 4
        assert len(res.witness) == 4

    def test_witness_always_dominates(self):
        for g in (path_graph(7), cycle_graph(9), complete_graph(5), spider(2, 3, 4)):
            res = gamma_exact(g)
            assert is_dominating_set(g, res.witness)
            assert len(res.witness) == res.gamma

    def test_deterministic(self):
        g = cycle_graph(9)
        assert gamma_exact(g) == gamma_exact(g)

    # witnesses recorded from the recursive search this one replaced: they
    # pin the branching order, where a different order finds another set
    @pytest.mark.parametrize("build, witness", [
        (lambda: grid_graph(4, 5), (0, 3, 6, 10, 14, 17)),
        (lambda: grid_graph(5, 6), (0, 4, 8, 12, 17, 21, 25, 28)),
        (lambda: spider(4, 4, 4), (0, 3, 7, 11)),
        (lambda: random_tree(40, seed=7),
         (1, 2, 3, 6, 7, 8, 9, 12, 14, 17, 18, 20, 26, 34)),
    ], ids=["grid4x5", "grid5x6", "spider444", "tree40"])
    def test_witness_pinned_above_n8(self, build, witness):
        assert gamma_exact(build()).witness == witness

    def test_large_mixed_witnesses_pinned(self):
        blocks, _ = large_mixed_blocks(11)
        solved = [gamma_exact(parse_edgelist(block)) for block in blocks]
        text = json.dumps([[r.gamma, list(r.witness)] for r in solved], separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == LARGE_MIXED_SEED11_GAMMA_SHA256

    def test_shuffled_random_tree_62_is_fast(self):
        # a search cut by a counting bound took 43-61 s on this tree; a tree
        # has a 2-packing as large as gamma (Meir & Moon), so packing cuts early
        g = shuffled_random_tree(62, seed=1)
        start = time.perf_counter()
        res = gamma_exact(g)
        assert time.perf_counter() - start < 1.0
        assert res == DominationResult(24, (3, 4, 7, 8, 10, 11, 12, 14, 16, 18, 20, 22, 23,
                                            24, 25, 27, 28, 30, 33, 34, 35, 41, 42, 44))
        assert is_dominating_set(g, res.witness)

    def test_depth_not_bounded_by_recursion_limit(self):
        g = spider(*[2] * 10)  # each leg needs its own dominator: gamma = 10
        limit = sys.getrecursionlimit()
        depth = 1  # the interpreter refuses a limit at or below its current depth
        try:
            while True:
                try:
                    sys.setrecursionlimit(depth + 1)
                    break
                except RecursionError:
                    depth += 1
            sys.setrecursionlimit(depth + 5)
            result = gamma_exact(g)
        finally:
            sys.setrecursionlimit(limit)
        assert result.gamma == 10


class TestBruteforceOracle:
    def test_k2(self):
        assert gamma_bruteforce_oracle(path_graph(2)).gamma == 1

    def test_c6(self):
        res = gamma_bruteforce_oracle(cycle_graph(6))
        assert res.gamma == 2
        assert res.witness == (0, 3)

    def test_p7(self):
        assert gamma_bruteforce_oracle(path_graph(7)).gamma == 3

    def test_too_large_guard(self):
        with pytest.raises(TooLarge):
            gamma_bruteforce_oracle(path_graph(21))

    def test_witness_is_lexicographically_least(self):
        g = path_graph(4)
        res = gamma_bruteforce_oracle(g)
        candidates = [
            c for c in combinations(range(4), res.gamma) if is_dominating_set(g, c)
        ]
        assert res.witness == candidates[0]

    def test_path_and_cycle_closed_forms(self):
        for n in range(2, 13):
            assert gamma_bruteforce_oracle(path_graph(n)).gamma == ceil(n / 3)
        for n in range(3, 13):
            assert gamma_bruteforce_oracle(cycle_graph(n)).gamma == ceil(n / 3)


class TestEnumerateMinSets:
    def test_star_center_only(self):
        assert enumerate_min_dominating_sets(star_graph(3)) == [(0,)]

    def test_triangle_all_singletons(self):
        assert enumerate_min_dominating_sets(complete_graph(3)) == [(0,), (1,), (2,)]

    def test_p4_all_four(self):
        assert enumerate_min_dominating_sets(path_graph(4)) == [
            (0, 2), (0, 3), (1, 2), (1, 3),
        ]

    def test_every_listed_set_dominates(self):
        g = cycle_graph(7)
        sets = enumerate_min_dominating_sets(g)
        gamma = gamma_exact(g).gamma
        for s in sets:
            assert len(s) == gamma
            assert is_dominating_set(g, s)
        assert sets == sorted(set(sets))

    def test_too_large_guard(self):
        with pytest.raises(TooLarge):
            enumerate_min_dominating_sets(path_graph(21))

    def test_every_min_set_on_every_graph_up_to_seven(self, corpus):
        # the enumerator and the oracle share one subset loop: both against
        # a plain scan of the gamma-subsets through is_dominating_set
        for n in range(2, 8):
            for g in corpus(n):
                gamma = gamma_exact(g).gamma
                expected = [c for c in combinations(range(n), gamma) if is_dominating_set(g, c)]
                assert enumerate_min_dominating_sets(g) == expected
                assert gamma_bruteforce_oracle(g) == DominationResult(gamma, expected[0])


class TestSolverAgainstOracle:
    @given(connected_graphs(max_n=12))
    @settings(deadline=None)
    def test_oracle_equivalence(self, g):
        assert gamma_exact(g).gamma == gamma_bruteforce_oracle(g).gamma

    @pytest.mark.parametrize("n", range(13, 21))
    def test_bruteforce_oracle_above_twelve(self, n):
        # sparse to dense, and trees, whose gamma is the largest at each n
        seeds = range(3 * n, 3 * n + 3)
        graphs = [random_connected_graph(n, p, seed) for p in (0.05, 0.1, 0.2, 0.35)
                  for seed in seeds]
        for g in graphs + [shuffled_random_tree(n, seed) for seed in seeds]:
            res = gamma_exact(g)
            assert res.gamma == gamma_bruteforce_oracle(g).gamma
            assert len(res.witness) == res.gamma and is_dominating_set(g, res.witness)

    def test_ilp_oracle_on_large_mixed(self):
        # n = 20-60: a set-cover ILP (scipy's HiGHS) on the networkx adjacency
        blocks, _ = large_mixed_blocks(11)
        for block in blocks:
            g = parse_edgelist(block)
            h = to_networkx(g)
            res = gamma_exact(g)
            assert res.gamma == ilp_gamma([set(h[v]) for v in range(g.n)]), block.split("\n")[0]
            assert len(res.witness) == res.gamma and is_dominating_set(g, res.witness)

    def test_ilp_oracle_on_dense_graphs(self):
        # n = 21-62, above the brute-force oracle: dense enough that some
        # greedy covers have 2 vertices, which the solver returns without a
        # search, and others more, which it searches
        greedy_sizes = []
        for n in (21, 29, 37, 45, 53, 62):
            for p in (0.3, 0.4, 0.5, 0.6):
                g = random_connected_graph(n, p, seed=n * 10 + round(p * 10))
                h = to_networkx(g)
                res = gamma_exact(g)
                assert res.gamma == ilp_gamma([set(h[v]) for v in range(n)]), (n, p)
                assert len(res.witness) == res.gamma and is_dominating_set(g, res.witness)
                greedy_sizes.append(len(_greedy_cover(n, g.closed_masks, (1 << n) - 1)))
        assert len(greedy_sizes) == 24
        assert min(greedy_sizes) <= 2 < max(greedy_sizes)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=60)
    def test_minimality_exhaustive(self, g):
        gamma = gamma_exact(g).gamma
        smaller = [
            c for c in combinations(range(g.n), gamma - 1) if is_dominating_set(g, c)
        ]
        assert smaller == []

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_spanning_tree_never_decreases_gamma(self, g):
        # drop edges down to any spanning tree: gamma can only grow
        from domdist.treelift import lift_gamma_set_to_spanning_tree

        m = gamma_exact(g).witness
        lift = lift_gamma_set_to_spanning_tree(g, m)
        tree = Graph.from_edges(g.n, lift.tree_edges)
        assert gamma_bruteforce_oracle(tree).gamma >= gamma_bruteforce_oracle(g).gamma
