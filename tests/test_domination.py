from itertools import combinations
from math import ceil

import pytest
from hypothesis import given, settings

from domdist.domination import (
    enumerate_min_dominating_sets,
    gamma_bruteforce_oracle,
    gamma_exact,
    is_dominating_set,
)
from domdist.errors import TooLarge, VertexOutOfRange
from domdist.graphs import Graph
from domdist.harness import COUNTEREXAMPLE_EDGES

from conftest import connected_graphs
from graphutil import complete_graph, cycle_graph, path_graph, spider, star_graph


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
        assert gamma_bruteforce_oracle(path_graph(21), max_n=25).gamma == 7

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


class TestSolverAgainstOracle:
    @given(connected_graphs())
    def test_oracle_equivalence(self, g):
        assert gamma_exact(g).gamma == gamma_bruteforce_oracle(g).gamma

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
