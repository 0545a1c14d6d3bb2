import dataclasses

import pytest
from hypothesis import given, settings

from domdist import domination, treelift
from domdist.distance import all_pairs_distances
from domdist.domination import (
    ENUMERATION_CAP,
    DominationResult,
    enumerate_min_dominating_sets,
    gamma_bruteforce_oracle,
    gamma_exact,
)
from domdist.errors import NotAGammaSet
from domdist.graphs import Graph
from domdist.treelift import SpanningTreeLift, lift_gamma_set_to_spanning_tree, verify_lift

from conftest import connected_graphs
from graphutil import complete_graph, cycle_graph, path_graph, spider, star_graph


class TestLiftConstruction:
    def test_c4_frozen_example(self):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        assert lift.tree_edges == ((0, 1), (0, 3), (1, 2))
        assert lift.dominator_of == ((1, 0), (3, 0))
        assert lift.connector_edges == ((1, 2),)
        assert gamma_bruteforce_oracle(Graph.from_edges(g.n, lift.tree_edges)).gamma == 2

    def test_lift_is_hashable(self):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        same = lift_gamma_set_to_spanning_tree(g, (0, 2))
        other = lift_gamma_set_to_spanning_tree(g, (1, 3))
        assert hash(lift) == hash(same)
        assert len({lift, same, other}) == 2

    def test_k4_single_center(self):
        g = complete_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0,))
        assert lift.tree_edges == ((0, 1), (0, 2), (0, 3))
        assert lift.connector_edges == ()
        assert Graph.from_edges(g.n, lift.tree_edges) == star_graph(3)

    def test_tree_input_lifts_to_itself(self):
        g = spider(2, 3, 1)
        m = gamma_exact(g).witness
        lift = lift_gamma_set_to_spanning_tree(g, m)
        assert lift.tree_edges == g.edges()

    def test_not_dominating_rejected(self):
        with pytest.raises(NotAGammaSet):
            lift_gamma_set_to_spanning_tree(path_graph(4), (0,))

    def test_dominating_but_not_minimum_rejected(self):
        # {0, 1, 2} dominates C4 but gamma(C4) = 2
        with pytest.raises(NotAGammaSet):
            lift_gamma_set_to_spanning_tree(cycle_graph(4), (0, 1, 2))

    def test_deterministic(self):
        g = cycle_graph(8)
        m = gamma_exact(g).witness
        assert (
            lift_gamma_set_to_spanning_tree(g, m)
            == lift_gamma_set_to_spanning_tree(g, m)
        )


class TestVerifyLift:
    def test_valid_lift_passes(self):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        check = verify_lift(g, lift, (0, 2))
        assert check
        assert check.reason is None

    def test_connector_outside_graph(self):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        tampered = dataclasses.replace(
            lift,
            tree_edges=((0, 1), (0, 2), (0, 3)),  # (0,2) is a chord, not a C4 edge
        )
        check = verify_lift(g, tampered, (0, 2))
        assert not check
        assert check.reason == "NotSubgraph"

    def test_dropped_star_edge(self):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        tampered = dataclasses.replace(lift, tree_edges=lift.tree_edges[1:])
        check = verify_lift(g, tampered, (0, 2))
        assert not check
        assert check.reason == "NotSpanningTree"

    def test_bad_dominator_map(self):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        tampered = dataclasses.replace(lift, dominator_of=((1, 0),))
        check = verify_lift(g, tampered, (0, 2))
        assert not check
        assert check.reason == "BadDominatorMap"

    @pytest.mark.parametrize("dominator_of", [
        ((3, 0), (1, 0)),  # not sorted by vertex
        ((1, 0), (1, 0), (3, 0)),  # a vertex twice
        ((1,), (3, 0)),  # not a pair
        ((1, [0]), (3, 0)),  # an unhashable dominator
    ])
    def test_malformed_dominator_pairs(self, dominator_of):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        tampered = dataclasses.replace(lift, dominator_of=dominator_of)
        assert verify_lift(g, tampered, (0, 2)).reason == "BadDominatorMap"

    def test_dominator_outside_m(self):
        # sorted, one pair per vertex outside M, but 3's dominator is not in M
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        tampered = dataclasses.replace(lift, dominator_of=((1, 0), (3, 1)))
        assert verify_lift(g, tampered, (0, 2)).reason == "BadDominatorMap"

    def test_set_not_dominating_tree(self):
        # the lift's tree is a valid spanning tree, but {0} leaves vertex 2 undominated
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        check = verify_lift(g, lift, (0,))
        assert not check
        assert check.reason == "MNotDominating"

    def test_tree_gamma_mismatch(self):
        # the star at 0 is dominated by {0} alone, so M = {0, 1} is not minimum in it
        lift = SpanningTreeLift(
            tree_edges=((0, 1), (0, 2), (0, 3)),
            dominator_of=((2, 0), (3, 0)),
            connector_edges=(),
        )
        check = verify_lift(complete_graph(4), lift, (0, 1))
        assert not check
        assert check.reason == "TreeGammaMismatch"

    def test_graph_gamma_mismatch(self):
        # gamma(P4) = 2 = |M|, but gamma(K4) = 1
        lift = SpanningTreeLift(
            tree_edges=((0, 1), (1, 2), (2, 3)),
            dominator_of=((0, 1), (3, 2)),
            connector_edges=((1, 2),),
        )
        check = verify_lift(complete_graph(4), lift, (1, 2))
        assert not check
        assert check.reason == "GraphGammaMismatch"

    @pytest.mark.parametrize("edges", [((0, 1), (0, 1), (1, 2)), ((0, 1), (1, 0), (1, 2))])
    def test_repeated_edge_is_not_a_spanning_tree(self, edges):
        # n - 1 listed edges, but only two distinct ones
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        check = verify_lift(g, dataclasses.replace(lift, tree_edges=edges), (0, 2))
        assert not check
        assert check.reason == "NotSpanningTree"

    @pytest.mark.parametrize("bad_edge", [(3, 7), (7, 3), (-1, 0), (0, 1, 2), (0.0, 1)])
    def test_vertex_outside_graph_is_not_a_subgraph(self, bad_edge):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        tampered = dataclasses.replace(lift, tree_edges=((0, 1), (0, 3), bad_edge))
        check = verify_lift(g, tampered, (0, 2))
        assert not check
        assert check.reason == "NotSubgraph"

    @pytest.mark.parametrize("m", [(0, 9), (0, -1), (1, 2.0), (1, "a"), ([0], 2)])
    def test_set_outside_graph_is_not_dominating(self, m):
        g = cycle_graph(4)
        lift = lift_gamma_set_to_spanning_tree(g, (0, 2))
        check = verify_lift(g, lift, m)
        assert not check
        assert check.reason == "MNotDominating"

    def test_success_solves_gamma_once(self, monkeypatch):
        calls = []

        def counting_oracle(h, *args, **kwargs):
            calls.append(h)
            return gamma_bruteforce_oracle(h, *args, **kwargs)

        monkeypatch.setattr(treelift, "gamma_bruteforce_oracle", counting_oracle)
        g = cycle_graph(7)
        for m in enumerate_min_dominating_sets(g):
            calls.clear()
            assert verify_lift(g, lift_gamma_set_to_spanning_tree(g, m), m)
            assert calls == [g]

    def test_above_the_enumeration_cap(self):
        g = path_graph(ENUMERATION_CAP + 2)
        m = gamma_exact(g).witness
        assert verify_lift(g, lift_gamma_set_to_spanning_tree(g, m), m)


class TestGammaOncePerGraph:
    def test_enumerate_and_every_lift_share_one_solve(self, monkeypatch):
        calls = []
        greedy = domination._greedy_cover

        def counting_greedy(*args):
            calls.append(args)
            return greedy(*args)

        monkeypatch.setattr(domination, "_greedy_cover", counting_greedy)
        g = cycle_graph(7)
        sets = enumerate_min_dominating_sets(g)
        assert len(sets) == 14
        for m in sets:
            assert verify_lift(g, lift_gamma_set_to_spanning_tree(g, m), m)
        assert len(calls) == 1
        assert gamma_exact(g) is gamma_exact(g)

    def test_oracle_ignores_the_kept_gamma(self):
        g = cycle_graph(7)
        object.__setattr__(g, "_gamma", DominationResult(gamma=1, witness=(0,)))
        assert gamma_bruteforce_oracle(g).gamma == 3


class TestLiftProperties:
    @given(connected_graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_every_min_set_lifts(self, g):
        for m in enumerate_min_dominating_sets(g):
            lift = lift_gamma_set_to_spanning_tree(g, m)
            assert verify_lift(g, lift, m)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_tree_distances_dominate_graph_distances(self, g):
        m = gamma_exact(g).witness
        lift = lift_gamma_set_to_spanning_tree(g, m)
        tree = Graph.from_edges(g.n, lift.tree_edges)
        dg = all_pairs_distances(g)
        dt = all_pairs_distances(tree)
        for u in range(g.n):
            for v in range(g.n):
                assert dt.d[u][v] >= dg.d[u][v]

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_gamma_preserved(self, g):
        m = gamma_exact(g).witness
        lift = lift_gamma_set_to_spanning_tree(g, m)
        tree = Graph.from_edges(g.n, lift.tree_edges)
        assert gamma_bruteforce_oracle(tree).gamma == len(m)
