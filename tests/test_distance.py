import dataclasses
import gc
import tracemalloc
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings

from domdist import distance, graphs
from domdist.bounds import average_distance_lb
from domdist.distance import (
    DistanceMatrix,
    all_pairs_distances,
    boundary_and_set_ecc,
    wiener_index,
)
from domdist.graphs import Graph, encode_graph6, parse_graph6

from conftest import connected_graphs
from graphutil import (
    boundary_by_scan,
    complete_graph,
    cycle_graph,
    distance_matrix_by_enumeration,
    first_diametral_pair_by_scan,
    path_graph,
    spider,
    star_graph,
    to_networkx,
)


class TestAllPairsDistances:
    def test_p4_row(self):
        dm = all_pairs_distances(path_graph(4))
        assert dm.d[0] == (0, 1, 2, 3)
        assert dm.diam == 3

    def test_star_row(self):
        dm = all_pairs_distances(star_graph(3))
        assert dm.d[0] == (0, 1, 1, 1)
        assert dm.diam == 2

    def test_c6_row(self):
        # frozen from the simple-path enumeration oracle
        dm = all_pairs_distances(cycle_graph(6))
        assert dm.d[0] == (0, 1, 2, 3, 2, 1)

    @given(connected_graphs())
    def test_matches_path_enumeration_oracle(self, g):
        dm = all_pairs_distances(g)
        assert [list(row) for row in dm.d] == distance_matrix_by_enumeration(g)

    @given(connected_graphs())
    def test_matrix_invariants(self, g):
        dm = all_pairs_distances(g)
        for v in range(g.n):
            assert dm.d[v][v] == 0
        for u in range(g.n):
            for v in range(g.n):
                assert dm.d[u][v] == dm.d[v][u]
                assert (dm.d[u][v] == 1) == g.has_edge(u, v)
                for w in range(g.n):
                    assert dm.d[u][w] <= dm.d[u][v] + dm.d[v][w]
        assert dm.diam == max(map(max, dm.d))
        assert dm.diam >= 1

    @given(connected_graphs(max_n=6))
    @settings(max_examples=50)
    def test_edge_addition_never_increases_distances(self, g):
        dm = all_pairs_distances(g)
        non_edges = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        for u, v in non_edges:
            bigger = Graph.from_edges(g.n, list(g.edges()) + [(u, v)])
            dm2 = all_pairs_distances(bigger)
            for a in range(g.n):
                for b in range(g.n):
                    assert dm2.d[a][b] <= dm.d[a][b]


class TestWideLevels:
    """Orders above 8, where a BFS level can span two or more bytes of its
    mask and is read one set bit at a time, against networkx."""

    @given(connected_graphs(min_n=9, max_n=40))
    @settings(deadline=None)
    def test_matches_networkx(self, g):
        dm = all_pairs_distances(g)
        n = g.n
        lengths = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        rows = tuple(tuple(lengths[u][v] for v in range(n)) for u in range(n))
        assert dm.d == rows
        assert dm.pair_dists == tuple(rows[u][v] for u, v in combinations(range(n), 2))
        assert dm.diam == nx.diameter(to_networkx(g))
        boundary = tuple(sorted(nx.periphery(to_networkx(g))))
        to_boundary = [min(rows[v][b] for b in boundary) for v in range(n)]
        r_ecc = max(to_boundary)
        assert dm.boundary_info == (boundary, r_ecc, to_boundary.index(r_ecc))

    def test_distances_of_256_and_more(self):
        dm = all_pairs_distances(path_graph(300))
        assert dm.d[0] == tuple(range(300)) and dm.diam == 299
        assert dm.boundary_info == ((0, 299), 149, 149)


def _by_bfs(g):
    """all_pairs_distances with every order sent to the BFS kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "_BYTE_MAX_N", 1)
        return all_pairs_distances(g)


def _matches_bfs(g):
    dm, ref = all_pairs_distances(g), _by_bfs(g)
    for field in DistanceMatrix._fields:
        assert getattr(dm, field) == getattr(ref, field), (field, g)
    # the rows stay tuples of ints, which CPython indexes faster than bytes
    assert type(dm.d) is tuple and all(type(row) is tuple for row in dm.d)
    assert {type(x) for row in dm.d for x in row} == {int}
    assert type(dm.pair_dists) is tuple and {type(x) for x in dm.pair_dists} == {int}
    assert type(dm.boundary_info.boundary) is tuple


class TestByteMatrix:
    """Up to n = 8 all_pairs_distances takes the byte-matrix kernel, with
    the BFS kernel of the larger orders as the reference: all seven fields
    equal, and the same types."""

    def test_every_graph_up_to_eight_vertices(self, corpus):
        for n in range(2, 9):
            for g in corpus(n):
                _matches_bfs(g)

    @given(connected_graphs(max_n=8))
    def test_random_graphs(self, g):
        _matches_bfs(g)

    @pytest.mark.parametrize("g", [path_graph(8), cycle_graph(8), star_graph(7),
                                   complete_graph(8), path_graph(2)],
                             ids=["P8", "C8", "K1_7", "K8", "K2"])
    def test_extremes(self, g):
        # diam 7, the widest a byte entry holds at n = 8; diam 1; n = 2
        _matches_bfs(g)


class TestSmallOrderTables:
    """The per-order tables of the n <= 8 kernels, distance._matrix_table
    and graphs._graph6_tables: none is built by import (see
    TestPackedTableCache.test_empty_after_import), only the orders 2..8
    are ever built, and each cache keeps them all in under 5e4 bytes."""

    @pytest.fixture
    def tables(self):
        caches = (distance._matrix_table, graphs._graph6_tables)
        for cache in caches:
            cache.cache_clear()
        yield caches
        for cache in caches:
            cache.cache_clear()

    def test_orders_up_to_eight_only(self, tables):
        for n in range(2, 13):
            g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])
            assert parse_graph6(encode_graph6(g)) == g
            assert all_pairs_distances(g) == _by_bfs(g)
        assert [cache.cache_info().currsize for cache in tables] == [7, 7]

    def test_bounded(self, tables):
        for n in range(2, 9):
            graphs._graph6_pairs(n)  # read by _graph6_tables, cached apart
        gc.collect()
        tracemalloc.start()
        try:
            held = []
            for cache in tables:
                before = tracemalloc.get_traced_memory()[0]
                for n in range(2, 9):
                    cache(n)
                held.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert all(0 < h < 5e4 for h in held), held


class TestDistanceMatrixRecord:
    """DistanceMatrix is a named tuple, like the report records."""

    def test_replace(self):
        dm = all_pairs_distances(path_graph(4))
        wider = dm._replace(diam=4)
        assert (wider.diam, wider.d, dm.diam) == (4, dm.d, 3)

    def test_equal_graphs_give_equal_hash_equal_matrices(self):
        a, b = all_pairs_distances(spider(2, 2, 1)), all_pairs_distances(spider(2, 2, 1))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a == tuple(a) and a != all_pairs_distances(path_graph(6))

    def test_dataclasses_replace_does_not_apply(self):
        with pytest.raises(TypeError):
            dataclasses.replace(all_pairs_distances(path_graph(4)))


class TestWienerIndex:
    def test_k4(self):
        assert wiener_index(complete_graph(4)) == 6

    def test_p4(self):
        # 1+2+3 + 1+2 + 1 from the oracle distance matrix
        assert wiener_index(path_graph(4)) == 10

    def test_c6(self):
        assert wiener_index(cycle_graph(6)) == 27
        dm = all_pairs_distances(cycle_graph(6))
        assert Fraction(dm.wiener, 6 * 5) == Fraction(9, 10)

    def test_star_k15(self):
        assert wiener_index(star_graph(5)) == 25

    def test_mu_is_exact_rational(self):
        # the average-distance bound reports mu = W/(n(n-1)) as its value
        mu = average_distance_lb(1, all_pairs_distances(path_graph(4))).value
        assert isinstance(mu, Fraction)
        assert mu == Fraction(10, 12)

    @given(connected_graphs())
    def test_equals_half_of_full_sum(self, g):
        dm = all_pairs_distances(g)
        full = sum(sum(row) for row in dm.d)
        assert full % 2 == 0
        assert wiener_index(g, dm) == full // 2

    @given(connected_graphs())
    def test_matches_networkx(self, g):
        assert wiener_index(g) == nx.wiener_index(to_networkx(g))


class TestBoundary:
    def test_k4_boundary_is_everything(self):
        g = complete_graph(4)
        bi = boundary_and_set_ecc(g, all_pairs_distances(g))
        assert bi.boundary == (0, 1, 2, 3)
        assert bi.ecc_of_boundary == 0

    def test_p4_endpoints(self):
        g = path_graph(4)
        bi = boundary_and_set_ecc(g, all_pairs_distances(g))
        assert bi.boundary == (0, 3)
        assert bi.ecc_of_boundary == 1
        assert bi.witness == 1

    def test_star_leaves(self):
        g = star_graph(3)
        bi = boundary_and_set_ecc(g, all_pairs_distances(g))
        assert bi.boundary == (1, 2, 3)
        assert bi.ecc_of_boundary == 1
        assert bi.witness == 0

    def test_spider_center_far_from_boundary(self):
        g = spider(4, 4, 4)
        bi = boundary_and_set_ecc(g, all_pairs_distances(g))
        assert set(bi.boundary) == {4, 8, 12}
        assert bi.ecc_of_boundary == 4

    def test_matrix_of_another_order_rejected(self):
        with pytest.raises(ValueError):
            boundary_and_set_ecc(path_graph(4), all_pairs_distances(path_graph(5)))

    @given(connected_graphs())
    def test_boundary_invariants(self, g):
        dm = all_pairs_distances(g)
        bi = boundary_and_set_ecc(g, dm)
        assert bi.boundary
        assert all(max(dm.d[v]) == dm.diam for v in bi.boundary)
        assert all(max(dm.d[v]) < dm.diam for v in set(range(g.n)) - set(bi.boundary))
        dist_to_b = [min(dm.d[v][b] for b in bi.boundary) for v in range(g.n)]
        assert bi.ecc_of_boundary == max(dist_to_b)
        assert dist_to_b[bi.witness] == bi.ecc_of_boundary
        assert (bi.ecc_of_boundary == 0) == (len(bi.boundary) == g.n)


def _summary_matches_scans(g):
    dm = all_pairs_distances(g)
    d = [list(row) for row in dm.d]
    assert dm.diametral_pair == first_diametral_pair_by_scan(d)
    assert dm.wiener == sum(map(sum, d)) // 2
    bi = boundary_and_set_ecc(g, dm)
    assert bi is dm.boundary_info
    assert (bi.boundary, bi.ecc_of_boundary, bi.witness) == boundary_by_scan(d)


class TestDistanceSummary:
    """The invariants all_pairs_distances derives from its rows, against plain scans."""

    def test_every_graph_up_to_seven_vertices(self, corpus):
        for n in range(2, 8):
            for g in corpus(n):
                _summary_matches_scans(g)

    def test_every_graph_of_order_eight(self, corpus):
        for g in corpus(8):
            _summary_matches_scans(g)

    @pytest.mark.parametrize("g, boundary, r_ecc, z", [
        pytest.param(cycle_graph(5), (0, 1, 2, 3, 4), 0, 0, id="B=V"),
        pytest.param(path_graph(6), (0, 5), 2, 2, id="two-vertex-B"),
        pytest.param(spider(4, 4, 4), (4, 8, 12), 4, 0, id="spider-z-is-the-center"),
    ])
    def test_named_boundaries(self, g, boundary, r_ecc, z):
        _summary_matches_scans(g)
        assert all_pairs_distances(g).boundary_info == (boundary, r_ecc, z)

    @given(connected_graphs(max_n=20))
    def test_random_graphs(self, g):
        _summary_matches_scans(g)
