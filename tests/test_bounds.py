import gc
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domdist import bounds, distance, graphs
from domdist.bounds import (
    DEFAULT_SUBSET_BUDGET,
    BoundCheck,
    TripleEquality,
    _max_pair_sum,
    assemble_report,
    average_distance_lb,
    best_triple_lb,
    boundary_ecc_lb,
    diameter_lb,
    r_subset_lb,
    triple_equality_analysis,
)
from domdist.distance import all_pairs_distances
from domdist.domination import gamma_bruteforce_oracle
from domdist.errors import BadR
from domdist.graphs import Graph, encode_graph6, parse_graph6

import corpusgen
from conftest import connected_graphs
from graphutil import (
    complete_graph,
    cycle_graph,
    max_pair_sum_by_enumeration,
    path_graph,
    spider,
    star_graph,
)


def _dm(g):
    return all_pairs_distances(g)


def _first_max_pair_sum(dm, r):
    """Plain reference: the first r-subset in lexicographic order with the largest sum."""
    best, best_subset = -1, ()
    for subset in combinations(range(dm.n), r):
        total = sum(dm.d[u][v] for u, v in combinations(subset, 2))
        if total > best:
            best, best_subset = total, subset
    return best, best_subset


class TestDiameterBound:
    def test_p4_equality(self):
        c = diameter_lb(2, _dm(path_graph(4)))
        assert c.value == 2
        assert c.holds and c.equality
        assert c.slack == 0
        assert c.witness == (0, 3)

    def test_k2_equality(self):
        c = diameter_lb(1, _dm(path_graph(2)))
        assert c.value == 1 and c.equality

    def test_c6_equality(self):
        c = diameter_lb(2, _dm(cycle_graph(6)))
        assert c.value == 2 and c.equality

    def test_violation_detected_for_fake_gamma(self):
        c = diameter_lb(1, _dm(path_graph(7)))
        assert c.holds is False


class TestTripleBound:
    def test_star_equality(self):
        c = best_triple_lb(1, _dm(star_graph(3)))
        assert c.detail["pair_sum"] == 6
        assert c.equality
        assert c.witness == (1, 2, 3)

    def test_spider_equality(self):
        c = best_triple_lb(4, _dm(spider(4, 4, 4)))
        assert c.detail["pair_sum"] == 24
        assert c.equality
        assert c.witness == (4, 8, 12)  # the three leaves

    def test_p4_strict(self):
        c = best_triple_lb(2, _dm(path_graph(4)))
        assert c.detail["pair_sum"] == 6
        assert c.witness == (0, 1, 3)  # lexicographically least maximizer
        assert c.holds and not c.equality
        assert c.slack == Fraction(1)
        assert c.detail["margin"] == 6

    def test_skipped_below_three_vertices(self):
        c = best_triple_lb(1, _dm(path_graph(2)))
        assert c.skipped
        assert c.holds is None and not c.equality


class TestTripleEqualityAnalysis:
    def test_star(self):
        found = triple_equality_analysis(1, _dm(star_graph(3)))
        assert len(found) == 1
        assert found[0].triple == (1, 2, 3)
        assert found[0].dists == (2, 2, 2)
        assert found[0].mod3_ok

    def test_spider_leaf_triple(self):
        found = triple_equality_analysis(4, _dm(spider(4, 4, 4)))
        assert [t.triple for t in found] == [(4, 8, 12)]
        assert found[0].dists == (8, 8, 8)
        assert found[0].mod3_ok

    def test_p4_empty(self):
        assert triple_equality_analysis(2, _dm(path_graph(4))) == ()

    @pytest.mark.parametrize("g, gamma", [
        (path_graph(2), 0),  # K2: no triple at all
        (path_graph(3), -1),  # every triple sum is positive
    ], ids=["K2", "P3"])
    def test_nonpositive_gamma_finds_none(self, g, gamma):
        assert triple_equality_analysis(gamma, _dm(g)) == ()

    @pytest.mark.parametrize("g, gamma, count", [
        (spider(1, 1, 1, 1, 1), 1, 10),  # K_{1,5}: every leaf triple
        (spider(4, 4, 4), 4, 1),
        (path_graph(18), 6, 0),
        (cycle_graph(6), 2, 0),  # 6*gamma = 12 > 3*diam = 9: the early return
        (complete_graph(4), 1, 0),  # 6 > 3: the early return
    ], ids=["K15", "spider444", "P18", "C6", "K4"])
    def test_equality_triple_counts(self, g, gamma, count):
        assert gamma_bruteforce_oracle(g).gamma == gamma
        found = triple_equality_analysis(gamma, _dm(g))
        assert len(found) == count
        assert all(sum(t.dists) == 6 * gamma for t in found)

    @given(connected_graphs(), st.integers(-1, 4))
    def test_matches_combinations_scan(self, g, gamma):
        dm = _dm(g)
        d = dm.d
        expected = []
        for i, j, k in combinations(range(g.n), 3):
            dists = (d[i][j], d[i][k], d[j][k])
            if sum(dists) == 6 * gamma:
                expected.append(TripleEquality((i, j, k), dists, all(x % 3 == 2 for x in dists)))
        assert triple_equality_analysis(gamma, dm) == tuple(expected)


class TestRSubsetBound:
    @pytest.mark.parametrize("r", range(3, 13))
    def test_star_tightness(self, r):
        g = star_graph(r)
        c = r_subset_lb(1, _dm(g), r)
        assert c.detail["pair_sum"] == r * (r - 1)
        assert c.witness == tuple(range(1, r + 1))  # the leaves
        assert c.equality
        assert c.detail["method"] == "exhaustive"

    def test_r_equals_n_on_k4(self):
        c = r_subset_lb(1, _dm(complete_graph(4)), 4)
        assert c.detail["pair_sum"] == 6
        assert c.value == Fraction(1, 2)
        assert c.holds and not c.equality

    def test_p7_r4_exhaustive_maximizer(self):
        g = path_graph(7)
        c = r_subset_lb(3, _dm(g), 4)
        # frozen from the networkx enumeration oracle
        assert c.detail["pair_sum"] == 22
        assert c.witness == (0, 1, 5, 6)
        assert c.detail["pair_sum"] == max_pair_sum_by_enumeration(g, 4)
        assert 12 * 3 >= c.detail["pair_sum"]

    def test_bad_r(self):
        dm = _dm(path_graph(4))
        with pytest.raises(BadR):
            r_subset_lb(2, dm, 2)
        with pytest.raises(BadR):
            r_subset_lb(2, dm, 5)

    @pytest.mark.parametrize("r", [4.0, "4"], ids=["float", "str"])
    def test_non_int_r_raises_bad_r_before_any_cache(self, r):
        dm = _dm(path_graph(8))
        filled = [bounds._packed_table.cache_info(), bounds._packed_product.cache_info()]
        with pytest.raises(BadR):
            r_subset_lb(2, dm, r)
        assert [bounds._packed_table.cache_info(),
                bounds._packed_product.cache_info()] == filled

    def test_r5_exhaustive_up_to_the_budget(self):
        # C(31, 5) = 169,911 fits the budget.  On a path the sum for
        # x1 < ... < x5 is -4*x1 - 2*x2 + 2*x4 + 4*x5: x3 is free, so 2 comes
        # first, and the maximum is -2 + 58 + 120 = 176.
        dm = _dm(path_graph(31))
        c = r_subset_lb(11, dm, 5)
        assert math.comb(31, 5) <= DEFAULT_SUBSET_BUDGET
        assert c.detail["method"] == "exhaustive"
        assert c.witness == (0, 1, 2, 29, 30)
        assert c.detail["pair_sum"] == 176
        assert c.holds and not c.equality

    def test_r5_skipped_for_budget_past_it(self):
        # C(32, 5) = 201,376 does not fit: skipped, never reported as holding
        dm = _dm(path_graph(32))
        assert math.comb(32, 5) > DEFAULT_SUBSET_BUDGET
        c = r_subset_lb(11, dm, 5)
        assert c.skipped and c.holds is None
        assert c.skipped_reason == "budget"
        assert not c.equality and c.value is None and c.witness == ()
        rep = assemble_report(path_graph(32))
        record = json.loads(rep.jsonl_line())
        r5 = next(b for b in record["bounds"] if b["bound"] == "r-subset:5")
        assert r5 == {"bound": "r-subset:5", "reason": "budget", "skipped": True}
        assert not rep.fatal


def _pair_sum(dm, subset):
    return sum(dm.d[u][v] for u, v in combinations(subset, 2))


@st.composite
def _graph_and_subset(draw):
    g = draw(connected_graphs(3, 10))
    r = draw(st.integers(3, g.n))
    subset = draw(st.lists(st.integers(0, g.n - 1), min_size=r, max_size=r, unique=True))
    return g, tuple(sorted(subset))


class TestPairSumIdentities:
    """The identities the r-subset kernel and the paper's C_r rest on."""

    @given(_graph_and_subset())
    @settings(max_examples=150, deadline=None)
    def test_complement_identity(self, drawn):
        # S(X) = W - sum of D(c) over c outside X + S(V \ X)
        g, x = drawn
        dm = _dm(g)
        c = tuple(v for v in range(g.n) if v not in x)
        assert dm.wiener * 2 == sum(map(sum, dm.d))
        assert _pair_sum(dm, x) == (
            dm.wiener - sum(sum(dm.d[v]) for v in c) + _pair_sum(dm, c))

    @given(_graph_and_subset())
    @settings(max_examples=150, deadline=None)
    def test_triple_identity(self, drawn):
        # every pair of X lies in r - 2 of X's triples
        g, x = drawn
        dm = _dm(g)
        assert (len(x) - 2) * _pair_sum(dm, x) == sum(
            _pair_sum(dm, t) for t in combinations(x, 3))


class TestMaxPairSumKernel:
    """Value and first witness of _max_pair_sum against plain enumeration."""

    @given(connected_graphs(3, 12))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_for_every_r(self, g):
        dm = _dm(g)
        for r in range(3, g.n + 1):
            assert _max_pair_sum(dm, r) == _first_max_pair_sum(dm, r), r

    @pytest.mark.parametrize("g, expected", [
        (complete_graph(8), (10, (0, 1, 2, 3, 4))),
        (cycle_graph(8), (24, (0, 1, 2, 4, 5))),
        (star_graph(7), (20, (1, 2, 3, 4, 5))),
    ], ids=["K8", "C8", "K17"])
    def test_complement_side_ties(self, g, expected):
        # n - r = 3 < 5: the complement side, where every maximiser ties
        # on K8, many 5-sets tie on C8 and the leaf sets tie on K_{1,7}
        dm = _dm(g)
        assert _max_pair_sum(dm, 5) == _first_max_pair_sum(dm, 5) == expected


class TestPackedAndScannedSides:
    """_max_pair_sum packs the sums up to order _BYTE_MAX_N = 8 and scans
    above it; both sides against plain enumeration, value and first
    witness."""

    def test_packed_side_every_r_on_every_small_graph(self, corpus):
        for n in range(3, 8):
            for g in corpus(n):
                dm = _dm(g)
                for r in range(3, n + 1):
                    assert r in bounds._packed_table(n)[1]
                    assert _max_pair_sum(dm, r) == _first_max_pair_sum(dm, r), (g, r)

    @pytest.mark.parametrize("r", [4, 5, 17])
    @pytest.mark.parametrize("g", [complete_graph(20), cycle_graph(20), star_graph(19)],
                             ids=["K20", "C20", "K1_19"])
    def test_scan_side(self, g, r):
        assert g.n > bounds._BYTE_MAX_N
        dm = _dm(g)
        assert _max_pair_sum(dm, r) == _first_max_pair_sum(dm, r)

    @pytest.mark.parametrize("n, r, value", [
        (11, 11, 220),
        (12, 8, 148),
        (64, 63, 42656),
        (512, 512, 22369536),
    ], ids=["11-11", "12-8", "64-63", "512-512"])
    def test_widest_fields_on_paths(self, n, r, value):
        # a path's sums are the largest of its order, from 220, which fits
        # a byte, to far past one; all four orders are scanned
        assert n > bounds._BYTE_MAX_N
        dm = _dm(path_graph(n))
        found = _max_pair_sum(dm, r)
        assert found[0] == value
        assert found == _first_max_pair_sum(dm, r)


# the largest r per order n >= 8 that a wider packing rule, which packed
# while C(n, 2)*C(n, r) <= 2^17 and every sum fit one byte, sent to the
# packed sums: these (n, r) are kept as cases, though only n = 8 packs now
_LAST_PACKED_R = {8: 8, 9: 9, 10: 10, 11: 11, 12: 7, 13: 5, 14: 4, 15: 3, 16: 3, 17: 3, 18: 3}
_PACKED_ABOVE_SEVEN = [(n, r) for n, last in _LAST_PACKED_R.items() for r in range(3, last + 1)]


def _random_connected(n, seed):
    """A random recursive tree plus each other vertex pair with probability 1/3."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [pair for pair in combinations(range(n), 2) if rng.random() < 1 / 3]
    return Graph.from_edges(n, edges)


class TestEveryPackedTableAboveSeven:
    """Each (n, r) with n >= 8 of the wider packing rule against plain
    enumeration, packed at n = 8 and scanned above, up to the last rank of
    the largest (C(13, 5) = 1287 subsets)."""

    def test_pairs(self):
        assert len(_PACKED_ABOVE_SEVEN) == 44
        assert max(math.comb(n, r) for n, r in _PACKED_ABOVE_SEVEN) == 1287

    @pytest.mark.parametrize("n, r", _PACKED_ABOVE_SEVEN,
                             ids=[f"{n}-{r}" for n, r in _PACKED_ABOVE_SEVEN])
    def test_random_graph_and_path(self, n, r):
        for g in (_random_connected(n, seed=n * 100 + r), path_graph(n)):
            dm = _dm(g)
            assert _max_pair_sum(dm, r) == _first_max_pair_sum(dm, r), g


def _max_and_index(dm, r):
    """The packed sums' maximum by max() and its first byte by index(): what
    _max_pair_sum's search from C(r, 2)*diam down must find."""
    span, subsets = bounds._packed_table(dm.n)[1][r]
    sums = bounds._packed_product(dm.n, dm.pair_dists)[span]
    best = max(sums)
    return best, subsets[sums.index(best)]


class TestPackedByteSearch:
    """_max_pair_sum's search of the packed bytes against max() and index()."""

    def test_every_graph_of_order_eight(self, corpus):
        for g in corpus(8):
            dm = _dm(g)
            for r in range(3, 9):
                assert _max_pair_sum(dm, r) == _max_and_index(dm, r), (g, r)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_packed_pair_on_random_graphs(self, seed):
        pairs = [(n, r) for n in range(3, bounds._BYTE_MAX_N + 1) for r in range(3, n + 1)]
        assert len(pairs) == 21
        for n, r in pairs:
            for g in (_random_connected(n, seed=seed * 10_000 + n * 100 + r),
                      path_graph(n), complete_graph(n)):
                dm = _dm(g)
                assert _max_pair_sum(dm, r) == _max_and_index(dm, r), (g, r)


# imports every module of the package but __main__, then prints each
# cache defined in one, found by its cache_info, with its size
_LIST_CACHES = """
import importlib, pkgutil, domdist
for info in pkgutil.iter_modules(domdist.__path__, "domdist."):
    if info.name != "domdist.__main__":
        module = importlib.import_module(info.name)
        for name, obj in sorted(vars(module).items()):
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                print(f"{module.__name__}.{name}", obj.cache_info().currsize)
"""


class TestPackedTableCache:
    def test_empty_after_import(self):
        """Importing the package fills no cache of any of its modules."""
        src = str(Path(bounds.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", _LIST_CACHES], capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        sizes = dict(line.split() for line in done.stdout.splitlines())
        assert "domdist.bounds._packed_table" in sizes and "domdist.graphs._graph6_pairs" in sizes
        assert len(sizes) == 8
        assert {name: size for name, size in sizes.items() if size != "0"} == {}

    def test_bounded(self):
        """Under _packed_table's bound: the tables of the 7 orders 2..8,
        the only orders that pack, take under 1e5 bytes together, each r's
        subsets and the bases included."""
        orders = range(2, bounds._BYTE_MAX_N + 1)
        bounds._packed_table.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            for n in orders:
                fields, spans, size, base = bounds._packed_table(n)
                rs = list(range(3, n + 1))
                assert list(spans) == rs and len(fields) == math.comb(n, 2)
                assert [(s.stop - s.start, len(subsets)) for s, subsets in spans.values()] == [
                    (math.comb(n, r), math.comb(n, r)) for r in rs]
                assert size == sum(math.comb(n, r) for r in rs)
                assert base == sum(fields)
            held = tracemalloc.get_traced_memory()[0]
            assert bounds._packed_table.cache_info().currsize == len(orders)
        finally:
            tracemalloc.stop()
            bounds._packed_table.cache_clear()
        assert list(spans) == list(range(3, 9)) and size == 219
        assert held < 1e5

    def test_subsets_are_the_combinations_order(self):
        """For every packed (n, r), the table lists the r-subsets in the
        order of the packed bytes, so the witness _max_pair_sum reads from
        it is the first maximiser."""
        pairs = [(n, r) for n in range(3, bounds._BYTE_MAX_N + 1) for r in range(3, n + 1)]
        assert len(pairs) == 21
        for n, r in pairs:
            span, subsets = bounds._packed_table(n)[1][r]
            assert subsets == tuple(combinations(range(n), r))
            assert span.stop - span.start == len(subsets)
            dm = _dm(_random_connected(n, seed=n * 100 + r))
            assert _max_pair_sum(dm, r) == _first_max_pair_sum(dm, r), (n, r)
        assert sum(len(bounds._packed_table(n)[1][r][1]) for n, r in pairs) == 382

    def test_one_byte_order_for_every_kernel(self):
        """The graph6 tables, the distance matrix and the packed sums switch
        at one order: a graph of order 8 builds each table at order 8, one
        of order 9 builds none of them."""
        caches = (graphs._graph6_tables, distance._matrix_table, bounds._packed_table)
        for cache in caches:
            cache.cache_clear()
        try:
            for n in (8, 9):
                g = parse_graph6(encode_graph6(path_graph(n)))
                assert assemble_report(g).n == n
                for cache in caches:
                    before = cache.cache_info()
                    cache(8)  # a hit: the one entry is order 8
                    assert (before.currsize, cache.cache_info().misses) == (1, before.misses)
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_product_memo_is_keyed_on_the_distances(self):
        """Two matrices of one order, alternated through the triple bound and
        the packed r-subset bounds: each answer is its own matrix's, although
        the memo keeps one product."""
        assert bounds._packed_product.cache_info().maxsize == 1
        dms = [_dm(path_graph(8)), _dm(star_graph(7))]
        assert dms[0].n == dms[1].n == 8 <= bounds._BYTE_MAX_N
        for _ in range(2):
            for dm in dms:
                check = best_triple_lb(2, dm)
                assert (check.num, check.witness) == _first_max_pair_sum(dm, 3)
                for r in (4, 5):
                    check = r_subset_lb(2, dm, r)
                    assert (check.num, check.witness) == _first_max_pair_sum(dm, r)
            for dm in reversed(dms):
                for r in (5, 4, 3):
                    assert _max_pair_sum(dm, r) == _first_max_pair_sum(dm, r)
        assert bounds._packed_product.cache_info().currsize == 1

    def test_jsonl_memos_keep_at_most_their_bound(self):
        """More distinct fractions, int lists and check heads than a memo
        keeps: every string stays right, evicted ones too, and no memo grows
        past its bound."""
        size = bounds.JSONL_MEMO_SIZE
        memos = (bounds._frac_jsonl, bounds._ints_jsonl, bounds._head_jsonl)
        for memo in memos:
            memo.cache_clear()
        try:
            for _ in range(2):  # the second round finds the first values evicted
                for k in range(size + 100):
                    f = Fraction(k, 2 * size + 2)
                    assert bounds._frac_jsonl(k, 2 * size + 2) == json.dumps(
                        {"den": f.denominator, "num": f.numerator}, separators=(",", ":"))
                    xs = tuple(range(k % 7)) + (k,)
                    assert bounds._ints_jsonl(xs) == json.dumps(list(xs), separators=(",", ":"))
                    # a triple check with pair_sum k: num = k, den = 6, gamma = 3
                    check = BoundCheck("triple", k, 6, 18 - k, (0, 1, 2),
                                       {"pair_sum": k, "margin": 18 - k})
                    assert bounds._head_jsonl("triple", k, 6, 18 - k, *check.detail,
                                              *check.detail.values()) == (
                        json.dumps(_check_json(check), sort_keys=True,
                                   separators=(",", ":")).removesuffix("[0,1,2]}"))
                for memo in memos:
                    assert memo.cache_info().currsize == memo.cache_info().maxsize == size
        finally:
            for memo in memos:
                memo.cache_clear()


class TestIntegerChecks:
    """A check is num/den and margin = den*gamma - num; the Fraction
    properties are read from those."""

    def test_verify_path_builds_no_fraction(self, corpus, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("Fraction built on the verify path")

        reports = [assemble_report(g) for n in range(2, 7) for g in corpus(n)]
        expected = [rep.jsonl_line() for rep in reports]
        monkeypatch.setattr(bounds, "Fraction", no_fraction)
        lines = [assemble_report(g).jsonl_line() for n in range(2, 7) for g in corpus(n)]
        assert lines == expected

    def test_properties_follow_num_and_den(self, corpus):
        for n in range(2, 8):
            for g in corpus(n):
                rep = assemble_report(g)
                for c in rep.checks:
                    if c.num is None:
                        assert (c.value, c.slack, c.holds, c.equality) == (None, None, None, False)
                        assert c.skipped and c.margin is None
                        continue
                    value = Fraction(c.num, c.den)
                    assert c.value == value
                    assert c.slack == rep.gamma - value
                    assert c.holds == (rep.gamma >= value)
                    assert c.equality == (rep.gamma == value)
                    assert not c.skipped


class TestAverageDistanceBound:
    def test_k2(self):
        c = average_distance_lb(1, _dm(path_graph(2)))
        assert c.detail["wiener"] == 1
        assert c.value == Fraction(1, 2)
        assert c.holds

    def test_c6(self):
        c = average_distance_lb(2, _dm(cycle_graph(6)))
        assert c.detail["wiener"] == 27
        assert c.value == Fraction(9, 10)
        assert c.holds and not c.equality

    def test_star_k15(self):
        c = average_distance_lb(1, _dm(star_graph(5)))
        assert c.detail["wiener"] == 25
        assert c.value == Fraction(25, 30)
        assert c.holds


class TestBoundaryEccBound:
    def test_k4_trivial(self):
        g = complete_graph(4)
        c = boundary_ecc_lb(1, _dm(g))
        assert c.detail["R"] == 0
        assert c.value == Fraction(1, 2)
        assert c.holds and not c.equality
        assert c.detail["spade"] is None  # boundary is the whole vertex set

    def test_star_equality(self):
        g = star_graph(3)
        dm = _dm(g)
        c = boundary_ecc_lb(1, dm)
        assert c.detail["R"] == 1
        assert c.value == Fraction(1) and c.equality

    def test_p7(self):
        g = path_graph(7)
        dm = _dm(g)
        c = boundary_ecc_lb(3, dm)
        assert c.detail["R"] == 3
        assert c.holds and not c.equality
        spade = c.detail["spade"]
        assert (spade["x"], spade["y"]) == (0, 6)
        assert spade["sum"] == 12 and spade["threshold"] == 10
        assert spade["ok"]

    @given(connected_graphs())
    @settings(max_examples=80)
    def test_spade_diagnostic_always_holds(self, g):
        dm = _dm(g)
        gamma = gamma_bruteforce_oracle(g).gamma
        c = boundary_ecc_lb(gamma, dm)
        assert c.holds
        spade = c.detail["spade"]
        if spade is not None:
            assert spade["ok"]


class TestAssembleReport:
    def test_star_k13_equality_pattern(self):
        rep = assemble_report(star_graph(3))
        assert rep.gamma == 1
        by_name = {c.name: c for c in rep.checks}
        assert by_name["diameter"].equality  # diam 2 -> ceil(3/3) = 1 = gamma
        assert by_name["triple"].equality
        assert by_name["r-subset:3"].equality
        assert by_name["boundary-ecc"].equality
        assert not by_name["r-subset:4"].equality
        assert by_name["r-subset:5"].skipped
        assert not by_name["average-distance"].equality
        assert not rep.fatal

    def test_unknown_check_name(self):
        with pytest.raises(KeyError):
            assemble_report(star_graph(3)).check("nope")

    def test_p4_only_diameter_tight(self):
        rep = assemble_report(path_graph(4))
        assert rep.gamma == 2
        for c in rep.checks:
            if c.skipped:
                continue
            assert c.equality == (c.name == "diameter")
        assert rep.triple_equalities == ()

    def test_k2_skips_subset_bounds(self):
        rep = assemble_report(path_graph(2))
        by_name = {c.name: c for c in rep.checks}
        assert by_name["diameter"].equality
        assert by_name["triple"].skipped
        assert all(by_name[f"r-subset:{r}"].skipped for r in (3, 4, 5))
        assert not rep.fatal

    def test_shared_triple_scan_matches_r_subset_lb(self, corpus):
        for n in range(3, 8):
            for g in corpus(n):
                rep = assemble_report(g)
                dm = _dm(g)
                assert rep.check("r-subset:3") == r_subset_lb(rep.gamma, dm, 3)
                for r in range(3, n + 1):
                    c = r_subset_lb(rep.gamma, dm, r)
                    assert (c.detail["pair_sum"], c.witness) == _first_max_pair_sum(dm, r)
                    if r in (4, 5):
                        assert rep.check(f"r-subset:{r}") == c

    def test_k108_r3_from_the_triple_scan_and_larger_r_skipped(self):
        # C(108, 3) = 204,156 exceeds the budget; the triple scan covers it anyway
        g = complete_graph(108)
        rep = assemble_report(g, graph_id="K108")
        triple = rep.check("triple")
        r3 = rep.check("r-subset:3")
        assert r3.detail["method"] == "exhaustive"
        assert (r3.detail["pair_sum"], r3.witness) == (triple.detail["pair_sum"], triple.witness)
        assert (r3.value, r3.holds, r3.equality) == (triple.value, triple.holds, triple.equality)
        assert r3.witness == (0, 1, 2)
        for r in (4, 5):
            c = rep.check(f"r-subset:{r}")
            assert c.skipped and c.skipped_reason == "budget"
        assert not rep.fatal

    def test_configured_r_below_three_rejected(self):
        with pytest.raises(BadR):
            assemble_report(path_graph(4), rs=(2,))

    @pytest.mark.parametrize("rs", [(4.0,), ("4",), (3, "4")], ids=["float", "str", "int-and-str"])
    def test_configured_non_int_r_rejected(self, rs):
        with pytest.raises(BadR):
            assemble_report(path_graph(8), rs=rs)

    def test_jsonl_round_trips_and_is_stable(self):
        rep = assemble_report(star_graph(3))
        line1 = rep.jsonl_line()
        line2 = assemble_report(star_graph(3)).jsonl_line()
        assert line1 == line2
        record = json.loads(line1)
        assert record["graph"] == "Cs"
        assert record["gamma"] == 1
        triple = next(b for b in record["bounds"] if b["bound"] == "triple")
        assert triple["value"] == {"num": 1, "den": 1}
        assert triple["equality"] is True
        skipped = next(b for b in record["bounds"] if b["bound"] == "r-subset:5")
        assert skipped["skipped"] is True

    @given(connected_graphs())
    @settings(max_examples=80, deadline=None)
    def test_all_bounds_sound_on_random_graphs(self, g):
        rep = assemble_report(g)
        assert not rep.fatal
        oracle = gamma_bruteforce_oracle(g).gamma
        assert rep.gamma == oracle
        for c in rep.checks:
            if not c.skipped:
                assert c.value <= rep.gamma
                assert c.slack >= 0


class TestHashableReports:
    def test_separate_reports_are_equal_and_hash_equal(self, corpus):
        for n in range(2, 7):
            for g in corpus(n):
                token = encode_graph6(g)
                a = assemble_report(parse_graph6(token))
                b = assemble_report(parse_graph6(token))
                assert a == b and hash(a) == hash(b)
                assert list(map(hash, a.checks)) == list(map(hash, b.checks))
                assert (list(map(hash, a.triple_equalities))
                        == list(map(hash, b.triple_equalities)))
                bi_a = _dm(parse_graph6(token)).boundary_info
                bi_b = _dm(parse_graph6(token)).boundary_info
                assert bi_a == bi_b and hash(bi_a) == hash(bi_b)

    def test_detail_is_compared_but_not_hashed(self):
        c = assemble_report(star_graph(3)).checks[0]
        other = c._replace(detail={**c.detail, "margin": c.detail["margin"] + 1})
        assert c != other and hash(c) == hash(other)

    def test_fields_cannot_be_assigned(self):
        g = star_graph(3)  # its leaf triple attains 6*gamma
        report = assemble_report(g)
        records = [(report, "gamma"), (report.checks[0], "margin"),
                   (report.triple_equalities[0], "mod3_ok"),
                   (_dm(g).boundary_info, "witness")]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_skipped_checks_never_share_a_detail(self):
        # K2: the triple check and every r-subset check are skipped
        skipped = [c for c in assemble_report(complete_graph(2)).checks if c.skipped]
        assert len(skipped) == 4
        assert all(c.detail == {} for c in skipped)
        assert len({id(c.detail) for c in skipped}) == len(skipped)


def _scanned(build):
    """build() with every order above bounds._BYTE_MAX_N, so every sum is scanned."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_BYTE_MAX_N", 1)
        return build()


def _packed_equals_scanned(tokens):
    def lines():
        return [assemble_report(parse_graph6(t), graph_id=t).jsonl_line() for t in tokens]

    packed = lines()
    assert packed == _scanned(lines)


class TestPackedAgainstScanned:
    """The packed product and the scans give byte-identical reports: the
    same maxima and first witnesses."""

    def test_every_fixture_graph_up_to_seven(self):
        for n in range(2, 8):
            _packed_equals_scanned(corpusgen.corpus_path(n).read_text(encoding="ascii").split())

    def test_seeded_slice_of_order_eight(self):
        tokens = corpusgen.corpus_path(8).read_text(encoding="ascii").split()
        _packed_equals_scanned(random.Random(19).sample(tokens, 500))

    @given(connected_graphs(2, 11))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_up_to_eleven(self, g):
        _packed_equals_scanned([encode_graph6(g)])


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def _check_json(c) -> dict:
    if c.skipped:
        return {"bound": c.name, "skipped": True, "reason": c.skipped_reason}
    return {
        "bound": c.name,
        "skipped": False,
        "value": _frac_json(c.value),
        "holds": c.holds,
        "equality": c.equality,
        "slack": _frac_json(c.slack),
        "witness": list(c.witness),
        "detail": c.detail,
    }


def _to_json_dict(rep) -> dict:
    """The report as JSON-ready values, built from its fields: the
    reference record that jsonl_line must write."""
    return {
        "graph": rep.graph6,
        "n": rep.n,
        "gamma": rep.gamma,
        "gamma_witness": list(rep.gamma_witness),
        "bounds": [_check_json(c) for c in rep.checks],
        "triple_equalities": [
            {"triple": list(t.triple), "dists": list(t.dists), "mod3_ok": t.mod3_ok}
            for t in rep.triple_equalities
        ],
        "fatal": rep.fatal,
    }


def _sorted_dumps(rep):
    return json.dumps(_to_json_dict(rep), sort_keys=True, separators=(",", ":"))


class TestJsonlWriter:
    """jsonl_line writes what json.dumps(sort_keys=True) makes of _to_json_dict."""

    def test_every_graph_of_order_seven(self):
        tokens = corpusgen.corpus_path(7).read_text(encoding="ascii").split()
        assert any("\\" in t for t in tokens)  # graph ids that JSON escapes
        for token in tokens:
            rep = assemble_report(parse_graph6(token), graph_id=token)
            assert rep.jsonl_line() == _sorted_dumps(rep)

    @given(connected_graphs())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, g):
        rep = assemble_report(g)
        assert rep.jsonl_line() == _sorted_dumps(rep)

    @pytest.mark.parametrize("build", [
        lambda: assemble_report(path_graph(2)),  # "requires n >= 3", "r=3 exceeds n=2"
        lambda: assemble_report(path_graph(32), rs=(5,)),  # "budget"
        lambda: assemble_report(complete_graph(4)),  # spade is null
        lambda: assemble_report(star_graph(3)),  # one triple equality
        lambda: assemble_report(path_graph(4), graph_id='a"b\\cé'),
    ], ids=["K2", "P32-r5", "K4", "K13", "escaped-id"])
    def test_edge_cases(self, build):
        rep = build()
        assert rep.jsonl_line() == _sorted_dumps(rep)

    @pytest.mark.parametrize("name, edit", [
        ("diameter", {"diam": 4}),  # P4's num and margin with another diam
        ("diameter", {"margin": 1}),
        ("triple", {"pair_sum": 7}),  # pair_sum no longer equal to num
        ("triple", {"margin": -1}),
        ("r-subset:4", {"method": "sampled"}),
        ("r-subset:4", {"r": 6}),
        ("average-distance", {"wiener": 11}),
    ], ids=["diameter-diam", "diameter-margin", "triple-pair_sum", "triple-margin",
            "r-subset-method", "r-subset-r", "average-distance-wiener"])
    def test_head_memo_keys_on_every_detail_value(self, name, edit):
        """A check that differs from a written one only in its detail is
        written from its own fields, not from the memoised head."""
        rep = assemble_report(path_graph(4))
        assert rep.jsonl_line() == _sorted_dumps(rep)  # memoises every head
        checks = [c._replace(detail={**c.detail, **edit}) if c.name == name else c
                  for c in rep.checks]
        edited = rep._replace(checks=tuple(checks))
        assert edited.check(name).num == rep.check(name).num
        assert edited.jsonl_line() == _sorted_dumps(edited)

    @pytest.mark.parametrize("name, edit", [
        ("diameter", lambda d: {**d, "ecc_min": 2}),
        ("triple", lambda d: {**d, "triples": 4}),
        ("average-distance", lambda d: {**d, "pairs": 6}),
        # shaped like a tree certificate's detail: its own method and max S_T
        ("r-subset:4", lambda d: {**d, "method": "tree-certificate", "tree_pair_sum": 10}),
        ("triple", lambda d: {k: v for k, v in d.items() if k != "pair_sum"}),
    ], ids=["diameter-extra", "triple-extra", "average-distance-extra",
            "r-subset-tree-certificate", "triple-no-pair_sum"])
    def test_head_writes_the_detail_keys_the_check_has(self, name, edit):
        """The head is written from the keys of the check's own detail: a
        key a builder adds reaches the line and a key it leaves out is not
        looked for."""
        rep = assemble_report(path_graph(4))
        assert rep.jsonl_line() == _sorted_dumps(rep)  # memoises every head
        checks = [c._replace(detail=edit(c.detail)) if c.name == name else c
                  for c in rep.checks]
        edited = rep._replace(checks=tuple(checks))
        assert edited.check(name).detail != rep.check(name).detail
        assert edited.jsonl_line() == _sorted_dumps(edited)

    def test_boundary_ecc_detail_keys(self):
        """jsonl_line writes the boundary-ecc detail from a fixed f-string,
        so its keys are fixed here: a key added in boundary_ecc_lb must be
        added to both."""
        spades = 0
        for n in range(2, 8):
            for g in corpusgen.load_corpus(n):
                detail = boundary_ecc_lb(1, _dm(g)).detail
                assert sorted(detail) == ["R", "boundary", "margin", "spade", "z"], g
                if detail["spade"] is not None:
                    spades += 1
                    assert sorted(detail["spade"]) == ["ok", "sum", "threshold", "x", "y", "z"]
        assert spades > 0
