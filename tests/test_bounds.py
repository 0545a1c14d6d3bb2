import json
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from domdist.bounds import (
    DEFAULT_SUBSET_BUDGET,
    assemble_report,
    average_distance_lb,
    best_triple_lb,
    boundary_ecc_lb,
    diameter_lb,
    r_subset_lb,
    triple_equality_analysis,
)
from domdist.distance import all_pairs_distances, boundary_and_set_ecc
from domdist.domination import gamma_bruteforce_oracle
from domdist.errors import BadR

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


class TestAverageDistanceBound:
    def test_k2(self):
        c = average_distance_lb(1, path_graph(2))
        assert c.detail["wiener"] == 1
        assert c.value == Fraction(1, 2)
        assert c.holds

    def test_c6(self):
        c = average_distance_lb(2, cycle_graph(6))
        assert c.detail["wiener"] == 27
        assert c.value == Fraction(9, 10)
        assert c.holds and not c.equality

    def test_star_k15(self):
        c = average_distance_lb(1, star_graph(5))
        assert c.detail["wiener"] == 25
        assert c.value == Fraction(25, 30)
        assert c.holds


class TestBoundaryEccBound:
    def test_k4_trivial(self):
        g = complete_graph(4)
        c = boundary_ecc_lb(1, boundary_and_set_ecc(g, _dm(g)), _dm(g))
        assert c.detail["R"] == 0
        assert c.value == Fraction(1, 2)
        assert c.holds and not c.equality
        assert c.detail["spade"] is None  # boundary is the whole vertex set

    def test_star_equality(self):
        g = star_graph(3)
        dm = _dm(g)
        c = boundary_ecc_lb(1, boundary_and_set_ecc(g, dm), dm)
        assert c.detail["R"] == 1
        assert c.value == Fraction(1) and c.equality

    def test_p7(self):
        g = path_graph(7)
        dm = _dm(g)
        c = boundary_ecc_lb(3, boundary_and_set_ecc(g, dm), dm)
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
        c = boundary_ecc_lb(gamma, boundary_and_set_ecc(g, dm), dm)
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
