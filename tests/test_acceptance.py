"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Corpora: cached generated files (tests/data) for n = 2..8,
overridable via DOMDIST_CORPUS_DIR.
"""

from __future__ import annotations

import gc
import hashlib
import os

import pytest

from domdist.bounds import assemble_report
from domdist.cli import main
from domdist.distance import all_pairs_distances, boundary_and_set_ecc
from domdist.domination import (
    enumerate_min_dominating_sets,
    gamma_bruteforce_oracle,
    gamma_exact,
)
from domdist.harness import counterexample_demo
from domdist.treelift import lift_gamma_set_to_spanning_tree, verify_lift

import corpusgen
from graphutil import star_graph, spider

ORDERS = range(2, 9)
EXPECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
LIFT_SET_CAP_N8 = 50
# sha256 of `domdist verify tests/data/connected_n8.g6 --jsonl` output
N8_JSONL_SHA256 = "30c07baec0db0440e751c95d0974b7058aad30f5a7fb2819d5cccef8e55161eb"


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def corpora(corpus):
    return {n: corpus(n) for n in ORDERS}


@pytest.fixture(scope="module")
def reports(corpora):
    return {
        n: [assemble_report(g) for g in graphs]
        for n, graphs in corpora.items()
    }


def _reports_as_jsonl(graphs):
    for g in graphs:
        assemble_report(g).jsonl_line()


def _lift_every_min_set(graphs):
    for g in graphs:
        for m in enumerate_min_dominating_sets(g):
            verify_lift(g, lift_gamma_set_to_spanning_tree(g, m), m)


@pytest.mark.parametrize("run", [_reports_as_jsonl, _lift_every_min_set])
def test_no_reference_cycles_left_behind(run):
    """With the cyclic collector off, a run over every n=7 graph leaves it
    nothing to free: the searches hold no self-referencing closures."""
    graphs = corpusgen.load_corpus(7)  # fresh Graphs, so gamma is solved here
    gc.collect()
    gc.disable()
    try:
        run(graphs)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_criterion_1_oracle_equivalence(corpora):
    """gamma_exact == gamma_bruteforce_oracle on every connected graph, n <= 8."""
    mismatches = []
    total = 0
    for n, graphs in corpora.items():
        assert len(graphs) == EXPECTED_COUNTS[n], f"corpus for n={n} is incomplete"
        for g in graphs:
            total += 1
            if gamma_exact(g).gamma != gamma_bruteforce_oracle(g).gamma:
                mismatches.append(g)
    ok = not mismatches
    _verdict("1 oracle-equivalence", ok, f"{total} graphs, {len(mismatches)} mismatches")
    assert ok


def test_criterion_2_soundness_sweep(reports):
    """Zero bound violations over all connected graphs with n <= 8."""
    violations = []
    total = 0
    for n, reps in reports.items():
        for rep in reps:
            total += 1
            if rep.fatal:
                violations.append(rep.graph6)
            for c in rep.checks:
                if c.holds is False:
                    violations.append((rep.graph6, c.name))
                if not c.skipped and c.name.startswith("r-subset:"):
                    assert c.detail["method"] == "exhaustive"
    ok = not violations
    _verdict("2 soundness-sweep", ok, f"{total} graphs, {len(violations)} violations")
    assert ok


def test_criterion_3_star_tightness():
    """K_{1,r} gives gamma = 1 and leaf-subset sum r(r-1), flagged as equality."""
    failures = []
    for r in range(3, 13):
        rep = assemble_report(star_graph(r), rs=(r,))
        check = rep.check(f"r-subset:{r}")
        good = (
            rep.gamma == 1
            and check.detail["pair_sum"] == r * (r - 1)
            and check.equality
            and check.witness == tuple(range(1, r + 1))
        )
        if not good:
            failures.append(r)
    ok = not failures
    _verdict("3 star-tightness", ok, f"r in 3..12, failures: {failures}")
    assert ok


def test_criterion_4_mod3_corollary(reports):
    """All equality triples over n <= 8 have every distance = 2 (mod 3)."""
    exceptions = []
    witnesses = 0
    for reps in reports.values():
        for rep in reps:
            for t in rep.triple_equalities:
                witnesses += 1
                if not t.mod3_ok:
                    exceptions.append((rep.graph6, t))

    sp = spider(4, 4, 4)
    dm = all_pairs_distances(sp)
    gamma = gamma_exact(sp).gamma
    leaf_dists = sorted(
        (dm.d[u][v] for u in (4, 8, 12) for v in (4, 8, 12) if u < v)
    )
    spider_ok = gamma == 4 and leaf_dists == [8, 8, 8]

    ok = not exceptions and spider_ok
    _verdict(
        "4 mod3-corollary", ok,
        f"{witnesses} equality triples, {len(exceptions)} exceptions; "
        f"spider gamma={gamma}, leaf distances {leaf_dists}",
    )
    assert ok


def test_criterion_5_spanning_tree_lift(corpora):
    """Every minimum dominating set lifts to a gamma-preserving spanning tree."""
    failures = []
    lifts = 0
    for n, graphs in corpora.items():
        cap = LIFT_SET_CAP_N8 if n == 8 else None
        for g in graphs:
            min_sets = enumerate_min_dominating_sets(g)[:cap]
            for m in min_sets:
                lifts += 1
                lift = lift_gamma_set_to_spanning_tree(g, m)
                check = verify_lift(g, lift, m)
                if not check:
                    failures.append((g, m, check.reason))
    ok = not failures
    _verdict("5 spanning-tree-lift", ok, f"{lifts} lifts verified, {len(failures)} failures")
    assert ok


def test_criterion_6_boundary_tightness(corpora):
    """K_{1,3} attains 2*gamma = ecc(B)+1; boundary = V always reports ecc(B) = 0."""
    star_rep = assemble_report(star_graph(3))
    check = star_rep.check("boundary-ecc")
    star_ok = (
        star_rep.gamma == 1
        and check.detail["R"] == 1
        and check.equality
        and 2 * star_rep.gamma == check.detail["R"] + 1
    )

    full_boundary = 0
    bad = []
    for graphs in corpora.values():
        for g in graphs:
            dm = all_pairs_distances(g)
            bi = boundary_and_set_ecc(g, dm)
            if len(bi.boundary) == g.n:
                full_boundary += 1
                if bi.ecc_of_boundary != 0:
                    bad.append(g)
                # bound is 1/2 here, trivially below gamma >= 1
                if 2 * gamma_exact(g).gamma < 1:
                    bad.append(g)
    ok = star_ok and not bad and full_boundary > 0
    _verdict(
        "6 boundary-tightness", ok,
        f"star equality={star_ok}; {full_boundary} full-boundary graphs, {len(bad)} bad",
    )
    assert ok


def test_criterion_7_counterexample():
    """The 6-vertex demo refutes the joining-edges claim with recomputed facts."""
    rep = counterexample_demo()
    ok = (
        rep.ok
        and rep.gamma == 2
        and rep.path_is_induced
        and rep.path_is_diametral
        and rep.diameter == 3
        and rep.joining_edge_count == 3
        and rep.claimed_max_joining_edges == 1
        and rep.joining_edge_count > rep.claimed_max_joining_edges
    )
    _verdict(
        "7 counterexample", ok,
        f"gamma={rep.gamma}, joining={rep.joining_edge_count} > {rep.claimed_max_joining_edges}",
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    """Two verify runs over the n=6 corpus write byte-identical JSONL."""
    corpus_path = str(corpusgen.corpus_path(6))
    out1, out2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    code1 = main(["verify", corpus_path, "--jsonl", str(out1)])
    code2 = main(["verify", corpus_path, "--jsonl", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    _verdict(
        "8 determinism", ok,
        f"exit codes ({code1}, {code2}), byte-identical={identical}",
    )
    assert ok


@pytest.mark.skipif(bool(os.environ.get("DOMDIST_CORPUS_DIR")),
                    reason="the pinned hash is of the checked-in n=8 corpus")
def test_n8_jsonl_is_pinned(reports):
    """The JSONL of the n=8 corpus hashes to the pinned sha256."""
    digest = hashlib.sha256()
    for rep in reports[8]:
        digest.update((rep.jsonl_line() + "\n").encode("ascii"))
    assert digest.hexdigest() == N8_JSONL_SHA256


def test_triple_equalities_exactly_when_the_triple_bound_is_tight(reports):
    """A report lists equality triples iff its triple check has equality."""
    for reps in reports.values():
        for rep in reps:
            assert bool(rep.triple_equalities) == rep.check("triple").equality, rep.graph6
