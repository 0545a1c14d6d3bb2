from itertools import combinations

import networkx as nx
import pytest

from domdist import harness
from domdist.errors import GraphInputError, InvalidGraph6, UnknownBound
from domdist.graphs import encode_graph6
from domdist.harness import (
    canonical_bound_name,
    counterexample_demo,
    iter_corpus,
    run_corpus_verify,
    scan_tight_instances,
)

import corpusgen
from graphutil import star_graph, to_networkx
from perfbench.tracer import traced_domdist


@pytest.fixture
def n4_corpus():
    return str(corpusgen.corpus_path(4))


class TestRunCorpusVerify:
    def test_all_connected_order4_graphs(self, n4_corpus):
        summary = run_corpus_verify(n4_corpus)
        assert summary.graphs_processed == 6
        assert summary.skipped == 0
        assert summary.violations == 0
        assert summary.violation_details == []
        assert summary.elapsed >= 0

    def test_single_triangle_line(self, tmp_path):
        corpus = tmp_path / "one.g6"
        corpus.write_text("Bw\n")
        summary = run_corpus_verify(str(corpus))
        assert summary.graphs_processed == 1
        # K3: diam 1, gamma 1, ceil(2/3) = 1, so the diameter bound is tight
        assert scan_tight_instances(str(corpus), "diameter")[0] == ["Bw"]
        assert summary.equality_counts["diameter"] == 1

    def test_malformed_line_skipped_when_not_strict(self, tmp_path):
        corpus = tmp_path / "bad.g6"
        corpus.write_text("Bw\n!!!notgraph6\nCs\n")
        summary = run_corpus_verify(str(corpus))
        assert summary.graphs_processed == 2
        assert summary.skipped == 1
        assert len(summary.errors) == 1
        assert summary.errors[0][0] == 2  # line number

    def test_malformed_line_raises_when_strict(self, tmp_path):
        corpus = tmp_path / "bad.g6"
        corpus.write_text("Bw\n!!!notgraph6\n")
        with pytest.raises(GraphInputError):
            run_corpus_verify(str(corpus), strict=True)

    def test_control_character_line_skipped(self, tmp_path):
        # only ASCII whitespace is stripped, so Bw\x1f is no triangle
        corpus = tmp_path / "ctl.g6"
        corpus.write_bytes(b"Bw\nBw\x1f\n")
        summary = run_corpus_verify(str(corpus))
        assert (summary.graphs_processed, summary.skipped) == (1, 1)
        assert summary.errors == [(2, "InvalidGraph6: character '\\x1f' outside graph6 alphabet")]

    def test_disconnected_graph6_counts_as_skip(self, tmp_path):
        corpus = tmp_path / "disc.g6"
        corpus.write_text("A?\n")
        summary = run_corpus_verify(str(corpus))
        assert summary.graphs_processed == 0
        assert summary.skipped == 1

    def test_edgelist_blocks(self, tmp_path):
        corpus = tmp_path / "graphs.el"
        corpus.write_text(
            "# first: P3\nn 3\n0 1\n1 2\n\n\n# second: K2\nn 2\n0 1\n"
        )
        summary = run_corpus_verify(str(corpus), fmt="edgelist")
        assert summary.graphs_processed == 2
        assert summary.violations == 0

    def test_budget_skipped_checks_counted(self, tmp_path):
        # C(32, 5) exceeds the subset budget, C(32, 4) does not; K2 skips
        # its r-subset checks for its order, which is no budget skip
        corpus = tmp_path / "graphs.el"
        corpus.write_text("n 32\n" + "".join(f"{i} {i + 1}\n" for i in range(31))
                          + "\nn 2\n0 1\n")
        summary = run_corpus_verify(str(corpus), fmt="edgelist")
        assert (summary.graphs_processed, summary.skipped) == (2, 0)
        assert summary.budget_skipped == 1
        assert "r-subset:5" not in summary.equality_counts

    def test_jsonl_output_is_deterministic(self, n4_corpus, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_corpus_verify(n4_corpus, jsonl_path=str(out1))
        run_corpus_verify(n4_corpus, jsonl_path=str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 6

    def test_every_report_layer_is_traced_once_per_graph(self, tmp_path):
        """The benchmark's per-layer metrics read the spans of these names;
        a report path that bypasses one would turn its metric to 0."""
        with traced_domdist() as tracer:
            summary = harness.run_corpus_verify(
                str(corpusgen.corpus_path(6)), jsonl_path=str(tmp_path / "out.jsonl"))
        assert summary.graphs_processed == 112
        stats = tracer.layer_stats()
        for name in ("distance.apsp", "bounds.diameter", "bounds.triple",
                     "bounds.r_subset.r4", "bounds.r_subset.r5", "bounds.triple_equality",
                     "bounds.average_distance", "bounds.boundary_ecc", "bounds.jsonl"):
            assert stats[name].calls == 112, name
        assert stats["harness.verify"].calls == 1


class TestIterCorpus:
    def test_yields_errors_in_order(self, tmp_path):
        corpus = tmp_path / "mixed.g6"
        corpus.write_text("Bw\nA?\nBg\n")
        entries = list(iter_corpus(str(corpus)))
        assert [lineno for lineno, _, _ in entries] == [1, 2, 3]
        assert isinstance(entries[1][2], GraphInputError)

    def test_unknown_format_rejected(self, tmp_path):
        corpus = tmp_path / "one.g6"
        corpus.write_text("Bw\n")
        with pytest.raises(ValueError, match="unknown corpus format 'xml'"):
            next(iter_corpus(str(corpus), "xml"))

    def test_blank_line_neither_processed_nor_skipped(self, tmp_path):
        corpus = tmp_path / "gap.g6"
        corpus.write_text("Bw\n\nCs\n")
        summary = run_corpus_verify(str(corpus))
        assert (summary.graphs_processed, summary.skipped) == (2, 0)

    @pytest.mark.parametrize("text", [
        "# a comment\n\nn 2\n0 1\n",
        "n 2\n0 1\n\n  # trailing\n# comments\n",
    ])
    def test_comment_only_edgelist_block_is_no_entry(self, tmp_path, text):
        corpus = tmp_path / "c.el"
        corpus.write_text(text)
        entries = list(iter_corpus(str(corpus), "edgelist"))
        assert [(token, item.n) for _, token, item in entries] == [("A_", 2)]

    def test_header_line_ignored(self, tmp_path):
        corpus = tmp_path / "hdr.g6"
        corpus.write_text(">>graph6<<\nBw\n")
        entries = list(iter_corpus(str(corpus)))
        assert len(entries) == 1
        assert entries[0][1] == "Bw"


class TestBoundNames:
    def test_fixed_names(self):
        for name in ("diameter", "triple", "average-distance", "boundary-ecc"):
            assert canonical_bound_name(name) == name

    def test_r_subset_syntaxes(self):
        assert canonical_bound_name("r-subset:4") == "r-subset:4"
        assert canonical_bound_name("r-subset(4)") == "r-subset:4"

    def test_unknown(self):
        for bad in ("bogus", "r-subset:x", "r-subset:2", "r-subset"):
            with pytest.raises(UnknownBound):
                canonical_bound_name(bad)

    @pytest.mark.parametrize("name", ["r-subset:1_0", "r-subset:\uff14", "r-subset(\u0664)"],
                             ids=["underscore", "fullwidth", "arabic-indic"])
    def test_r_is_ascii_decimal(self, name):
        with pytest.raises(UnknownBound, match="bad r"):
            canonical_bound_name(name)

    def test_r_may_be_padded_and_signed(self):
        assert canonical_bound_name("r-subset( +4 )") == "r-subset:4"


class TestFindTightInstances:
    @staticmethod
    def _contains_star(tokens):
        from domdist.graphs import parse_graph6

        star = to_networkx(star_graph(3))
        return any(
            nx.is_isomorphic(to_networkx(parse_graph6(tok)), star) for tok in tokens
        )

    def test_triple_tight_includes_star(self, n4_corpus):
        tight = scan_tight_instances(n4_corpus, "triple")[0]
        assert self._contains_star(tight)

    def test_boundary_ecc_tight_includes_star(self, n4_corpus):
        tight = scan_tight_instances(n4_corpus, "boundary-ecc")[0]
        assert self._contains_star(tight)

    def test_average_distance_on_k2_is_strict(self, tmp_path):
        corpus = tmp_path / "k2.g6"
        corpus.write_text("A_\n")
        assert scan_tight_instances(str(corpus), "average-distance")[0] == []

    def test_r_outside_config_is_added(self, tmp_path):
        g = star_graph(6)
        corpus = tmp_path / "star6.g6"
        corpus.write_text(encode_graph6(g) + "\n")
        tight = scan_tight_instances(str(corpus), "r-subset:6")[0]
        assert tight == [encode_graph6(g)]

    def test_unknown_bound(self, n4_corpus):
        with pytest.raises(UnknownBound):
            scan_tight_instances(n4_corpus, "nope")


class TestCounterexample:
    def test_all_claimed_properties_recomputed(self):
        rep = counterexample_demo()
        assert rep.ok
        assert rep.gamma == 2
        assert sorted(rep.gamma_set) == [4, 5]
        assert rep.diameter == 3
        assert rep.path_is_induced and rep.path_is_diametral
        assert rep.joining_edge_count == 3
        assert rep.claimed_max_joining_edges == 1
        assert rep.refutes_claim

    def test_against_independent_recomputation(self):
        """Re-derive every property with networkx / raw enumeration."""
        rep = counterexample_demo()
        h = to_networkx(rep.graph)

        # gamma by raw subset enumeration
        gamma = next(
            k for k in range(1, 7)
            if any(
                nx.algorithms.dominating.is_dominating_set(h, set(c))
                for c in combinations(range(6), k)
            )
        )
        assert gamma == rep.gamma == 2
        assert nx.algorithms.dominating.is_dominating_set(h, set(rep.gamma_set))

        assert nx.diameter(h) == rep.diameter
        path = rep.diametral_path
        sub = h.subgraph(path)
        assert sub.number_of_edges() == len(path) - 1  # induced path has no chords
        assert nx.shortest_path_length(h, path[0], path[-1]) == rep.diameter

        nu = set(h[rep.gamma_set[0]]) | {rep.gamma_set[0]}
        nv = set(h[rep.gamma_set[1]]) | {rep.gamma_set[1]}
        joining = sum(
            1 for a, b in zip(path, path[1:])
            if (a in nu and b in nv) or (a in nv and b in nu)
        )
        assert joining == rep.joining_edge_count == 3
        assert joining > rep.gamma - 1
