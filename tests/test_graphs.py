import gc
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domdist import graphs
from domdist.errors import (
    Disconnected,
    DomdistError,
    InvalidGraph6,
    MalformedLine,
    OrderTooSmall,
    SelfLoop,
    VertexOutOfRange,
)
from domdist.domination import gamma_exact, is_dominating_set
from domdist.graphs import Graph, encode_graph6, parse_edgelist, parse_graph6
from domdist.treelift import lift_gamma_set_to_spanning_tree

from conftest import connected_edge_lists, connected_graphs
from graphutil import cycle_graph, path_graph, star_graph, to_networkx


class TestGraphConstruction:
    def test_from_edges_collapses_duplicates(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
        assert g.edges() == ((0, 1), (1, 2))

    def test_neighbor_sets(self):
        g = path_graph(4)
        assert g.adj[1] == {0, 2}
        assert g.closed_masks[1] == 0b0111
        assert len(g.adj[0]) == 1
        assert g.has_edge(2, 3) and not g.has_edge(0, 3)

    @pytest.mark.parametrize("edges", [[(0, 1, 2), (1, 2)], [0, (1, 2)]])
    def test_non_pair_edge_is_malformed(self, edges):
        with pytest.raises(MalformedLine, match=re.escape(repr(edges[0]))):
            Graph.from_edges(3, edges)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            Graph.from_edges(1, [])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            Graph.from_edges(2, [(0, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            Graph.from_edges(2, [(0, 2)])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            Graph.from_edges(4, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("edges, error", [
        ([(0, 1)], Disconnected),
        ([(0, 9)], VertexOutOfRange),
        ([(1, 1)], SelfLoop),
    ])
    def test_too_few_edges_keep_per_edge_errors(self, edges, error):
        # fewer than n - 1 edges: the edges are still checked first
        with pytest.raises(error):
            Graph.from_edges(5, edges)

    def test_closed_masks_built_once(self):
        g = path_graph(4)
        assert g.closed_masks == (0b0011, 0b0111, 0b1110, 0b1100)
        assert g.closed_masks is g.closed_masks

    def test_asymmetric_adjacency_rejected(self):
        # N[0] = {0, 1} but N[1] = {1}
        with pytest.raises(ValueError):
            Graph(2, (0b11, 0b10))

    @pytest.mark.parametrize("n, masks, error", [
        (2, (0b10, 0b11), ValueError),  # N[0] lacks 0
        (3, (0b011, 0b111, 0b100), ValueError),  # 1 ~ 2 but not 2 ~ 1
        (2, (0b111, 0b11), VertexOutOfRange),  # bit 2 with n = 2
        (2, (-1, 0b11), VertexOutOfRange),  # a negative mask has every high bit
        (4, (0b0011, 0b0011, 0b1100, 0b1100), Disconnected),
        (3, (0b11, 0b11), ValueError),  # one mask short
        (1, (0b1,), OrderTooSmall),
    ])
    def test_raw_constructor_rejects_bad_masks(self, n, masks, error):
        with pytest.raises(error):
            Graph(n, masks)

    def test_raw_constructor_freezes_a_mask_list(self):
        masks = [0b11, 0b11]
        g = Graph(2, masks)
        masks[0] = 0
        assert g == path_graph(2)
        assert hash(g) == hash(path_graph(2))

    def test_immutable_and_hashable(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5
        assert g == path_graph(3)
        assert len({g, path_graph(3)}) == 1


class TestIntVertexRule:
    """A vertex is an int of 0..n-1 at every entry point; anything else is
    VertexOutOfRange, or no edge."""

    @pytest.mark.parametrize("call", [
        lambda g: is_dominating_set(g, (0, 2.0)),
        lambda g: lift_gamma_set_to_spanning_tree(g, (0, 2.0)),
        lambda g: g.check_vertices(["a"]),
        lambda g: g.check_vertices([True]),
        lambda g: Graph.from_edges(3, [(0, 1.0), (1, 2)]),
        lambda g: lift_gamma_set_to_spanning_tree(g, ([0], 2)),
    ], ids=["is_dominating_set", "lift", "check_vertices-str", "check_vertices-bool",
            "from_edges", "lift-unhashable"])
    def test_non_int_vertex_is_out_of_range(self, call):
        with pytest.raises(VertexOutOfRange):
            call(cycle_graph(4))

    @pytest.mark.parametrize("u, v", [(0.0, 1), (0, 1.0), ("0", 1), (True, 0)],
                             ids=["float-u", "float-v", "str", "bool"])
    def test_has_edge_is_false_for_a_non_int(self, u, v):
        g = cycle_graph(4)
        assert g.has_edge(0, 1)
        assert not g.has_edge(u, v)


class TestMaskNativeGraph:
    """Every derived view of the masks agrees with networkx on the same edges."""

    @given(connected_edge_lists())
    def test_views_match_networkx(self, drawn):
        n, edges = drawn
        g = Graph.from_edges(n, edges)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        assert g.adj == tuple(frozenset(h[v]) for v in range(n))
        for v in range(n):
            assert g.closed_masks[v] == sum(1 << u for u in set(h[v]) | {v})
            assert g.has_edge(v, v) is False
            for u in range(n):
                assert g.has_edge(u, v) == h.has_edge(u, v)
        assert g.edges() == tuple(sorted(tuple(sorted(e)) for e in h.edges()))
        assert Graph(n, g.closed_masks) == g

    def test_graph_with_gamma_stays_small(self):
        # 853 graphs of order 7, each with its masks and its gamma; one
        # frozenset per vertex would cost about 2 KB per graph
        lines = Path(__file__).with_name("data").joinpath("connected_n7.g6").read_text().split()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = [parse_graph6(line) for line in lines]
            for g in graphs:
                gamma_exact(g)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(graphs) == 853
        assert retained / len(graphs) <= 512


class TestParseEdgelist:
    def test_k2(self):
        g = parse_edgelist("n 2\n0 1")
        assert (g.n, g.edges()) == (2, ((0, 1),))

    def test_p4(self):
        g = parse_edgelist("n 4\n0 1\n1 2\n2 3")
        assert g == path_graph(4)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(Disconnected):
            parse_edgelist("n 3\n0 1")

    def test_non_integer_count_rejected(self):
        with pytest.raises(MalformedLine):
            parse_edgelist("n x")

    def test_header_order_allocates_nothing_per_vertex(self):
        tracemalloc.start()
        try:
            with pytest.raises(Disconnected):
                parse_edgelist("n 200000\n0 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_comments_and_blank_lines(self):
        text = "# a path\nn 3\n\n0 1\n# middle\n1 2\n"
        assert parse_edgelist(text) == path_graph(3)

    def test_missing_header(self):
        with pytest.raises(MalformedLine):
            parse_edgelist("0 1\n1 2")

    def test_bad_token_count(self):
        with pytest.raises(MalformedLine):
            parse_edgelist("n 3\n0 1 2")

    def test_non_integer_label(self):
        with pytest.raises(MalformedLine):
            parse_edgelist("n 3\n0 x")

    @pytest.mark.parametrize("text", [
        "n 1_2\n0 1",  # int() reads 12
        "n \uff13\n0 1\n1 2",  # a full-width 3
        "n 3\n0 1\n1 \uff12",  # a full-width 2
        "n 3\n0 1\n\u0661 2",  # an Arabic-Indic 1
        "n 3\n0 1\n1 +",
    ], ids=["count-underscore", "count-fullwidth", "label-fullwidth",
            "label-arabic-indic", "label-lone-sign"])
    def test_integers_are_ascii_decimal(self, text):
        with pytest.raises(MalformedLine):
            parse_edgelist(text)

    def test_signed_labels_are_integers(self):
        assert parse_edgelist("n +3\n+0 1\n1 2") == path_graph(3)
        with pytest.raises(VertexOutOfRange):
            parse_edgelist("n 3\n0 -1")

    def test_empty_input(self):
        with pytest.raises(MalformedLine):
            parse_edgelist("# nothing here\n")

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            parse_edgelist("n 2\n1 1")

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            parse_edgelist("n 2\n0 5")


class TestParseGraph6:
    # hand-decoded: 'B' declares n=3, 'w' = 56 = 111000 -> edges 01, 02, 12
    def test_triangle(self):
        g = parse_graph6("Bw")
        assert g.edges() == ((0, 1), (0, 2), (1, 2))

    # 'g' = 40 = 101000 -> bits (0,1)=1, (0,2)=0, (1,2)=1
    def test_p3(self):
        g = parse_graph6("Bg")
        assert g.edges() == ((0, 1), (1, 2))

    def test_n2_no_edges_disconnected(self):
        with pytest.raises(Disconnected):
            parse_graph6("A?")

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<Bw") == parse_graph6("Bw")

    def test_ascii_whitespace_stripped(self):
        assert parse_graph6(" \t\x0b\x0c>>graph6<<Bw\r\n") == parse_graph6("Bw")

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            parse_graph6("@")  # n = 1

    def test_bad_character(self):
        # only ASCII whitespace is stripped, so \x1f fails the alphabet
        # check, not the body length
        with pytest.raises(InvalidGraph6, match=r"^character '\\x1f' outside graph6 alphabet$"):
            parse_graph6("B\x1f")

    def test_bad_length(self):
        with pytest.raises(InvalidGraph6):
            parse_graph6("Bww")

    def test_long_form_rejected(self):
        with pytest.raises(InvalidGraph6):
            parse_graph6("~??~?????")

    def test_nonzero_padding_rejected(self):
        # K2 is 'A_' (bit 100000); 'A' + chr(63+33) sets a padding bit
        with pytest.raises(InvalidGraph6):
            parse_graph6("A" + chr(63 + 0b100001))

    def test_empty(self):
        with pytest.raises(InvalidGraph6):
            parse_graph6("")

    @pytest.mark.parametrize("line, error, message", [
        ("", InvalidGraph6, "empty graph6 string"),
        ("B!", InvalidGraph6, "character '!' outside graph6 alphabet"),
        ("~\x7f", InvalidGraph6, "character '\\x7f' outside graph6 alphabet"),
        ("~??~?????", InvalidGraph6, "long-form graph6 (n > 62) is not supported"),
        ("~", InvalidGraph6, "long-form graph6 (n > 62) is not supported"),
        ("Bww", InvalidGraph6, "expected 1 data characters for n=3, got 2"),
        ("@?", InvalidGraph6, "expected 0 data characters for n=1, got 1"),
        ("A" + chr(63 + 0b100001), InvalidGraph6, "nonzero padding bits"),
        ("D?@", InvalidGraph6, "nonzero padding bits"),
        ("?", OrderTooSmall, "graph order 0 < 2"),
        ("@", OrderTooSmall, "graph order 1 < 2"),
        ("C?", Disconnected, "0 edges cannot connect 4 vertices"),
        ("D?_", Disconnected, "1 edges cannot connect 5 vertices"),
        ("Cw", Disconnected, "graph is not connected"),
        ("Bw\x1f", InvalidGraph6, "character '\\x1f' outside graph6 alphabet"),
        ("\x1cBw", InvalidGraph6, "character '\\x1c' outside graph6 alphabet"),
        ("Bw\x85", InvalidGraph6, "character '\\x85' outside graph6 alphabet"),
        ("Bw\u2028", InvalidGraph6, "character '\\u2028' outside graph6 alphabet"),
    ], ids=["empty", "bad-character", "bad-character-before-long-form", "long-form",
            "long-form-before-length", "bad-length", "length-before-order", "padding",
            "padding-before-edge-count", "n0", "n1", "no-edges", "too-few-edges",
            "isolated-vertex", "unit-separator-kept", "file-separator-kept",
            "next-line-kept", "line-separator-kept"])
    def test_malformed_keeps_type_and_message(self, line, error, message):
        # the checks run in this order, so the first fault found names the error
        with pytest.raises(DomdistError) as exc:
            parse_graph6(line)
        assert (type(exc.value), str(exc.value)) == (error, message)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_networkx_on_fixtures(self, n):
        lines = Path(__file__).with_name("data").joinpath(f"connected_n{n}.g6").read_text().split()
        for line in lines:
            h = nx.from_graph6_bytes(line.encode())
            assert parse_graph6(line) == Graph.from_edges(n, h.edges()), line

    @pytest.mark.parametrize("n", range(2, 63))
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_matches_networkx_at_every_order(self, n, data):
        _, edges = data.draw(connected_edge_lists(n, n))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        line = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert parse_graph6(line) == Graph.from_edges(n, edges), line

    def test_pair_tables_empty_after_import(self):
        src = str(Path(graphs.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = "import domdist\nprint(domdist.graphs._graph6_pairs.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]

    def test_agrees_with_edgelist_on_fixtures(self):
        assert parse_graph6("Bw") == parse_edgelist("n 3\n0 1\n0 2\n1 2")
        assert parse_graph6("Bg") == parse_edgelist("n 3\n0 1\n1 2")
        assert parse_graph6("A_") == parse_edgelist("n 2\n0 1")


class TestEncodeGraph6:
    def test_known_encodings(self):
        assert encode_graph6(path_graph(2)) == "A_"
        assert encode_graph6(path_graph(4)) == "Ch"
        assert encode_graph6(star_graph(3)) == "Cs"

    def test_long_form_order_rejected(self):
        with pytest.raises(InvalidGraph6):
            encode_graph6(path_graph(63))

    @given(connected_graphs())
    def test_round_trip(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    @given(connected_graphs())
    def test_matches_networkx(self, g):
        expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert encode_graph6(g) == expected
