"""Arbitrary input to the parsers and the CLI: the only outcomes are a Graph
or a DomdistError from a parser, and exit code 0, 1 or 2 from the CLI."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from domdist.cli import main
from domdist.errors import DomdistError
from domdist.graphs import Graph, parse_edgelist, parse_graph6

from conftest import connected_edge_lists

_GRAPH6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


def _graph6_of(n):
    # well-formed graph6 of a random graph of every order the short form
    # holds, n <= 62; near misses come from the plain texts
    pairs = n * (n - 1) // 2
    nbytes = (pairs + 5) // 6

    def encode(bits):
        bits <<= 6 * nbytes - pairs
        return chr(63 + n) + "".join(
            chr(63 + (bits >> 6 * k & 63)) for k in range(nbytes - 1, -1, -1))
    return st.integers(0, (1 << pairs) - 1).map(encode)


def _edgelist_of(drawn):
    (n, edges), junk = drawn
    return "\n".join([f"n {n}", *(f"{u} {v}" for u, v in edges), *junk])


_TEXT = st.one_of(
    st.text(max_size=80),
    st.text(_GRAPH6_CHARS, max_size=40),
    st.integers(0, 62).flatmap(_graph6_of),
    st.text(st.sampled_from("n0123456789 -#\n\t"), max_size=80),
    st.tuples(
        connected_edge_lists(2, 12)
        | st.tuples(st.integers(-1, 12),
                    st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), max_size=30)),
        st.lists(st.text(st.sampled_from("n01 #x"), max_size=6), max_size=2),
    ).map(_edgelist_of),
)
_BYTES = st.binary(max_size=80) | _TEXT.map(lambda t: t.encode("utf-8"))


def _parses_or_raises_typed(parse, text):
    try:
        g = parse(text)
    except DomdistError:
        return
    assert isinstance(g, Graph)


@given(_TEXT)
@settings(max_examples=100, deadline=None)
def test_parse_graph6(text):
    _parses_or_raises_typed(parse_graph6, text)


@given(_TEXT)
@settings(max_examples=100, deadline=None)
def test_parse_edgelist(text):
    _parses_or_raises_typed(parse_edgelist, text)


@given(_BYTES)
@settings(max_examples=50, deadline=None)
def test_analyze_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        for fmt in ("graph6", "edgelist"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["analyze", path, "--format", fmt])
            assert code in (0, 1, 2), fmt
