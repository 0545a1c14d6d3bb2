from __future__ import annotations

import pytest
from hypothesis import strategies as st

from domdist.graphs import Graph

import corpusgen


@st.composite
def connected_edge_lists(draw, min_n: int = 2, max_n: int = 7) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a random connected graph: a random tree plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs))))
    return n, sorted(edges)


def connected_graphs(min_n: int = 2, max_n: int = 7) -> st.SearchStrategy[Graph]:
    """Random connected Graph, drawn as connected_edge_lists."""
    return connected_edge_lists(min_n, max_n).map(lambda drawn: Graph.from_edges(*drawn))


@pytest.fixture(scope="session")
def corpus():
    """Corpus loader keyed by order, cached for the whole session."""
    cache: dict[int, list[Graph]] = {}

    def load(n: int) -> list[Graph]:
        if n not in cache:
            cache[n] = corpusgen.load_corpus(n)
        return cache[n]

    return load
