"""Integrity checks for the fixture corpora the sweeps run over."""

from itertools import combinations

import networkx as nx
import pytest

import corpusgen
from graphutil import to_networkx


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_match_known_values(n, corpus):
    assert len(corpus(n)) == corpusgen.CONNECTED_COUNTS[n]


@pytest.mark.parametrize("n", range(2, 9))
def test_orders_and_uniqueness(n, corpus):
    graphs = corpus(n)
    assert all(g.n == n for g in graphs)
    lines = corpusgen.corpus_path(n).read_text().split()
    assert len(set(lines)) == len(lines)


@pytest.mark.parametrize("n", range(2, 8))
def test_counts_match_networkx_atlas(n):
    atlas = [
        g for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n and nx.is_connected(g)
    ]
    assert corpusgen.CONNECTED_COUNTS[n] == len(atlas)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_pairwise_non_isomorphic(n, corpus):
    graphs = [to_networkx(g) for g in corpus(n)]
    for a, b in combinations(graphs, 2):
        assert not nx.is_isomorphic(a, b)
