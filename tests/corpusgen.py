"""Connected-graph corpora for the test suite.

Corpora are graph6 files, one graph per line, holding every connected graph
of a given order up to isomorphism.  Orders 2..8 live under tests/data/
and are regenerated here when missing (the networkx atlas up to order 7,
leaf extension of the order-7 atlas plus isomorphism dedup for order 8).
Known class counts act as the enumeration oracle: any canonicalization bug
shows up as a count mismatch.

Run directly to regenerate everything: python3 tests/corpusgen.py
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx
from networkx.algorithms.graph_hashing import weisfeiler_lehman_graph_hash

from domdist.graphs import Graph, encode_graph6, parse_graph6

# connected graphs up to isomorphism, per order
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

DATA_DIR = Path(__file__).resolve().parent / "data"


def _connected_atlas(n: int) -> list[nx.Graph]:
    return [
        G for G in nx.graph_atlas_g()
        if G.number_of_nodes() == n and nx.is_connected(G)
    ]


def _extend_connected(parents: list[nx.Graph], n_parent: int) -> list[nx.Graph]:
    """All connected graphs on n_parent+1 vertices, up to isomorphism.

    Every connected graph has a vertex whose removal keeps it connected (a
    leaf of any spanning tree), so attaching a new vertex to every nonempty
    neighborhood of every connected parent covers all isomorphism classes.
    """
    new = n_parent
    buckets: dict[tuple, list[nx.Graph]] = {}
    reps: list[nx.Graph] = []
    for parent in parents:
        for mask in range(1, 1 << n_parent):
            h = parent.copy()
            h.add_node(new)
            for v in range(n_parent):
                if mask >> v & 1:
                    h.add_edge(new, v)
            key = (
                h.number_of_edges(),
                weisfeiler_lehman_graph_hash(h, iterations=3),
            )
            group = buckets.setdefault(key, [])
            if not any(nx.is_isomorphic(h, rep) for rep in group):
                group.append(h)
                reps.append(h)
    return reps


def connected_graphs_nx(n: int) -> list[nx.Graph]:
    if not (2 <= n <= 8):
        raise ValueError(f"supported orders are 2..8, got {n}")
    if n <= 7:
        return _connected_atlas(n)
    return _extend_connected(_connected_atlas(7), 7)


def _to_domdist(g: nx.Graph) -> Graph:
    return Graph.from_edges(g.number_of_nodes(), g.edges())


def corpus_lines(n: int) -> list[str]:
    lines = sorted(encode_graph6(_to_domdist(g)) for g in connected_graphs_nx(n))
    if len(lines) != CONNECTED_COUNTS[n]:
        raise AssertionError(
            f"enumerated {len(lines)} connected graphs of order {n}, "
            f"expected {CONNECTED_COUNTS[n]}"
        )
    if len(set(lines)) != len(lines):
        raise AssertionError(f"duplicate graph6 lines for order {n}")
    return lines


def _write_corpus(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")


def corpus_path(n: int) -> Path:
    """Path of the order-n corpus, generating and caching it if needed."""
    path = DATA_DIR / f"connected_n{n}.g6"
    if not path.exists():
        _write_corpus(path, corpus_lines(n))
    return path


def load_corpus(n: int) -> list[Graph]:
    return [
        parse_graph6(line)
        for line in corpus_path(n).read_text(encoding="ascii").splitlines()
        if line.strip()
    ]


def main() -> None:
    for n in CONNECTED_COUNTS:
        lines = corpus_lines(n)
        _write_corpus(DATA_DIR / f"connected_n{n}.g6", lines)
        print(f"n={n}: {len(lines)} graphs -> {DATA_DIR}")


if __name__ == "__main__":
    main()
