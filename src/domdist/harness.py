"""Corpus-scale verification driver and the diametral-path counterexample.

A corpus is a file of graph6 lines (one graph per line) or, with the
edgelist format, blank-line-separated edge-list blocks.  iter_corpus is the
one reader of graph files; every CLI command reads through it, and
run_corpus_verify and scan_tight_instances build each graph's report in
their own loop over it.  Each looks iter_corpus up by its module-level name
when called, so a caller may wrap it, say to time each entry.  Reports are
produced in input order, so repeated runs over the same file are
byte-identical.  Bytes that do not decode are read as surrogate escapes,
which the parsers reject, so such an entry is malformed like any other.
A graph6 line is read by graphs._graph6_token, the rule parse_graph6
applies too: blank and header-only lines are no entry.  An edge-list line
is read by graphs._edgelist_line, the rule parse_edgelist applies, so a
block ends at a line parse_edgelist would read as blank.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .bounds import (
    BOUND_AVERAGE_DISTANCE,
    BOUND_BOUNDARY_ECC,
    BOUND_DIAMETER,
    BOUND_TRIPLE,
    DEFAULT_RS,
    assemble_report,
    r_subset_bound_name,
)
from .distance import all_pairs_distances
from .domination import gamma_bruteforce_oracle, gamma_exact, is_dominating_set
from .errors import GraphInputError, UnknownBound
from .graphs import (
    _ASCII_WHITESPACE,
    Graph,
    _decimal,
    _edgelist_line,
    _graph6_token,
    encode_graph6,
    parse_edgelist,
    parse_graph6,
)

FORMAT_GRAPH6 = "graph6"
FORMAT_EDGELIST = "edgelist"


@dataclass
class CorpusSummary:
    """Aggregate outcome of one corpus run; violations must stay at zero."""

    graphs_processed: int = 0
    skipped: int = 0
    budget_skipped: int = 0  # checks skipped for the r-subset budget
    violations: int = 0
    # per checked bound, the tokens of the graphs whose check is an
    # equality, in input order; a bound no graph was checked for has no key
    equalities: dict[str, list[str]] = field(default_factory=dict)
    violation_details: list[tuple[str, str]] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0


def _iter_graph6_entries(path: str) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _graph6_token(raw)
            if line:
                yield lineno, line


def _iter_edgelist_blocks(path: str) -> Iterator[tuple[int, str]]:
    # a block of comment lines alone is no graph, like a lone header line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        block: list[str] = []
        start = 0
        content = False
        for lineno, raw in enumerate(fh, start=1):
            line = _edgelist_line(raw)
            if line:
                if not block:
                    start = lineno
                block.append(raw)
                content = content or not line.startswith("#")
            elif block:
                if content:
                    yield start, "".join(block)
                block = []
                content = False
        if content:
            yield start, "".join(block)


def iter_corpus(path: str, fmt: str = FORMAT_GRAPH6) -> Iterator[tuple[int, str, Graph | GraphInputError]]:
    """Yield (line, token, Graph-or-error) per corpus entry, in input order.

    token is the graph6 encoding of the parsed graph (the stripped input line
    for graph6 corpora) or, for entries that fail to parse, the raw input.
    """
    if fmt == FORMAT_GRAPH6:
        for lineno, line in _iter_graph6_entries(path):
            try:
                yield lineno, line, parse_graph6(line)
            except GraphInputError as exc:
                yield lineno, line, exc
    elif fmt == FORMAT_EDGELIST:
        for lineno, block in _iter_edgelist_blocks(path):
            try:
                g = parse_edgelist(block)
                yield lineno, encode_graph6(g), g
            except GraphInputError as exc:
                yield lineno, block.split("\n", 1)[0], exc
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")


def run_corpus_verify(
    path: str, *, fmt: str = FORMAT_GRAPH6, rs: tuple[int, ...] = DEFAULT_RS,
    strict: bool = False, jsonl_path: str | None = None,
) -> CorpusSummary:
    """Analyze every corpus graph, list equalities, and count bound violations.

    In strict mode a malformed entry aborts the run by raising, after the
    reports before it are written; otherwise it is counted as skipped and
    recorded in summary.errors.  A corpus that cannot be opened raises
    before the jsonl_path sidecar is created, and a jsonl_path that names
    the corpus itself raises FileExistsError before either is opened.
    """
    if jsonl_path:
        if os.path.exists(jsonl_path) and os.path.samefile(path, jsonl_path):
            raise FileExistsError(f"JSONL sidecar {jsonl_path} is the corpus itself")
        # a corpus that cannot be read raises here, before the sidecar exists
        open(path, "rb").close()
    summary = CorpusSummary()
    start = time.perf_counter()
    jsonl = open(jsonl_path, "w", encoding="ascii") if jsonl_path else None
    try:
        for lineno, token, graph in iter_corpus(path, fmt):
            if isinstance(graph, GraphInputError):
                if strict:
                    raise graph
                summary.skipped += 1
                summary.errors.append((lineno, f"{type(graph).__name__}: {graph}"))
                continue
            report = assemble_report(graph, rs=rs, graph_id=token)
            summary.graphs_processed += 1
            if report.fatal:
                summary.violations += 1
                summary.violation_details.extend((token, v) for v in report.violations)
            # the fields the skipped and equality properties read, without
            # a property call per check of every graph
            for c in report.checks:
                if c.num is None:
                    if c.skipped_reason == "budget":
                        summary.budget_skipped += 1
                    continue
                tokens = summary.equalities.setdefault(c.name, [])
                if c.margin == 0:
                    tokens.append(token)
            if jsonl is not None:
                jsonl.write(report.jsonl_line() + "\n")
    finally:
        if jsonl is not None:
            jsonl.close()
    summary.elapsed = time.perf_counter() - start
    return summary


_FIXED_BOUNDS = (BOUND_DIAMETER, BOUND_TRIPLE, BOUND_AVERAGE_DISTANCE, BOUND_BOUNDARY_ECC)


def canonical_bound_name(name: str) -> str:
    """Normalize a user-supplied bound name; raises UnknownBound otherwise.

    The name and the r of an r-subset name are stripped of ASCII whitespace
    only, so any other control or space character makes the name unknown.
    """
    name = name.strip(_ASCII_WHITESPACE)
    if name in _FIXED_BOUNDS:
        return name
    tail = None
    if name.startswith("r-subset:"):
        tail = name[len("r-subset:"):]
    elif name.startswith("r-subset(") and name.endswith(")"):
        tail = name[len("r-subset("):-1]
    if tail is not None:
        try:
            r = _decimal(tail.strip(_ASCII_WHITESPACE))
        except ValueError:
            raise UnknownBound(f"bad r in bound name {name!r}") from None
        if r < 3:
            raise UnknownBound(f"r-subset bound needs r >= 3, got {r}")
        return r_subset_bound_name(r)
    raise UnknownBound(f"unknown bound {name!r}")


def scan_tight_instances(
    path: str, bound: str, fmt: str = FORMAT_GRAPH6,
) -> tuple[list[str], int, int]:
    """Tokens of the corpus graphs whose report shows equality for the named
    bound, in input order; the number of malformed entries skipped; and the
    number of graphs whose check for that bound was skipped for budget.
    All three are read from run_corpus_verify's summary, whose reports scan
    only the r-subset size the bound names, if any.
    """
    name = canonical_bound_name(bound)
    rs = (int(name.split(":")[1]),) if name.startswith("r-subset:") else ()
    summary = run_corpus_verify(path, fmt=fmt, rs=rs)
    return summary.equalities.get(name, []), summary.skipped, summary.budget_skipped


# Counterexample to the claim that a diametral path contains at most
# gamma(G)-1 edges joining the closed neighborhoods of a gamma-set.
# Vertices 0..3 form the path; 4 and 5 are the two dominators.
COUNTEREXAMPLE_EDGES = ((0, 1), (1, 2), (2, 3), (4, 0), (4, 2), (5, 1), (5, 3))
COUNTEREXAMPLE_GAMMA_SET = (4, 5)
COUNTEREXAMPLE_PATH = (0, 1, 2, 3)


@dataclass(frozen=True)
class CounterexampleReport:
    """Recomputed properties of the 6-vertex counterexample graph.

    The refutation is joining_edge_count > claimed_max_joining_edges, where
    the claimed maximum is gamma - 1.  Every field is derived from the graph,
    none is assumed.
    """

    graph: Graph
    gamma: int
    gamma_set: tuple[int, ...]
    diametral_path: tuple[int, ...]
    diameter: int
    path_is_induced: bool
    path_is_diametral: bool
    joining_edge_count: int
    claimed_max_joining_edges: int
    refutes_claim: bool
    ok: bool


def counterexample_demo() -> CounterexampleReport:
    """Reconstruct the counterexample graph and re-derive every claimed property."""
    g = Graph.from_edges(6, COUNTEREXAMPLE_EDGES)
    dm = all_pairs_distances(g)

    gamma = gamma_exact(g).gamma
    oracle_gamma = gamma_bruteforce_oracle(g).gamma
    s = COUNTEREXAMPLE_GAMMA_SET
    gamma_set_ok = gamma == oracle_gamma == len(s) and is_dominating_set(g, s)

    path = COUNTEREXAMPLE_PATH
    consecutive = all(g.has_edge(path[i], path[i + 1]) for i in range(len(path) - 1))
    induced = consecutive and not any(
        g.has_edge(u, v)
        for u, v in combinations(path, 2)
        if abs(path.index(u) - path.index(v)) > 1
    )
    length = len(path) - 1
    diametral = induced and length == dm.diam

    nu, nv = g.closed_masks[s[0]], g.closed_masks[s[1]]
    joining = sum(
        1
        for a, b in zip(path, path[1:])
        if (nu >> a & 1 and nv >> b & 1) or (nv >> a & 1 and nu >> b & 1)
    )
    claimed = gamma - 1

    return CounterexampleReport(
        graph=g,
        gamma=gamma,
        gamma_set=s,
        diametral_path=path,
        diameter=dm.diam,
        path_is_induced=induced,
        path_is_diametral=diametral,
        joining_edge_count=joining,
        claimed_max_joining_edges=claimed,
        refutes_claim=joining > claimed,
        ok=gamma_set_ok and diametral and joining > claimed,
    )
