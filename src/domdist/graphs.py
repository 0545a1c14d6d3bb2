"""Immutable simple undirected connected graphs plus edge-list / graph6 I/O.

Vertices are always the contiguous integers 0..n-1.  A Graph is its
closed-neighborhood bit masks: bit u of closed_masks[v] is set iff u is in
N[v] (so every mask holds its own bit).  Disconnected input and graphs with
fewer than two vertices are rejected everywhere: every invariant downstream
assumes a connected graph of order >= 2.

graph6 (short form, n <= 62) is decoded straight into the masks: the body
is read as one integer and each set bit ORs its pair into two masks through
a per-order pair table, _graph6_pairs, which encode_graph6 reads too, so
the two directions share one bit order.  The table is cached for each order
on first use, at most the 61 orders 2..62.

_graph6_token is the one rule for what text of a line is graph6: strip
ASCII whitespace only, then drop a leading >>graph6<< header.  parse_graph6
applies it, and so does the harness's corpus reader, which imports no
header of its own.  Any other control or space character is left in, and
the alphabet check rejects it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, Iterable

from .errors import (
    Disconnected,
    InvalidGraph6,
    MalformedLine,
    OrderTooSmall,
    SelfLoop,
    VertexOutOfRange,
)

if TYPE_CHECKING:
    from .domination import DominationResult

GRAPH6_HEADER = ">>graph6<<"
_GRAPH6_MAX_N = 62  # short form only
# str.strip() also strips \x1c-\x1f, \x85 and other Unicode spaces, none
# of which graph6 (bytes 63-126) gives a meaning to
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


@dataclass(frozen=True, slots=True)
class Graph:
    """Connected simple graph on vertices 0..n-1, stored as closed-neighborhood masks.

    Instances are validated on construction (every mask holds its own bit
    and no bit >= n, symmetry, connectivity) and immutable afterwards, so
    they can be shared freely across workers.  Use :meth:`from_edges` rather
    than the raw constructor.  gamma_exact keeps its result in the one
    private slot, so gamma is solved once per Graph.
    """

    n: int
    closed_masks: tuple[int, ...]
    # set by domination.gamma_exact on first use; a Graph never changes, so
    # neither does its gamma
    _gamma: DominationResult | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a list would stay mutable after the checks below
        n, masks = self.n, tuple(self.closed_masks)
        object.__setattr__(self, "closed_masks", masks)
        if n < 2:
            raise OrderTooSmall(f"graph order {n} < 2")
        if len(masks) != n:
            raise ValueError(f"{len(masks)} masks for n={n}")
        for v, m in enumerate(masks):
            if m >> n:
                raise VertexOutOfRange(f"mask of vertex {v} has a bit outside 0..{n - 1}")
            if not m >> v & 1:
                raise ValueError(f"mask of vertex {v} lacks its own bit")
            while m:
                low = m & -m
                u = low.bit_length() - 1
                if not masks[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric for edge ({v}, {u})")
                m ^= low
        seen = level = 1  # breadth-first from vertex 0, one level per pass
        while level:
            reach = 0
            while level:
                low = level & -level
                reach |= masks[low.bit_length() - 1]
                level ^= low
            level = reach & ~seen
            seen |= level
        if seen != (1 << n) - 1:
            raise Disconnected("graph is not connected")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge iterable; duplicate edges collapse.

        A connected graph of order n has at least n - 1 edges, so a shorter
        edge list raises Disconnected before the n masks are allocated:
        memory follows the length of the input, never an order read from a
        header.
        """
        if n < 2:
            raise OrderTooSmall(f"graph order {n} < 2")
        edges = list(edges)
        try:
            for edge in edges:
                u, v = edge
                if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                    raise VertexOutOfRange(f"edge ({u!r}, {v!r}) outside 0..{n - 1}")
                if u == v:
                    raise SelfLoop(f"self-loop at vertex {u}")
        except (TypeError, ValueError):  # not a pair
            raise MalformedLine(f"edge {edge!r} is not a pair of vertices") from None
        if len(edges) < n - 1:
            raise Disconnected(f"{len(edges)} edges cannot connect {n} vertices")
        masks = [1 << v for v in range(n)]
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, tuple(masks))

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Open neighbor set of every vertex, rebuilt from the masks on each access."""
        n = self.n
        return tuple(frozenset(u for u in range(n) if u != v and m >> u & 1)
                     for v, m in enumerate(self.closed_masks))

    def has_edge(self, u: int, v: int) -> bool:
        """False for u == v and for a vertex that is no int of 0..n-1."""
        # no mask has a bit at n or above, so v < n needs no test of its own
        return (type(u) is type(v) is int and u != v and 0 <= u < self.n and 0 <= v
                and self.closed_masks[u] >> v & 1 == 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        edges = []
        for u, m in enumerate(self.closed_masks):
            m &= -2 << u  # the bits above u
            while m:
                low = m & -m
                edges.append((u, low.bit_length() - 1))
                m ^= low
        return tuple(edges)

    def check_vertices(self, vertices: Iterable[int]) -> None:
        """Raise VertexOutOfRange for any vertex that is no int of 0..n-1."""
        n = self.n
        for v in vertices:
            if not (type(v) is int and 0 <= v < n):
                raise VertexOutOfRange(f"vertex {v!r} outside 0..{n - 1}")


def parse_edgelist(text: str) -> Graph:
    """Parse the line-oriented edge-list format.

    The first non-comment line must be "n <count>"; every following
    non-empty, non-comment line holds one edge "u v"; the count and labels
    are ASCII decimal integers.  Lines starting with '#' are comments.
    Duplicate edges collapse silently.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise MalformedLine(f"expected header 'n <count>', got {line!r}")
            try:
                n = _decimal(tokens[1])
            except ValueError:
                raise MalformedLine(f"bad vertex count in header {line!r}") from None
            continue
        if len(tokens) != 2:
            raise MalformedLine(f"expected 'u v', got {line!r}")
        try:
            u, v = _decimal(tokens[0]), _decimal(tokens[1])
        except ValueError:
            raise MalformedLine(f"non-integer vertex label in {line!r}") from None
        edges.append((u, v))
    if n is None:
        raise MalformedLine("no 'n <count>' header found")
    return Graph.from_edges(n, edges)


def _decimal(token: str) -> int:
    # int() alone also reads "1_2" and non-ASCII digits
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(token)
    return int(token)


@cache
def _graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pair (i, j), i < j, of every bit of an order-n graph6 body, read
    as one integer without its padding: entry b is the pair of bit b.

    graph6 writes the upper triangle column by column, (0,1), (0,2), (1,2),
    (0,3), ..., most significant bit first, so the last pair is bit 0.  Only
    the short-form orders 2..62 reach here, so the cache holds at most 61
    tables (C(62, 2) = 1891 pairs for the largest), each built on first use.
    """
    return tuple(reversed([(i, j) for j in range(1, n) for i in range(j)]))


def _graph6_token(line: str) -> str:
    """The graph6 text of a line: stripped of ASCII whitespace, then of a
    leading >>graph6<< header; "" for a blank or header-only line."""
    return line.strip(_ASCII_WHITESPACE).removeprefix(GRAPH6_HEADER)


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 string (n <= 62) into a Graph.

    The body is read as one integer, 6 bits per character; each set bit
    sets both closed masks of its _graph6_pairs pair, and Graph's own checks
    then test the masks.  The line is read through _graph6_token first.
    Malformed input raises InvalidGraph6 (empty string, character outside
    '?'..'~', long form, wrong body length, a set padding bit, in that
    order), then OrderTooSmall for n < 2, Disconnected for fewer than n - 1
    edges, and Graph's Disconnected for the rest.
    """
    s = _graph6_token(line)
    if not s:
        raise InvalidGraph6("empty graph6 string")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise InvalidGraph6(f"character {ch!r} outside graph6 alphabet")
    first = ord(s[0]) - 63
    if first == 63:
        # 126 introduces the long form (n > 62)
        raise InvalidGraph6("long-form graph6 (n > 62) is not supported")
    n = first
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    body = s[1:]
    if len(body) != nbytes:
        raise InvalidGraph6(f"expected {nbytes} data characters for n={n}, got {len(body)}")
    bits = 0
    for ch in body:
        bits = bits << 6 | ord(ch) - 63
    pad = 6 * nbytes - npairs
    if bits & ((1 << pad) - 1):
        raise InvalidGraph6("nonzero padding bits")
    if n < 2:
        raise OrderTooSmall(f"graph order {n} < 2")
    bits >>= pad
    edges = bits.bit_count()
    if edges < n - 1:
        raise Disconnected(f"{edges} edges cannot connect {n} vertices")
    pairs = _graph6_pairs(n)
    masks = [1 << v for v in range(n)]
    while bits:
        low = bits & -bits
        i, j = pairs[low.bit_length() - 1]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
        bits ^= low
    return Graph(n, masks)


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 string (inverse of parse_graph6)."""
    n, masks = g.n, g.closed_masks
    if n > _GRAPH6_MAX_N:
        raise InvalidGraph6(f"short-form graph6 supports n <= {_GRAPH6_MAX_N}, got {n}")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    bits = 0
    for b, (i, j) in enumerate(_graph6_pairs(n)):
        if masks[i] >> j & 1:
            bits |= 1 << b
    bits <<= 6 * nbytes - npairs
    return chr(63 + n) + "".join(chr(63 + (bits >> 6 * k & 63))
                                 for k in range(nbytes - 1, -1, -1))
