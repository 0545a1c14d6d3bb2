"""Immutable simple undirected connected graphs plus edge-list / graph6 I/O.

Vertices are always the contiguous integers 0..n-1.  A Graph is its
closed-neighborhood bit masks: bit u of closed_masks[v] is set iff u is in
N[v] (so every mask holds its own bit).  Disconnected input and graphs with
fewer than two vertices are rejected everywhere: every invariant downstream
assumes a connected graph of order >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

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
    non-empty, non-comment line holds one edge "u v".  Lines starting with
    '#' are comments.  Duplicate edges collapse silently.
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
                n = int(tokens[1])
            except ValueError:
                raise MalformedLine(f"bad vertex count in header {line!r}") from None
            continue
        if len(tokens) != 2:
            raise MalformedLine(f"expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MalformedLine(f"non-integer vertex label in {line!r}") from None
        edges.append((u, v))
    if n is None:
        raise MalformedLine("no 'n <count>' header found")
    return Graph.from_edges(n, edges)


def _pair_order(n: int) -> Iterator[tuple[int, int]]:
    # graph6 bit order: upper triangle, column major
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 string (n <= 62) into a Graph."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
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
    bits: list[int] = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[npairs:]):
        raise InvalidGraph6("nonzero padding bits")
    edges = [(i, j) for (i, j), bit in zip(_pair_order(n), bits) if bit]
    return Graph.from_edges(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 string (inverse of parse_graph6)."""
    if g.n > _GRAPH6_MAX_N:
        raise InvalidGraph6(f"short-form graph6 supports n <= {_GRAPH6_MAX_N}, got {g.n}")
    bits = [1 if g.has_edge(i, j) else 0 for i, j in _pair_order(g.n)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + g.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for bit in bits[k:k + 6]:
            val = (val << 1) | bit
        chars.append(chr(63 + val))
    return "".join(chars)
