"""Small simple graphs with a declared shape kind.

Vertices are 0..n-1.  Edges are stored as an ordered tuple of (u, v) pairs;
the pair order is meaningful only as a storage order (labelings index edges
by position), the edge itself is undirected.  Paths store edges (0,1),
(1,2), ...; cycles append the closing edge (n-1, 0).

The path or cycle that ``path_graph`` and ``cycle_graph`` return derives
that edge tuple from ``n`` and ``kind`` the first time ``edges`` is read,
and keeps it from then on; ``edge_count`` reads the number of edges off
``n``.  The path and cycle judges and the certificate writer need only
those two fields, so certifying a path builds no edge tuple.
"""

from __future__ import annotations

from ._vocab import Record, set_field
from .errors import CapExceededError, InvalidGraphError
from .groups import DEFAULT_ENUM_CAP

PATH = "path"
CYCLE = "cycle"
TREE = "tree"
GENERAL = "general"


class _ChainEdges:
    """The ``edges`` of a chain graph made by ``_chain``: on the first
    read, the chain edges of its ``n`` and ``kind``, stored as the field
    (a stored field is found before this class attribute, which defines
    no ``__set__``).  Every other graph stores its edges when it is
    built."""

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        edges = _chain_edges(graph.n, graph.kind == CYCLE)
        set_field(graph, "edges", edges)
        return edges


class SimpleGraph(Record):
    """A simple graph on vertices 0..n-1: its edges in storage order and
    its declared shape kind, checked against each other."""

    _fields = ("n", "edges", "kind")
    edges = _ChainEdges()

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 kind: str = GENERAL) -> None:
        set_field(self, "n", n)
        set_field(self, "edges", edges)
        set_field(self, "kind", kind)
        if n < 1:
            raise InvalidGraphError("graphs need at least one vertex")
        if kind in (PATH, CYCLE):
            closed = kind == CYCLE
            if closed and n < 3:
                raise InvalidGraphError("cycles need at least three vertices")
            if edges != _chain_edges(n, closed):
                raise InvalidGraphError(f"{kind} edges must be (0,1), "
                                        f"(1,2), ...{', (n-1,0)' * closed}")
            return
        if kind not in (TREE, GENERAL):
            raise InvalidGraphError(f"unknown graph kind {kind!r}")
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InvalidGraphError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidGraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
        if kind == TREE and (len(edges) != n - 1 or not self.is_connected()):
            raise InvalidGraphError("tree kind requires a connected graph on n-1 edges")

    @property
    def edge_count(self) -> int:
        """``len(self.edges)``; for a path or cycle read off ``n``, so it
        builds no edge tuple."""
        kind = self.kind
        if kind == PATH:
            return self.n - 1
        if kind == CYCLE:
            return self.n
        return len(self.edges)

    def is_connected(self) -> bool:
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def incidence(self) -> list[list[int]]:
        """Per vertex, the storage indices of its incident edges."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return inc

    def degrees(self) -> list[int]:
        return [len(ids) for ids in self.incidence()]


def _chain_edges(n: int, closed: bool) -> tuple[tuple[int, int], ...]:
    """(0,1), (1,2), .., (n-2,n-1), then (n-1,0) when ``closed``."""
    return tuple(zip(range(n - 1), range(1, n))) + ((n - 1, 0),) * closed


def _chain(n: int, kind: str) -> SimpleGraph:
    """The path or cycle on n vertices.  Its edges are its own chain
    edges, derived when first read (see ``_ChainEdges``), so its shape
    needs no check."""
    graph = object.__new__(SimpleGraph)
    set_field(graph, "n", n)
    set_field(graph, "kind", kind)
    return graph


def path_graph(n: int) -> SimpleGraph:
    """P_n on vertices 0..n-1."""
    if n < 2:
        raise InvalidGraphError("paths need at least two vertices")
    if n > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"path of {n} vertices exceeds cap {DEFAULT_ENUM_CAP}")
    return _chain(n, PATH)


def cycle_graph(n: int) -> SimpleGraph:
    """C_n on vertices 0..n-1."""
    if n < 3:
        raise InvalidGraphError("cycles need at least three vertices")
    if n > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"cycle of {n} vertices exceeds cap {DEFAULT_ENUM_CAP}")
    return _chain(n, CYCLE)


def tree_graph(n: int, edges: tuple[tuple[int, int], ...] | list) -> SimpleGraph:
    """A tree on vertices 0..n-1 with the given edge storage order."""
    return SimpleGraph(n, tuple((int(u), int(v)) for u, v in edges), TREE)


def star_graph(leaves: int) -> SimpleGraph:
    """The star with the given number of leaves; vertex 0 is the center."""
    if leaves < 1:
        raise InvalidGraphError("stars need at least one leaf")
    return tree_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
