"""Immutable simple undirected graphs over indexed vertices.

Adjacency is stored as one Python int bitmask per vertex (bit v of adj[u] is
set iff uv is an edge).  Python ints give exact arbitrary-width vertex sets
for free, so every set operation (union, intersection, complement, popcount)
is a single word-parallel machine operation per limb.  Graphs never mutate;
edits produce new graphs, so instances are safe to share across workers.

Vertex sets throughout the package are plain int masks; ``bits_of`` iterates
their members in ascending index order.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class LimitExceeded(RuntimeError):
    """Input too large for a configured limit of an exhaustive computation
    (a subset scan, an automorphism search)."""


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency."""

    __slots__ = ("n", "adj", "full_mask")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self.full_mask = (1 << n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, ascending."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits_of(rest):
                out.append((u, v))
        return out

    def is_complete(self) -> bool:
        return all(self.adj[v] == self.full_mask ^ (1 << v) for v in range(self.n))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Duplicate edges collapse silently; loops and out-of-range endpoints are
    errors.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u} not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def delete_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    """New graph with one edge removed; g itself is unchanged."""
    u, v = edge
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    """New graph with vertex v removed and higher indices shifted down."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    lo = (1 << v) - 1
    adj = []
    for u in range(g.n):
        if u == v:
            continue
        row = g.adj[u]
        adj.append((row & lo) | ((row >> (v + 1)) << v))
    return Graph(g.n - 1, tuple(adj))


def component_count(adj: tuple[int, ...], alive: int, reps: int) -> int:
    """Number of connected components of the subgraph induced on alive.

    ``reps`` holds the lowest member of each class of a partition into
    twin classes (vertices with identical adjacency rows), and ``alive``
    must be a union of whole classes; the BFS then expands only the members
    of reps, since a twin adds no neighbor its class's lowest member lacks.
    A class with no alive neighbor still counts one component per member.
    With ``reps`` the full vertex mask every vertex is its own class and
    ``alive`` may be any mask.
    """
    count = 0
    while alive:
        count += 1
        comp = alive & -alive
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier & reps
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & alive & ~comp
            comp |= frontier
        alive &= ~comp
    return count


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return component_count(g.adj, g.full_mask, g.full_mask) == 1


def degree_profile(g: Graph) -> tuple[int, int, bool, tuple[int, ...]]:
    """(min degree, max degree, is_regular, per-vertex degree sequence)."""
    degs = tuple(a.bit_count() for a in g.adj)
    if not degs:
        return (0, 0, True, ())
    lo, hi = min(degs), max(degs)
    return (lo, hi, lo == hi, degs)
