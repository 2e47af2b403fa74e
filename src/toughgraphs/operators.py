"""Graph constructors and unary/binary operators.

Vertex-order conventions are fixed so downstream certificates are stable:

* ``line_graph``: line-graph vertex k represents the k-th edge of g in
  ascending (u, v) order.
* ``subdivision``: original vertices keep indices 0..n-1; the vertex placed
  on the k-th edge gets index n+k.
* ``cartesian_product``: pair (v, w) maps to index v * |V(h)| + w.
* ``solid_expand``: copies are grouped by base vertex in base order, copy
  numbers ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, build_graph


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path graph needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def line_graph(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Line graph of g plus the map from line-graph vertex to source edge."""
    edges = g.edges()
    if not edges:
        raise ValueError("line graph of an edgeless graph is undefined here")
    k = len(edges)
    out = []
    for a in range(k):
        ua, va = edges[a]
        for b in range(a + 1, k):
            ub, vb = edges[b]
            if ua in (ub, vb) or va in (ub, vb):
                out.append((a, b))
    return build_graph(k, out), edges


def subdivision(g: Graph) -> Graph:
    """Insert one new vertex on every edge of g."""
    edges = g.edges()
    n = g.n
    out = []
    for k, (u, v) in enumerate(edges):
        out.append((u, n + k))
        out.append((n + k, v))
    return build_graph(n + len(edges), out)


def square(g: Graph) -> Graph:
    """Same vertices; adjacency between vertices at distance 1 or 2 in g."""
    adj2 = []
    for v in range(g.n):
        reach = g.adj[v]
        for u in range(g.n):
            if g.adj[v] >> u & 1:
                reach |= g.adj[u]
        adj2.append(reach & ~(1 << v))
    return Graph(g.n, tuple(adj2))


def cartesian_product(g: Graph, h: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Standard Cartesian product: equal in one coordinate, adjacent in the other."""
    nh = h.n
    pairs = [(v, w) for v in range(g.n) for w in range(h.n)]
    edges = []
    for v in range(g.n):
        for w in range(h.n):
            a = v * nh + w
            for w2 in range(w + 1, h.n):
                if h.has_edge(w, w2):
                    edges.append((a, v * nh + w2))
            for v2 in range(v + 1, g.n):
                if g.has_edge(v, v2):
                    edges.append((a, v2 * nh + w))
    return build_graph(g.n * h.n, edges), pairs


def circulant(n: int, residues: set[int]) -> Graph:
    """Vertices 0..n-1; i ~ j iff (i - j) mod n lies in residues or its negation."""
    if n < 2:
        raise ValueError(f"circulant needs n >= 2, got {n}")
    steps = set()
    for a in residues:
        r = a % n
        if r == 0:
            raise ValueError(f"residue {a} is 0 mod {n}")
        steps.add(r)
        steps.add(n - r)
    edges = []
    for i in range(n):
        for d in steps:
            j = (i + d) % n
            if i < j:
                edges.append((i, j))
    return build_graph(n, edges)


@dataclass(frozen=True)
class SolidSpec:
    """A base graph plus a positive multiplicity for every base vertex."""

    base: Graph
    multiplicity: tuple[int, ...]

    def __post_init__(self):
        if len(self.multiplicity) != self.base.n:
            raise ValueError("multiplicity must cover every base vertex")
        if any(s < 1 for s in self.multiplicity):
            raise ValueError("multiplicities must be >= 1")

    @classmethod
    def uniform(cls, base: Graph, s: int) -> "SolidSpec":
        return cls(base, (s,) * base.n)


def solid_expand(spec: SolidSpec) -> tuple[Graph, list[tuple[int, int]]]:
    """Blow up each base vertex into a set of mutually non-adjacent copies.

    Copies of v are pairwise non-adjacent; a copy of v and a copy of w are
    adjacent iff vw is a base edge.  Returns the expanded graph and the map
    from expanded index to (base vertex, copy number).
    """
    base = spec.base
    offsets = []
    total = 0
    for v in range(base.n):
        offsets.append(total)
        total += spec.multiplicity[v]
    index_map = []
    for v in range(base.n):
        for c in range(spec.multiplicity[v]):
            index_map.append((v, c))
    edges = []
    for u, v in base.edges():
        for cu in range(spec.multiplicity[u]):
            for cv in range(spec.multiplicity[v]):
                edges.append((offsets[u] + cu, offsets[v] + cv))
    return build_graph(total, edges), index_map
