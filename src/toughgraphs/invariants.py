"""Structural invariants: independence number, vertex connectivity,
claw-freeness, combinatorial-embedding verification, and edge orbits.

Everything here is exact.  Planarity is only ever certified by checking a
supplied rotation system against Euler's formula; there is deliberately no
general planarity test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits_of, is_connected


# ---------------------------------------------------------------------------
# independence number


def _greedy_clique_cover_count(adj: tuple[int, ...], remaining: int) -> int:
    """Number of cliques in a greedy sequential cover of the masked subgraph.

    Any clique cover bounds the independence number from above.  Cliques are
    seeded at the lowest uncovered index and grown by lowest eligible index.
    """
    count = 0
    left = remaining
    while left:
        count += 1
        v = (left & -left).bit_length() - 1
        left ^= 1 << v
        common = adj[v] & left
        while common:
            w = (common & -common).bit_length() - 1
            left ^= 1 << w
            common &= adj[w]
    return count


def independence_number(g: Graph) -> tuple[int, int]:
    """Exact independence number and one maximum independent set (as a mask).

    Branch and bound: branch on the highest-degree vertex of the remaining
    subgraph (include first), bound by a greedy clique cover.
    """
    adj = g.adj
    best_size = 0
    best_set = 0

    def expand(remaining: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if not remaining:
            if size > best_size:
                best_size = size
                best_set = chosen
            return
        if size + _greedy_clique_cover_count(adj, remaining) <= best_size:
            return
        # highest remaining degree, ties to the lowest index
        pick = -1
        pick_deg = -1
        for v in bits_of(remaining):
            d = (adj[v] & remaining).bit_count()
            if d > pick_deg:
                pick_deg = d
                pick = v
        bit = 1 << pick
        expand(remaining & ~(bit | adj[pick]), chosen | bit, size + 1)
        expand(remaining & ~bit, chosen, size)

    expand(g.full_mask, 0, 0)
    return best_size, best_set


def maximum_independent_sets(g: Graph) -> list[int]:
    """All maximum independent sets as masks, ascending.  Exponential; keep n small."""
    alpha, _ = independence_number(g)
    adj = g.adj
    out: list[int] = []

    def extend(start: int, chosen: int, size: int, forbidden: int) -> None:
        if size == alpha:
            out.append(chosen)
            return
        # not enough vertices left to reach alpha
        for v in range(start, g.n - (alpha - size) + 1):
            bit = 1 << v
            if forbidden & bit:
                continue
            extend(v + 1, chosen | bit, size + 1, forbidden | adj[v])

    extend(0, 0, 0, 0)
    return sorted(out)


# ---------------------------------------------------------------------------
# vertex connectivity


def _min_vertex_cut_size(g: Graph, s: int, t: int) -> int:
    """Size of a minimum vertex cut separating non-adjacent s and t.

    Unit-capacity max flow on the split digraph: every vertex v other than
    s, t becomes v_in -> v_out with capacity 1; each edge uv becomes arcs
    u_out -> v_in and v_out -> u_in of effectively unbounded capacity.
    """
    n = g.n
    # node ids: v_in = 2v, v_out = 2v+1
    cap: dict[tuple[int, int], int] = {}
    adj_nodes: list[list[int]] = [[] for _ in range(2 * n)]
    big = n + 1

    def add_arc(a: int, b: int, c: int) -> None:
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = cap.get((b, a), 0)
            adj_nodes[a].append(b)
            adj_nodes[b].append(a)
        cap[(a, b)] += c

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, 1 if v not in (s, t) else big)
    for u, v in g.edges():
        add_arc(2 * u + 1, 2 * v, big)
        add_arc(2 * v + 1, 2 * u, big)

    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = {source: source}
        queue = [source]
        while queue and sink not in parent:
            nxt = []
            for a in queue:
                for b in adj_nodes[a]:
                    if b not in parent and cap.get((a, b), 0) > 0:
                        parent[b] = a
                        nxt.append(b)
            queue = nxt
        if sink not in parent:
            return flow
        b = sink
        while b != source:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] = cap.get((b, a), 0) + 1
            b = a
        flow += 1
        if flow > n:
            raise AssertionError("flow exceeded vertex count")


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; n-1 for complete graphs, 0 if disconnected."""
    n = g.n
    if n <= 1:
        return 0
    if g.is_complete():
        return n - 1
    if not is_connected(g):
        return 0
    # every minimum cut either avoids v0 (then v0 vs some non-neighbor) or
    # contains v0 (then some pair of v0's neighbors ends up separated)
    v0 = min(range(n), key=lambda v: (g.degree(v), v))
    best = g.degree(v0)
    non_nbrs = g.full_mask & ~g.adj[v0] & ~(1 << v0)
    for u in bits_of(non_nbrs):
        best = min(best, _min_vertex_cut_size(g, v0, u))
    nbrs = list(bits_of(g.adj[v0]))
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1 :]:
            if not g.has_edge(x, y):
                best = min(best, _min_vertex_cut_size(g, x, y))
    return best


# ---------------------------------------------------------------------------
# claw-freeness


def is_claw_free(g: Graph) -> tuple[bool, tuple[int, int, int, int] | None]:
    """(True, None) if g has no induced star on three leaves, else
    (False, (center, leaf1, leaf2, leaf3))."""
    for v in range(g.n):
        nbrs = list(bits_of(g.adj[v]))
        if len(nbrs) < 3:
            continue
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if g.has_edge(a, b):
                    continue
                third = g.adj[v] & ~g.adj[a] & ~g.adj[b] & ~(1 << a) & ~(1 << b)
                if third:
                    c = (third & -third).bit_length() - 1
                    return False, (v, a, b, c)
    return True, None


# ---------------------------------------------------------------------------
# rotation systems and embedding verification


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic ordering of the neighbors around every vertex."""

    rotations: tuple[tuple[int, ...], ...]

    def to_text(self) -> str:
        lines = []
        for v, rot in enumerate(self.rotations):
            lines.append(f"{v}: " + " ".join(str(u) for u in rot))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RotationSystem":
        rows: dict[int, tuple[int, ...]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            head, _, rest = line.partition(":")
            rows[int(head)] = tuple(int(tok) for tok in rest.split())
        if set(rows) != set(range(len(rows))):
            raise ValueError("rotation file must cover vertices 0..n-1")
        return cls(tuple(rows[v] for v in range(len(rows))))


def verify_embedding(g: Graph, rot: RotationSystem) -> tuple[bool, int]:
    """Check a rotation system as a planarity certificate via face tracing.

    Faces are traced with next(u, v) = (v, w) where w follows u in the
    rotation at v.  Accepts iff g is connected, every directed edge lies on
    exactly one face, and V - E + F = 2.  Returns (ok, face count).
    """
    if len(rot.rotations) != g.n:
        raise ValueError("rotation system must cover every vertex")
    succ: list[dict[int, int]] = []
    for v in range(g.n):
        ring = rot.rotations[v]
        if sorted(ring) != sorted(bits_of(g.adj[v])):
            raise ValueError(f"rotation at vertex {v} is not a permutation of its neighbors")
        succ.append({u: ring[(i + 1) % len(ring)] for i, u in enumerate(ring)})

    if g.n == 0:
        return False, 0
    edge_count = g.edge_count()
    if edge_count == 0:
        # a single vertex on the sphere has one face
        return g.n == 1, 1

    unused = {(u, v) for u, v in g.edges()} | {(v, u) for u, v in g.edges()}
    faces = 0
    while unused:
        start = min(unused)
        faces += 1
        cur = start
        while True:
            unused.discard(cur)
            u, v = cur
            cur = (v, succ[v][u])
            if cur == start:
                break
            if cur not in unused:
                # directed edge reused: not a valid face partition
                return False, faces
    ok = is_connected(g) and (g.n - edge_count + faces == 2)
    return ok, faces


# ---------------------------------------------------------------------------
# automorphisms and edge orbits


def refine_colors(g: Graph) -> list[int]:
    """Stable neighborhood-refinement coloring (isomorphism invariant)."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in bits_of(g.adj[v]))))
            for v in range(g.n)
        ]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def automorphisms(g: Graph, node_limit: int = 2_000_000) -> list[tuple[int, ...]]:
    """All automorphisms of g by backtracking with refinement pruning.

    Raises RuntimeError when the search tree exceeds node_limit; intended for
    the small, highly structured graphs this package generates.
    """
    n = g.n
    colors = refine_colors(g)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    # map vertices in an order that keeps candidate lists small
    order = sorted(range(n), key=lambda v: (len(by_color[colors[v]]), colors[v], v))
    autos: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n
    nodes = 0

    def backtrack(i: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError(f"automorphism search exceeded {node_limit} nodes")
        if i == n:
            autos.append(tuple(image))
            return
        v = order[i]
        for w in by_color[colors[v]]:
            if used[w]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != g.has_edge(w, image[u]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                backtrack(i + 1)
                used[w] = False
        image[v] = -1

    backtrack(0)
    return autos


def edge_orbits(
    g: Graph, limit: int = 48
) -> tuple[list[list[tuple[int, int]]], dict[tuple[int, int], tuple[tuple[int, int], tuple[int, ...]]]]:
    """Partition E(g) into orbits under the full automorphism group.

    Returns (orbits, transversal) where transversal maps each edge e to
    (representative edge r, automorphism sigma) with sigma(r) = e.  Optional
    optimization feature; results elsewhere never depend on it.
    """
    if g.n > limit:
        raise ValueError(f"edge_orbits limited to n <= {limit}, got {g.n}")
    autos = automorphisms(g)
    edges = g.edges()
    reps: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, ...]]] = {}
    orbit_of: dict[tuple[int, int], tuple[int, int]] = {}
    orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in edges:
        if e in orbit_of:
            continue
        members = []
        for sigma in autos:
            u, v = sigma[e[0]], sigma[e[1]]
            img = (u, v) if u < v else (v, u)
            if img not in orbit_of:
                orbit_of[img] = e
                reps[img] = (e, sigma)
                members.append(img)
        orbits[e] = sorted(members)
    return [orbits[k] for k in sorted(orbits)], reps


def permute_graph(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Relabel: vertex v of g becomes perm[v] in the result."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits_of(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))

