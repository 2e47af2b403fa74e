"""Structural invariants: independence number, vertex connectivity,
claw-freeness, combinatorial-embedding verification, and edge orbits.

Everything here is exact.  Planarity is only ever certified by checking a
supplied rotation system against Euler's formula; there is deliberately no
general planarity test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, LimitExceeded, bits_of, is_connected


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


def _grow_independent(
    adj: tuple[int, ...], remaining: int, chosen: int, size: int, best: tuple[int, int]
) -> tuple[int, int]:
    """The larger of ``best`` and the largest (size, set) that extends the
    independent set ``chosen`` (``size`` vertices) inside ``remaining``.

    Branches on the highest-degree vertex of the remaining subgraph (include
    first) and bounds by a greedy clique cover; ``best`` wins ties.
    """
    if not remaining:
        return (size, chosen) if size > best[0] else best
    if size + _greedy_clique_cover_count(adj, remaining) <= best[0]:
        return best
    # highest remaining degree, ties to the lowest index
    pick = -1
    pick_deg = -1
    for v in bits_of(remaining):
        d = (adj[v] & remaining).bit_count()
        if d > pick_deg:
            pick_deg = d
            pick = v
    bit = 1 << pick
    best = _grow_independent(adj, remaining & ~(bit | adj[pick]), chosen | bit, size + 1, best)
    return _grow_independent(adj, remaining & ~bit, chosen, size, best)


def independence_number(g: Graph, within: int | None = None) -> tuple[int, int]:
    """Exact independence number and one maximum independent set (as a mask)
    of g, or of its subgraph induced on the mask ``within``, by branch and
    bound (``_grow_independent``)."""
    return _grow_independent(g.adj, g.full_mask if within is None else within, 0, 0, (0, 0))


def _extend_to_size(
    adj: tuple[int, ...], alpha: int, start: int, chosen: int, size: int,
    forbidden: int, out: list[int],
) -> None:
    """Append to ``out`` every independent set of ``alpha`` vertices that
    extends ``chosen`` (``size`` vertices) by vertices from ``start`` on that
    are not ``forbidden``."""
    if size == alpha:
        out.append(chosen)
        return
    # not enough vertices left to reach alpha
    for v in range(start, len(adj) - (alpha - size) + 1):
        bit = 1 << v
        if forbidden & bit:
            continue
        _extend_to_size(adj, alpha, v + 1, chosen | bit, size + 1, forbidden | adj[v], out)


def maximum_independent_sets(g: Graph) -> list[int]:
    """All maximum independent sets as masks, ascending.  Exponential; keep n small."""
    alpha, _ = independence_number(g)
    out: list[int] = []
    _extend_to_size(g.adj, alpha, 0, 0, 0, 0, out)
    return sorted(out)


# ---------------------------------------------------------------------------
# vertex connectivity


def _local_connectivity(adj: tuple[int, ...], s: int, t: int, cap: int) -> int:
    """min(cap, number of internally vertex-disjoint s-t paths) for
    non-adjacent s and t, which by Menger is the smallest vertex cut
    separating them.

    Every common neighbor x carries its own path s-x-t and lies on every
    s-t cut, so those paths are counted and the common neighbors deleted
    first.  Greedy paths s-a-b-t start the flow, and augmenting paths in the
    vertex-split residual graph (v_in -> v_out with capacity 1 for inner
    vertices) raise it, one bitmask BFS level at a time.  The search stops
    once the flow reaches ``cap``: the caller only needs the minimum over
    pairs, so a count above the current best carries no information.
    """
    sbit, tbit = 1 << s, 1 << t
    common = adj[s] & adj[t]
    flow = common.bit_count()
    if flow >= cap:
        return cap
    # prev[v]: the vertex whose path arc enters inner vertex v, read only
    # for v in used; an inner vertex carries flow iff an arc enters it
    prev = [0] * len(adj)
    used = 0
    near_t = adj[t] & ~common
    for a in bits_of(adj[s] & ~common):
        b = adj[a] & near_t & ~used
        if b:
            b &= -b
            prev[a] = s
            prev[b.bit_length() - 1] = a
            used |= (1 << a) | b
            flow += 1
            if flow >= cap:
                return cap
    reached_in = [0] * len(adj)  # node the BFS entered v_in from (v: v_out)
    reached_out = [0] * len(adj)  # node the BFS entered v_out from (v: v_in)
    blocked = common | sbit
    while flow < cap:
        seen_in = blocked
        seen_out = sbit
        grow_out = sbit
        while grow_out:
            # out-nodes reach their neighbors' in-nodes (unbounded arcs) and,
            # when the vertex carries flow, its own in-node (cancelling it)
            grow_in = 0
            for v in bits_of(grow_out):
                new = (adj[v] | (used & (1 << v))) & ~seen_in & ~grow_in
                grow_in |= new
                for u in bits_of(new):
                    reached_in[u] = v
            seen_in |= grow_in
            if grow_in & tbit:
                break
            # in-nodes reach their own out-node when free, else the out-node
            # of the path predecessor (cancelling that path arc)
            grow_out = grow_in & ~used & ~seen_out
            for u in bits_of(grow_out):
                reached_out[u] = u
            for u in bits_of(grow_in & used):
                p = prev[u]
                if not (seen_out | grow_out) >> p & 1:
                    grow_out |= 1 << p
                    reached_out[p] = u
            seen_out |= grow_out
        else:
            return flow  # no augmenting path: the flow is maximum
        # walk the augmenting path back from t; only arc flows are stored,
        # and the inner arcs follow from them
        u = t
        while True:
            v = reached_in[u]
            if v != u and u != t:
                # the arc v -> u now carries a path (t has no predecessor slot)
                prev[u] = v
                used |= 1 << u
            if v == s:
                break
            x = reached_out[v]
            if x != v:
                # entered v_out backwards along the path arc v -> x: cancel it
                used &= ~(1 << x)
            u = x
        flow += 1
    return cap


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
    adj = g.adj
    v0 = min(range(n), key=lambda v: (g.degree(v), v))
    best = g.degree(v0)
    pairs = [(v0, u) for u in bits_of(g.full_mask & ~adj[v0] & ~(1 << v0))]
    nbrs = list(bits_of(adj[v0]))
    for i, x in enumerate(nbrs):
        pairs += [(x, y) for y in nbrs[i + 1 :] if not adj[x] >> y & 1]
    for s, t in pairs:
        best = _local_connectivity(adj, s, t, best)
        if best == 1:
            break  # a connected graph has no smaller cut
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


def _map_vertices(
    g: Graph, order: list[int], candidates: list[list[int]], i: int,
    image: list[int], used: list[bool], autos: list[tuple[int, ...]],
    nodes: int, node_limit: int,
) -> int:
    """Extend the partial automorphism ``image`` of ``order[:i]`` in every
    way, appending each complete one to ``autos``; returns the search-tree
    node count so far, ``nodes`` being the count before this node."""
    nodes += 1
    if nodes > node_limit:
        raise LimitExceeded(f"automorphism search exceeded {node_limit} nodes")
    if i == g.n:
        autos.append(tuple(image))
        return nodes
    v = order[i]
    for w in candidates[v]:
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
            nodes = _map_vertices(g, order, candidates, i + 1, image, used, autos, nodes, node_limit)
            used[w] = False
    image[v] = -1
    return nodes


def automorphisms(g: Graph, node_limit: int = 2_000_000) -> list[tuple[int, ...]]:
    """All automorphisms of g by backtracking with refinement pruning.

    Raises LimitExceeded when the search tree exceeds node_limit; intended for
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
    candidates = [by_color[colors[v]] for v in range(n)]
    _map_vertices(g, order, candidates, 0, [-1] * n, [False] * n, autos, 0, node_limit)
    return autos


def edge_orbits(g: Graph, limit: int = 48) -> list[list[tuple[int, int]]]:
    """Partition E(g) into orbits under the full automorphism group: each
    orbit sorted, orbits ordered by their lowest edge."""
    if g.n > limit:
        raise ValueError(f"edge_orbits limited to n <= {limit}, got {g.n}")
    autos = automorphisms(g)
    orbits: list[list[tuple[int, int]]] = []
    placed: set[tuple[int, int]] = set()
    for u, v in g.edges():  # ascending, so each new orbit starts at its lowest edge
        if (u, v) in placed:
            continue
        orbit = sorted({(min(s[u], s[v]), max(s[u], s[v])) for s in autos})
        placed.update(orbit)
        orbits.append(orbit)
    return orbits


def permute_graph(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Relabel: vertex v of g becomes perm[v] in the result."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits_of(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))

