"""Structural invariants: independence number, vertex connectivity,
claw-freeness, combinatorial-embedding verification, and the symmetry of a
graph: its canonical form, automorphism group generators and edge orbits,
all from one individualisation-refinement search.

Everything here is exact.  Planarity is only ever certified by checking a
supplied rotation system against Euler's formula; there is deliberately no
general planarity test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, LimitExceeded, bits_of, is_connected, twin_classes


# ---------------------------------------------------------------------------
# independence number


def _clique_cover_bound(adj: tuple[int, ...], weight, remaining: int) -> int:
    """The summed heaviest ``weight`` of the cliques in a greedy sequential
    cover of the masked subgraph.

    An independent set takes at most one vertex from each clique, so any
    clique cover bounds its weight from above.  Cliques are seeded at the
    lowest uncovered index and grown by lowest eligible index.
    """
    total = 0
    left = remaining
    while left:
        v = (left & -left).bit_length() - 1
        left ^= 1 << v
        top = weight[v]
        common = adj[v] & left
        while common:
            w = (common & -common).bit_length() - 1
            left ^= 1 << w
            common &= adj[w]
            if weight[w] > top:
                top = weight[w]
        total += top
    return total


def _heaviest_independent(
    adj: tuple[int, ...], weight, remaining: int, chosen: int, size: int, best: tuple[int, int]
) -> tuple[int, int]:
    """The heavier of ``best`` and the heaviest (weight, set) that extends
    the independent set ``chosen`` (of weight ``size``) inside
    ``remaining``.

    Branches on the highest-degree vertex of the remaining subgraph (include
    first) and bounds by a greedy clique cover (``_clique_cover_bound``);
    ``best`` wins ties.  The recursion is as deep as ``remaining`` has
    vertices.
    """
    if not remaining:
        return (size, chosen) if size > best[0] else best
    if size + _clique_cover_bound(adj, weight, remaining) <= best[0]:
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
    best = _heaviest_independent(
        adj, weight, remaining & ~(bit | adj[pick]), chosen | bit, size + weight[pick], best
    )
    return _heaviest_independent(adj, weight, remaining & ~bit, chosen, size, best)


def independence_number(g: Graph, within: int | None = None) -> tuple[int, int]:
    """Exact independence number and one maximum independent set (as a mask)
    of g, or of its subgraph induced on the mask ``within``, by branch and
    bound (``_heaviest_independent``).

    False twins of the subgraph (its ``twin_classes``) always enter a
    maximum independent set together, so the search runs over the lowest
    member of each class, weighted by the class size; its depth is at most
    the class count.  Raises LimitExceeded when that outgrows the
    interpreter's recursion limit.
    """
    return _independent_classes(g, twin_classes(g, within))


def _class_weights(g: Graph, classes) -> tuple[list[int], int]:
    """(weight, reps): the size of each of the ``twin_classes`` ``classes``
    as the weight of its lowest member, and the mask of those members.  The
    heaviest independent set of the members has weight alpha of the union,
    and a ``_clique_cover_bound`` over them is at least that."""
    weight = [0] * g.n
    for c in classes:
        weight[(c & -c).bit_length() - 1] = c.bit_count()
    return weight, sum(c & -c for c in classes)


def _independent_classes(g: Graph, classes) -> tuple[int, int]:
    """``independence_number`` of g on the union of ``classes``, the
    ``twin_classes`` of that subgraph, for callers that already hold
    them."""
    weight, reps = _class_weights(g, classes)
    try:
        size, chosen = _heaviest_independent(g.adj, weight, reps, 0, 0, (0, 0))
    except RecursionError:
        raise LimitExceeded("independence search too deep") from None
    return size, sum(c for c in classes if chosen & c)


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
            if int(head) in rows:
                raise ValueError(f"rotation file lists vertex {int(head)} more than once")
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
# symmetry: one individualisation-refinement search (McKay 1981; McKay & Piperno 2014)

SEARCH_NODE_LIMIT = 200_000  # search-tree nodes before LimitExceeded


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """The coarsest equitable partition finer than the ordered partition
    ``cells`` (vertex masks), which must be equitable towards every cell not
    in the stack ``splitters``.  Cells split in place by neighbour counts in
    a splitter, ordered by count; no step reads a vertex label."""
    n = len(adj)
    while splitters and len(cells) < n:
        w = splitters.pop()
        near = 0  # the vertices with a neighbour in w
        for v in bits_of(w):
            near |= adj[v]
        out = []
        for x in cells:
            touched = x & near
            if touched and x & (x - 1):
                parts = {0: x ^ touched} if x != touched else {}
                for v in bits_of(touched):
                    k = (adj[v] & w).bit_count()
                    parts[k] = parts.get(k, 0) | 1 << v
                if len(parts) > 1:
                    # counts in the first largest fragment follow from the rest
                    fragments = [parts[k] for k in sorted(parts)]
                    largest = max(fragments, key=int.bit_count)
                    splitters += [f for f in fragments if f != largest]
                    out += fragments
                    continue
            out.append(x)
        cells = out
    return cells


def _find(parent, v: int) -> int:
    """Root of v in the union-find forest ``parent``, halving the path."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


class _Search:
    """The individualisation-refinement tree of a graph.  A node is the
    equitable partition reached by individualising its path's vertices in
    turn; its children individualise each member of its first cell that is
    not a twin class, and without one it is a leaf, labelled by its cells in
    order.  ``best`` keeps the least leaf certificate (adjacency rows).
    ``found`` holds swaps of consecutive twins and an automorphism per leaf
    equal to the first or the best one; children are pruned by the orbits of
    those that fix the path, and a first-leaf match returns to that path."""

    def __init__(self, g: Graph):
        self.g = g
        # v's twin class: the vertices with its open neighbourhood, or with
        # its closed one, which are its open twins in the complement
        co = Graph(g.n, tuple(g.full_mask ^ row ^ 1 << v for v, row in enumerate(g.adj)))
        self.twins = [1 << v for v in range(g.n)]
        for c in twin_classes(g) + twin_classes(co):
            if c & (c - 1):  # a vertex has open twins or closed ones, not both
                for v in bits_of(c):
                    self.twins[v] = c
        self.nodes = 0
        self.found: list[tuple[int, ...]] = []
        for v, twins in enumerate(self.twins):
            if twins >> (v + 1):
                w = v + (twins >> (v + 1) & -(twins >> (v + 1))).bit_length()
                swap = list(range(g.n))
                swap[v], swap[w] = w, v
                self.found.append(tuple(swap))
        self.first = self.best = None  # (labelling, certificate, path)
        try:
            self._explore(_refine(g.adj, [g.full_mask] if g.n else [], [g.full_mask]), [])
        except RecursionError:
            raise LimitExceeded("automorphism search tree too deep") from None

    def _explore(self, cells: list[int], path: list[int]) -> int:
        """Search below a node; returns the depth to go back to."""
        self.nodes += 1
        if self.nodes > SEARCH_NODE_LIMIT:
            raise LimitExceeded(f"automorphism search exceeded {SEARCH_NODE_LIMIT} nodes")
        target = next((x for x in cells if x & ~self.twins[(x & -x).bit_length() - 1]), 0)
        if not target:
            return self._leaf([v for x in cells for v in bits_of(x)], path)
        at = cells.index(target)
        done, known = 0, -1  # children searched; len(self.found) at the last orbits
        for v in bits_of(target):
            if done:
                if len(self.found) != known:
                    known, orbit = len(self.found), self._orbits(path)
                if any(orbit[u] == orbit[v] for u in bits_of(done)):
                    continue
            child = cells[:at] + [1 << v, target ^ 1 << v] + cells[at + 1 :]
            back = self._explore(_refine(self.g.adj, child, [1 << v]), path + [v])
            if back < len(path):
                return back
            done |= 1 << v
        return len(path)

    def _leaf(self, lab: list[int], path: list[int]) -> int:
        """Compare the leaf (vertex lab[i] at position i) with the first and the best."""
        pos = tuple(sorted(range(len(lab)), key=lab.__getitem__))  # position of each vertex
        cert = self.g.adj if pos == tuple(range(len(lab))) else permute_graph(self.g, pos).adj
        if self.first is None:
            self.first = self.best = (lab, cert, path)
        elif cert == self.first[1] or cert == self.best[1]:
            other = self.first if cert == self.first[1] else self.best
            self.found.append(tuple(w for _, w in sorted(zip(lab, other[0]))))
            if other is self.first:
                return next(d for d, (a, b) in enumerate(zip(path, other[2])) if a != b)
        elif cert < self.best[1]:
            self.best = (lab, cert, path)
        return len(path)

    def _orbits(self, path: list[int]) -> list[int]:
        """Per vertex, its orbit's root under the found automorphisms fixing the path."""
        parent = list(range(self.g.n))
        for perm in self.found:
            if all(perm[v] == v for v in path):
                for v, w in enumerate(perm):
                    a, b = _find(parent, v), _find(parent, w)
                    parent[max(a, b)] = min(a, b)
        return [_find(parent, v) for v in range(self.g.n)]


def canonical_form(g: Graph) -> Graph:
    """Canonically relabelled copy of g (isomorphic graphs give equal graphs):
    the least leaf of the individualisation-refinement search."""
    return Graph(g.n, _Search(g).best[1])


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Permutations (v maps to perm[v]) generating the automorphism group of
    g: swaps of consecutive twins, then the automorphisms the search found."""
    return _Search(g).found


def edge_orbits(g: Graph) -> list[list[tuple[int, int]]]:
    """Partition E(g) into orbits under the full automorphism group: each
    orbit sorted, orbits ordered by their lowest edge.  Swaps of twins make
    the edges between two twin classes (or inside one) one block; a
    union-find joins blocks by the generators and never lists the group."""
    search = _Search(g)
    edges = g.edges()
    # block of edge uv: the mask of the lowest members of the twin classes of u and v
    low = [(t & -t).bit_length() - 1 for t in search.twins]
    blocks = [1 << low[u] | 1 << low[v] for u, v in edges]
    parent = {b: b for b in blocks}
    for perm in search.found:
        if all(low[perm[v]] == low[v] for v in range(g.n)):
            continue  # a swap of twins, which keeps every block
        for b in list(parent):
            image = 1 << low[perm[(b & -b).bit_length() - 1]] | 1 << low[perm[b.bit_length() - 1]]
            i, j = _find(parent, b), _find(parent, image)
            parent[max(i, j)] = min(i, j)
    orbits: dict[int, list[tuple[int, int]]] = {}
    for e, b in zip(edges, blocks):  # ascending, so each orbit is sorted
        orbits.setdefault(_find(parent, b), []).append(e)
    return list(orbits.values())


def permute_graph(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Relabel: vertex v of g becomes perm[v] in the result."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits_of(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))
