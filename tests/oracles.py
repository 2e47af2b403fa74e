"""Independent brute-force implementations used as test oracles.

Deliberately written against a different graph representation (adjacency
sets, python Fractions, itertools subset enumeration) so they share no code
path with the engines they check.  The exception is ``vertex_mask_anneal``,
the annealing search on vertex masks as it was before it moved to the twin
quotient: a seeded heuristic has no independent answer, so its former
implementation is the reference the current one must match.
``min_adjacency_form`` is the enumerator's former canonical form, kept as a
second, independently built one, ``bitwise_parse_graph6`` the graph6
decoder as it was before it read whole columns, and ``sweep_flood`` the
scan's lane flood as it was before it kept a worklist of stale classes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from toughgraphs.graph import Graph


def adj_sets(g: Graph) -> list[set[int]]:
    return [set(u for u in range(g.n) if g.adj[v] >> u & 1) for v in range(g.n)]


def set_components(adj: list[set[int]], removed: set[int]) -> int:
    n = len(adj)
    alive = [v for v in range(n) if v not in removed]
    seen: set[int] = set()
    count = 0
    for start in alive:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in removed and u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def set_connected(adj: list[set[int]]) -> bool:
    return len(adj) > 0 and set_components(adj, set()) == 1


def brute_toughness(g: Graph):
    """min |S|/omega over all subsets with omega >= 2 (Fraction), or math.inf
    for complete graphs, Fraction(0) for disconnected ones."""
    n = g.n
    adj = adj_sets(g)
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return math.inf
    best = None
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            removed = set(subset)
            comps = set_components(adj, removed)
            if comps >= 2:
                r = Fraction(k, comps)
                if best is None or r < best:
                    best = r
    assert best is not None
    return best


def brute_witness(g: Graph, groups: list[list[int]] | None = None):
    """Minimum of (Fraction |S|/omega, |S|, mask) over all cut-sets S with
    omega >= 2, or None when there is none (complete graphs).  With
    ``groups``, S runs over unions of the groups instead of vertex subsets."""
    adj = adj_sets(g)
    groups = groups if groups is not None else [[v] for v in range(g.n)]
    best = None
    for r in range(len(groups) + 1):
        for chosen in combinations(groups, r):
            removed = {v for group in chosen for v in group}
            comps = set_components(adj, removed)
            if comps >= 2:
                k = len(removed)
                key = (Fraction(k, comps), k, sum(1 << v for v in removed))
                if best is None or key < best:
                    best = key
    return best


def brute_first_below(g: Graph, target: Fraction):
    """(|S|, mask) of the cut-set with ratio strictly below target that has
    the fewest vertices and then the lowest mask; None when there is none."""
    adj = adj_sets(g)
    for k in range(g.n + 1):
        masks = []
        for subset in combinations(range(g.n), k):
            comps = set_components(adj, set(subset))
            if comps >= 2 and Fraction(k, comps) < target:
                masks.append(sum(1 << v for v in subset))
        if masks:
            return k, min(masks)
    return None


def brute_within_degree_ceiling(g: Graph) -> bool:
    """Whether no cut-set S has omega(G - S) >= 2 and 2|S| <= (delta - 1)
    omega(G - S), that is, whether t(g) > (delta - 1)/2, in integers."""
    adj = adj_sets(g)
    delta = min(len(nbrs) for nbrs in adj)
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            comps = set_components(adj, set(subset))
            if comps >= 2 and 2 * k <= (delta - 1) * comps:
                return False
    return True


def brute_alpha(g: Graph) -> int:
    adj = adj_sets(g)
    best = 0
    for k in range(g.n, 0, -1):
        if k <= best:
            break
        for subset in combinations(range(g.n), k):
            if all(u not in adj[v] for u, v in combinations(subset, 2)):
                best = k
                break
    return best


def brute_max_independent_sets(g: Graph) -> list[set[int]]:
    adj = adj_sets(g)
    alpha = brute_alpha(g)
    out = []
    for subset in combinations(range(g.n), alpha):
        if all(u not in adj[v] for u, v in combinations(subset, 2)):
            out.append(set(subset))
    return out


def brute_vertex_connectivity(g: Graph) -> int:
    n = g.n
    adj = adj_sets(g)
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1
    if not set_connected(adj):
        return 0
    for k in range(n - 1):
        for subset in combinations(range(n), k):
            if set_components(adj, set(subset)) >= 2:
                return k
    return n - 1


def group_order(n: int, gens, cap: int = 1000) -> int | None:
    """Order of the permutation group on range(n) generated by ``gens``
    (perm[v] is the image of v), by listing its elements; None once it has
    more than ``cap``."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for p in frontier:
            for s in gens:
                q = tuple(s[p[v]] for v in range(n))
                if q not in seen:
                    if len(seen) == cap:
                        return None
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return len(seen)


def _refine_colors(g: Graph) -> list[int]:
    """Stable neighborhood-refinement coloring (isomorphism invariant)."""
    adj = adj_sets(g)
    colors = [len(adj[v]) for v in range(g.n)]
    while True:
        keys = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(g.n)]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _min_adjacency_string(adj, position_class, placed, placed_mask, cols, best):
    """The smaller of ``best`` and the least (adjacency columns, vertex order)
    over the completions of the order ``placed``, whose columns are ``cols``
    (``cols[d-1]`` is the adjacency column of position d); each position
    takes a vertex of its ``position_class``."""
    depth = len(placed)
    if depth == len(adj):
        return (cols[:], placed[:]) if best is None or cols < best[0] else best
    seen: list[tuple[int, int, int]] = []
    for w in position_class[depth]:
        if placed_mask >> w & 1:
            continue
        col = 0
        for u in placed:
            col = (col << 1) | (adj[w] >> u & 1)
        # interchangeable with an already-tried candidate: same column and
        # same adjacency outside the placed prefix and the pair itself
        sig = adj[w] & ~placed_mask
        if any(c0 == col and (s0 ^ sig) & ~(1 << w | 1 << w0) == 0 for c0, w0, s0 in seen):
            continue
        seen.append((col, w, sig))
        if depth:
            cols.append(col)
            if best is not None and cols > best[0][:depth]:
                cols.pop()
                continue
        placed.append(w)
        best = _min_adjacency_string(adj, position_class, placed, placed_mask | 1 << w, cols, best)
        placed.pop()
        if depth:
            cols.pop()
    return best


def min_adjacency_form(g: Graph) -> Graph:
    """Relabeled copy of g with the lexicographically least upper-triangle
    adjacency string over the vertex orders that list the classes of a
    stable neighborhood-refinement coloring in color order."""
    if g.n <= 1:
        return g
    colors = _refine_colors(g)
    position_class = [[v for v in range(g.n) if colors[v] == c] for c in sorted(colors)]
    order = _min_adjacency_string(g.adj, position_class, [], 0, [], None)[1]
    pos = {v: i for i, v in enumerate(order)}
    adj = adj_sets(g)
    return Graph(g.n, tuple(sum(1 << pos[u] for u in adj[v]) for v in order))


def ratio_of(cert_ratio) -> Fraction:
    return Fraction(cert_ratio.p, cert_ratio.q)


def _count_over_classes(adj: tuple[int, ...], alive: int, reps: int) -> int:
    """Components on ``alive`` (a union of whole twin classes) by a BFS that
    expands only ``reps``, the lowest member of each class."""
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


def vertex_mask_anneal(g: Graph, budget_steps: int, seed: int, restarts: int):
    """(ratio as a Fraction, cut mask) of the annealing upper-bound search as
    it ran on vertex masks, one BFS per step, before it moved to the twin
    quotient.  ``toughness_upper_search`` must make the same RNG draws and
    the same (ratio, |S|, mask) choices, so its result must match this."""
    adj = g.adj
    full = g.full_mask
    groups: dict[int, int] = {}
    for v in range(g.n):
        groups[adj[v]] = groups.get(adj[v], 0) | (1 << v)
    classes = sorted(groups.values())
    reps = 0
    for c in classes:
        reps |= c & -c
    nq = len(classes)
    rng = random.Random(seed)

    def count(alive):
        return _count_over_classes(adj, alive, reps)

    def shrink(chosen):
        weight = chosen.bit_count()
        omega = count(full ^ chosen)
        improved = True
        while improved:
            improved = False
            for c in classes:
                if not chosen & c:
                    continue
                cand = chosen ^ c
                w = weight - c.bit_count()
                om = count(full ^ cand)
                if om >= 2 and w * omega < weight * om:
                    chosen, weight, omega = cand, w, om
                    improved = True
                    break
        return chosen, weight, omega

    def nbrs(c):
        return adj[c.bit_length() - 1]

    def greedy_independent(order):
        chosen = blocked = 0
        for i in order:
            c = classes[i]
            if not blocked & c:
                chosen |= c
                blocked |= c | nbrs(c)
        return chosen

    def greedy_clique_packing(order, cap):
        packed = blocked = 0
        for i in order:
            c = classes[i]
            if blocked & c:
                continue
            clique = c
            nbhd = nbrs(c)
            common = nbhd & ~blocked
            size = 1
            while common and size < cap:
                d = next(classes[x] for x in order if common & classes[x])
                clique |= d
                size += 1
                common &= nbrs(d)
                nbhd |= nbrs(d)
            packed |= clique
            blocked |= clique | nbhd
        return packed

    def neighborhood(mask):
        out = 0
        sel = mask & reps
        while sel:
            b = sel & -sel
            out |= adj[b.bit_length() - 1]
            sel ^= b
        return out & ~mask

    best = None  # (Fraction, |S|, mask)

    def consider(chosen, weight, omega):
        nonlocal best
        if omega >= 2:
            key = (Fraction(weight, omega), weight, chosen)
            if best is None or key < best:
                best = key

    steps_per_restart = max(1, budget_steps // max(1, restarts))
    for r in range(max(1, restarts)):
        order = list(range(nq))
        rng.shuffle(order)
        kind = r % 6
        if kind == 0:
            state = full & ~greedy_independent(order)
        elif kind == 1:
            state = full & ~greedy_clique_packing(order, 3)
        elif kind == 2:
            state = full & ~greedy_clique_packing(order, nq)
        elif kind == 3:
            state = neighborhood(greedy_independent(order))
        elif kind == 4:
            lo = min(range(nq), key=lambda i: ((nbrs(classes[i]) & reps).bit_count(), i))
            state = nbrs(classes[lo])
        else:
            state = 0
            for c in classes:
                if rng.random() < 0.5:
                    state |= c
        state, w, om = shrink(state)
        consider(state, w, om)
        energy = w / om if om >= 2 else float(g.n * 2)
        temp = 0.5
        best_ratio_seen = energy
        for step in range(steps_per_restart):
            cand = state ^ classes[rng.randrange(nq)]
            if rng.random() < 0.25:
                cand ^= classes[rng.randrange(nq)]
            if cand in (0, full):
                continue
            cw = cand.bit_count()
            com = count(full ^ cand)
            ce = cw / com if com >= 2 else float(g.n * 2)
            if ce <= energy or rng.random() < 2.718281828 ** ((energy - ce) / temp):
                state, energy = cand, ce
                if com >= 2:
                    consider(cand, cw, com)
                    if ce < best_ratio_seen - 1e-12:
                        best_ratio_seen = ce
                        state, cw, com = shrink(cand)
                        energy = cw / com if com >= 2 else energy
                        consider(state, cw, com)
            if step % nq == nq - 1:
                temp = max(temp * 0.95, 1e-4)
        state, w, om = shrink(state)
        consider(state, w, om)
    if best is not None:
        return best[0], best[2]
    cut = next(adj[v] for v in range(g.n) if adj[v] != full ^ (1 << v))
    return Fraction(cut.bit_count(), count(full ^ cut)), cut


def sweep_flood(nbrs, sizes, base: int, bits: int):
    """The lane flood of the block ``base | j`` (j < 2^bits) as it ran with
    whole sweeps: every swept class is looked at on every sweep, forward and
    backward in turn, until one whole sweep changes nothing.  Returns
    (lanes left disconnected, alive, reached, seeds) in the form of
    ``toughness._disconnected_lanes``, with the lane patterns, seeds and
    lone classes found here lane by lane.  Every lane is seeded at the
    lowest class past the lanes that ``base`` leaves uncut, else at the
    lane's lowest uncut class."""
    q, lanes = len(nbrs), 1 << bits
    ones = (1 << lanes) - 1
    # bit j of lane_alive[b]: lane j leaves lane class b uncut
    lane_alive = [sum(1 << j for j in range(lanes) if not j >> b & 1) for b in range(bits)]
    alive = lane_alive + [0 if base >> i & 1 else ones for i in range(bits, q)]
    past = [i for i in range(bits, q) if alive[i]]
    if past:
        seeds = ((past[0], ones),)
    else:
        # lane j is seeded at its lowest uncut class: bits below i set, bit i clear
        low = [(1 << i + 1) - 1 for i in range(bits)]
        seeds = tuple(
            (i, sum(1 << j for j in range(lanes) if j & low[i] == low[i] >> 1))
            for i in range(bits)
        )
    reached = [0] * q
    for i, lanes_ in seeds:
        reached[i] = lanes_
    order = [i for i in range(q) if alive[i]]
    sweeps = (order, order[::-1])
    changed, d = True, 0
    while changed:
        changed = False
        for i in sweeps[d]:
            grown = reached[i]
            for j in nbrs[i]:
                grown |= alive[i] & reached[j]
            if grown != reached[i]:
                reached[i] = grown
                changed = True
        d ^= 1
    out = 0
    for j in range(lanes):
        left = [i for i in order if alive[i] >> j & 1]
        # an alive class unreached, or the only alive class, of 2+ members
        if any(not reached[i] >> j & 1 for i in left) or len(left) == 1 and sizes[left[0]] > 1:
            out |= 1 << j
    return out, alive, reached, seeds


def bitwise_parse_graph6(line: str) -> Graph:
    """graph6 decoded one bit at a time, with the same error messages as
    ``graph6.parse_graph6``."""
    s = line.strip().removeprefix(">>graph6<<").strip()
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) for c in s]
    for byte in data:
        if not 63 <= byte <= 126:
            raise ValueError(f"byte {byte} outside graph6 range 63..126")
    if data[0] == 126:
        if len(data) >= 4 and data[1] == 126:
            raise ValueError("graph6 n > 258047 not supported")
        if len(data) < 4:
            raise ValueError("truncated extended graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body length {len(body)} does not match n={n} (need {(nbits + 5) // 6})"
        )
    bits = [(byte - 63) >> s_ & 1 for byte in body for s_ in (5, 4, 3, 2, 1, 0)]
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 string")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))
