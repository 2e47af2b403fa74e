"""Independent brute-force implementations used as test oracles.

Deliberately written against a different graph representation (adjacency
sets, python Fractions, itertools subset enumeration) so they share no code
path with the engines they check.  The exception is ``vertex_mask_anneal``,
the annealing search on vertex masks as it was before it moved to the twin
quotient: a seeded heuristic has no independent answer, so its former
implementation is the reference the current one must match.
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
