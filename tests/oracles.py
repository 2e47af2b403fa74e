"""Independent brute-force implementations used as test oracles.

Deliberately written against a different graph representation (adjacency
sets, python Fractions, itertools subset enumeration) so they share no code
path with the engines they check.
"""

from __future__ import annotations

import math
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
