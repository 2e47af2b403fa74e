"""Exact toughness with verifiable certificates.

The exhaustive engine enumerates cut-sets made of whole twin classes (maximal
sets of non-adjacent vertices with identical neighborhoods) and keeps the
best candidate under the total order

    (ratio, |S|, mask)   (lexicographic, exact rational comparison)

so the reported witness is always the minimizer with the fewest vertices and,
among those, the numerically smallest bit-vector.  All prunes are admissible:
they only discard subsets that provably cannot beat the current incumbent
under that order, so enabling them, sharding the space, or reordering shards
never changes the result.

Prunes used:
  (a) levels below the vertex connectivity (no cut-set that small exists);
  (b) a per-level subset bound |S| / min(alpha, n - |S|) measured against the
      incumbent (omega can never exceed either term);
  (c) twin closure: a subset splitting a twin class is strictly beaten by
      the same subset minus the split vertex, so the scan runs over subsets
      of twin classes, not of vertices.  The exhaustive limit counts classes,
      and a twin-free graph is scanned vertex by vertex as before.

The same scan answers the per-edge question of minimality: the cut with the
fewest vertices, then the lowest mask, whose ratio is below a target.

Parallel mode shards the space by fixing the membership pattern of the first
p twin classes; each shard's answer is independent of the incumbent it was
seeded with, so the min-merge of shard results is schedule independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .graph import (
    Graph,
    LimitExceeded,
    bits_of,
    component_count,
    delete_edge,
    is_connected,
    mask_of,
)
from .graph6 import parse_graph6, write_graph6
from .invariants import edge_orbits, independence_number, vertex_connectivity
from .ratio import INFINITE, Ratio, parse_ratio


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the toughness engines."""

    exhaustive_limit: int = 26  # most twin classes an exhaustive scan takes
    workers: int = 1
    seed: int = 0
    use_edge_orbits: bool = False
    # with this off, edges that hints and the heuristic cannot resolve are
    # reported inconclusive instead of falling back to exhaustive scans
    allow_exhaustive_edges: bool = True


DEFAULT_CONFIG = EngineConfig()


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CutCertificate:
    """A cut-set claim: removing ``cut`` leaves ``omega`` components.

    The ratio must equal |cut|/omega in lowest terms.  Certificates are
    upper-bound evidence: a verified certificate proves t(g) <= ratio.
    """

    cut: int
    omega: int
    ratio: Ratio

    @classmethod
    def from_cut(cls, g: Graph, cut: int) -> "CutCertificate":
        count = component_count(g.adj, g.full_mask & ~cut, g.full_mask)
        return cls(cut, count, Ratio(cut.bit_count(), count) if count else Ratio(0))

    def vertices(self) -> list[int]:
        return list(bits_of(self.cut))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: Graph, cert: CutCertificate) -> VerifyResult:
    """Recompute the certificate's claims against g."""
    if cert.cut & ~g.full_mask:
        return VerifyResult(False, "cut contains out-of-range vertices")
    count = component_count(g.adj, g.full_mask & ~cert.cut, g.full_mask)
    if count != cert.omega:
        return VerifyResult(
            False, f"component mismatch: claimed {cert.omega}, recomputed {count}"
        )
    if cert.omega < 2:
        return VerifyResult(False, f"omega must be >= 2, got {cert.omega}")
    if Ratio(cert.cut.bit_count(), cert.omega) != cert.ratio:
        return VerifyResult(
            False,
            f"ratio mismatch: claimed {cert.ratio}, "
            f"actual {cert.cut.bit_count()}/{cert.omega}",
        )
    return VerifyResult(True)


def write_certificate(g: Graph, cert: CutCertificate) -> str:
    """Serialize in the 'cert v1' text format (LF endings, single spaces)."""
    lines = [
        "cert v1",
        f"graph: {write_graph6(g)}",
        "cut: " + " ".join(str(v) for v in cert.vertices()),
        f"omega: {cert.omega}",
        f"ratio: {cert.ratio.p}/{cert.ratio.q}",
    ]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[Graph, CutCertificate]:
    """Parse a 'cert v1' block into (graph, certificate)."""
    lines = text.splitlines()
    if len(lines) < 5 or lines[0].strip() != "cert v1":
        raise ValueError("not a cert v1 block")
    fields = {}
    for line in lines[1:5]:
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    for key in ("graph", "cut", "omega", "ratio"):
        if key not in fields:
            raise ValueError(f"cert v1 block missing '{key}' line")
    g = parse_graph6(fields["graph"])
    # checked before any shift: an index of 10**12 would ask for a 125 GB mask
    vertices = [int(tok) for tok in fields["cut"].split()]
    if not all(0 <= v < g.n for v in vertices):
        raise ValueError("cut contains out-of-range vertices")
    cut = mask_of(vertices)
    return g, CutCertificate(cut, int(fields["omega"]), parse_ratio(fields["ratio"]))


@dataclass(frozen=True)
class ToughnessResult:
    value: object  # Ratio or INFINITE
    witness: CutCertificate | None
    method: str

    def __str__(self) -> str:
        return f"t = {self.value} ({self.method})"


# ---------------------------------------------------------------------------
# twin classes and the subset scan over them


def twin_classes(g: Graph) -> list[int]:
    """Masks of maximal classes of non-adjacent vertices with identical
    neighborhoods (identical adjacency rows force non-adjacency), ascending,
    which for disjoint masks is by highest member."""
    groups: dict[int, int] = {}
    for v in range(g.n):
        groups[g.adj[v]] = groups.get(g.adj[v], 0) | (1 << v)
    return sorted(groups.values())


def _lowest_members(classes: list[int] | tuple[int, ...]) -> int:
    """The ``reps`` mask of ``component_count``: the lowest member of each
    class.  A BFS over a union of whole classes expands only these: twins
    have the same neighbors, and a component reached through a neighbor
    holds all of their class."""
    reps = 0
    for c in classes:
        reps |= c & -c
    return reps


_NO_INCUMBENT = (0, 0, 0, 0)  # q=0 encodes "none"; a real cut has q = omega >= 2
_NEVER = 1 << 62  # a component count no cut reaches


def _better(p: int, q: int, k: int, mask: int, inc) -> bool:
    """(p/q, k, mask) < incumbent in the engine's total order."""
    ip, iq, ik, imask = inc
    if iq == 0:
        return True
    lhs = p * iq
    rhs = ip * q
    if lhs != rhs:
        return lhs < rhs
    if k != ik:
        return k < ik
    return mask < imask


def _thresholds(
    k: int, best: tuple[int, int, int, int], target: tuple[int, int] | None
) -> tuple[int, int, int]:
    """(needed, needed_tie, tie_below): the component count a cut of k
    vertices needs to replace ``best``, and the count that suffices instead
    for masks below ``tie_below`` (0: no such masks)."""
    bp, bq, bk, bm = best
    if target is not None:
        # below the target; among hits, smallest (|S|, mask) wins
        need = max(k * target[1] // target[0] + 1, 2)
        if bq == 0 or k < bk:
            return need, 0, 0
        if k == bk:
            return _NEVER, need, bm
        return _NEVER, 0, 0
    if bq == 0:
        return 2, 0, 0
    div, rem = divmod(k * bq, bp)
    if rem == 0 and k < bk:
        return max(div, 2), 0, 0
    if rem == 0 and k == bk:
        # ties beat the incumbent only on a smaller mask
        return max(div + 1, 2), max(div, 2), bm
    return max(div + 1, 2), 0, 0


def _scan(
    adj: tuple[int, ...],
    classes: tuple[int, ...],
    prefix: int,
    pbits: int,
    kappa: int,
    alpha: int,
    target: tuple[int, int] | None,
    best: tuple[int, int, int, int],
) -> tuple[int, int, int, int]:
    """Scan the cuts made of whole twin classes whose membership on the low
    ``pbits`` classes is ``prefix``.

    Class subsets run by ascending class count and, within a count,
    ascending value (Gosper).  Classes come in ``twin_classes`` order, so
    class subsets order like the vertex masks they expand to.  Without a
    target, returns the minimum (p, q, |S|, mask) under (ratio, |S|, mask)
    over ``best`` and the cuts that beat it, which is independent of the
    incumbent handed in (it only prunes candidates that cannot beat it).
    With ``target = (p, q)`` and no incumbent, returns the cut of ratio
    below p/q that is smallest under (|S|, mask), or ``_NO_INCUMBENT``.
    """
    n = len(adj)
    full = (1 << n) - 1
    adj_by_bit = {1 << v: adj[v] for v in range(n)}
    reps = _lowest_members(classes)
    ns = len(classes) - pbits
    top = 1 << ns
    # twin-free: class masks are vertex masks and a level is a cut size
    identity = len(classes) == n
    class_by_bit = {1 << i: c for i, c in enumerate(classes[pbits:])}
    base = 0
    for i in bits_of(prefix):
        base |= classes[i]
    # caps[k]: most components a cut of k vertices can leave (0: no cut)
    caps = [min(alpha, n - k) if kappa <= k <= n - 2 else 0 for k in range(n + 1)]
    table = [_thresholds(k, best, target) for k in range(n + 1)]
    sizes = sorted(c.bit_count() for c in classes[pbits:])
    kmin = kmax = base.bit_count()
    for cs in range(ns + 1):
        if cs:
            kmin += sizes[cs - 1]
            kmax += sizes[-cs]
        if kmax < kappa:
            continue
        if kmin > n - 2:
            break
        # level bound: k / min(alpha, n - k) grows with k, so once no cut of
        # kmin vertices can be recorded, no later one can
        k = kmin
        needed0, needed_tie, tie_below = table[k]
        cap = min(alpha, n - k)
        if needed0 > cap and (not tie_below or needed_tie > cap):
            break
        sub = (1 << cs) - 1
        while True:
            if identity:
                s = (sub << pbits) | prefix
            else:
                s = base
                x = sub
                while x:
                    b = x & -x
                    s |= class_by_bit[b]
                    x ^= b
                k = s.bit_count()
                needed0, needed_tie, tie_below = table[k]
                cap = caps[k]
            needed = needed_tie if (tie_below and s < tie_below) else needed0
            if needed <= cap:
                # component count with an early abort once the remaining
                # vertices cannot reach the needed component count.  This is
                # graph.component_count inlined: calling it once per subset
                # cost about 5% of throughput on twin-free G(17, p) and on
                # the per-edge scans of a graph6 stream filter
                alive = full & ~s
                count = 0
                while alive:
                    comp = alive & -alive
                    frontier = comp
                    while frontier:
                        nxt = 0
                        f = frontier & reps
                        while f:
                            b = f & -f
                            nxt |= adj_by_bit[b]
                            f ^= b
                        frontier = nxt & alive & ~comp
                        comp |= frontier
                    count += 1
                    alive &= ~comp
                    if count + alive.bit_count() < needed:
                        count = 0
                        break
                if count >= needed:
                    best = (k, count, k, s)
                    if identity and target is not None:
                        return best  # the first hit in (|S|, mask) order
                    table = [_thresholds(j, best, target) for j in range(n + 1)]
                    needed0, needed_tie, tie_below = table[k]
            if cs == 0:
                break
            # Gosper: next suffix with the same popcount
            c = sub & -sub
            r = sub + c
            sub = r | (((sub ^ r) >> 2) // c)
            if sub >= top:
                break
    return best


def _shard_worker(args):
    return _scan(*args)


def _scan_inputs(g: Graph, cfg: EngineConfig) -> tuple[tuple[int, ...], int, int, int]:
    """(twin classes, independence number, a maximum independent set, a
    lower bound on the vertex connectivity) for a scan of g.  Raises
    LimitExceeded when g has more twin classes than the exhaustive limit."""
    classes = tuple(twin_classes(g))
    if len(classes) > cfg.exhaustive_limit:
        raise LimitExceeded(
            f"{len(classes)} twin classes (n={g.n}) exceed exhaustive limit "
            f"{cfg.exhaustive_limit}; use the heuristic upper-bound search"
        )
    alpha, alpha_set = independence_number(g)
    # max-flow connectivity pays on twin-free graphs; with twins the scan is
    # short and 0 is still a lower bound
    kappa = vertex_connectivity(g) if len(classes) == g.n else 0
    return classes, alpha, alpha_set, kappa


def toughness_exact(g: Graph, cfg: EngineConfig = DEFAULT_CONFIG) -> ToughnessResult:
    """Exact toughness with a verified minimizing certificate.

    Complete graphs give the infinite value with no witness; disconnected
    graphs give 0/1 witnessed by the empty cut.  The exhaustive limit counts
    twin classes, so blow-ups far above it in vertices stay exact.
    """
    if g.n == 0:
        raise ValueError("toughness of the empty graph is undefined")
    if g.is_complete():
        return ToughnessResult(INFINITE, None, "exact")
    if not is_connected(g):
        return ToughnessResult(Ratio(0), CutCertificate.from_cut(g, 0), "exact")
    classes, alpha, alpha_set, kappa = _scan_inputs(g, cfg)

    # seed: the complement of a maximum independent set is always a valid cut
    seed_cut = g.full_mask & ~alpha_set
    seed_omega = alpha_set.bit_count()  # an independent set: one component each
    inc = (seed_cut.bit_count(), seed_omega, seed_cut.bit_count(), seed_cut)

    nq = len(classes)
    pbits = 0
    if cfg.workers > 1 and nq >= 19:
        pbits = min(6, nq - 16)
    if pbits == 0:
        best = _scan(g.adj, classes, 0, 0, kappa, alpha, None, inc)
    else:
        # imported only here: single-worker callers never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        shard_args = [
            (g.adj, classes, prefix, pbits, kappa, alpha, None)
            for prefix in range(1 << pbits)
        ]
        best = inc
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            wave = 4 * cfg.workers
            pending = []
            i = 0
            while i < len(shard_args) or pending:
                while i < len(shard_args) and len(pending) < wave:
                    pending.append(pool.submit(_shard_worker, shard_args[i] + (best,)))
                    i += 1
                done = next(as_completed(pending))
                pending.remove(done)
                cand = done.result()
                if cand[1] and _better(*cand, best):
                    best = cand
    # recompute omega rather than trusting the scan's bookkeeping
    cert = CutCertificate.from_cut(g, best[3])
    check = verify_certificate(g, cert)
    if not check:
        raise AssertionError(f"engine produced an invalid certificate: {check.reason}")
    return ToughnessResult(cert.ratio, cert, "exact")


def find_cut_below(
    g: Graph, target: Ratio, cfg: EngineConfig = DEFAULT_CONFIG
) -> CutCertificate | None:
    """The cut of g with ratio strictly below target that has the fewest
    vertices and, among those, the lowest mask; None when the scan proves no
    such cut exists.  Raises LimitExceeded past the exhaustive limit."""
    classes, alpha, _, kappa = _scan_inputs(g, cfg)
    hit = _scan(g.adj, classes, 0, 0, kappa, alpha, (target.p, target.q), _NO_INCUMBENT)
    return CutCertificate.from_cut(g, hit[3]) if hit[1] else None


# ---------------------------------------------------------------------------
# heuristic upper-bound search


def _shrink(
    chosen: int, classes: list[int], adj: tuple[int, ...], reps: int, full: int
) -> tuple[int, int, int]:
    """Greedy removal pass: drop classes, in class order, while the exact
    ratio improves.  Returns (chosen, weight, omega)."""
    weight = chosen.bit_count()
    omega = component_count(adj, full ^ chosen, reps)
    improved = True
    while improved:
        improved = False
        for c in classes:
            if not chosen & c:
                continue
            cand = chosen ^ c
            w = weight - c.bit_count()
            om = component_count(adj, full ^ cand, reps)
            if om >= 2 and w * omega < weight * om:
                chosen, weight, omega = cand, w, om
                improved = True
                break
    return chosen, weight, omega


def toughness_upper_search(
    g: Graph,
    budget_steps: int = 200_000,
    seed: int = 0,
    restarts: int = 20,
) -> CutCertificate:
    """Seeded annealing over cut-sets; returns the best verified certificate.

    Never claimed optimal.  Every state is a union of whole twin classes
    (all copies of a blown-up vertex enter or leave the cut together), which
    is lossless for the optimum and shrinks solid graphs dramatically; moves
    flip one class and ``component_count`` expands one member per class.
    Restarts are seeded from complements and neighborhoods of greedy
    independent sets followed by a greedy shrink pass, so structured optima
    are reachable even when annealing alone would wander.
    """
    if not is_connected(g):
        raise ValueError("upper search needs a connected graph")
    if g.is_complete():
        raise ValueError("complete graphs have no cut-set")
    # classes in the scan's order (by highest member), so unions of classes
    # order like the class subsets they are made of
    adj = g.adj
    classes = twin_classes(g)
    reps = _lowest_members(classes)
    nq = len(classes)
    full = g.full_mask
    rng = random.Random(seed)

    def nbrs(c: int) -> int:
        # twins share their row, so any member gives the class's neighbors
        return adj[c.bit_length() - 1]

    def greedy_independent(order: list[int]) -> int:
        chosen = 0
        blocked = 0
        for i in order:
            c = classes[i]
            if not blocked & c:
                chosen |= c
                blocked |= c | nbrs(c)
        return chosen

    def greedy_clique_packing(order: list[int], cap: int) -> int:
        """Pairwise non-adjacent cliques of classes, greedily grown; the
        complement of their union is a cut whose residue components are
        exactly the packed cliques, which matches the structure of many
        optimal cuts."""
        packed = 0
        blocked = 0
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

    def neighborhood(mask: int) -> int:
        out = 0
        for v in bits_of(mask & reps):
            out |= adj[v]
        return out & ~mask

    best: tuple[int, int, int] | None = None  # (weight, omega, cut)

    def consider(chosen: int, weight: int, omega: int) -> None:
        nonlocal best
        if omega < 2:
            return
        if best is None or weight * best[1] < best[0] * omega or (
            weight * best[1] == best[0] * omega
            and (weight, chosen) < (best[0], best[2])
        ):
            best = (weight, omega, chosen)

    steps_per_restart = max(1, budget_steps // max(1, restarts))
    base_order = list(range(nq))
    for r in range(max(1, restarts)):
        order = base_order[:]
        rng.shuffle(order)
        kind = r % 6
        if kind == 0:
            state = full & ~greedy_independent(order)
        elif kind == 1:
            state = full & ~greedy_clique_packing(order, cap=3)
        elif kind == 2:
            state = full & ~greedy_clique_packing(order, cap=nq)
        elif kind == 3:
            state = neighborhood(greedy_independent(order))
        elif kind == 4:
            # the class with the fewest neighbor classes
            lo = min(range(nq), key=lambda i: ((nbrs(classes[i]) & reps).bit_count(), i))
            state = nbrs(classes[lo])
        else:
            state = 0
            for c in classes:
                if rng.random() < 0.5:
                    state |= c
        state, w, om = _shrink(state, classes, adj, reps, full)
        consider(state, w, om)
        energy = w / om if om >= 2 else float(g.n * 2)
        # one long geometric cooling arc per restart: 0.95 per sweep of moves
        temp = 0.5
        best_ratio_seen = energy
        for step in range(steps_per_restart):
            cand = state ^ classes[rng.randrange(nq)]
            if rng.random() < 0.25:
                cand ^= classes[rng.randrange(nq)]
            if cand in (0, full):
                continue
            cw = cand.bit_count()
            com = component_count(adj, full ^ cand, reps)
            ce = cw / com if com >= 2 else float(g.n * 2)
            if ce <= energy or rng.random() < 2.718281828 ** ((energy - ce) / temp):
                state, energy = cand, ce
                if com >= 2:
                    consider(cand, cw, com)
                    if ce < best_ratio_seen - 1e-12:
                        best_ratio_seen = ce
                        state, cw, com = _shrink(cand, classes, adj, reps, full)
                        energy = cw / com if com >= 2 else energy
                        consider(state, cw, com)
            if step % nq == nq - 1:
                temp *= 0.95
                if temp < 1e-4:
                    temp = 1e-4
        state, w, om = _shrink(state, classes, adj, reps, full)
        consider(state, w, om)

    if best is not None:
        cut = best[2]
    else:
        # deterministic fallback: the neighbors of the first vertex with a
        # non-neighbor (g is not complete) cut it off from that non-neighbor
        cut = next(adj[v] for v in range(g.n) if adj[v] != full ^ (1 << v))
    cert = CutCertificate.from_cut(g, cut)
    check = verify_certificate(g, cert)
    if not check:
        raise AssertionError(f"upper search produced invalid certificate: {check.reason}")
    return cert


# ---------------------------------------------------------------------------
# solid reduction


def solid_reduced_toughness(spec, cfg: EngineConfig = DEFAULT_CONFIG) -> ToughnessResult:
    """Toughness of a blow-up, through the exact scan of its expansion.

    The copies of a base vertex are twins, so the scan enumerates at most
    2^base.n class subsets however large the multiplicities; LimitExceeded
    is raised when the expansion has more twin classes than the exhaustive
    limit.
    """
    from .operators import solid_expand  # local import to avoid a cycle

    expanded, _ = solid_expand(spec)
    return replace(toughness_exact(expanded, cfg), method="reduced-solid")


# ---------------------------------------------------------------------------
# minimal toughness


@dataclass(frozen=True, slots=True)
class EdgeWitness:
    edge: tuple[int, int]
    certificate: CutCertificate | None  # a cut of g-e below t, if found
    source: str  # template | heuristic | exhaustive | inconclusive

    @property
    def ok(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True, slots=True)
class MinimalityReport:
    """One witness per edge, in edge order; everything else derives from
    them."""

    toughness: object  # Ratio
    entries: tuple[EdgeWitness, ...]

    @property
    def failing_edges(self) -> list[tuple[int, int]]:
        """Edges whose exhaustive scan proved that deleting them keeps t."""
        return [w.edge for w in self.entries if not w.ok and w.source == "exhaustive"]

    @property
    def inconclusive_edges(self) -> list[tuple[int, int]]:
        return [w.edge for w in self.entries if w.source == "inconclusive"]

    @property
    def verdict(self) -> bool | None:
        """None (inconclusive) while any edge is unresolved, even when another
        edge fails; otherwise True exactly when no edge fails."""
        if self.inconclusive_edges:
            return None
        return not self.failing_edges


# The per-edge target scan runs before annealing when 2^q, the number of
# twin-class subsets of G-e, is at most this multiple of the annealing step
# budget.  Measured on G-e of connected graphs with n = 8..14 (2-vCPU VM,
# Python 3.11.7): one annealing step costs 4.3-6.7 us, and the target scan
# costs 0.60-0.94 us per predicted subset, a ratio of 5.6 to 11.2.  The
# multiple sits below the smallest ratio, so a routed edge is predicted to
# scan faster than annealing alone runs.  At the default budget it routes
# twin-free graphs with n <= 11 to the scan.
SCAN_STEPS_PER_SUBSET = 4

# The annealing budget of one edge is min(MINIMALITY_HEURISTIC_STEPS, 60 n).
MINIMALITY_HEURISTIC_STEPS = 4_000


def _witness_for_edge(
    g: Graph,
    edge: tuple[int, int],
    target: Ratio,
    cfg: EngineConfig,
    hint: CutCertificate | None,
    edge_index: int,
) -> EdgeWitness:
    """Find a cut of g-e with ratio strictly below target.

    Tries the supplied hint, then the exhaustive scan when it is predicted
    cheaper than the short deterministic heuristic run, else that heuristic
    run followed by the scan.  Without a certificate, source "exhaustive"
    means the scan proved no such cut exists, and "inconclusive" that the
    edge stayed unresolved.
    """
    ge = delete_edge(g, edge)
    if hint is not None:
        if verify_certificate(ge, hint) and hint.ratio < target:
            return EdgeWitness(edge, hint, "template")
    if not is_connected(ge):
        return EdgeWitness(edge, CutCertificate.from_cut(ge, 0), "exhaustive")
    steps = min(MINIMALITY_HEURISTIC_STEPS, 60 * g.n)
    scan_first = (
        cfg.allow_exhaustive_edges
        and 1 << len(twin_classes(ge)) <= SCAN_STEPS_PER_SUBSET * steps
    )
    if not scan_first:
        # g-e lacks the edge, so it is never complete
        cert = toughness_upper_search(ge, steps, seed=cfg.seed * 7919 + edge_index, restarts=3)
        if cert.ratio < target:
            return EdgeWitness(edge, cert, "heuristic")
        if not cfg.allow_exhaustive_edges:
            return EdgeWitness(edge, None, "inconclusive")
    try:
        cert = find_cut_below(ge, target, cfg)
    except LimitExceeded:
        return EdgeWitness(edge, None, "inconclusive")
    return EdgeWitness(edge, cert, "exhaustive")


def is_minimally_tough(
    g: Graph,
    cfg: EngineConfig = DEFAULT_CONFIG,
    hints: dict[tuple[int, int], CutCertificate] | None = None,
    toughness: Ratio | None = None,
) -> MinimalityReport:
    """Decide whether deleting any single edge strictly lowers the toughness.

    verdict True requires a verified below-t certificate for every edge;
    False requires at least one edge whose exhaustive scan proves the
    toughness survives; None (inconclusive) means some edge could be resolved
    neither way within the configured limits.

    ``toughness`` skips the exact computation of t.  Pass only the exact
    value (a ``toughness_exact`` result), never the ratio of an upper-bound
    certificate: every edge is tested against it, so a value above t would
    let edges that keep t pass as ones that lower it.
    """
    if not is_connected(g):
        raise ValueError("minimality is defined for connected graphs")
    if g.is_complete():
        raise ValueError("complete graphs are never minimally tough")
    t = toughness_exact(g, cfg).value if toughness is None else toughness
    hints = hints or {}

    rep_map = None
    if cfg.use_edge_orbits and g.n <= 48:
        try:
            _, rep_map = edge_orbits(g)
        except LimitExceeded:
            rep_map = None

    solved: dict[tuple[int, int], EdgeWitness] = {}
    for idx, edge in enumerate(g.edges()):
        if rep_map is not None:
            rep, sigma = rep_map[edge]
            if rep != edge and rep in solved and solved[rep].ok:
                mapped = mask_of(sigma[v] for v in bits_of(solved[rep].certificate.cut))
                cand = CutCertificate.from_cut(delete_edge(g, edge), mapped)
                if cand.omega >= 2 and cand.ratio < t:
                    solved[edge] = EdgeWitness(edge, cand, solved[rep].source)
                    continue
        solved[edge] = _witness_for_edge(g, edge, t, cfg, hints.get(edge), idx)
    return MinimalityReport(t, tuple(solved.values()))


# ---------------------------------------------------------------------------
# degree-excess filter (minimum degree above the 2t ceiling)


@dataclass(frozen=True)
class DegreeExcessReport:
    """Outcome of screening one graph for the minimum-degree excess property:
    connected, non-complete, minimally tough, and delta > ceil(2t)."""

    is_hit: bool
    inconclusive: bool = False
    toughness: object = None
    delta: int = 0
    ceil_2t: int = 0
    delta_over_t: Ratio | None = None
    regular: bool = False
    reason: str = ""


def degree_excess_filter(
    g: Graph, cfg: EngineConfig = DEFAULT_CONFIG, min_delta: int | None = None
) -> DegreeExcessReport:
    """Flag g iff it is connected, non-complete, minimally t-tough, and its
    minimum degree strictly exceeds ceil(2t).  Cheap screens run first."""
    if not is_connected(g):
        return DegreeExcessReport(False, reason="disconnected")
    if g.is_complete():
        return DegreeExcessReport(False, reason="complete")
    delta = min(g.degree(v) for v in range(g.n))
    if min_delta is not None and delta < min_delta:
        return DegreeExcessReport(False, delta=delta, reason="degree screen")
    try:
        t = toughness_exact(g, cfg).value
    except LimitExceeded:
        return DegreeExcessReport(False, inconclusive=True, reason="over exhaustive limit")
    ceil_2t = t.ceil_of_double()
    regular = delta == max(g.degree(v) for v in range(g.n))
    verdict, reason = False, "degree within ceiling"
    if delta > ceil_2t:
        verdict = is_minimally_tough(g, cfg, toughness=t).verdict
        reasons = {True: "", False: "not minimally tough", None: "minimality inconclusive"}
        reason = reasons[verdict]
    return DegreeExcessReport(
        verdict is True,
        inconclusive=verdict is None,
        toughness=t,
        delta=delta,
        ceil_2t=ceil_2t,
        delta_over_t=Ratio(delta * t.q, t.p) if verdict else None,
        regular=regular,
        reason=reason,
    )
