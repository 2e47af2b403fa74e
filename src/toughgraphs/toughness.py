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
  (a) a per-level subset bound |S| / min(alpha, n - |S|) measured against the
      incumbent (omega can never exceed either term); the bound grows with
      |S|, so no cut at or above the first hopeless size is counted;
  (b) twin closure: a subset splitting a twin class is strictly beaten by
      the same subset minus the split vertex, so the scan runs over subsets
      of twin classes, not of vertices.  The exhaustive limit counts classes.

The scan works on the twin quotient: bit i of a mask is twin class i, and
two classes are adjacent when their members are.  A class mask is split into
three chunks of ceil(q/3) bits, and two tables per chunk, built once per
graph with the quotient, hold the union of the chunk's quotient rows and its
vertex count.  A component grows as

    comp | (T0[chunk 0 of comp] | T1[chunk 1] | T2[chunk 2]) & alive

until it stops changing, three lookups per round however large it is.  A
component made of a single class counts one component per member (twins are
never adjacent).  Classes are ordered by their highest member, so class
masks order like the vertex masks they stand for.

Most cuts leave G - S connected, so a lane-parallel filter runs first.
Class subsets go in blocks of 2^L lanes that share their high bits, lane j
cutting the low L classes set in j.  Each class gets one big integer
whose bit j says "alive in lane j" and one for "reached in lane j", seeded
at the lane's lowest alive class; sweeps over the quotient rows,

    reached[i] |= alive[i] & OR(reached[j] for j adjacent to i),

forward and backward until nothing changes, settle every lane at once.  A
lane survives when an alive class stays unreached, or when its only alive
class has two or more members.  Only survivors are counted with the closure
above, level by level within a block.  Because the minimum under
(ratio, |S|, mask) does not depend on the order cuts are met, blocks may run
in any order; only one block's integers are held at a time.

The same scan answers the per-edge question of minimality: the cut with the
fewest vertices, then the lowest mask, whose ratio is below a target.  There
the cap on component counts is alpha(G - e), derived exactly from alpha(G)
as max(alpha(G), 2 + alpha(G - N[u] - N[v])) for e = uv.

The annealing upper-bound search builds the same quotient (``_quotient``)
and, up to 27 twin classes (chunks of at most 9 bits), anneals over class
masks with the same closure, so a step costs three lookups per round
however many copies a class has.  Past 27 classes, as on the twin-free
36-60 vertex chains, it anneals over vertex masks and counts with
``graph.component_count``.  Class masks order like the vertex masks they
stand for, so the (ratio, |S|, mask) tie-break picks the same certificate
in either form.

Parallel mode splits the single scan's blocks into 64 strided shards, shard
i taking blocks i, i + 64, i + 128, ...; each shard's answer is independent
of the incumbent it was seeded with, so the min-merge of shard results is
schedule independent.
"""

from __future__ import annotations

import os
import random
import struct
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import accumulate

from .graph import (
    Graph,
    LimitExceeded,
    bits_of,
    component_count,
    degree_profile,
    delete_edge,
    is_connected,
    mask_of,
)
from .graph6 import parse_graph6, write_graph6
from .invariants import independence_number
from .ratio import INFINITE, Ratio, parse_ratio


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the toughness engines."""

    exhaustive_limit: int = 26  # most twin classes an exhaustive scan takes
    workers: int = 1
    seed: int = 0
    # with this off, edges that hints and the heuristic cannot resolve are
    # reported inconclusive instead of falling back to exhaustive scans
    allow_exhaustive_edges: bool = True


DEFAULT_CONFIG = EngineConfig()


def usable_cpus() -> int:
    """The CPUs this process may run on; every process pool is capped at
    this, since a fork-started pool forks all its workers at the first
    submit and a wider pool only oversubscribes the cores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _chunk_tables(values, w: int, combine) -> tuple[list[int], ...]:
    """Three tables over the w-bit chunks of a class mask: entry x of table j
    combines ``values[j * w + i]`` over the set bits i of x.  Each value
    doubles its table, extending every entry so far."""
    out = []
    for lo in (0, w, 2 * w):
        t = [0]
        for v in values[lo : lo + w]:
            t += [combine(e, v) for e in t]
        out.append(t)
    return tuple(out)


# the twin quotient of a graph: ``classes`` in ``twin_classes`` order,
# ``rows[i]`` the class mask of class i's neighbours, ``sizes[i]`` its vertex
# count, and the three chunk tables of each over w = ceil(q/3) bits, holding
# their union (T) and their sum (V), so a closure round and a weight take
# three lookups each
_Quotient = namedtuple("_Quotient", "classes rows sizes w T V")


def _quotient(g: Graph, classes: tuple[int, ...]) -> _Quotient:
    """The twin quotient of g over its ``twin_classes``, built once per
    graph.  A class's row gathers the class bits of one member's
    neighbours, taking one neighbour per class; when every class is one
    vertex, the rows are adj."""
    rows = g.adj
    if len(classes) < g.n:
        cbit = {v: 1 << i for i, c in enumerate(classes) for v in bits_of(c)}
        rows = []
        for c in classes:
            nb, row = g.adj[c.bit_length() - 1], 0
            while nb:
                b = cbit[(nb & -nb).bit_length() - 1]
                row |= b
                nb &= ~classes[b.bit_length() - 1]
            rows.append(row)
    sizes = tuple(c.bit_count() for c in classes)
    w = -(-len(classes) // 3)
    T = _chunk_tables(rows, w, int.__or__)
    return _Quotient(classes, tuple(rows), sizes, w, T, _chunk_tables(sizes, w, int.__add__))


# Lane bits L of the scan's disconnection filter: a block of 2^L cuts shares
# one flood over the quotient rows.  Measured with toughness_exact on the
# first 30 graphs of the exact-random pool (twin-free, n = 17) and on the
# four 18-vertex low-width graphs of exact-structured, least of three runs
# (2-vCPU VM, Python 3.11.7): the scan without the filter took 3.45 s and
# 1.40 s; L = 8 took 1.07 s on the pool, L = 10 0.49-0.52 s and 1.07-1.17 s,
# L = 12 0.28 s and 0.95-1.15 s, L = 14 0.27-0.28 s and 1.02-1.15 s.  Below
# 12 the interpreter's cost per big-int operation dominates; 14 gains
# nothing and holds integers four times as large.
_LANE_BITS = 12


@cache
def _lane_patterns(bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alive, levels) for a block of 2^bits lanes, lane j standing for the
    subset whose low free classes are the set bits of j: bit j of
    ``alive[b]`` is set iff bit b of j is clear (free class b stays in
    G - S), and bit j of ``levels[c]`` iff j has c set bits.  Built from
    the patterns of half the lanes, on first use."""
    if bits == 0:
        return (), (1,)
    alive, levels = _lane_patterns(bits - 1)
    half = 1 << (bits - 1)
    return (
        tuple(a | a << half for a in alive) + ((1 << half) - 1,),
        tuple(
            (levels[c] if c < bits else 0) | (levels[c - 1] << half if c else 0)
            for c in range(bits + 1)
        ),
    )


def _disconnected_lanes(nbrs, sizes, base: int, bits: int) -> int:
    """The lanes of the block ``base | j`` (j < 2^bits) whose cut leaves at
    least two components, as bit j of the result.

    ``nbrs[i]`` lists the quotient neighbours of class i and ``sizes[i]``
    its vertex count; ``base`` holds the classes cut in every lane.  Class i
    gets one integer whose bit j says "alive in lane j", and one more for
    "reached in lane j", seeded at each lane's lowest alive class.  Forward
    and backward sweeps over the quotient rows grow the reached lanes until
    no integer changes.  A lane is then disconnected when some alive class
    stays unreached, or when its only alive class has two or more members
    (twins are never adjacent)."""
    lane_alive, _ = _lane_patterns(bits)
    ones = (1 << (1 << bits)) - 1
    alive = [0 if base >> i & 1 else ones for i in range(len(nbrs))]
    alive[:bits] = lane_alive
    order = [i for i, a in enumerate(alive) if a]
    reached = [0] * len(nbrs)
    seen = twice = multi = 0
    for i in order:
        a = alive[i]
        reached[i] = a & ~seen
        twice |= seen & a
        seen |= a
        if sizes[i] > 1:
            multi |= a
    # alternate directions; a sweep that changes nothing proves the fixpoint
    sweeps = (order, order[::-1])
    changed = True
    d = 0
    while changed:
        changed = False
        for i in sweeps[d]:
            r = reached[i]
            grown = 0
            for j in nbrs[i]:
                grown |= reached[j]
            grown = r | alive[i] & grown
            if grown != r:
                reached[i] = grown
                changed = True
        d ^= 1
    out = seen & ~twice & multi
    for i in order:
        out |= alive[i] ^ reached[i]
    return out


def _hopeless(table, caps) -> int:
    """The fewest vertices no cut can be recorded with.  A cut of k vertices
    leaves at most min(alpha, n - k) components, and k / min(alpha, n - k)
    grows with k, so no larger cut can be recorded either."""
    for k, (needed, needed_tie, tie_below) in enumerate(table):
        if needed > caps[k] and (not tie_below or needed_tie > caps[k]):
            return k
    return len(table)


def _scan(
    quotient: _Quotient,
    alpha: int,
    target: tuple[int, int] | None,
    best: tuple[int, int, int, int],
    shard: int = 0,
    shards: int = 1,
) -> tuple[int, int, int, int]:
    """Scan the cuts made of whole twin classes, in the blocks whose index
    is ``shard`` modulo ``shards``.

    The scan runs on the twin quotient: bit i of a subset is class i.
    Classes come in ``twin_classes`` order, so class subsets order like the
    vertex masks they expand to, and the masks handed in and returned are
    vertex masks.  Class subsets run in blocks of 2^``_LANE_BITS`` lanes,
    the low classes, that share their high bits, the block's index;
    ``_disconnected_lanes`` marks the lanes whose cut leaves two or more
    components, and only those have their components counted, by class
    count and then ascending value within the block.  Without a target,
    returns the minimum (p, q, |S|, mask) under (ratio, |S|, mask) over
    ``best`` and the cuts that beat it, which is independent of the
    incumbent handed in (it only prunes candidates that cannot beat it).
    With ``target = (p, q)`` and no incumbent, returns the cut of ratio
    below p/q that is smallest under (|S|, mask), or ``_NO_INCUMBENT``.
    """
    classes, rows, sizes, w, (T0, T1, T2), (V0, V1, V2) = quotient
    n = sum(sizes)
    nq = len(classes)
    full = (1 << nq) - 1
    nbrs = [list(bits_of(r)) for r in rows]
    m = (1 << w) - 1
    w2 = 2 * w
    if best[1]:
        best = best[:3] + (sum(1 << i for i, c in enumerate(classes) if best[3] & c),)
    # caps[k]: most components a cut of k vertices can leave (0: no cut)
    caps = [min(alpha, n - k) if k <= n - 2 else 0 for k in range(n + 1)]
    table = [_thresholds(k, best, target) for k in range(n + 1)]
    kstop = _hopeless(table, caps)
    bits = min(_LANE_BITS, nq)
    _, levels = _lane_patterns(bits)
    nwords = -(-(1 << bits) // 64)
    # klow[c]: fewest vertices that c lane classes hold
    klow = list(accumulate(sorted(sizes[:bits]), initial=0))
    for high in range(shard, 1 << (nq - bits), shards):
        base = high << bits
        kbase = V0[base & m] + V1[base >> w & m] + V2[base >> w2]
        if kbase >= kstop:
            continue
        cut_lanes = _disconnected_lanes(nbrs, sizes, base, bits)
        for c, level in enumerate(levels):
            if kbase + klow[c] >= kstop:
                break
            lanes = cut_lanes & level
            if not lanes:
                continue
            # ascending lanes, 64 at a time: O(1) per lane on a small word
            words = struct.unpack(f"<{nwords}Q", lanes.to_bytes(8 * nwords, "little"))
            for wi, word in enumerate(words):
                while word:
                    low = word & -word
                    word ^= low
                    s = wi << 6 | low.bit_length() - 1 | base
                    k = V0[s & m] + V1[s >> w & m] + V2[s >> w2]
                    needed0, needed_tie, tie_below = table[k]
                    needed = needed_tie if (tie_below and s < tie_below) else needed0
                    if needed > caps[k]:
                        continue
                    # component count with an early abort once the vertices
                    # left cannot reach the needed component count; inline,
                    # since calling the annealing's closure instead was no
                    # faster on exact-random pool graphs and 1.09-1.10x
                    # slower on the 18-vertex low-width graphs (2 cores,
                    # Python 3.11.7)
                    alive = full ^ s
                    count = 0
                    while alive:
                        b = comp = alive & -alive
                        grown = b | (T0[b & m] | T1[b >> w & m] | T2[b >> w2]) & alive
                        while grown != comp:
                            comp = grown
                            grown |= (T0[comp & m] | T1[comp >> w & m] | T2[comp >> w2]) & alive
                        alive ^= comp
                        if comp != b:
                            count += 1
                        else:
                            # a lone class: its members are pairwise non-adjacent
                            count += V0[b & m] + V1[b >> w & m] + V2[b >> w2]
                        left = V0[alive & m] + V1[alive >> w & m] + V2[alive >> w2]
                        if count + left < needed:
                            count = 0
                            break
                    if count >= needed:
                        best = (k, count, k, s)
                        table = [_thresholds(j, best, target) for j in range(n + 1)]
                        kstop = _hopeless(table, caps)
    if best[1]:
        best = best[:3] + (sum(classes[i] for i in bits_of(best[3])),)
    return best


def _check_limit(g: Graph, classes: tuple[int, ...], cfg: EngineConfig) -> None:
    """Raise LimitExceeded when g has more twin classes than the exhaustive
    limit."""
    if len(classes) > cfg.exhaustive_limit:
        raise LimitExceeded(
            f"{len(classes)} twin classes (n={g.n}) exceed exhaustive limit "
            f"{cfg.exhaustive_limit}; use the heuristic upper-bound search"
        )


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
    classes = tuple(twin_classes(g))
    _check_limit(g, classes, cfg)
    quotient = _quotient(g, classes)
    alpha, alpha_set = independence_number(g)

    # seed: the complement of a maximum independent set is always a valid cut
    seed_cut = g.full_mask & ~alpha_set
    seed_omega = alpha_set.bit_count()  # an independent set: one component each
    inc = (seed_cut.bit_count(), seed_omega, seed_cut.bit_count(), seed_cut)

    # Workers 2 against 1 with strided shards on three twin-free G(n, 1/2)
    # per n (2-vCPU VM, Python 3.11.7; seconds, best of two, 1 -> 2):
    # n = 19 0.05 -> 0.11, 0.06 -> 0.08 and 0.03 -> 0.07, n = 20 0.06 -> 0.10,
    # 0.07 -> 0.08 and 0.06 -> 0.10, n = 21 0.17 -> 0.12, 0.09 -> 0.11 and
    # 0.24 -> 0.13, n = 22 0.44 -> 0.23, 0.19 -> 0.16 and 0.13 -> 0.14,
    # n = 23 0.29 -> 0.33, 0.55 -> 0.28 and 0.34 -> 0.22.  The pool's
    # start-up outweighs the filtered scan at 19 and 20 classes; two workers
    # win on two of three graphs at 21 and on four of six at 22 and 23.
    # More workers than CPUs only oversubscribe: chain m=4 took 12.3 s at 8
    # workers against 9.1 s at 2 on 2 cores.
    workers = 1 if len(classes) < 22 else min(cfg.workers, usable_cpus())
    if workers < 2:
        best = _scan(quotient, alpha, None, inc)
    else:
        # imported only here: single-worker callers never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # shard i scans blocks i, i + 64, ... of the single scan; waves of
        # 4 per worker start from the best cut merged so far
        shards = 64
        best = inc
        with ProcessPoolExecutor(max_workers=workers) as pool:
            wave = 4 * workers
            pending = []
            shard = 0
            while shard < shards or pending:
                while shard < shards and len(pending) < wave:
                    pending.append(pool.submit(_scan, quotient, alpha, None, best, shard, shards))
                    shard += 1
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
    classes = tuple(twin_classes(g))
    _check_limit(g, classes, cfg)
    return _cut_below(g, target, _quotient(g, classes), independence_number(g)[0])


def _cut_below(
    g: Graph, target: Ratio, quotient: _Quotient, alpha: int
) -> CutCertificate | None:
    """``find_cut_below`` given g's twin quotient and independence number."""
    hit = _scan(quotient, alpha, (target.p, target.q), _NO_INCUMBENT)
    return CutCertificate.from_cut(g, hit[3]) if hit[1] else None


# ---------------------------------------------------------------------------
# heuristic upper-bound search


# Annealing counts on the twin quotient with the scan's chunk tables while a
# chunk has at most this many bits: q <= 27, the scan's own regime, with 512
# entries per table.  The tables grow as 2^ceil(q/3), to a million entries
# each on the twin-free 60-vertex chain, so past this annealing counts on the
# vertex graph with ``component_count``.  Both sides are measured (2 cores,
# Python 3.11.7, same certificates either way): 9-bit chunks with ceil(q/9)
# lookups per round past 27 classes took 0.26, 0.49-0.55 and 0.69-0.78 s on
# chains m = 6, 8 and 10 against 0.22-0.25, 0.34-0.35 and 0.41-0.47 s for
# ``component_count``; below it, counting without the tables ran whole
# ``beyond-limit`` blow-up runs 1.4-2.1x slower.
_ANNEAL_CHUNK_BITS = 9


def _table_counters(T, V, w: int):
    """(count, weigh) on class masks of the twin quotient, from its chunk
    tables: ``count(alive)`` closes components three lookups per round as
    in ``_scan``, a class with no alive neighbour counting one component per
    member, and ``weigh(s)`` is the number of vertices of s."""
    T0, T1, T2 = T
    V0, V1, V2 = V
    m = (1 << w) - 1
    w2 = 2 * w

    def weigh(s: int) -> int:
        return V0[s & m] + V1[s >> w & m] + V2[s >> w2]

    def count(alive: int) -> int:
        total = 0
        while alive:
            b = comp = alive & -alive
            grown = b | (T0[b & m] | T1[b >> w & m] | T2[b >> w2]) & alive
            while grown != comp:
                comp = grown
                grown |= (T0[comp & m] | T1[comp >> w & m] | T2[comp >> w2]) & alive
            alive ^= comp
            total += 1 if comp != b else V0[b & m] + V1[b >> w & m] + V2[b >> w2]
        return total

    return count, weigh


def _shrink(
    chosen: int, units: list[int], sizes: list[int], full: int, count, weigh
) -> tuple[int, int, int]:
    """Greedy removal pass: drop classes (``units``, of ``sizes`` vertices),
    in class order, while the exact ratio improves; ``count`` and ``weigh``
    give the components left by a state and its vertex count.  Returns
    (chosen, weight, omega)."""
    weight = weigh(chosen)
    omega = count(full ^ chosen)
    improved = True
    while improved:
        improved = False
        for u, size in zip(units, sizes):
            if not chosen & u:
                continue
            cand = chosen ^ u
            w = weight - size
            om = count(full ^ cand)
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
    flip one class.  Up to 27 classes a state is a class mask and its
    components close over the twin quotient with the scan's three-lookup
    tables; past that it is a vertex mask counted by ``component_count``.
    Restarts are seeded from complements and neighborhoods of greedy
    independent sets followed by a greedy shrink pass, so structured optima
    are reachable even when annealing alone would wander.
    """
    if not is_connected(g):
        raise ValueError("upper search needs a connected graph")
    if g.is_complete():
        raise ValueError("complete graphs have no cut-set")
    adj = g.adj
    # classes in the scan's order (by highest member), so class masks order
    # like the vertex masks they stand for, and the (ratio, |S|, mask)
    # tie-break picks the same cut in either form
    classes = tuple(twin_classes(g))
    nq = len(classes)
    tabled = -(-nq // 3) <= _ANNEAL_CHUNK_BITS
    if tabled:
        _, rows, sizes, w, T, V = _quotient(g, classes)
        units = [1 << i for i in range(nq)]  # bit i is class i
        full = reps = (1 << nq) - 1  # each class is its own representative
        count, weigh = _table_counters(T, V, w)
    else:
        rows, units, full = adj, classes, g.full_mask
        sizes = [c.bit_count() for c in classes]
        # the lowest member of each class: a BFS over whole classes expands
        # only these, since twins have the same neighbors
        reps = sum(c & -c for c in classes)
        count = partial(component_count, adj, reps=reps)
        weigh = int.bit_count
    rng = random.Random(seed)

    def nbrs(u: int) -> int:
        # twins share their row, so any member gives the class's neighbors
        return rows[u.bit_length() - 1]

    def greedy_independent(order: list[int]) -> int:
        chosen = 0
        blocked = 0
        for i in order:
            u = units[i]
            if not blocked & u:
                chosen |= u
                blocked |= u | nbrs(u)
        return chosen

    def greedy_clique_packing(order: list[int], cap: int) -> int:
        """Pairwise non-adjacent cliques of classes, greedily grown; the
        complement of their union is a cut whose residue components are
        exactly the packed cliques, which matches the structure of many
        optimal cuts."""
        packed = 0
        blocked = 0
        for i in order:
            u = units[i]
            if blocked & u:
                continue
            clique = u
            nbhd = nbrs(u)
            common = nbhd & ~blocked
            size = 1
            while common and size < cap:
                d = next(units[x] for x in order if common & units[x])
                clique |= d
                size += 1
                common &= nbrs(d)
                nbhd |= nbrs(d)
            packed |= clique
            blocked |= clique | nbhd
        return packed

    def neighborhood(mask: int) -> int:
        out = 0
        for b in bits_of(mask & reps):
            out |= rows[b]
        return out & ~mask

    best = _NO_INCUMBENT  # (|S|, omega, |S|, cut) in the scan's order

    def consider(chosen: int, weight: int, omega: int) -> None:
        nonlocal best
        if omega >= 2 and _better(weight, omega, weight, chosen, best):
            best = (weight, omega, weight, chosen)

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
            lo = min(range(nq), key=lambda i: ((nbrs(units[i]) & reps).bit_count(), i))
            state = nbrs(units[lo])
        else:
            state = 0
            for u in units:
                if rng.random() < 0.5:
                    state |= u
        state, cw, com = _shrink(state, units, sizes, full, count, weigh)
        consider(state, cw, com)
        energy = cw / com if com >= 2 else float(g.n * 2)
        # one long geometric cooling arc per restart: 0.95 per sweep of moves
        temp = 0.5
        best_ratio_seen = energy
        for step in range(steps_per_restart):
            cand = state ^ units[rng.randrange(nq)]
            if rng.random() < 0.25:
                cand ^= units[rng.randrange(nq)]
            if cand in (0, full):
                continue
            if tabled:
                cw = weigh(cand)
                com = count(full ^ cand)
            else:
                # called directly: on the 36-60 vertex chains a ``partial``
                # wrapper here measured 1.02x slower (median of 5 pairs)
                cw = cand.bit_count()
                com = component_count(adj, full ^ cand, reps)
            ce = cw / com if com >= 2 else float(g.n * 2)
            if ce <= energy or rng.random() < 2.718281828 ** ((energy - ce) / temp):
                state, energy = cand, ce
                if com >= 2:
                    consider(cand, cw, com)
                    if ce < best_ratio_seen - 1e-12:
                        best_ratio_seen = ce
                        state, cw, com = _shrink(cand, units, sizes, full, count, weigh)
                        energy = cw / com if com >= 2 else energy
                        consider(state, cw, com)
            if step % nq == nq - 1:
                temp *= 0.95
                if temp < 1e-4:
                    temp = 1e-4
        state, cw, com = _shrink(state, units, sizes, full, count, weigh)
        consider(state, cw, com)

    if best[1]:
        cut = sum(c for c, u in zip(classes, units) if best[3] & u)
    else:
        # deterministic fallback: the neighbors of the first vertex with a
        # non-neighbor (g is not complete) cut it off from that non-neighbor
        cut = next(adj[v] for v in range(g.n) if adj[v] != g.full_mask ^ (1 << v))
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
        """False once any edge fails, whatever the others say; otherwise None
        (inconclusive) while any edge is unresolved, else True."""
        if self.failing_edges:
            return False
        return None if self.inconclusive_edges else True


# The per-edge target scan runs before annealing when 2^q, the number of
# twin-class subsets of G-e, is at most this multiple of the annealing step
# budget.  Measured on G-e of 12 connected G(n, p) per n = 8..14, p in
# 0.3-0.7, four edges each (2-vCPU VM, Python 3.11.7; medians per n of the
# per-edge values): one annealing step at this budget costs 3.9-4.6 us, and
# the filtered quotient scan costs 0.42 us per predicted subset at n = 8,
# 0.15 at n = 10 and 0.07 from n = 12 on, a ratio of 9.1 to 66 (5.8 to 16
# before the lane filter, on the same edges).  The scan's fixed cost per call
# sets the small-n end.  The multiple sits below the smallest ratio, so a
# routed edge is predicted to scan faster than annealing alone runs.
# Raising it would move edges between routes and so change which
# certificate `minimal` prints.  At the default budget it routes twin-free
# graphs with n <= 11 to the scan.
SCAN_STEPS_PER_SUBSET = 4

# The annealing budget of one edge is min(MINIMALITY_HEURISTIC_STEPS, 60 n).
MINIMALITY_HEURISTIC_STEPS = 4_000


def _alpha_without(g: Graph, edge: tuple[int, int], alpha: int) -> int:
    """α(g − uv) from α(g) = ``alpha``, exactly: an independent set of g − uv
    is independent in g, or holds u and v and no other neighbour of either."""
    u, v = edge
    rest = g.full_mask & ~(g.adj[u] | g.adj[v])  # u and v are neighbours in g
    return max(alpha, 2 + independence_number(g, rest)[0])


def _witness_for_edge(
    g: Graph,
    edge: tuple[int, int],
    target: Ratio,
    cfg: EngineConfig,
    hint: CutCertificate | None,
    edge_index: int,
    alpha,
) -> EdgeWitness:
    """Find a cut of g-e with ratio strictly below target.

    Tries the supplied hint, then the exhaustive scan when it is predicted
    cheaper than the short deterministic heuristic run, else that heuristic
    run followed by the scan.  Without a certificate, source "exhaustive"
    means the scan proved no such cut exists, and "inconclusive" that the
    edge stayed unresolved.  ``alpha()`` gives α(g).
    """
    ge = delete_edge(g, edge)
    if hint is not None:
        if verify_certificate(ge, hint) and hint.ratio < target:
            return EdgeWitness(edge, hint, "template")
    if not is_connected(ge):
        return EdgeWitness(edge, CutCertificate.from_cut(ge, 0), "exhaustive")
    steps = min(MINIMALITY_HEURISTIC_STEPS, 60 * g.n)
    classes = tuple(twin_classes(ge))
    nq = len(classes)
    # past the exhaustive limit the scan cannot run, so annealing goes first
    scan_first = (
        cfg.allow_exhaustive_edges
        and nq <= cfg.exhaustive_limit
        and 1 << nq <= SCAN_STEPS_PER_SUBSET * steps
    )
    if not scan_first:
        # g-e lacks the edge, so it is never complete
        cert = toughness_upper_search(ge, steps, seed=cfg.seed * 7919 + edge_index, restarts=3)
        if cert.ratio < target:
            return EdgeWitness(edge, cert, "heuristic")
        if not cfg.allow_exhaustive_edges or nq > cfg.exhaustive_limit:
            return EdgeWitness(edge, None, "inconclusive")
    cert = _cut_below(ge, target, _quotient(ge, classes), _alpha_without(g, edge, alpha()))
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
    toughness survives, even if other edges stay unresolved; None
    (inconclusive) means no edge fails and some edge could be resolved
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
    # α(g), computed once, when the first edge reaches the scan
    alpha = cache(lambda: independence_number(g)[0])
    entries = tuple(
        _witness_for_edge(g, edge, t, cfg, hints.get(edge), idx, alpha)
        for idx, edge in enumerate(g.edges())
    )
    return MinimalityReport(t, entries)


# ---------------------------------------------------------------------------
# degree-excess filter (minimum degree above the 2t ceiling)


@dataclass(frozen=True)
class DegreeExcessReport:
    """Outcome of screening one graph for the minimum-degree excess property:
    connected, non-complete, minimally tough, and delta > ceil(2t).
    ``graph6`` is the graph's stream text, set on the hits of a search."""

    is_hit: bool
    inconclusive: bool = False
    toughness: object = None
    delta: int = 0
    ceil_2t: int = 0
    delta_over_t: Ratio | None = None
    regular: bool = False
    reason: str = ""
    graph6: str = ""

    def report_line(self) -> str:
        return (
            f"{self.graph6}\tt={self.toughness}\tdelta={self.delta}"
            f"\tceil2t={self.ceil_2t}\tratio={self.delta_over_t}"
            f"\tregular={1 if self.regular else 0}"
        )


def degree_excess_filter(
    g: Graph, cfg: EngineConfig = DEFAULT_CONFIG, min_delta: int | None = None
) -> DegreeExcessReport:
    """Flag g iff it is connected, non-complete, minimally t-tough, and its
    minimum degree strictly exceeds ceil(2t).  Cheap screens run first."""
    if not is_connected(g):
        return DegreeExcessReport(False, reason="disconnected")
    if g.is_complete():
        return DegreeExcessReport(False, reason="complete")
    delta, _, regular, _ = degree_profile(g)
    if min_delta is not None and delta < min_delta:
        return DegreeExcessReport(False, delta=delta, reason="degree screen")
    try:
        t = toughness_exact(g, cfg).value
    except LimitExceeded:
        return DegreeExcessReport(False, inconclusive=True, reason="over exhaustive limit")
    ceil_2t = t.ceil_of_double()
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
