"""Exact toughness with verifiable certificates.

The exhaustive engine enumerates cut-sets made of whole twin classes (maximal
sets of non-adjacent vertices with identical neighborhoods, grouped by
``graph.twin_classes``, which the independence number shares) and keeps the
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
whose bit j says "alive in lane j" and one for "reached in lane j".  A
class past the lanes that the block's high bits leave uncut is alive in
every lane, and the lowest such class seeds every lane; when there is
none, each lane is seeded at its lowest alive class, by seeds that depend
only on L.  Sweeps over the alive classes in index order,

    reached[i] |= alive[i] & OR(reached[j] for j adjacent to i),

forward and backward, settle every lane at once.  A sweep looks only at the
stale classes, those with a neighbour grown since their last look, and a
class reached in all its alive lanes is never looked at again; the flood
ends when no class is stale, at the one least fixpoint, whatever the
order of the looks.  A lane survives when an alive class stays unreached,
or when its seed class has two or more members and no alive neighbour
(twins are never adjacent).  The same flood bounds each survivor's
component count: the seed's component counts one (one per member when it
is the seed class alone) and every other component lies in the unreached
classes, so omega(G - S) <= 1 + U + (size of the seed class - 1), U the
vertices of the unreached alive classes.  A bitsliced saturating counter
holds that sum per lane, and each level of a block keeps the survivors
whose bound reaches the fewest components any cut of the level needs.
Only those are counted with the closure above, level by level within a
block, visiting only the 64-lane words that hold one.  Because the minimum
under (ratio, |S|, mask) does not depend on the order cuts are met, blocks
may run in any order; only one block's integers are held at a time.

The same scan answers the per-edge question of minimality: the cut with the
fewest vertices, then the lowest mask, whose ratio is below a target.  There
the cap on component counts is alpha(G - e), derived exactly from alpha(G)
as max(alpha(G), 2 + alpha(G - N[u] - N[v])) for e = uv.

The annealing upper-bound search builds the same quotient (``_quotient``)
and, up to 27 twin classes (chunks of at most 9 bits), anneals over class
masks with the same closure, so a step costs three lookups per round
however many copies a class has.  There the step loop keeps a per-call memo
of each state's (|S|, omega, energy), so a repeated state costs one dict
lookup and no count.  Past 27 classes, as on the twin-free 36-60 vertex
chains, it anneals over vertex masks and remembers nothing, since only 2-5%
of those states repeat.  A move flips one or two classes, so each count
is derived from a recent state's components: a class that joins merges the
parts it touches, and a class that leaves re-closes only its own part, by a
BFS that stops once it has reached all the class's alive neighbours
(dynamic connectivity in its simplest local form; Holm, de Lichtenberg &
Thorup, J. ACM 48, 2001).  The regime is chosen once, as a pair of
functions (count, weigh) that the annealing steps call without knowing
which it got.  Class masks order like the vertex masks they stand for, so
the (ratio, |S|, mask) tie-break picks the same certificate in either form.

Both kinds of scan run in ``_certified_scan``.  From 22 twin classes on it
deals the blocks to 64 strided shards (shard i takes blocks i, i + 64, ...);
a shard's answer does not depend on the incumbent it starts from, so the
min-merge is schedule independent.  Without a target the shards start from
a short annealing run's cut when it beats the seed, so that the first wave
prunes nearly as the single scan does.  Each engine's own (|S|, omega, mask)
leaves through ``_engine_certificate``; ``verify_certificate`` recounts omega.
"""

from __future__ import annotations

import os
import random
import struct
from collections import namedtuple
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, compress

from .graph import (
    Graph,
    LimitExceeded,
    _components,
    bits_of,
    component_count,
    degree_profile,
    delete_edge,
    is_connected,
    mask_of,
    twin_classes,
)
from .graph6 import parse_graph6, write_graph6
from .invariants import _independent_classes, independence_number
from .operators import solid_expand
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


@dataclass(frozen=True, slots=True)
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
        count = component_count(g.adj, g.full_mask & ~cut)
        return cls(cut, count, Ratio(cut.bit_count(), count) if count else Ratio(0))

    def vertices(self) -> list[int]:
        return list(bits_of(self.cut))


@dataclass(frozen=True, slots=True)
class VerifyResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: Graph, cert: CutCertificate) -> VerifyResult:
    """Recompute the certificate's claims against g."""
    if cert.cut & ~g.full_mask:
        return VerifyResult(False, "cut contains out-of-range vertices")
    count = component_count(g.adj, g.full_mask & ~cert.cut)
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


def _engine_certificate(g: Graph, best, target: Ratio | None = None) -> CutCertificate:
    """The one exit for an engine's answer ``best``, (|S|, omega, mask) on
    g: ``verify_certificate`` recounts the engine's omega with an independent
    BFS, and the ratio must lie below a target; failures raise AssertionError."""
    k, omega, cut = best
    cert = CutCertificate(cut, omega, Ratio(k, omega))
    check = verify_certificate(g, cert)
    if check and target is not None and not cert.ratio < target:
        check = VerifyResult(False, f"ratio {cert.ratio} is not below {target}")
    if not check:
        raise AssertionError(f"engine produced an invalid certificate: {check.reason}")
    return cert


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


@dataclass(frozen=True, slots=True)
class ToughnessResult:
    value: object  # Ratio or INFINITE
    witness: CutCertificate | None
    alpha: int | None = None  # alpha(g), the scan's cap on omega; None when no scan ran


# ---------------------------------------------------------------------------
# the subset scan over twin classes


# an incumbent is (|S|, omega, mask), standing for the cut S of ratio |S|/omega
_NO_INCUMBENT = (0, 0, 0)  # omega = 0 encodes "none"; a real cut has omega >= 2
_NEVER = 1 << 62  # a component count no cut reaches


def _better(k: int, q: int, mask: int, inc) -> bool:
    """(k/q, k, mask) < incumbent in the engine's total order."""
    ik, iq, imask = inc
    if iq == 0:
        return True
    lhs = k * iq
    rhs = ik * q
    if lhs != rhs:
        return lhs < rhs
    if k != ik:
        return k < ik
    return mask < imask


def _chunk_tables(values, w: int, add: bool = False, zero=0) -> tuple[list[int], ...]:
    """Three tables over the w-bit chunks of a class mask: entry x of table j
    is the union (with ``add``, the sum) of ``values[j * w + i]`` over the
    set bits i of x.  Each value doubles its table, extending every entry."""
    out = []
    for lo in (0, w, 2 * w):
        t = [zero]
        for v in values[lo : lo + w]:
            t += [e + v for e in t] if add else [e | v for e in t]
        out.append(t)
    return tuple(out)


@cache
def _unit_tables(w: int) -> tuple[tuple, tuple]:
    """Chunk tables that depend only on the width: vertex counts when every
    class is one vertex, and class indices (j * w + i for the bits i of x)."""
    indices = _chunk_tables([(i,) for i in range(3 * w)], w, True, ())
    return _chunk_tables([1] * 3 * w, w, True), indices


# the twin quotient of a graph: ``classes`` in ``twin_classes`` order,
# ``rows[i]`` the class mask of class i's neighbours and ``nbrs[i]`` their
# indices, ``sizes[i]`` its vertex count, and the three chunk tables of rows
# and sizes over w = ceil(q/3) bits, holding their union (T) and their sum
# (V), so a closure round and a weight take three lookups each
_Quotient = namedtuple("_Quotient", "classes rows nbrs sizes w T V")


def _quotient(g: Graph, classes: tuple[int, ...]) -> _Quotient:
    """The twin quotient of g over its ``twin_classes``, built once per
    graph with everything the scan reads.  A class's row gathers the class
    bits of one member's neighbours, taking one neighbour per class; when
    every class is one vertex, the rows are adj and ``_unit_tables`` counts."""
    w = -(-len(classes) // 3)
    units, (I0, I1, I2) = _unit_tables(w)
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
    m = (1 << w) - 1
    nbrs = [I0[r & m] + I1[r >> w & m] + I2[r >> 2 * w] for r in rows]
    V = units if len(classes) == g.n else _chunk_tables(sizes, w, add=True)
    return _Quotient(classes, tuple(rows), nbrs, sizes, w, _chunk_tables(rows, w), V)


# Lane bits L of the scan's disconnection filter: a block of 2^L cuts shares
# one flood over the quotient rows.  CPU seconds per pass over the first 120
# exact-random items (seed 1; twin-free, n = 17), medians of three
# interleaved runs of five passes (2 cores, Python 3.11.7): L = 12
# 0.44-0.46, 14 0.29-0.32, 15 0.28-0.30, 16 0.28-0.29.  Over the first 200
# exact-structured items, two runs of two passes: L = 14 3.14-3.61, 15
# 2.97-3.21, 16 3.18-3.40.  The flood seeded at each lane's lowest alive
# class and swept in index order read 0.53-0.55 at 12 and 0.36 at 15 on the
# first, 3.77-3.84 at 12 on the second.  With the worklist flood, the three
# widths interleaved item by item in one process: the same 120 graphs took
# 1.03x as long at L = 14 and 1.02x at 16 as at 15 (two runs of three
# passes each); the 60 blow-ups of exact-structured plus C18(1,2) and
# C18(1,3) took 0.88-0.98x at 14 and 0.91-1.00x at 16 (four runs, within
# the spread of repeated runs of 15 alone).  16 holds integers twice as
# large.  L stays at most 16, so that a scan of 22 classes, the fewest that
# shard, still deals at least 64 blocks to its 64 shards.
_LANE_BITS = 15


# A block builds its bound on component counts (``_lane_bound``) at the
# first level that holds more than this many surviving lanes per twin class,
# since a small scan pays more to build it than it saves.  Measured in one
# process, alternating calls with the scan that has no bound (2 cores,
# Python 3.11.7): on the first 1,560 search-stream lines (n = 8-10, one
# partial block per scan) filter_counterexamples took 1.09-1.10x as long
# with the bound built at every block's first level, 1.015-1.04x past 8
# lanes, 1.02-1.04x past q/2 or q lanes, and 0.999-1.006x past 2q (the same
# comparison of the old scan with itself read 1.000-1.004x).  On the first
# 120 exact-random graphs toughness_exact took 0.68-0.69x as long past 2q
# lanes, and 0.63-0.64x past 8 lanes or at every level.
_BOUND_LANES_PER_CLASS = 2


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


@cache
def _lane_seeds(bits: int) -> tuple[tuple[int, int], ...]:
    """For a block of 2^bits lanes in which every class past the lanes is
    cut: (class, lanes) for each lane class, the lanes whose lowest alive
    class it is (those whose lowest clear bit is its bit)."""
    seen, seeds = 0, []
    for i, a in enumerate(_lane_patterns(bits)[0]):
        seeds.append((i, a & ~seen))
        seen |= a
    return tuple(seeds)


def _disconnected_lanes(
    quotient: _Quotient, base: int, bits: int
) -> tuple[int, list[int], list[int], tuple[tuple[int, int], ...]]:
    """The lanes of the block ``base | j`` (j < 2^bits) whose cut leaves at
    least two components, as bit j of the first result, then each class's
    alive and reached lanes and the (class, lanes) seeds, for ``_lane_bound``.

    ``quotient`` is the twin quotient (its rows, neighbour lists and class
    sizes are read); ``base`` holds the classes cut in every lane.  Class i
    gets one integer whose bit j says "alive in lane j", and one more for
    "reached in lane j".  The lowest class past the lanes that ``base``
    leaves uncut is alive in every lane and seeds them all; when there is
    none, each lane is seeded at its lowest alive class, by seeds that
    depend only on the width (``_lane_seeds``).  Forward and backward sweeps
    over the alive classes in index order grow the reached lanes, each
    looking only at the stale classes, those with a neighbour grown since
    they were last looked at (a worklist; Kildall, POPL 1973), until none is
    stale; a class reached in all its alive lanes can grow no more and is
    not looked at again.  The least fixpoint is unique, so the order of the
    looks changes nothing.  A lane is then disconnected when some alive
    class stays unreached, or when its seed class has two or more members
    and no alive neighbour (twins are never adjacent)."""
    _, rows, nbrs, sizes = quotient[:4]
    q = len(nbrs)
    ones = (1 << (1 << bits)) - 1
    high = ((1 << q) - 1) ^ base ^ ((1 << bits) - 1)  # uncut past the lanes
    alive = [*_lane_patterns(bits)[0]] + [ones if high >> i & 1 else 0 for i in range(bits, q)]
    seeds = (((high & -high).bit_length() - 1, ones),) if high else _lane_seeds(bits)
    reached = [0] * q
    out = 0
    for i, lanes in seeds:
        reached[i] = lanes
        if sizes[i] > 1:
            # the seed's lanes with no alive neighbour: alone, or some
            # other alive class is unreached there
            touch = 0
            for j in nbrs[i]:
                touch |= alive[j]
            out |= lanes & ~touch
    # the uncut classes still short of their alive lanes, all stale at
    # first; a class that grows makes those of its neighbours stale, and one
    # reached in every alive lane is final and leaves them.  A cut class is
    # never stale, so the sweeps pass over it
    todo = stale = ((1 << q) - 1) ^ base
    sweeps = (range(q), range(q - 1, -1, -1))
    d = 0
    while stale:
        for i in sweeps[d]:
            if stale >> i & 1:
                stale ^= 1 << i
                r = reached[i]
                grown = 0
                for j in nbrs[i]:
                    grown |= reached[j]
                grown = r | alive[i] & grown
                if grown != r:
                    reached[i] = grown
                    stale |= rows[i] & todo
                if grown == alive[i]:
                    todo ^= 1 << i
        d ^= 1
    for a, r in zip(alive, reached):
        out |= a ^ r
    return out, alive, reached, seeds


def _lane_bound(sizes, alive, reached, seeds) -> tuple[int, int, int, int]:
    """A ``_lane_counter`` of U + (size of the seed class - 1) per lane,
    from ``_disconnected_lanes``' alive and reached lanes and its seeds,
    where U counts the vertices of the alive classes the flood did not
    reach and a lane's seed class is the class that seeds it there.

    A lane leaves at most 1 + that many components: the seed's component
    counts one, or one per member when it is the seed class alone, and
    each component among the unreached classes holds at least one vertex.
    In the scan's closure, whose first component holds the lowest alive
    class, this is ``count + left`` after that component when the lane is
    seeded there, exactly so on a twin-free graph."""
    terms = [(a ^ r, size) for a, r, size in zip(alive, reached, sizes)]
    terms += [(lanes, sizes[i] - 1) for i, lanes in seeds if sizes[i] > 1]
    return _lane_counter(terms)


def _lane_counter(terms) -> tuple[int, int, int, int]:
    """The per-lane sums of ``terms``, (lanes, weight) pairs, bitsliced: three
    bit-planes (bit j of plane p is bit p of lane j's sum) and a mask of the
    lanes whose sum reached 8, where the planes stop meaning anything."""
    planes = [0, 0, 0]
    sat = 0
    for lanes, weight in terms:
        if weight > 7:
            sat |= lanes
            continue
        for p in range(3):
            if weight >> p & 1:
                carry = lanes
                for j in range(p, 3):
                    planes[j], carry = planes[j] ^ carry, planes[j] & carry
                sat |= carry
    return planes[0], planes[1], planes[2], sat


def _viable_lanes(lanes: int, counter, thresholds) -> int:
    """The lanes of ``lanes`` whose component bound in ``counter`` reaches
    the fewest components that ``thresholds``, a ``_threshold_table`` entry,
    lets a cut be recorded with; all of them without a counter.  A
    saturated lane stays whatever the threshold.

    A level's lanes take the entry at the level's fewest vertices.  A lane
    with more vertices, or one met after the incumbent improves, faces a
    threshold at least as high, so the lanes dropped here stay dropped."""
    if counter is None:
        return lanes
    needed, needed_tie, tie_below = thresholds
    if tie_below:
        needed = min(needed, needed_tie)
    v = needed - 1  # a lane leaves at most 1 + its sum components
    *planes, sat = counter
    if v > 7:
        return lanes & sat
    # compare the 3-bit sums with v from the top bit down: ``eq`` holds
    # the lanes equal to v so far, ``above`` those already above it
    above = lanes & sat
    eq = lanes
    for p in (2, 1, 0):
        if v >> p & 1:
            eq &= planes[p]
        else:
            above |= eq & planes[p]
            eq &= ~planes[p]
    return above | eq


def _threshold_table(n: int, alpha: int, best, target: Ratio | None) -> tuple[list, int]:
    """(table, kstop): ``table[k]`` holds the components a cut of k vertices
    needs to replace ``best``, then those that suffice below the mask in its
    third entry (0: none); ``_NEVER`` past min(alpha, n - k), the most it can
    leave, and, as k / min(alpha, n - k) grows with k, from kstop on."""
    (bk, bq, bm), table = best, []
    for k in range(n - 1):
        tie = 0
        if target is not None:
            # below the target; among hits, smallest (|S|, mask) wins
            needed = max(k * target.q // target.p + 1, 2)
            if bq and k >= bk:
                if k > bk:
                    break
                needed, tie = _NEVER, needed
        elif not bq:
            needed = 2
        else:
            div, rem = divmod(k * bq, bk)
            needed = max(div + (rem > 0 or k >= bk), 2)
            # ties beat the incumbent only on a smaller mask; div = bq >= 2
            tie = div if not rem and k == bk else 0
        cap = min(alpha, n - k)
        if needed > cap:
            if not tie or tie > cap:
                break
            needed = _NEVER
        table.append((needed, tie, bm if tie else 0))
    return table + [(_NEVER, 0, 0)] * (n + 1 - len(table)), len(table)


def _scan(
    quotient: _Quotient,
    alpha: int,
    target: Ratio | None,
    best: tuple[int, int, int],
    shard: int = 0,
    shards: int = 1,
) -> tuple[int, int, int]:
    """Scan the cuts made of whole twin classes, in the blocks whose index
    is ``shard`` modulo ``shards``.

    The scan runs on the twin quotient: bit i of a subset is class i.
    Classes come in ``twin_classes`` order, so class subsets order like the
    vertex masks they expand to, and the masks handed in and returned are
    vertex masks.  Class subsets run in blocks of 2^``_LANE_BITS`` lanes,
    the low classes, that share their high bits, the block's index;
    ``_disconnected_lanes`` marks the lanes whose cut leaves two or more
    components, flooding every lane from the lowest high class the block
    leaves uncut when there is one, and bounds their component counts
    (``_lane_bound``); only the marked lanes whose bound reaches their
    level's threshold
    (``_viable_lanes``) have their components counted, by class count and
    then ascending value within the block.  Per call and per improvement of
    the incumbent it builds only ``_threshold_table``.  Without a target,
    returns the minimum (|S|, omega, mask) under (ratio, |S|, mask) over
    ``best`` and the cuts that beat it, which is independent of the
    incumbent handed in (it only prunes candidates that cannot beat it).
    With a ``target``, returns the minimum under (|S|, mask) over ``best``
    and the cuts of ratio below it, else ``_NO_INCUMBENT``, just as freely.
    """
    classes, _, _, sizes, w, (T0, T1, T2), (V0, V1, V2) = quotient
    n = sum(sizes)
    nq = len(classes)
    full = (1 << nq) - 1
    m = (1 << w) - 1
    w2 = 2 * w
    if best[1] and nq < n:  # else class masks are vertex masks
        best = best[:2] + (sum(1 << i for i, c in enumerate(classes) if best[2] & c),)
    table, kstop = _threshold_table(n, alpha, best, target)
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
        cut_lanes, *flood = _disconnected_lanes(quotient, base, bits)
        counter = None
        for c, level in enumerate(levels):
            k = kbase + klow[c]
            if k >= kstop:
                break
            lanes = cut_lanes & level
            if not lanes:
                continue
            if counter is None and lanes.bit_count() > _BOUND_LANES_PER_CLASS * nq:
                counter = _lane_bound(sizes, *flood)
            lanes = _viable_lanes(lanes, counter, table[k])
            if not lanes:
                continue
            # ascending lanes, by the 64-lane words that hold one: O(1) per
            # lane on a small word, and no visit to an empty word
            words = struct.unpack(f"<{nwords}Q", lanes.to_bytes(8 * nwords, "little"))
            for wi, word in compress(enumerate(words), words):
                while word:
                    low = word & -word
                    word ^= low
                    s = wi << 6 | low.bit_length() - 1 | base
                    k = V0[s & m] + V1[s >> w & m] + V2[s >> w2]
                    needed0, needed_tie, tie_below = table[k]
                    needed = needed_tie if (tie_below and s < tie_below) else needed0
                    if needed == _NEVER:
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
                        best = (k, count, s)
                        table, kstop = _threshold_table(n, alpha, best, target)
    if best[1] and nq < n:
        best = best[:2] + (sum(classes[i] for i in bits_of(best[2])),)
    return best


# The fewest twin classes a scan shards.  Workers 2 against 1 with strided
# shards on three twin-free G(n, 1/2) per n (2-vCPU VM, Python 3.11.7;
# seconds, best of two, 1 -> 2): n = 19 0.05 -> 0.11, 0.06 -> 0.08 and
# 0.03 -> 0.07, n = 20 0.06 -> 0.10, 0.07 -> 0.08 and 0.06 -> 0.10, n = 21
# 0.17 -> 0.12, 0.09 -> 0.11 and 0.24 -> 0.13, n = 22 0.44 -> 0.23, 0.19 ->
# 0.16 and 0.13 -> 0.14, n = 23 0.29 -> 0.33, 0.55 -> 0.28 and 0.34 -> 0.22.
# The pool's start-up outweighs the filtered scan at 19 and 20 classes; two
# workers win on two of three graphs at 21 and on four of six at 22 and 23.
# More workers than CPUs only oversubscribe: chain m=4 took 12.3 s at 8
# workers against 9.1 s at 2 on 2 cores.
_SHARD_FROM_CLASSES = 22


def _process_pool(workers: int):
    from concurrent.futures import ProcessPoolExecutor  # never loaded by one worker
    return ProcessPoolExecutor(max_workers=workers)


def _certified_scan(
    g: Graph, classes, alpha: int, cfg: EngineConfig, target=None, best=_NO_INCUMBENT, pool=None
) -> CutCertificate | None:
    """``_scan`` of g, given its ``twin_classes`` and alpha, from the
    incumbent ``best``, sharded over ``cfg.workers`` (in ``pool()`` if given),
    and then without a target from an annealed cut that beats ``best``;
    None when no cut beats it.  The scan's own (|S|, omega, mask) leaves
    through ``_engine_certificate``, where ``verify_certificate`` recounts omega."""
    quotient = _quotient(g, classes)
    workers = 1 if len(classes) < _SHARD_FROM_CLASSES else min(cfg.workers, usable_cpus())
    if workers < 2:
        best = _scan(quotient, alpha, target, best)
    else:
        from concurrent.futures import as_completed

        if target is None:
            # a short annealing run starts the shards nearer the minimum, so
            # the first wave prunes about as the single scan does; only a
            # strictly better cut is kept, so the witness is unchanged
            cert = toughness_upper_search(g, MINIMALITY_HEURISTIC_STEPS, seed=cfg.seed)
            annealed = (cert.cut.bit_count(), cert.omega, cert.cut)
            if _better(*annealed, best):
                best = annealed
        # shard i of 64 scans blocks i, i + 64, ... of the single scan;
        # waves of 4 per worker start from the best cut merged so far
        with nullcontext(pool()) if pool else _process_pool(workers) as executor:
            pending, shard = [], 0
            while shard < 64 or pending:
                while shard < 64 and len(pending) < 4 * workers:
                    pending.append(executor.submit(_scan, quotient, alpha, target, best, shard, 64))
                    shard += 1
                done = next(as_completed(pending))
                pending.remove(done)
                cand = done.result()
                if not cand[1]:
                    continue
                # below a target, the smallest (|S|, mask) wins
                if cand[::2] < best[::2] or not best[1] if target else _better(*cand, best):
                    best = cand
    return _engine_certificate(g, best, target) if best[1] else None


def _scan_classes(g: Graph, cfg: EngineConfig) -> tuple[int, ...]:
    """g's twin classes; LimitExceeded when they exceed the exhaustive limit."""
    classes = tuple(twin_classes(g))
    if len(classes) > cfg.exhaustive_limit:
        raise LimitExceeded(
            f"{len(classes)} twin classes (n={g.n}) exceed exhaustive limit "
            f"{cfg.exhaustive_limit}; use the heuristic upper-bound search"
        )
    return classes


def toughness_exact(g: Graph, cfg: EngineConfig = DEFAULT_CONFIG) -> ToughnessResult:
    """Exact toughness with a verified minimizing certificate.

    Complete graphs give the infinite value with no witness; disconnected
    graphs give 0/1 witnessed by the empty cut.  The exhaustive limit counts
    twin classes, so blow-ups far above it in vertices stay exact.
    """
    if g.n == 0:
        raise ValueError("toughness of the empty graph is undefined")
    if g.is_complete():
        return ToughnessResult(INFINITE, None)
    if not is_connected(g):
        return ToughnessResult(Ratio(0), CutCertificate.from_cut(g, 0))
    classes = _scan_classes(g, cfg)
    alpha, alpha_set = _independent_classes(g, classes)
    # seed: the complement of a maximum independent set, alpha components
    seed_cut = g.full_mask & ~alpha_set
    cert = _certified_scan(g, classes, alpha, cfg, best=(seed_cut.bit_count(), alpha, seed_cut))
    return ToughnessResult(cert.ratio, cert, alpha)


def find_cut_below(
    g: Graph, target: Ratio, cfg: EngineConfig = DEFAULT_CONFIG
) -> CutCertificate | None:
    """The cut of g with ratio strictly below target that has the fewest
    vertices and, among those, the lowest mask; None when the scan proves no
    such cut exists, as for target 0.  Raises ValueError for a target that
    is not a finite Ratio, and LimitExceeded past the exhaustive limit."""
    if not isinstance(target, Ratio):
        raise ValueError(f"target must be a finite Ratio, got {target!r}")
    if not target.p:
        return None
    classes = _scan_classes(g, cfg)
    alpha = _independent_classes(g, classes)[0]
    return _certified_scan(g, classes, alpha, cfg, target)


# ---------------------------------------------------------------------------
# heuristic upper-bound search


# Annealing counts on the twin quotient with the scan's chunk tables while a
# chunk has at most this many bits: q <= 27, the scan's own regime, with 512
# entries per table.  The tables grow as 2^ceil(q/3), to a million entries
# each on the twin-free 60-vertex chain, so past this annealing counts on the
# vertex graph, deriving each count from a recent one (``_vertex_counter``).
# Measured on twin-free G(n, p), four graphs per n, 20,000 steps, least of
# six runs per call (2 cores, Python 3.11.7, same certificates either way):
# the tables took 50, 59, 56, 66 and 61 ms at n = 20, 22, 24, 26 and 27
# against 84, 91, 80, 77 and 73 ms on vertex masks.  Past 27 the two are
# within the noise of each other (n = 28-36 with 12-bit chunks: 72-103 ms
# against 89-136 ms), and the tables keep growing, so the boundary stays.
_ANNEAL_CHUNK_BITS = 9


# Up to 27 classes the annealing remembers (|S|, omega, energy) of at most
# this many states, and forgets them all when full.  On the 120 beyond-limit
# blow-ups 78-93% of a 20,000-step call's states repeat, and a call meets at
# most 4,552 distinct ones, so the cap binds only long runs such as
# ``--budget-secs 60`` (1.5 M steps).  Under tracemalloc, with fresh 27-bit
# keys, a full memo takes 2.46 MB, its states sharing a tuple per
# (|S|, omega); one tuple per state would take 5.06 MB,
# and the memo of counts alone that it replaced took 4.72 MB at its cap of
# 2^16.  200,000 steps on a 27-class blow-up meet 29,500 states and peak at
# 2.7 MB, as with that memo (tests bound it at 6 MB).
_COUNT_MEMO_CAP = 1 << 15


def _table_counters(T, V, w: int):
    """(count, weigh) on class masks of the twin quotient, from its chunk
    tables: ``count(alive)`` closes components three lookups per round as
    in ``_scan``, a class with no alive neighbour counting one component per
    member; ``weigh(s)`` is the number of vertices of s.  Neither remembers
    anything: the annealing's memo sits in front of both."""
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


def _vertex_counter(adj: tuple[int, ...], classes: tuple[int, ...]):
    """``count(alive)`` on vertex masks that are unions of whole twin
    classes, derived from a recent input where it can be.

    It keeps the components (vertex masks) of two recent inputs and starts
    from one that differs from ``alive`` by at most two classes, flipping
    them in turn.  A class that joins merges the components it touches, or
    adds its members as one component each if it touches none.  A class
    that leaves re-closes only its own component, by BFS from its alive
    neighbours; the BFS stops once it has reached all of them, and the
    component then stays one piece.  Any other input is counted from
    scratch.  The BFS expands only each class's lowest member (``reps``),
    as ``graph._components`` does."""
    reps = sum(c & -c for c in classes)
    class_of = {c & -c: c for c in classes}

    def flip(alive: int, parts: list[int], r: int) -> tuple[int, list[int]]:
        """``alive`` and its components after the class whose lowest member
        is bit r joins or leaves."""
        c = class_of[r]
        nb = adj[r.bit_length() - 1]
        alive ^= c
        if alive & c:
            out = [p for p in parts if not p & nb]
            if len(out) < len(parts):
                out.append(alive ^ sum(out))  # c and every part it touches
            elif c & (c - 1):
                out += (1 << v for v in bits_of(c))  # twins are never adjacent
            else:
                out.append(c)
            return alive, out
        out = [p for p in parts if not p & c]
        touch = nb & alive
        if not touch:  # a lone class: its members were components each
            return alive, out
        rest = alive ^ sum(out)  # c's component, without c
        while touch:
            comp = frontier = touch & -touch
            while touch & ~comp:
                if not frontier:
                    break
                nxt = 0
                f = frontier & reps
                while f:
                    b = f & -f
                    nxt |= adj[b.bit_length() - 1]
                    f ^= b
                frontier = nxt & rest & ~comp
                comp |= frontier
            else:
                # every remaining alive neighbour reached: so is the rest
                comp = rest
            out.append(comp)
            rest ^= comp
            touch &= ~comp
        return alive, out

    # the two recent inputs and their components, the newer second
    old = new = 0
    old_parts: list[int] = []
    new_parts: list[int] = []

    def count(alive: int) -> int:
        nonlocal old, new, old_parts, new_parts
        flips = (new ^ alive) & reps
        k = flips.bit_count()
        if k == 0:
            return len(new_parts)
        flips_old = (old ^ alive) & reps
        if flips_old.bit_count() < k:
            # derive from the older input and keep it
            k, flips = flips_old.bit_count(), flips_old
            if k == 0:
                return len(old_parts)
            state, parts = old, old_parts
        else:
            state, parts = old, old_parts = new, new_parts
        if k > 2:
            parts = _components(adj, alive, reps)
        else:
            while flips:
                r = flips & -flips
                state, parts = flip(state, parts, r)
                flips ^= r
        new, new_parts = alive, parts
        return len(parts)

    return count


def _shrink(chosen: int, units: list[int], measure) -> tuple[int, int, int, float]:
    """Greedy removal pass: drop classes (``units``), in class order, while
    the exact ratio improves; ``measure`` gives a state's (vertex count,
    components left, energy).  Returns (chosen, weight, omega, energy), with
    omega >= 2 whenever the pass starts there."""
    weight, omega, energy = measure(chosen)
    improved = True
    while improved:
        improved = False
        for u in units:
            if not chosen & u:
                continue
            cand = chosen ^ u
            w, om, e = measure(cand)
            if om >= 2 and w * omega < weight * om:
                chosen, weight, omega, energy = cand, w, om, e
                improved = True
                break
    return chosen, weight, omega, energy


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
    flip one or two classes.  Up to 27 classes a state is a class mask and
    its components close over the twin quotient with the scan's
    three-lookup tables, each distinct state once: the step loop and the
    shrink pass read one memo of (|S|, omega, energy) per call, of at most
    ``_COUNT_MEMO_CAP`` states.  Past that it is a vertex mask whose count
    is derived from the components of one of the two last states counted,
    recounting only the part a move changes (``_vertex_counter``).
    Restarts are seeded from complements of greedy clique packings with
    caps 1, 3 and q classes (cap 1 packs an independent set), neighborhoods
    and random states, each followed by a greedy shrink pass, so structured
    optima are reachable even when annealing alone would wander.  The best
    state's own omega is what ``verify_certificate`` recounts.
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
        _, rows, _, _, w, T, V = _quotient(g, classes)
        units = [1 << i for i in range(nq)]  # bit i is class i
        full = reps = (1 << nq) - 1  # each class is its own representative
        count, weigh = _table_counters(T, V, w)
    else:
        rows, units, full = adj, classes, g.full_mask
        # the lowest member of each class: a BFS over whole classes expands
        # only these, since twins have the same neighbors
        reps = sum(c & -c for c in classes)
        weigh = int.bit_count
        count = _vertex_counter(adj, classes)

    # the energy of a state that leaves fewer than two components
    dead = float(g.n * 2)
    # state -> (|S|, omega, energy), on class masks only: there 78-93% of
    # a call's states repeat, and on vertex masks (the chains) 2-5%.  States
    # with equal (|S|, omega) share one tuple, so the memo holds no more
    # objects than a memo of counts would
    memo: dict[int, tuple[int, int, float]] = {}
    shared: dict[tuple[int, int, float], tuple[int, int, float]] = {}

    def measure(cut: int) -> tuple[int, int, float]:
        hit = memo.get(cut)
        if hit is None:
            weight = weigh(cut)
            omega = count(full ^ cut)
            hit = (weight, omega, weight / omega if omega >= 2 else dead)
            if tabled:
                if len(memo) >= _COUNT_MEMO_CAP:
                    memo.clear()
                memo[cut] = hit = shared.setdefault(hit, hit)
        return hit

    rng = random.Random(seed)
    # rng.randrange(nq) is getrandbits(nq.bit_length()), redrawn while it is
    # nq or more (CPython's Random._randbelow); the loop below draws its
    # moves the same way inline, so the stream and the results are unchanged
    getrandbits = rng.getrandbits
    uniform = rng.random
    kq = nq.bit_length()

    def nbrs(u: int) -> int:
        # twins share their row, so any member gives the class's neighbors
        return rows[u.bit_length() - 1]

    def greedy_clique_packing(order: list[int], cap: int) -> int:
        """Pairwise non-adjacent cliques of at most ``cap`` classes, greedily
        grown (cap 1 packs an independent set); the complement of their
        union is a cut whose residue components are exactly the packed
        cliques, which matches the structure of many optimal cuts."""
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

    best = _NO_INCUMBENT  # (|S|, omega, cut) in the scan's order

    def consider(chosen: int, weight: int, omega: int) -> None:
        nonlocal best
        if omega >= 2 and _better(weight, omega, chosen, best):
            best = (weight, omega, chosen)

    steps_per_restart = max(1, budget_steps // max(1, restarts))
    base_order = list(range(nq))
    for r in range(max(1, restarts)):
        order = base_order[:]
        rng.shuffle(order)
        kind = r % 6
        if kind < 3:
            state = full & ~greedy_clique_packing(order, (1, 3, nq)[kind])
        elif kind == 3:
            state = neighborhood(greedy_clique_packing(order, 1))
        elif kind == 4:
            # the class with the fewest neighbor classes
            lo = min(range(nq), key=lambda i: ((nbrs(units[i]) & reps).bit_count(), i))
            state = nbrs(units[lo])
        else:
            state = sum(u for u in units if uniform() < 0.5)
        state, cw, com, energy = _shrink(state, units, measure)
        consider(state, cw, com)
        # one long geometric cooling arc per restart: 0.95 per sweep of moves
        temp = 0.5
        best_ratio_seen = energy
        for step in range(steps_per_restart):
            i = getrandbits(kq)
            while i >= nq:
                i = getrandbits(kq)
            cand = state ^ units[i]
            if uniform() < 0.25:
                i = getrandbits(kq)
                while i >= nq:
                    i = getrandbits(kq)
                cand ^= units[i]
            if cand in (0, full):
                continue
            # a repeated state costs this one lookup, with no call
            cw, com, ce = memo.get(cand) or measure(cand)
            if ce <= energy or uniform() < 2.718281828 ** ((energy - ce) / temp):
                state, energy = cand, ce
                if com >= 2:
                    consider(cand, cw, com)
                    if ce < best_ratio_seen - 1e-12:
                        best_ratio_seen = ce
                        state, cw, com, energy = _shrink(cand, units, measure)
                        consider(state, cw, com)
            if step % nq == nq - 1:
                temp = max(temp * 0.95, 1e-4)
        state, cw, com, _ = _shrink(state, units, measure)
        consider(state, cw, com)

    if not best[1]:
        # deterministic fallback: the neighbors (whole classes) of the first
        # vertex with a non-neighbor (g is not complete) cut the two apart
        v = next(v for v in range(g.n) if adj[v] != g.full_mask ^ (1 << v))
        state = nbrs(next(u for c, u in zip(classes, units) if c >> v & 1))
        consider(state, *measure(state)[:2])
    cut = sum(c for c, u in zip(classes, units) if best[2] & u)
    return _engine_certificate(g, best[:2] + (cut,))


# ---------------------------------------------------------------------------
# solid reduction


def solid_reduced_toughness(spec, cfg: EngineConfig = DEFAULT_CONFIG) -> ToughnessResult:
    """Toughness of a blow-up, through the exact scan of its expansion.

    The copies of a base vertex are twins, so the scan enumerates at most
    2^base.n class subsets however large the multiplicities; LimitExceeded
    is raised when the expansion has more twin classes than the exhaustive
    limit.
    """
    return toughness_exact(solid_expand(spec)[0], cfg)


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
    if 2 + rest.bit_count() <= alpha:  # no search can raise alpha
        return alpha
    return max(alpha, 2 + independence_number(g, rest)[0])


def _witness_for_edge(
    g: Graph,
    edge: tuple[int, int],
    target: Ratio,
    cfg: EngineConfig,
    hint: CutCertificate | None,
    edge_index: int,
    alpha,
    pool,
) -> EdgeWitness:
    """Find a cut of g-e with ratio strictly below target.

    Tries the supplied hint, then the exhaustive scan when it is predicted
    cheaper than the short deterministic heuristic run, else that heuristic
    run followed by the scan.  Without a certificate, source "exhaustive"
    means the scan proved no such cut exists, and "inconclusive" that the
    edge stayed unresolved.  ``alpha()`` gives α(g), ``pool()`` the pool.
    """
    ge = delete_edge(g, edge)
    if hint is not None:
        if verify_certificate(ge, hint) and hint.ratio < target:
            return EdgeWitness(edge, hint, "template")
    # g is connected, so g - e is too when e lies on a triangle
    if not g.adj[edge[0]] & g.adj[edge[1]] and not is_connected(ge):
        return EdgeWitness(edge, CutCertificate.from_cut(ge, 0), "exhaustive")
    steps = min(MINIMALITY_HEURISTIC_STEPS, 60 * g.n)
    classes = tuple(twin_classes(ge))
    nq = len(classes)
    # past the exhaustive limit the scan cannot run, so annealing goes first
    scannable = cfg.allow_exhaustive_edges and nq <= cfg.exhaustive_limit
    if not scannable or 1 << nq > SCAN_STEPS_PER_SUBSET * steps:
        # g-e lacks the edge, so it is never complete
        cert = toughness_upper_search(ge, steps, seed=cfg.seed * 7919 + edge_index, restarts=3)
        if cert.ratio < target:
            return EdgeWitness(edge, cert, "heuristic")
        if not scannable:
            return EdgeWitness(edge, None, "inconclusive")
    cert = _certified_scan(ge, classes, _alpha_without(g, edge, alpha()), cfg, target, pool=pool)
    return EdgeWitness(edge, cert, "exhaustive")


def is_minimally_tough(
    g: Graph,
    cfg: EngineConfig = DEFAULT_CONFIG,
    hints: dict[tuple[int, int], CutCertificate] | None = None,
    toughness: Ratio | ToughnessResult | None = None,
) -> MinimalityReport:
    """Decide whether deleting any single edge strictly lowers the toughness.

    verdict True requires a verified below-t certificate for every edge;
    False requires at least one edge whose exhaustive scan proves the
    toughness survives, even if other edges stay unresolved; None
    (inconclusive) means no edge fails and some edge could be resolved
    neither way within the configured limits.

    ``toughness`` skips the exact computation of t.  Pass only the exact
    value or the ``toughness_exact`` result, whose α(g) the scans reuse;
    never the ratio of an upper-bound certificate: every edge is tested
    against it, so a value above t would let edges that keep t pass as ones
    that lower it.  Sharded scans share one pool, started by the first.
    """
    if not is_connected(g):
        raise ValueError("minimality is defined for connected graphs")
    if g.is_complete():
        raise ValueError("complete graphs are never minimally tough")
    exact = toughness_exact(g, cfg) if toughness is None else toughness
    t, alpha = (exact.value, exact.alpha) if isinstance(exact, ToughnessResult) else (exact, None)
    # α(g), unless given, computed once when the first edge reaches the scan
    alpha_of_g = cache(lambda: independence_number(g)[0] if alpha is None else alpha)
    with ExitStack() as stack:
        pool = cache(lambda: stack.enter_context(_process_pool(min(cfg.workers, usable_cpus()))))
        entries = tuple(
            _witness_for_edge(g, edge, t, cfg, (hints or {}).get(edge), idx, alpha_of_g, pool)
            for idx, edge in enumerate(g.edges())
        )
    return MinimalityReport(t, entries)


# ---------------------------------------------------------------------------
# degree-excess filter (minimum degree above the 2t ceiling)


@dataclass(frozen=True, slots=True)
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
        t = (exact := toughness_exact(g, cfg)).value
    except LimitExceeded:
        return DegreeExcessReport(False, inconclusive=True, reason="over exhaustive limit")
    ceil_2t = t.ceil_of_double()
    verdict, reason = False, "degree within ceiling"
    if delta > ceil_2t:
        verdict = is_minimally_tough(g, cfg, toughness=exact).verdict
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
