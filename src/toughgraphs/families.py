"""Built-in graph families with ready-made cut certificates.

Each generator states a base cut realizing the family's toughness t, one
cut of G-e per edge e, tagged with its case, and the ratio each case gives.
One certifier (``_certified``) turns the cuts into certificates, re-verifies
every one, and checks the base ratio against t and each edge ratio against
its case's ratio and t; any failure raises ``FamilyError``.

Families:

* ``planar-chain``: an even ring of m six-vertex blocks (a pentagon with a
  hub on four of its vertices), blocks joined by three edges per seam.
  4-regular, planar (a rotation system is generated and Euler-checked),
  toughness 3/2.  Its four case templates are stated once per block and
  pushed through the chain's four symmetries (identity, tau, rho, tau rho);
  an edge keeps the first cut it receives.
* ``knp2-minus-matching``: two n-cliques joined by m < n rungs; claw-free,
  toughness m/2.
* ``knp3`` and ``knp3-regularized``: three n-cliques in a row with rungs;
  toughness (n+1)/3.  The regularized variant is the plain one with a middle
  row of n - 1 and a tie edge v_{1,n}v_{3,n}, making the graph n-regular.
* ``square-lsk4``: the square of the line graph of the subdivided K_4;
  7-regular on 12 vertices, toughness 3.

The three clique families come from one clique-row construction
(``_clique_row``): cliques in a row, v_{i,p} joined to v_{i+1,p} for each p
up to the rung count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, bits_of, build_graph, delete_edge, mask_of
from .invariants import RotationSystem, independence_number, verify_embedding
from .ratio import Ratio
from .toughness import CutCertificate, verify_certificate
from .operators import complete, line_graph, square, subdivision


class FamilyError(RuntimeError):
    """A family generator failed its own verification."""


@dataclass(frozen=True)
class FamilyExpectation:
    toughness: Ratio
    delta: int
    Delta: int
    regular: bool
    claw_free: bool
    planar: bool


@dataclass
class LabeledFamily:
    tag: str
    graph: Graph
    labels: dict[str, int]
    expected: FamilyExpectation
    base_certificate: CutCertificate
    edge_certificates: dict[tuple[int, int], CutCertificate]
    edge_case: dict[tuple[int, int], str]
    rotation: RotationSystem | None = None

    def label_map_text(self) -> str:
        lines = [f"{label} {idx}" for label, idx in self.labels.items()]
        return "\n".join(lines) + "\n"


def _certified(
    tag: str,
    g: Graph,
    labels: dict[str, int],
    expected: FamilyExpectation,
    base_cut: int,
    edge_cuts: dict[tuple[int, int], tuple[str, int]],
    case_ratio: dict[str, Ratio],
    rotation: RotationSystem | None = None,
) -> LabeledFamily:
    """The family with its certificates, built from the generator's cuts and
    verified: the base cut of g has ratio t, and every edge e has a cut of
    g-e whose ratio is the one its case gives, below t."""
    t = expected.toughness
    base = CutCertificate.from_cut(g, base_cut)
    res = verify_certificate(g, base)
    if not res:
        raise FamilyError(f"{tag}: base certificate failed: {res.reason}")
    if base.ratio != t:
        raise FamilyError(f"{tag}: base ratio {base.ratio} != expected {t}")
    certs: dict[tuple[int, int], CutCertificate] = {}
    cases: dict[tuple[int, int], str] = {}
    for e in g.edges():
        if e not in edge_cuts:
            raise FamilyError(f"{tag}: no template certifies edge {e}")
        case, cut = edge_cuts[e]
        ge = delete_edge(g, e)
        cert = CutCertificate.from_cut(ge, cut)
        res = verify_certificate(ge, cert)
        if not res:
            raise FamilyError(f"{tag}: edge {e} certificate failed: {res.reason}")
        if cert.ratio != case_ratio[case] or not cert.ratio < t:
            raise FamilyError(
                f"{tag}: edge {e} ({case}) has ratio {cert.ratio}, "
                f"expected {case_ratio[case]} below {t}"
            )
        certs[e], cases[e] = cert, case
    return LabeledFamily(tag, g, labels, expected, base, certs, cases, rotation)


# ---------------------------------------------------------------------------
# planar chain


_PI = {1: 4, 4: 1, 2: 3, 3: 2, 5: 5, 6: 6}

# counterclockwise neighbor rings per block parity; entries are (block offset,
# label): offset 0 = same block, +1 = next, -1 = previous
_ROT_EVEN = {
    1: ((+1, 1), (0, 2), (0, 6), (0, 5)),
    2: ((+1, 5), (0, 3), (0, 6), (0, 1)),
    3: ((0, 2), (-1, 5), (0, 4), (0, 6)),
    4: ((0, 6), (0, 3), (-1, 4), (0, 5)),
    5: ((+1, 2), (0, 1), (0, 4), (-1, 3)),
    6: ((0, 2), (0, 3), (0, 4), (0, 1)),
}
_ROT_ODD = {
    1: ((0, 5), (-1, 1), (0, 2), (0, 6)),
    2: ((0, 3), (0, 6), (0, 1), (-1, 5)),
    3: ((+1, 5), (0, 4), (0, 6), (0, 2)),
    4: ((0, 5), (0, 6), (0, 3), (+1, 4)),
    5: ((+1, 3), (-1, 2), (0, 1), (0, 4)),
    6: ((0, 4), (0, 1), (0, 2), (0, 3)),
}


def gen_planar_chain(m: int) -> LabeledFamily:
    """Ring of m blocks (m even, >= 4); 6m vertices, 12m edges, 4-regular,
    toughness 3/2, with a verified planar rotation system."""
    if m < 4 or m % 2:
        raise ValueError(f"planar chain needs an even m >= 4, got {m}")
    n = 6 * m

    def idx(i: int, j: int) -> int:
        return 6 * ((i - 1) % m) + (j - 1)

    edges = []
    for i in range(1, m + 1):
        for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)):
            edges.append((idx(i, a), idx(i, b)))
        for j in range(1, 5):
            edges.append((idx(i, 6), idx(i, j)))
        if i % 2 == 0:
            cross = ((1, 1), (2, 5), (5, 2))
        else:
            cross = ((4, 4), (3, 5), (5, 3))
        for a, b in cross:
            edges.append((idx(i, a), idx(i + 1, b)))
    g = build_graph(n, edges)
    labels = {f"v_{{{i},{j}}}": idx(i, j) for i in range(1, m + 1) for j in range(1, 7)}

    # tau moves block i to i + 1 and rho block i to 2 - i, both relabelling
    # by _PI; tau^2 shifts by two blocks and fixes every label and block
    # parity, which is all a template reads.  The inverses of identity, tau,
    # rho and tau rho, as (block sign, block shift, relabel by _PI):
    inverses = [
        tuple(
            idx(sign * (v // 6 + 1) + shift, _PI[v % 6 + 1] if swap else v % 6 + 1)
            for v in range(n)
        )
        for sign, shift, swap in ((1, 0, False), (1, -1, True), (-1, 2, True), (-1, 3, False))
    ]
    for perm in inverses[1:3]:  # tau^-1 and rho^-1: automorphisms iff tau and rho are
        for u, v in g.edges():
            if not g.has_edge(perm[u], perm[v]):
                raise FamilyError("chain relabeling is not an automorphism")

    base_mask = mask_of(
        idx(i, j) for i in range(1, m + 1) for j in ((1, 4) if i % 2 else (2, 3, 5, 6))
    )

    def cut(minus=(), plus=()) -> int:
        return base_mask & ~mask_of(idx(*x) for x in minus) | mask_of(idx(*x) for x in plus)

    # the case templates of each block, stated once: (end, end, case, cut)
    templates = []
    for i in range(1, m + 1):
        if i % 2:
            templates += [
                ((i, a), (i, b), "case1", cut(plus=[(i, c)]))
                for a, b, c in ((2, 3, 6), (2, 6, 3), (3, 6, 2))
            ]
            s3 = cut([(i - 1, 2), (i, 4), (i + 1, 3)], [(i, 5)])
            templates.append(((i, 4), (i + 1, 4), "case3", s3))
        else:
            templates += [
                ((i, 1), (i, 6), "case2", cut([(i, 6)])),
                ((i, 1), (i, 2), "case2", cut([(i, 2)])),
                ((i, 2), (i + 1, 5), "case2", cut([(i, 2)])),
            ]
            s4 = cut(
                [(i - 2, 2), (i - 1, 4), (i, 3), (i, 5)],
                [(i - 1, 3), (i - 1, 6), (i - 1, 5), (i, 4), (i + 1, 2)],
            )
            templates.append(((i, 1), (i, 5), "case4", s4))

    case_ratio = {
        "case1": Ratio(3 * m + 1, 2 * m + 1),
        "case2": Ratio(3 * m - 1, 2 * m),
        "case3": Ratio(3 * m - 2, 2 * m - 1),
        "case4": Ratio(3 * m + 1, 2 * m + 1),
    }

    # every template through each inverse in turn; an edge keeps the first
    # cut it receives, from the first symmetry that maps it onto a template
    edge_cuts: dict[tuple[int, int], tuple[str, int]] = {}
    for inv in inverses:
        for a, b, case, s in templates:
            u, v = inv[idx(*a)], inv[idx(*b)]
            e = (min(u, v), max(u, v))
            edge_cuts.setdefault(e, (case, mask_of(inv[x] for x in bits_of(s))))

    rotations = []
    for v in range(n):
        i, j = v // 6 + 1, v % 6 + 1
        table = _ROT_EVEN if i % 2 == 0 else _ROT_ODD
        rotations.append(tuple(idx(i + off, lab) for off, lab in table[j]))
    rot = RotationSystem(tuple(rotations))
    ok, faces = verify_embedding(g, rot)
    if not ok or faces != 6 * m + 2:
        raise FamilyError(f"chain rotation failed embedding check (faces={faces})")

    expected = FamilyExpectation(Ratio(3, 2), 4, 4, True, False, True)
    return _certified(
        "planar-chain", g, labels, expected, base_mask, edge_cuts, case_ratio, rot
    )


# ---------------------------------------------------------------------------
# cliques in a row joined by rungs


def _clique_row(sizes: tuple[int, ...], rungs: int, ties: tuple = ()):
    """Cliques of the given sizes in a row, clique i on v_{i,1}, v_{i,2}, ...,
    numbered row by row, with rungs v_{i,p}v_{i+1,p} for p <= ``rungs`` and
    the extra edges ``ties``, each a pair of (i, p).  Returns the graph,
    ``idx[i, p]``, its inverse ``at[v] = (i, p)`` and the labels."""
    at = [(i, p) for i, size in enumerate(sizes, 1) for p in range(1, size + 1)]
    idx = {ip: v for v, ip in enumerate(at)}
    edges = [
        (idx[i, a], idx[i, b])
        for i, size in enumerate(sizes, 1)
        for a in range(1, size + 1)
        for b in range(a + 1, size + 1)
    ]
    edges += [
        (idx[i, p], idx[i + 1, p]) for i in range(1, len(sizes)) for p in range(1, rungs + 1)
    ]
    edges += [(idx[a], idx[b]) for a, b in ties]
    labels = {f"v_{{{i},{p}}}": v for v, (i, p) in enumerate(at)}
    return build_graph(len(at), edges), idx, at, labels


def gen_knp2_minus_matching(n: int, m: int) -> LabeledFamily:
    """Two n-cliques with rungs v_{1,j}v_{2,j} for j <= m; requires n >= 7 and
    2n/3 < m < n.  Claw-free with toughness m/2."""
    if n < 7:
        raise ValueError(f"needs n >= 7, got n={n}")
    if not (2 * n < 3 * m and m < n):
        raise ValueError(f"needs 2n/3 < m < n, got n={n}, m={m}")
    g, idx, at, labels = _clique_row((n, n), m)

    edge_cuts: dict[tuple[int, int], tuple[str, int]] = {}
    for e in g.edges():
        (iu, ju), (iv, jv) = at[e[0]], at[e[1]]
        if iu != iv:
            cut = mask_of(idx[1, p] for p in range(1, m + 1) if p != ju)
            edge_cuts[e] = ("rung", cut)
        else:
            cut = mask_of(idx[iu, p] for p in range(1, n + 1) if p not in (ju, jv))
            cut |= mask_of((idx[3 - iu, ju], idx[3 - iu, jv]))
            edge_cuts[e] = ("clique", cut)

    base = mask_of(idx[1, p] for p in range(1, m + 1))
    expected = FamilyExpectation(Ratio(m, 2), n - 1, n, False, True, False)
    case_ratio = {"rung": Ratio(m - 1, 2), "clique": Ratio(n, 3)}
    return _certified(
        "knp2-minus-matching", g, labels, expected, base, edge_cuts, case_ratio
    )


def gen_knp3(n: int, regularized: bool = False) -> LabeledFamily:
    """Three n-cliques with rungs v_{1,p}v_{2,p} and v_{2,p}v_{3,p}; toughness
    (n+1)/3.  The regularized variant has no v_{2,n} and a tie edge
    v_{1,n}v_{3,n} in place of its two rungs, giving an n-regular graph; its
    cuts are the plain ones with v_{1,n} added or v_{2,n} replaced."""
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    if regularized and n < 4:
        raise ValueError(f"regularized variant needs n >= 4, got {n}")
    mid = n - 1 if regularized else n
    ties = (((1, n), (3, n)),) if regularized else ()
    g, idx, at, labels = _clique_row((n, mid, n), mid, ties)

    def base_shape(k: int) -> int:
        # the middle row below k and the outer ends of rung k
        return mask_of(idx[2, p] for p in range(1, k)) | mask_of((idx[1, k], idx[3, k]))

    # regularized rung and middle-clique cuts also take v_{1,n}, cutting the tie
    tied = 1 << idx[1, n] if regularized else 0
    edge_cuts: dict[tuple[int, int], tuple[str, int]] = {}
    for e in g.edges():
        (iu, ju), (iv, jv) = at[e[0]], at[e[1]]
        if (iu, iv) == (1, 3):
            edge_cuts[e] = ("tie-edge", base_shape(n - 1))
        elif iu != iv:  # a rung: its middle end is v_{2,ju}
            i = iu if iv == 2 else iv
            cut = mask_of(idx[2, p] for p in range(1, mid + 1) if p != ju)
            edge_cuts[e] = ("rung", cut | 1 << idx[4 - i, ju] | tied)
        elif iu == 2:
            cut = mask_of(idx[2, p] for p in range(1, mid + 1) if p not in (ju, jv))
            cut |= mask_of((idx[1, ju], idx[1, jv], idx[3, ju], idx[3, jv]))
            edge_cuts[e] = ("middle-clique", cut | tied)
        else:
            # ju < jv; v_{4-iu,n} takes the place of a missing v_{2,jv}
            cut = mask_of(idx[iu, p] for p in range(1, n + 1) if p not in (ju, jv))
            cut |= 1 << idx[2, ju] | 1 << idx.get((2, jv), idx[4 - iu, n])
            edge_cuts[e] = ("outer-clique", cut)

    base = base_shape(mid) | (1 << idx[3, n] if regularized else 0)
    tag = "knp3-regularized" if regularized else "knp3"
    expected = FamilyExpectation(
        Ratio(n + 1, 3), n, n if regularized else n + 1, regularized, False, False
    )
    case_ratio = {
        "middle-clique": Ratio(n + 2, 4),
        "rung": Ratio(n, 3),
        "outer-clique": Ratio(n, 3),
        "tie-edge": Ratio(n, 3),
    }
    return _certified(tag, g, labels, expected, base, edge_cuts, case_ratio)


# ---------------------------------------------------------------------------
# square of the line graph of the subdivided K4


def gen_square_lsk4() -> LabeledFamily:
    """Square of L(S(K_4)): 12 vertices, 7-regular, toughness 3.

    Every edge certificate has ratio 8/3: for an edge of the underlying cubic
    graph H there is a unique H-edge with no connection to it in the square,
    and keeping both pairs leaves three pieces; for a distance-two edge, one
    endpoint extends a maximum independent set of the square.
    """
    h, edge_map = line_graph(subdivision(complete(4)))
    g = square(h)
    labels = {f"e_{{{u}-{v}}}": k for k, (u, v) in enumerate(edge_map)}
    # with alpha = 3 the maximum independent sets are the independent triples
    max_sets = sorted(
        mask_of(t)
        for t in combinations(range(g.n), 3)
        if not any(g.has_edge(u, v) for u, v in combinations(t, 2))
    )
    if len(max_sets) != 4 or independence_number(g)[0] != 3:
        raise FamilyError("square family: unexpected independent-set structure")

    target = Ratio(8, 3)
    edge_cuts: dict[tuple[int, int], tuple[str, int]] = {}
    hedges = set(h.edges())
    for e in g.edges():
        u, v = e
        if e in hedges:
            pool = [
                (x, y)
                for x, y in hedges
                if x not in (u, v)
                and y not in (u, v)
                and not (g.adj[x] | g.adj[y]) >> u & 1
                and not (g.adj[x] | g.adj[y]) >> v & 1
            ]
            if len(pool) == 1:
                cut = g.full_mask & ~mask_of((u, v, *pool[0]))
                edge_cuts[e] = ("detached-pair", cut)
            continue
        ge = delete_edge(g, e)
        extensions = (
            g.full_mask & ~(iset | (1 << a))
            for iset in max_sets
            for a, b in ((u, v), (v, u))
            if iset >> b & 1 and not iset >> a & 1
        )
        # the first extension at ratio 8/3; some give 4/1 instead
        for cut in extensions:
            if CutCertificate.from_cut(ge, cut).ratio == target:
                edge_cuts[e] = ("independent-extension", cut)
                break

    expected = FamilyExpectation(Ratio(3), 7, 7, True, False, False)
    base = g.full_mask & ~max_sets[0]
    case_ratio = {"detached-pair": target, "independent-extension": target}
    return _certified("square-lsk4", g, labels, expected, base, edge_cuts, case_ratio)


GENERATORS = {
    "planar-chain": gen_planar_chain,
    "knp2-minus-matching": gen_knp2_minus_matching,
    "knp3": gen_knp3,
    "square-lsk4": gen_square_lsk4,
}
