"""Built-in graph families with ready-made cut certificates.

Each generator returns the graph together with a label map, the expected
invariants, a base certificate realizing the family's toughness, and one
certificate per edge witnessing that deleting the edge lowers the toughness.
Every emitted certificate is re-verified during generation; a certificate
that fails verification raises ``FamilyError``.

Families:

* ``planar-chain``: an even ring of m six-vertex blocks (a pentagon with a
  hub on four of its vertices), blocks joined by three edges per seam.
  4-regular, planar (a rotation system is generated and Euler-checked),
  toughness 3/2.
* ``knp2-minus-matching``: two n-cliques joined by m < n rungs; claw-free,
  toughness m/2.
* ``knp3`` and ``knp3-regularized``: three n-cliques in a row with rungs;
  toughness (n+1)/3; the regularized variant removes one middle vertex and
  re-ties its rung ends, making the graph n-regular.
* ``square-lsk4``: the square of the line graph of the subdivided K_4;
  7-regular on 12 vertices, toughness 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, build_graph, delete_edge, mask_of
from .invariants import RotationSystem, verify_embedding
from .ratio import Ratio
from .toughness import CutCertificate, verify_certificate
from .invariants import independence_number, maximum_independent_sets
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
    params: dict
    graph: Graph
    labels: dict[str, int]
    expected: FamilyExpectation
    base_certificate: CutCertificate
    edge_certificates: dict[tuple[int, int], CutCertificate]
    edge_case: dict[tuple[int, int], str] = field(default_factory=dict)
    rotation: RotationSystem | None = None

    def label_map_text(self) -> str:
        lines = [f"{label} {idx}" for label, idx in self.labels.items()]
        return "\n".join(lines) + "\n"


def _check_family(fam: LabeledFamily) -> None:
    g = fam.graph
    t = fam.expected.toughness
    res = verify_certificate(g, fam.base_certificate)
    if not res:
        raise FamilyError(f"{fam.tag}: base certificate failed: {res.reason}")
    if fam.base_certificate.ratio != t:
        raise FamilyError(
            f"{fam.tag}: base ratio {fam.base_certificate.ratio} != expected {t}"
        )
    edges = set(g.edges())
    if set(fam.edge_certificates) != edges:
        missing = edges - set(fam.edge_certificates)
        raise FamilyError(f"{fam.tag}: {len(missing)} edges without certificates")
    for e, cert in fam.edge_certificates.items():
        res = verify_certificate(delete_edge(g, e), cert)
        if not res:
            raise FamilyError(f"{fam.tag}: edge {e} certificate failed: {res.reason}")
        if not cert.ratio < t:
            raise FamilyError(
                f"{fam.tag}: edge {e} certificate ratio {cert.ratio} not below {t}"
            )


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

    def bnum(i: int) -> int:
        return (i - 1) % m + 1

    def idx(i: int, j: int) -> int:
        return 6 * (bnum(i) - 1) + (j - 1)

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

    # block-shift and reflection relabelings; both must preserve adjacency
    tau = tuple(idx(bnum(v // 6 + 2), _PI[v % 6 + 1]) for v in range(n))
    rho = tuple(idx(bnum(2 - (v // 6 + 1)), _PI[v % 6 + 1]) for v in range(n))
    group = []
    cur = tuple(range(n))
    for _ in range(m):
        group.append(cur)
        cur = tuple(tau[x] for x in cur)
    for k in range(m):
        group.append(tuple(group[k][rho[x]] for x in range(n)))
    for perm in (tau, rho):
        for u, v in g.edges():
            if not g.has_edge(perm[u], perm[v]):
                raise FamilyError("chain relabeling is not an automorphism")

    base_labels = set()
    for i in range(1, m + 1):
        if i % 2:
            base_labels.update({(i, 1), (i, 4)})
        else:
            base_labels.update({(i, 2), (i, 3), (i, 5), (i, 6)})
    base_mask = mask_of(idx(i, j) for i, j in base_labels)
    base_cert = CutCertificate.from_cut(g, base_mask)
    t = Ratio(3, 2)

    def base_set() -> set[tuple[int, int]]:
        return set(base_labels)

    def template_cut(i: int, a: int, b: int) -> tuple[str, set[tuple[int, int]]] | None:
        """Witness cut for the edge (i,a)-(i,b) or (i,a)-(i+1,b) in block
        coordinates, or None when no template matches this orientation."""
        sameblock = b < 10
        if sameblock:
            pair = {a, b}
            if i % 2 == 1 and pair <= {2, 3, 6}:
                (v,) = {2, 3, 6} - pair
                return "case1", base_set() | {(i, v)}
            if i % 2 == 0 and pair == {1, 6}:
                return "case2", base_set() - {(i, 6)}
            if i % 2 == 0 and pair == {1, 2}:
                return "case2", base_set() - {(i, 2)}
            if i % 2 == 0 and pair == {1, 5}:
                s = base_set()
                s -= {(bnum(i - 2), 2), (bnum(i - 1), 4), (i, 3), (i, 5)}
                s |= {
                    (bnum(i - 1), 3),
                    (bnum(i - 1), 6),
                    (bnum(i - 1), 5),
                    (i, 4),
                    (bnum(i + 1), 2),
                }
                return "case4", s
            return None
        b -= 10
        if i % 2 == 0 and a == 2 and b == 5:
            return "case2", base_set() - {(i, 2)}
        if i % 2 == 1 and a == 4 and b == 4:
            s = base_set()
            s -= {(bnum(i - 1), 2), (i, 4), (bnum(i + 1), 3)}
            s |= {(i, 5)}
            return "case3", s
        return None

    case_ratio = {
        "case1": Ratio(3 * m + 1, 2 * m + 1),
        "case2": Ratio(3 * m - 1, 2 * m),
        "case3": Ratio(3 * m - 2, 2 * m - 1),
        "case4": Ratio(3 * m + 1, 2 * m + 1),
    }

    edge_certs: dict[tuple[int, int], CutCertificate] = {}
    edge_case: dict[tuple[int, int], str] = {}
    for e in g.edges():
        found = None
        for perm in group:
            inv = [0] * n
            for x, px in enumerate(perm):
                inv[px] = x
            iu, iv = perm[e[0]], perm[e[1]]
            bi, ji = iu // 6 + 1, iu % 6 + 1
            bv, jv = iv // 6 + 1, iv % 6 + 1
            if bi == bv:
                match = template_cut(bi, ji, jv) or template_cut(bi, jv, ji)
            elif bnum(bi + 1) == bv:
                match = template_cut(bi, ji, jv + 10)
            elif bnum(bv + 1) == bi:
                match = template_cut(bv, jv, ji + 10)
            else:
                match = None
            if match is None:
                continue
            case, cut_labels = match
            cut = mask_of(inv[idx(i, j)] for i, j in cut_labels)
            cert = CutCertificate.from_cut(delete_edge(g, e), cut)
            if (
                cert.omega >= 2
                and cert.ratio == case_ratio[case]
                and verify_certificate(delete_edge(g, e), cert)
            ):
                found = (case, cert)
                break
        if found is None:
            raise FamilyError(f"planar-chain m={m}: no template certifies edge {e}")
        edge_case[e], edge_certs[e] = found

    rotations = []
    for v in range(n):
        i, j = v // 6 + 1, v % 6 + 1
        table = _ROT_EVEN if i % 2 == 0 else _ROT_ODD
        rotations.append(tuple(idx(i + off, lab) for off, lab in table[j]))
    rot = RotationSystem(tuple(rotations))
    ok, faces = verify_embedding(g, rot)
    if not ok or faces != 6 * m + 2:
        raise FamilyError(f"chain rotation failed embedding check (faces={faces})")

    fam = LabeledFamily(
        tag="planar-chain",
        params={"m": m},
        graph=g,
        labels=labels,
        expected=FamilyExpectation(t, 4, 4, True, False, True),
        base_certificate=base_cert,
        edge_certificates=edge_certs,
        edge_case=edge_case,
        rotation=rot,
    )
    _check_family(fam)
    return fam


# ---------------------------------------------------------------------------
# two cliques joined by a partial matching


def gen_knp2_minus_matching(n: int, m: int) -> LabeledFamily:
    """Two n-cliques with rungs v_{1,j}v_{2,j} for j <= m; requires n >= 7 and
    2n/3 < m < n.  Claw-free with toughness m/2."""
    if n < 7:
        raise ValueError(f"needs n >= 7, got n={n}")
    if not (2 * n < 3 * m and m < n):
        raise ValueError(f"needs 2n/3 < m < n, got n={n}, m={m}")

    def idx(i: int, j: int) -> int:
        return (i - 1) * n + (j - 1)

    edges = []
    for i in (1, 2):
        edges.extend(
            (idx(i, a), idx(i, b)) for a in range(1, n + 1) for b in range(a + 1, n + 1)
        )
    edges.extend((idx(1, j), idx(2, j)) for j in range(1, m + 1))
    g = build_graph(2 * n, edges)
    labels = {f"v_{{{i},{j}}}": idx(i, j) for i in (1, 2) for j in range(1, n + 1)}

    t = Ratio(m, 2)
    base_cert = CutCertificate.from_cut(g, mask_of(idx(1, p) for p in range(1, m + 1)))

    edge_certs: dict[tuple[int, int], CutCertificate] = {}
    edge_case: dict[tuple[int, int], str] = {}
    for e in g.edges():
        u, v = e
        iu, ju = u // n + 1, u % n + 1
        iv, jv = v // n + 1, v % n + 1
        if iu != iv:
            cut = mask_of(idx(1, p) for p in range(1, m + 1) if p != ju)
            edge_case[e] = "rung"
        else:
            i = iu
            cut = mask_of(
                idx(i, p) for p in range(1, n + 1) if p not in (ju, jv)
            ) | mask_of((idx(3 - i, ju), idx(3 - i, jv)))
            edge_case[e] = "clique"
        edge_certs[e] = CutCertificate.from_cut(delete_edge(g, e), cut)

    fam = LabeledFamily(
        tag="knp2-minus-matching",
        params={"n": n, "m": m},
        graph=g,
        labels=labels,
        expected=FamilyExpectation(t, n - 1, n, False, True, False),
        base_certificate=base_cert,
        edge_certificates=edge_certs,
        edge_case=edge_case,
    )
    _check_family(fam)
    return fam


# ---------------------------------------------------------------------------
# three cliques in a row


def gen_knp3(n: int, regularized: bool = False) -> LabeledFamily:
    """Three n-cliques with rungs v_{1,p}v_{2,p} and v_{2,p}v_{3,p}; toughness
    (n+1)/3.  The regularized variant removes the last middle vertex and joins
    its rung ends directly, giving an n-regular graph."""
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    if regularized and n < 4:
        raise ValueError(f"regularized variant needs n >= 4, got {n}")

    if not regularized:
        def idx(i: int, p: int) -> int:
            return (i - 1) * n + (p - 1)

        layer_range = {1: range(1, n + 1), 2: range(1, n + 1), 3: range(1, n + 1)}
    else:
        def idx(i: int, p: int) -> int:
            if i == 1:
                return p - 1
            if i == 2:
                if p == n:
                    raise KeyError("middle vertex n was removed")
                return n + (p - 1)
            return 2 * n - 1 + (p - 1)

        layer_range = {1: range(1, n + 1), 2: range(1, n), 3: range(1, n + 1)}

    edges = []
    for i in (1, 2, 3):
        ps = list(layer_range[i])
        edges.extend(
            (idx(i, a), idx(i, b)) for ai, a in enumerate(ps) for b in ps[ai + 1 :]
        )
    for p in layer_range[2]:
        edges.append((idx(1, p), idx(2, p)))
        edges.append((idx(2, p), idx(3, p)))
    if regularized:
        edges.append((idx(1, n), idx(3, n)))
    order = 3 * n - (1 if regularized else 0)
    g = build_graph(order, edges)
    labels = {
        f"v_{{{i},{p}}}": idx(i, p) for i in (1, 2, 3) for p in layer_range[i]
    }

    t = Ratio(n + 1, 3)
    if not regularized:
        base = mask_of(idx(2, p) for p in range(1, n)) | mask_of(
            (idx(1, n), idx(3, n))
        )
    else:
        base = mask_of(idx(2, p) for p in range(1, n - 1)) | mask_of(
            (idx(1, n - 1), idx(3, n - 1), idx(3, n))
        )
    base_cert = CutCertificate.from_cut(g, base)

    pos = {v: lab for lab, v in ((p, idx(i, p)) for i in (1, 2, 3) for p in layer_range[i])}
    layer = {}
    for i in (1, 2, 3):
        for p in layer_range[i]:
            layer[idx(i, p)] = i

    edge_certs: dict[tuple[int, int], CutCertificate] = {}
    edge_case: dict[tuple[int, int], str] = {}
    for e in g.edges():
        u, v = e
        iu, ju = layer[u], pos[u]
        iv, jv = layer[v], pos[v]
        if not regularized:
            if iu != iv:
                if iu == 2 or iv == 2:
                    i, j = (iv, jv) if iu == 2 else (iu, ju)
                    cut = mask_of(idx(2, p) for p in range(1, n + 1) if p != j)
                    cut |= 1 << idx(4 - i, j)
                    edge_case[e] = "rung"
            elif iu == 2:
                cut = mask_of(
                    idx(2, p) for p in range(1, n + 1) if p not in (ju, jv)
                ) | mask_of((idx(1, ju), idx(1, jv), idx(3, ju), idx(3, jv)))
                edge_case[e] = "middle-clique"
            else:
                i = iu
                cut = mask_of(
                    idx(i, p) for p in range(1, n + 1) if p not in (ju, jv)
                ) | mask_of((idx(2, ju), idx(2, jv)))
                edge_case[e] = "outer-clique"
        else:
            if iu != iv and {iu, iv} == {1, 3}:
                cut = mask_of(idx(2, p) for p in range(1, n - 1)) | mask_of(
                    (idx(1, n - 1), idx(3, n - 1))
                )
                edge_case[e] = "tie-edge"
            elif iu != iv:
                i, j = (iv, jv) if iu == 2 else (iu, ju)
                cut = mask_of(idx(2, p) for p in range(1, n) if p != j)
                cut |= mask_of((idx(4 - i, j), idx(1, n)))
                edge_case[e] = "rung"
            elif iu == 2:
                cut = mask_of(
                    idx(2, p) for p in range(1, n) if p not in (ju, jv)
                ) | mask_of(
                    (idx(1, ju), idx(1, jv), idx(3, ju), idx(3, jv), idx(1, n))
                )
                edge_case[e] = "middle-clique"
            else:
                i = iu
                j1, j2 = min(ju, jv), max(ju, jv)
                extra = idx(2, j2) if j2 != n else idx(4 - i, n)
                cut = mask_of(
                    idx(i, p) for p in range(1, n + 1) if p not in (j1, j2)
                ) | mask_of((idx(2, j1), extra))
                edge_case[e] = "outer-clique"
        edge_certs[e] = CutCertificate.from_cut(delete_edge(g, e), cut)

    tag = "knp3-regularized" if regularized else "knp3"
    expected = (
        FamilyExpectation(t, n, n, True, False, False)
        if regularized
        else FamilyExpectation(t, n, n + 1, False, False, False)
    )
    fam = LabeledFamily(
        tag=tag,
        params={"n": n, "regularized": regularized},
        graph=g,
        labels=labels,
        expected=expected,
        base_certificate=base_cert,
        edge_certificates=edge_certs,
        edge_case=edge_case,
    )
    _check_family(fam)
    return fam


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
    t = Ratio(3)

    max_sets = maximum_independent_sets(g)
    if len(max_sets) != 4 or independence_number(g)[0] != 3:
        raise FamilyError("square family: unexpected independent-set structure")
    base_cert = CutCertificate.from_cut(g, g.full_mask & ~max_sets[0])

    target = Ratio(8, 3)
    edge_certs: dict[tuple[int, int], CutCertificate] = {}
    edge_case: dict[tuple[int, int], str] = {}
    hedges = set(h.edges())
    for e in g.edges():
        u, v = e
        ge = delete_edge(g, e)
        cert = None
        case = None
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
                x, y = pool[0]
                cut = g.full_mask & ~mask_of((u, v, x, y))
                cand = CutCertificate.from_cut(ge, cut)
                if cand.ratio == target and verify_certificate(ge, cand):
                    cert, case = cand, "detached-pair"
        else:
            for iset in max_sets:
                for a, b in ((u, v), (v, u)):
                    if iset >> b & 1 and not iset >> a & 1:
                        cut = g.full_mask & ~(iset | (1 << a))
                        cand = CutCertificate.from_cut(ge, cut)
                        if cand.ratio == target and verify_certificate(ge, cand):
                            cert, case = cand, "independent-extension"
                            break
                if cert:
                    break
        if cert is None:
            raise FamilyError(f"square-lsk4: no template certifies edge {e}")
        edge_certs[e] = cert
        edge_case[e] = case

    fam = LabeledFamily(
        tag="square-lsk4",
        params={},
        graph=g,
        labels=labels,
        expected=FamilyExpectation(t, 7, 7, True, False, False),
        base_certificate=base_cert,
        edge_certificates=edge_certs,
        edge_case=edge_case,
    )
    _check_family(fam)
    return fam


GENERATORS = {
    "planar-chain": gen_planar_chain,
    "knp2-minus-matching": gen_knp2_minus_matching,
    "knp3": gen_knp3,
    "square-lsk4": gen_square_lsk4,
}
