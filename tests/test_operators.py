import pytest

from conftest import blown_up_c5, random_graph

from toughgraphs.graph import bits_of, build_graph, degree_profile
from toughgraphs.operators import (
    SolidSpec,
    cartesian_product,
    circulant,
    complete,
    cycle,
    line_graph,
    path,
    solid_expand,
    square,
    subdivision,
)
from toughgraphs.invariants import permute_graph
from toughgraphs.search import canonical_form


def same_graph_up_to_iso(g, h) -> bool:
    return canonical_form(g) == canonical_form(h)


def test_standard_families():
    assert complete(4).edge_count() == 6
    assert path(2) == complete(2)
    assert degree_profile(cycle(5))[:3] == (2, 2, True)
    with pytest.raises(ValueError):
        complete(0)
    with pytest.raises(ValueError):
        cycle(2)


def test_line_graph_small():
    lp3, emap = line_graph(path(3))
    assert same_graph_up_to_iso(lp3, path(2))
    assert emap == [(0, 1), (1, 2)]
    claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    lk13, _ = line_graph(claw)
    assert same_graph_up_to_iso(lk13, complete(3))
    with pytest.raises(ValueError):
        line_graph(build_graph(3, []))


def test_line_graph_of_subdivided_k4():
    lg, _ = line_graph(subdivision(complete(4)))
    assert lg.n == 12
    assert degree_profile(lg)[:3] == (3, 3, True)


def test_line_graph_degree_law(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        if g.edge_count() == 0:
            continue
        lg, emap = line_graph(g)
        for k, (u, v) in enumerate(emap):
            assert lg.degree(k) == g.degree(u) + g.degree(v) - 2


def test_subdivision():
    assert same_graph_up_to_iso(subdivision(complete(3)), cycle(6))
    assert same_graph_up_to_iso(subdivision(path(2)), path(3))
    sk4 = subdivision(complete(4))
    assert (sk4.n, sk4.edge_count()) == (10, 12)
    # original vertices keep their indices
    for v in range(4):
        assert sk4.degree(v) == 3


def test_square():
    assert same_graph_up_to_iso(square(path(3)), complete(3))
    assert degree_profile(square(cycle(6)))[:3] == (4, 4, True)
    lg, _ = line_graph(subdivision(complete(4)))
    sq = square(lg)
    assert (sq.n, degree_profile(sq)[:3]) == (12, (7, 7, True))


def test_square_contains_original_edges(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 9), 0.3)
        sq = square(g)
        for u, v in g.edges():
            assert sq.has_edge(u, v)


def test_cartesian_product_small():
    c4, _ = cartesian_product(complete(2), complete(2))
    assert same_graph_up_to_iso(c4, cycle(4))
    prism, pairs = cartesian_product(complete(3), path(2))
    assert degree_profile(prism)[:3] == (3, 3, True)
    assert prism.n == 6
    assert pairs[4] == (2, 0)


def test_cartesian_product_order_and_size(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        h = random_graph(rng, rng.randint(1, 6), 0.5)
        prod, _ = cartesian_product(g, h)
        assert prod.n == g.n * h.n
        assert prod.edge_count() == g.edge_count() * h.n + h.edge_count() * g.n


def test_knp3_order():
    prod, _ = cartesian_product(complete(6), path(3))
    assert prod.n == 18


def test_circulant():
    assert same_graph_up_to_iso(circulant(5, {1}), cycle(5))
    assert circulant(5, {1, 2}) == complete(5)
    g = circulant(39, {3, 4})
    assert (g.n, degree_profile(g)[:3]) == (39, (4, 4, True))
    with pytest.raises(ValueError):
        circulant(6, {0})
    with pytest.raises(ValueError):
        circulant(6, {6})


def test_circulant_rotation_invariance():
    n = 13
    g = circulant(n, {2, 5})
    shift = tuple((v + 1) % n for v in range(n))
    assert permute_graph(g, shift) == g


def test_solid_expand_small():
    c4, imap = solid_expand(SolidSpec.uniform(complete(2), 2))
    assert same_graph_up_to_iso(c4, cycle(4))
    assert imap == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_solid_expand_identity():
    g = cycle(5)
    h, imap = solid_expand(SolidSpec.uniform(g, 1))
    assert h == g
    assert imap == [(v, 0) for v in range(5)]


def test_solid_expand_degrees(rng):
    g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
    assert (g.n, degree_profile(g)[:3]) == (10, (4, 4, True))
    for _ in range(15):
        base = random_graph(rng, rng.randint(2, 6), 0.5)
        mult = tuple(rng.randint(1, 3) for _ in range(base.n))
        spec = SolidSpec(base, mult)
        h, imap = solid_expand(spec)
        assert h.n == sum(mult)
        for idx, (v, _) in enumerate(imap):
            want = sum(mult[w] for w in bits_of(base.adj[v]))
            assert h.degree(idx) == want


def test_solid_expand_matches_an_edge_list(rng):
    """The rows equal the graph built from every pair of copies of the ends
    of every base edge, and the index map lists copies by base vertex."""
    for _ in range(60):
        base = random_graph(rng, rng.randint(1, 8), rng.random())
        mult = tuple(rng.randint(1, 4) for _ in range(base.n))
        h, imap = solid_expand(SolidSpec(base, mult))
        assert imap == [(v, c) for v in range(base.n) for c in range(mult[v])]
        copies = [[i for i, (w, _) in enumerate(imap) if w == v] for v in range(base.n)]
        edges = [(a, b) for u, v in base.edges() for a in copies[u] for b in copies[v]]
        assert h == build_graph(sum(mult), edges)


def test_solid_expand_large_blowup():
    assert solid_expand(SolidSpec.uniform(cycle(5), 600))[0] == blown_up_c5(600)


def test_solid_copies_are_nonadjacent_twins():
    spec = SolidSpec.uniform(cycle(5), 3)
    h, imap = solid_expand(spec)
    by_base = {}
    for idx, (v, _) in enumerate(imap):
        by_base.setdefault(v, []).append(idx)
    for copies in by_base.values():
        for i, a in enumerate(copies):
            for b in copies[i + 1 :]:
                assert not h.has_edge(a, b)
                assert h.adj[a] == h.adj[b]


def test_solid_spec_validation():
    with pytest.raises(ValueError):
        SolidSpec(cycle(3), (1, 1))
    with pytest.raises(ValueError):
        SolidSpec(cycle(3), (1, 0, 1))
