import pytest

from conftest import random_connected_graph
from oracles import adj_sets, set_components

from toughgraphs.graph import (
    bits_of,
    build_graph,
    component_count,
    degree_profile,
    delete_edge,
    is_connected,
    mask_of,
)
from toughgraphs.families import gen_planar_chain, gen_knp2_minus_matching
from toughgraphs.operators import SolidSpec, complete, cycle, path, solid_expand
from toughgraphs.toughness import twin_classes


def count_without(g, cut):
    """Components of g with the vertices of cut deleted."""
    return component_count(g.adj, g.full_mask & ~cut, g.full_mask)


def oracle_count(g, cut):
    return set_components(adj_sets(g), set(bits_of(cut)))


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_build_cycle_regular():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert degree_profile(g)[:3] == (2, 2, True)


def test_duplicate_edges_collapse():
    g = build_graph(2, [(0, 1), (1, 0)])
    assert g.edge_count() == 1


def test_build_errors():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])


def test_delete_edge_basic():
    c4 = cycle(4)
    p = delete_edge(c4, (0, 1))
    assert p.edge_count() == 3
    assert degree_profile(p)[3].count(1) == 2  # two endpoints now
    assert c4.edge_count() == 4  # original untouched
    with pytest.raises(ValueError):
        delete_edge(c4, (0, 2))


def test_delete_edge_chain_count():
    g = gen_planar_chain(4).graph
    e = g.edges()[0]
    assert delete_edge(g, e).edge_count() == 47


def test_components_trivial():
    assert count_without(cycle(6), 0) == 1
    p4 = path(4)
    assert count_without(p4, 1 << 1) == 2


def test_components_chain_base_certificate():
    fam = gen_planar_chain(4)
    cut = fam.base_certificate.cut
    assert cut.bit_count() == 12
    assert count_without(fam.graph, cut) == oracle_count(fam.graph, cut) == 8


def test_components_full_removal():
    g = cycle(4)
    assert count_without(g, g.full_mask) == 0
    assert count_without(g, g.full_mask ^ 1) == 1


def test_component_count_matches_oracle(rng):
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_connected_graph(rng, n, 0.4)
        removed = mask_of(v for v in range(n) if rng.random() < 0.3)
        assert count_without(g, removed) == oracle_count(g, removed)


def test_edge_deletion_changes_components_by_at_most_one(rng):
    for _ in range(80):
        n = rng.randint(3, 9)
        g = random_connected_graph(rng, n, 0.4)
        e = g.edges()[rng.randrange(g.edge_count())]
        removed = mask_of(v for v in range(n) if rng.random() < 0.3 and v not in e)
        before = count_without(g, removed)
        after = count_without(delete_edge(g, e), removed)
        assert after in (before, before + 1)


def test_degree_profile_examples():
    assert degree_profile(cycle(5))[:3] == (2, 2, True)
    fam = gen_knp2_minus_matching(7, 5)
    assert degree_profile(fam.graph)[:3] == (6, 7, False)


def test_is_connected():
    assert is_connected(cycle(4))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(build_graph(0, []))
    assert is_connected(complete(1))


def test_wide_vertex_sets():
    # 512-vertex graphs must work without any special casing
    g = cycle(512)
    assert degree_profile(g)[:3] == (2, 2, True)
    cut = mask_of((0, 256))
    assert count_without(g, cut) == oracle_count(g, cut) == 2


def test_component_count_over_whole_classes_matches_oracle(rng):
    """With reps holding each twin class's lowest member, the count over any
    union of whole classes equals the full BFS count, including classes of
    several copies left without an alive neighbor (one component per copy)."""
    isolated_seen = 0
    for _ in range(40):
        base = random_connected_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.6))
        mult = tuple(rng.randint(1, 4) for _ in range(base.n))
        g, _ = solid_expand(SolidSpec(base, mult))
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        classes = twin_classes(g)
        reps = 0
        for c in classes:
            reps |= c & -c
        cuts = []
        for _ in range(15):
            cuts.append(sum(c for c in classes if rng.random() < 0.4))
        for c in classes:
            if c.bit_count() > 1:
                # remove exactly c's neighbors, so all of c's copies survive
                # with no alive neighbor
                cuts.append(g.adj[c.bit_length() - 1])
                isolated_seen += 1
        for cut in cuts:
            alive = g.full_mask & ~cut
            want = oracle_count(g, cut)
            assert component_count(g.adj, alive, reps) == want
            assert component_count(g.adj, alive, g.full_mask) == want
    assert isolated_seen > 0
