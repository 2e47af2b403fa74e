import gc
import hashlib
from itertools import islice

import pytest

from conftest import blown_up_c5, nx_graph, random_connected_graph, random_graph, twin_corpus
from oracles import brute_alpha, brute_max_independent_sets, brute_vertex_connectivity, group_order

from toughgraphs.families import (
    gen_knp2_minus_matching,
    gen_knp3,
    gen_planar_chain,
    gen_square_lsk4,
)
from toughgraphs.graph import LimitExceeded, bits_of, build_graph, mask_of
import toughgraphs.invariants as invariants
from toughgraphs.invariants import (
    RotationSystem,
    _local_connectivity,
    automorphism_generators,
    edge_orbits,
    independence_number,
    is_claw_free,
    permute_graph,
    verify_embedding,
    vertex_connectivity,
)
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
from toughgraphs.search import canonical_form
from toughgraphs.toughness import is_minimally_tough


def square_lsk4():
    lg, _ = line_graph(subdivision(complete(4)))
    return square(lg)


class TestIndependence:
    def test_complete(self):
        for n in (1, 2, 5, 9):
            alpha, mask = independence_number(complete(n))
            assert alpha == 1 and mask.bit_count() == 1

    def test_cycle(self):
        assert independence_number(cycle(5))[0] == 2

    def test_square_family(self):
        g = square_lsk4()
        alpha, witness = independence_number(g)
        assert alpha == 3
        assert set(bits_of(witness)) in brute_max_independent_sets(g)

    def test_witness_is_independent(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), 0.4)
            alpha, mask = independence_number(g)
            members = list(bits_of(mask))
            assert len(members) == alpha
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert not g.has_edge(u, v)

    def test_matches_bruteforce(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            assert independence_number(g)[0] == brute_alpha(g)

    def test_matches_networkx_clique_of_complement(self, rng):
        """alpha(g) is the clique number of the complement, found here by an
        independent branch and bound; the same holds on induced subgraphs,
        which minimality's alpha(G - e) asks for."""
        nx = pytest.importorskip("networkx")

        def nx_alpha(g, within):
            h = nx.Graph()
            h.add_nodes_from(bits_of(within))
            h.add_edges_from((u, v) for u, v in g.edges() if within >> u & within >> v & 1)
            return nx.max_weight_clique(nx.complement(h), weight=None)[1]

        graphs = [random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.9)) for _ in range(80)]
        graphs += [gen_planar_chain(4).graph, gen_knp3(5).graph, gen_square_lsk4().graph,
                   solid_expand(SolidSpec(cycle(7), (3, 1, 2, 1, 1, 2, 1)))[0]]
        for g in graphs:
            masks = [g.full_mask, mask_of(v for v in range(g.n) if rng.random() < 0.6)]
            for within in masks:
                alpha, witness = independence_number(g, within)
                assert alpha == nx_alpha(g, within)
                assert witness & ~within == 0 and witness.bit_count() == alpha
                assert all(not g.adj[v] & witness for v in bits_of(witness))

    @pytest.mark.parametrize(
        "make,want",
        [
            (lambda: build_graph(1001, [(0, i) for i in range(1, 1001)]), 1000),
            (lambda: build_graph(1002, [(a, i) for a in (0, 1) for i in range(2, 1002)]), 1000),
            (lambda: blown_up_c5(600), 1200),
        ],
        ids=["K1,1000", "K2,1000", "C5x600"],
    )
    def test_large_twin_classes(self, make, want):
        # the search branches over twin classes, so its depth is the class
        # count, not the independence number
        g = make()
        alpha, witness = independence_number(g)
        assert alpha == want and witness.bit_count() == want
        assert all(not g.adj[v] & witness for v in bits_of(witness))

    def test_deep_search_raises_limit_exceeded(self):
        # a perfect matching is twin-free, and each level of the search takes
        # one end of an edge, so it is as deep as the matching has edges: 600
        # stays well below the default recursion limit of 1,000, and 1,200
        # goes past it
        def matching(k):
            return build_graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])

        assert independence_number(matching(600))[0] == 600
        with pytest.raises(LimitExceeded, match="independence search too deep"):
            independence_number(matching(1200))

    def test_digest(self):
        """(alpha, set) over the seeded corpus, within masks included: one
        search path for twin-free and twin-rich subgraphs alike."""
        h = hashlib.sha256()
        for g, within in twin_corpus():
            alpha, chosen = independence_number(g, within)
            h.update(f"{alpha} {chosen:x}\n".encode())
        assert h.hexdigest() == "55beca37570eb3cb6ffa0b121cb2ea8d6e52086a172c3b287430d4ad4c4d7341"


class TestConnectivity:
    def test_known_values(self):
        assert vertex_connectivity(complete(6)) == 5
        assert vertex_connectivity(cycle(7)) == 2
        assert vertex_connectivity(path(4)) == 1
        assert vertex_connectivity(build_graph(4, [(0, 1), (2, 3)])) == 0
        assert vertex_connectivity(square_lsk4()) == 7

    def test_at_most_min_degree(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9), 0.45)
            assert vertex_connectivity(g) <= min(g.degree(v) for v in range(g.n))

    def test_matches_bruteforce(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 8), rng.random() * 0.7 + 0.2)
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    def test_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")

        def nx_kappa(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return nx.node_connectivity(h)

        graphs = [random_graph(rng, rng.randint(9, 14), 0.2 + rng.random() * 0.7) for _ in range(60)]
        graphs += [random_connected_graph(rng, rng.randint(9, 14), 0.35) for _ in range(40)]
        graphs += [circulant(n, {1, j}) for n in (10, 13, 16, 18) for j in (2, 3, 4)]
        for base, mult in ((cycle(5), (2, 2, 2, 2, 2)), (path(4), (1, 3, 2, 1)),
                           (cycle(7), (3, 1, 2, 1, 1, 2, 1))):
            graphs.append(solid_expand(SolidSpec(base, mult))[0])
        graphs += [gen_knp3(5).graph, gen_knp3(5, regularized=True).graph,
                   gen_knp2_minus_matching(7, 5).graph, gen_square_lsk4().graph,
                   gen_planar_chain(4).graph]
        for g in graphs:
            assert vertex_connectivity(g) == nx_kappa(g), g.edges()

    def test_local_search_stops_at_cap(self):
        # C4 x C4: (0,0) and (2,2) share no neighbor and no greedy path of
        # length three joins them, so all four paths come from augmentation
        torus, labels = cartesian_product(cycle(4), cycle(4))
        s, t = labels.index((0, 0)), labels.index((2, 2))
        assert _local_connectivity(torus.adj, s, t, torus.n) == 4
        assert _local_connectivity(torus.adj, s, t, 3) == 3
        assert vertex_connectivity(torus) == 4


class TestClawFree:
    def test_star_has_claw(self):
        claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        ok, witness = is_claw_free(claw)
        assert not ok
        center, *leaves = witness
        assert center == 0 and sorted(leaves) == [1, 2, 3]

    def test_complete_is_claw_free(self):
        assert is_claw_free(complete(7)) == (True, None)

    def test_witness_is_induced_claw(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 10), 0.4)
            ok, witness = is_claw_free(g)
            if ok:
                continue
            center, a, b, c = witness
            for leaf in (a, b, c):
                assert g.has_edge(center, leaf)
            assert not g.has_edge(a, b)
            assert not g.has_edge(a, c)
            assert not g.has_edge(b, c)


class TestEmbedding:
    def test_triangle(self):
        rot = RotationSystem(((1, 2), (0, 2), (0, 1)))
        ok, faces = verify_embedding(complete(3), rot)
        assert ok and faces == 2

    def test_k4_planar_rotation(self):
        # outer triangle 0,1,2 with 3 in the center
        rot = RotationSystem(
            (
                (1, 3, 2),
                (2, 3, 0),
                (0, 3, 1),
                (0, 1, 2),
            )
        )
        ok, faces = verify_embedding(complete(4), rot)
        assert ok and faces == 4

    def test_k5_rejected(self):
        g = complete(5)
        rot = RotationSystem(tuple(tuple(bits_of(g.adj[v])) for v in range(5)))
        ok, _ = verify_embedding(g, rot)
        assert not ok

    def test_tree_and_single_vertex(self):
        ok, faces = verify_embedding(path(4), RotationSystem(((1,), (0, 2), (1, 3), (2,))))
        assert ok and faces == 1
        ok, faces = verify_embedding(build_graph(1, []), RotationSystem(((),)))
        assert ok and faces == 1

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            verify_embedding(complete(3), RotationSystem(((1, 1), (0, 2), (0, 1))))

    def test_text_round_trip(self):
        rot = RotationSystem(((1, 2), (0, 2), (0, 1)))
        text = rot.to_text()
        assert text == "0: 1 2\n1: 0 2\n2: 0 1\n"
        assert RotationSystem.from_text(text) == rot

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex 0 .*more than once"):
            RotationSystem.from_text("0: 1 2\n0: 2 1\n1: 0\n")


class TestOrbits:
    def test_cycle_single_orbit(self):
        orbits = edge_orbits(cycle(5))
        assert len(orbits) == 1

    def test_path_two_orbits(self):
        orbits = edge_orbits(path(4))
        assert len(orbits) == 2

    def test_k5p3_three_orbits(self):
        g, _ = cartesian_product(complete(5), path(3))
        orbits = edge_orbits(g)
        assert len(orbits) == 3

    def test_node_limit_raises_limit_exceeded(self, monkeypatch):
        monkeypatch.setattr(invariants, "SEARCH_NODE_LIMIT", 3)
        with pytest.raises(LimitExceeded, match="automorphism search exceeded 3 nodes"):
            automorphism_generators(cycle(8))


def symmetric_graphs():
    """Circulants and (mixed) blow-ups: twin-rich and vertex-transitive
    graphs, where the automorphism search has most to prune."""
    out = [circulant(n, s) for n in range(4, 10) for s in ({1}, {1, 2}, {1, 3}, {2, 3})
           if 2 * max(s) <= n]
    out += [solid_expand(SolidSpec.uniform(base, 2))[0] for base in (cycle(4), cycle(5), path(3))]
    out += [solid_expand(SolidSpec(path(3), (1, 3, 2)))[0],
            solid_expand(SolidSpec(cycle(4), (2, 1, 3, 1)))[0]]
    out += [build_graph(5, []), complete(5), cartesian_product(complete(3), path(3))[0]]
    return out


class TestAutomorphismSearch:
    def test_generators_are_automorphisms(self, rng):
        graphs = [random_graph(rng, rng.randint(0, 10), rng.random()) for _ in range(100)]
        for g in graphs + symmetric_graphs() + [gen_planar_chain(4).graph]:
            assert all(permute_graph(g, perm) == g for perm in automorphism_generators(g))

    def test_matches_networkx_automorphisms(self, rng):
        """Where networkx lists at most 1,000 automorphisms, they generate
        a group of that order, and their edge orbits are ``edge_orbits``.
        The generators are automorphisms, so a generated group past 1,000
        elements means a full group past 1,000 too: those are skipped."""
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        graphs = [random_graph(rng, rng.randint(0, 7), rng.uniform(0.2, 0.8)) for _ in range(50)]
        graphs += symmetric_graphs()
        checked = 0
        for g in graphs:
            order = group_order(g.n, automorphism_generators(g))
            if order is None:
                continue
            h = nx_graph(nx, g)
            autos = list(islice(GraphMatcher(h, h).isomorphisms_iter(), 1001))
            assert order == len(autos), g.edges()
            orbits = {tuple(sorted({tuple(sorted((s[u], s[v]))) for s in autos}))
                      for u, v in g.edges()}
            assert sorted(map(tuple, edge_orbits(g))) == sorted(orbits), g.edges()
            checked += 1
        assert checked > 60

    def test_chain_group_order(self):
        # the 60-vertex chain has 20 automorphisms
        g = gen_planar_chain(10).graph
        assert group_order(g.n, automorphism_generators(g)) == 20


@pytest.mark.parametrize(
    "call",
    [independence_number, canonical_form, automorphism_generators, is_minimally_tough],
    ids=lambda f: f.__name__,
)
def test_calls_leave_no_reference_cycles(call):
    # a recursive closure would leave a function <-> cell cycle per call,
    # which only the cyclic collector frees
    g = cycle(7)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            call(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_automorphism_count_examples():
    assert group_order(5, automorphism_generators(cycle(5))) == 10
    assert group_order(4, automorphism_generators(complete(4))) == 24
    assert group_order(3, automorphism_generators(path(3))) == 2
