import hashlib

import pytest

import toughgraphs.families as families
from toughgraphs.families import (
    FamilyError,
    gen_knp2_minus_matching,
    gen_knp3,
    gen_planar_chain,
    gen_square_lsk4,
)
from toughgraphs.graph import degree_profile, delete_edge
from toughgraphs.invariants import is_claw_free, verify_embedding
from toughgraphs.operators import cartesian_product, complete, path
from toughgraphs.ratio import Ratio
from toughgraphs.search import canonical_form
from toughgraphs.toughness import (
    VerifyResult,
    is_minimally_tough,
    toughness_exact,
    verify_certificate,
    write_certificate,
)


def assert_expected_structure(fam):
    lo, hi, regular, _ = degree_profile(fam.graph)
    assert (lo, hi, regular) == (
        fam.expected.delta,
        fam.expected.Delta,
        fam.expected.regular,
    )
    assert is_claw_free(fam.graph)[0] == fam.expected.claw_free
    assert fam.base_certificate.ratio == fam.expected.toughness
    for e, cert in fam.edge_certificates.items():
        assert cert.ratio < fam.expected.toughness
        assert verify_certificate(delete_edge(fam.graph, e), cert).ok
    assert set(fam.edge_certificates) == set(fam.graph.edges())
    assert sorted(fam.labels.values()) == list(range(fam.graph.n))


class TestPlanarChain:
    @pytest.mark.parametrize("m", [4, 6, 8, 10])
    def test_structure_and_certificates(self, m):
        fam = gen_planar_chain(m)
        assert fam.graph.n == 6 * m
        assert fam.graph.edge_count() == 12 * m
        assert_expected_structure(fam)
        assert fam.base_certificate.omega == 2 * m

    def test_case_ratios_m6(self):
        fam = gen_planar_chain(6)
        want = {
            "case1": Ratio(19, 13),
            "case2": Ratio(17, 12),
            "case3": Ratio(16, 11),
            "case4": Ratio(19, 13),
        }
        for e, case in fam.edge_case.items():
            assert fam.edge_certificates[e].ratio == want[case]

    def test_every_case_occurs(self):
        fam = gen_planar_chain(4)
        assert set(fam.edge_case.values()) == {"case1", "case2", "case3", "case4"}

    def test_rotation_certifies_planarity(self):
        for m in (4, 6):
            fam = gen_planar_chain(m)
            ok, faces = verify_embedding(fam.graph, fam.rotation)
            assert ok and faces == 6 * m + 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_planar_chain(5)
        with pytest.raises(ValueError):
            gen_planar_chain(2)

    def test_label_map(self):
        fam = gen_planar_chain(4)
        assert fam.labels["v_{1,1}"] == 0
        assert fam.labels["v_{4,6}"] == 23
        text = fam.label_map_text()
        assert "v_{2,3} 8\n" in text


class TestKnp2MinusMatching:
    def test_smallest_instance(self):
        fam = gen_knp2_minus_matching(7, 5)
        assert fam.graph.n == 14
        assert fam.expected.toughness == Ratio(5, 2)
        assert_expected_structure(fam)

    def test_clique_edge_ratio(self):
        fam = gen_knp2_minus_matching(9, 7)
        clique_edges = [e for e, c in fam.edge_case.items() if c == "clique"]
        assert clique_edges
        for e in clique_edges:
            assert fam.edge_certificates[e].ratio == Ratio(3, 1)
        rung_edges = [e for e, c in fam.edge_case.items() if c == "rung"]
        assert len(rung_edges) == 7
        for e in rung_edges:
            assert fam.edge_certificates[e].ratio == Ratio(7 - 1, 2)  # (m - 1)/2

    @pytest.mark.parametrize("n,m", [(7, 4), (7, 7), (6, 5), (9, 6)])
    def test_constraint_enforced(self, n, m):
        with pytest.raises(ValueError):
            gen_knp2_minus_matching(n, m)

    @pytest.mark.parametrize("n,m", [(7, 5), (8, 6), (9, 7), (10, 7), (10, 9)])
    def test_range(self, n, m):
        fam = gen_knp2_minus_matching(n, m)
        assert fam.expected.toughness == Ratio(m, 2)
        assert_expected_structure(fam)
        want = {"rung": Ratio(m - 1, 2), "clique": Ratio(n, 3)}
        for e, case in fam.edge_case.items():
            assert fam.edge_certificates[e].ratio == want[case]


class TestKnp3:
    @pytest.mark.parametrize("n", list(range(3, 11)))
    def test_plain_range(self, n):
        fam = gen_knp3(n)
        assert fam.graph.n == 3 * n
        assert fam.expected.toughness == Ratio(n + 1, 3)
        assert_expected_structure(fam)

    @pytest.mark.parametrize("n", list(range(4, 11)))
    def test_regularized_range(self, n):
        fam = gen_knp3(n, regularized=True)
        assert fam.graph.n == 3 * n - 1
        assert degree_profile(fam.graph)[:3] == (n, n, True)
        assert_expected_structure(fam)

    def test_n5_examples(self):
        assert gen_knp3(5).expected.toughness == Ratio(2, 1)
        assert gen_knp3(5, regularized=True).graph.n == 14

    def test_n3(self):
        fam = gen_knp3(3)
        assert fam.graph.n == 9 and fam.expected.toughness == Ratio(4, 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_knp3(2)
        with pytest.raises(ValueError):
            gen_knp3(3, regularized=True)

    def test_plain_is_cartesian_product(self):
        fam = gen_knp3(4)
        prod, _ = cartesian_product(complete(4), path(3))
        assert canonical_form(fam.graph) == canonical_form(prod)

    # n/3 and (n+2)/4 coincide at n = 6, so odd n tell the cases apart
    @pytest.mark.parametrize("n,regularized", [(5, False), (5, True), (7, False), (7, True)])
    def test_per_edge_ratio_values(self, n, regularized):
        fam = gen_knp3(n, regularized)
        assert {"rung", "middle-clique", "outer-clique"} <= set(fam.edge_case.values())
        for e, case in fam.edge_case.items():
            r = fam.edge_certificates[e].ratio
            if case == "middle-clique":
                assert r == Ratio(n + 2, 4)
            else:
                assert r == Ratio(n, 3)


class TestSquareLsk4:
    def test_structure(self):
        fam = gen_square_lsk4()
        assert fam.graph.n == 12
        assert degree_profile(fam.graph)[:3] == (7, 7, True)
        assert fam.base_certificate.ratio == Ratio(3, 1)
        assert fam.base_certificate.cut.bit_count() == 9
        assert_expected_structure(fam)

    def test_all_edge_certificates_at_eight_thirds(self):
        fam = gen_square_lsk4()
        assert len(fam.edge_certificates) == 42
        assert all(c.ratio == Ratio(8, 3) for c in fam.edge_certificates.values())

    def test_exact_toughness_and_minimality(self):
        fam = gen_square_lsk4()
        assert toughness_exact(fam.graph).value == Ratio(3, 1)
        rep = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
        assert rep.verdict is True


class TestExactnessSmallScale:
    @pytest.mark.parametrize(
        "fam_func",
        [
            lambda: gen_knp3(3),
            lambda: gen_knp3(4),
            lambda: gen_knp3(4, regularized=True),
            lambda: gen_knp2_minus_matching(7, 5),
        ],
    )
    def test_exact_matches_expected_and_minimal(self, fam_func):
        fam = fam_func()
        assert toughness_exact(fam.graph).value == fam.expected.toughness
        rep = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
        assert rep.verdict is True
        assert all(w.source == "template" for w in rep.entries)


@pytest.mark.parametrize(
    "make",
    [lambda: gen_planar_chain(4), gen_square_lsk4, lambda: gen_knp3(4)],
    ids=["planar-chain", "square-lsk4", "knp3"],
)
def test_template_rejected_on_verification_raises(monkeypatch, make):
    """No engine fallback: an edge certificate that fails verification
    fails the generator."""
    g = make().graph
    rejected = delete_edge(g, g.edges()[0])

    def verify_rejecting_one_edge(h, cert):
        if h == rejected:
            return VerifyResult(False, "rejected")
        return verify_certificate(h, cert)

    monkeypatch.setattr(families, "verify_certificate", verify_rejecting_one_edge)
    with pytest.raises(FamilyError, match=r"edge \(0, \d+\)"):
        make()


@pytest.mark.parametrize(
    "make,case,wrong_case",
    [
        (lambda: gen_knp3(5), "middle-clique", "rung"),
        (lambda: gen_knp3(5, regularized=True), "middle-clique", "outer-clique"),
        (lambda: gen_knp2_minus_matching(7, 5), "clique", "rung"),
    ],
    ids=["knp3", "knp3-regularized", "knp2-minus-matching"],
)
def test_edge_ratio_off_its_case_raises(monkeypatch, make, case, wrong_case):
    """A cut that verifies and lies below t still fails the generator when
    its ratio is not the one its case gives."""
    certify = families._certified

    def mislabel_one_edge(tag, g, labels, expected, base, edge_cuts, case_ratio):
        e = next(e for e, (c, _) in edge_cuts.items() if c == case)
        edge_cuts = {**edge_cuts, e: (wrong_case, edge_cuts[e][1])}
        return certify(tag, g, labels, expected, base, edge_cuts, case_ratio)

    monkeypatch.setattr(families, "_certified", mislabel_one_edge)
    with pytest.raises(FamilyError, match=rf"edge \(\d+, \d+\) \({wrong_case}\)"):
        make()


# sha256 of the base certificate text, every edge certificate text in edge
# order and the label map: pins each cut template and label mask
_FAMILY_DIGESTS = [
    ("knp3", (3,), "1427838df1f111d2d6a98ca17701da54d2ef5741cc1fd4c49963dc0a08b284bf"),
    ("knp3", (4,), "7aa8796b0be68759f35ed1dbc5b69346396ae92c45c903e4517c6394bc2cef29"),
    ("knp3", (5,), "f6962ea2f373925abc8d215d8b0a9f0838a85d0d6df20f889a445502d1bf3275"),
    ("knp3", (6,), "29083ea9dc3e3ab2b7272f35dcbb6b21f7d1eb0257f3d8e04f723b653856e573"),
    ("knp3", (7,), "cf5f72c4b1c79292918ee9f8d4b12a47ebebd2d5c4287d5cad9ac57f5c01acc8"),
    ("knp3", (8,), "8521b03413c8b5882b07c44ee109dc16b7dcf97dc21093a15ed9a942240e6c1c"),
    ("knp3-regularized", (4,), "7aec69a3ac77e4943ea3159695d9cdf880e9397dabc9b62e41f03a7faa106109"),
    ("knp3-regularized", (5,), "e2f1fec7321eb0b1ecf5351c4b5e944d4b76e469142b88217c3a955667ffc781"),
    ("knp3-regularized", (6,), "ce158521836c34c17b2490fbd04bbf7dd1188271b53b1370540d7a245fcad638"),
    ("knp3-regularized", (7,), "bb2ce6f47fc88356b2c6d09329f81d30932fd65b23c6c65409fddf5df505692e"),
    ("knp3-regularized", (8,), "698ec3a96331173bd0f37b3340a8ee58dc3a6726cec2f1e82ffede285d0e6a34"),
    ("knp2-minus-matching", (7, 5), "0f20bb802c65c3e6dad76eaf7b0054af4625c4dd462e38be406c90e81de026eb"),
    ("knp2-minus-matching", (8, 6), "7b1ee163e6f78c0f4e3cd4991b5361ca86ae4f6c899c455c59d5863ac0d2e87a"),
    ("knp2-minus-matching", (9, 7), "129da79f1d2da8509840e154ee18dbb7357fb551380ca3d47f44815c35541cbd"),
    ("knp2-minus-matching", (10, 7), "f5ef4a6a467acff5fe3b7b40d8975bd1846618aaa2f0634deb73c951597a48d9"),
    ("knp2-minus-matching", (10, 9), "b2a41b7ca4109d9c5f82f72797ea90e268f5d3574c5893274517fdf5a9b5c68d"),
]


def _family_digest(fam) -> str:
    h = hashlib.sha256(write_certificate(fam.graph, fam.base_certificate).encode())
    for e, cert in fam.edge_certificates.items():
        h.update(write_certificate(delete_edge(fam.graph, e), cert).encode())
    h.update(fam.label_map_text().encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "tag,params,want",
    _FAMILY_DIGESTS,
    ids=[f"{tag}-{'-'.join(map(str, params))}" for tag, params, _ in _FAMILY_DIGESTS],
)
def test_clique_family_bytes_pinned(tag, params, want):
    make = {
        "knp3": gen_knp3,
        "knp3-regularized": lambda n: gen_knp3(n, regularized=True),
        "knp2-minus-matching": gen_knp2_minus_matching,
    }[tag]
    assert _family_digest(make(*params)) == want
