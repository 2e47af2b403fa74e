"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime (visible with -s or in
captured output).  Values are asserted exactly; runtimes are asserted against
the stated desk-scale budgets.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import pytest

from conftest import random_connected_graph, random_graph
from oracles import brute_toughness, brute_witness, ratio_of

import random

from toughgraphs.cli import main as cli_main
from toughgraphs.families import (
    gen_knp2_minus_matching,
    gen_knp3,
    gen_planar_chain,
    gen_square_lsk4,
)
from toughgraphs.graph import degree_profile, delete_edge
from toughgraphs.graph6 import parse_graph6, write_graph6
from toughgraphs.invariants import is_claw_free, verify_embedding, vertex_connectivity
from toughgraphs.operators import SolidSpec, circulant, cycle, solid_expand
from toughgraphs.ratio import INFINITE, Ratio
from toughgraphs.search import (
    SearchOptions,
    enumerate_connected,
    filter_counterexamples,
)
from toughgraphs.toughness import (
    EngineConfig,
    is_minimally_tough,
    solid_reduced_toughness,
    toughness_exact,
    toughness_upper_search,
    verify_certificate,
)

pytestmark = pytest.mark.acceptance

_WORKERS = 8


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.name}: PASS ({elapsed:.1f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget"
        else:
            print(f"\nACCEPTANCE {self.name}: FAIL ({elapsed:.1f}s)")
        return False


def test_criterion_1_square_graph():
    with Budget("1 (square of L(S(K4)))", 10):
        fam = gen_square_lsk4()
        assert fam.graph.n == 12
        assert degree_profile(fam.graph)[:3] == (7, 7, True)
        assert toughness_exact(fam.graph).value == Ratio(3, 1)
        report = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
        assert report.verdict is True
        assert len(report.entries) == 42
        assert all(w.certificate.ratio == Ratio(8, 3) for w in report.entries)


def test_criterion_2_three_clique_rows():
    with Budget("2 (K_n x P_3 rows)", 300):
        for n in range(3, 8):
            fam = gen_knp3(n)
            res = toughness_exact(fam.graph)
            assert res.value == Ratio(n + 1, 3)
            lo, hi, regular, _ = degree_profile(fam.graph)
            assert (lo, hi, regular) == (n, n + 1, False)
            rep = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
            assert rep.verdict is True
        for n in range(4, 8):
            fam = gen_knp3(n, regularized=True)
            assert degree_profile(fam.graph)[:3] == (n, n, True)
            assert toughness_exact(fam.graph).value == Ratio(n + 1, 3)
            rep = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
            assert rep.verdict is True


def test_criterion_3_claw_free_pairs():
    with Budget("3 (claw-free clique pairs)", 600):
        for n, m in ((7, 5), (8, 6), (9, 7)):
            fam = gen_knp2_minus_matching(n, m)
            assert is_claw_free(fam.graph)[0]
            lo, hi, _, _ = degree_profile(fam.graph)
            assert lo == n - 1 and hi == n
            assert toughness_exact(fam.graph).value == Ratio(m, 2)
            rep = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
            assert rep.verdict is True


_chain_results = {}


def test_criterion_4_planar_chain_m4():
    fam = gen_planar_chain(4)
    assert fam.graph.n == 24
    assert degree_profile(fam.graph)[:3] == (4, 4, True)
    ok, faces = verify_embedding(fam.graph, fam.rotation)
    assert ok and faces == 26

    with Budget("4a (chain m=4 exact, 1 worker)", 1800):
        single = toughness_exact(fam.graph, EngineConfig(workers=1))
        assert single.value == Ratio(3, 2)
    with Budget("4b (chain m=4 exact, 8 workers)", 300):
        multi = toughness_exact(fam.graph, EngineConfig(workers=_WORKERS))
        assert multi.value == Ratio(3, 2)
    assert single.witness == multi.witness
    _chain_results["m4"] = (single, multi)

    with Budget("4c (chain m=4 minimality via templates)", 1800):
        report = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
        assert report.verdict is True
        assert all(w.source == "template" for w in report.entries)
        assert len(report.entries) == 48


def test_criterion_5_chain_certificate_scale():
    with Budget("5 (chain certificates m=4..10)", 30):
        for m in (4, 6, 8, 10):
            fam = gen_planar_chain(m)
            base = fam.base_certificate
            assert verify_certificate(fam.graph, base).ok
            assert base.cut.bit_count() == 3 * m and base.omega == 2 * m
            assert base.ratio == Ratio(3, 2)
            assert len(fam.edge_certificates) == 12 * m
            for e, cert in fam.edge_certificates.items():
                assert verify_certificate(delete_edge(fam.graph, e), cert).ok
                assert cert.ratio < Ratio(3, 2)


def test_criterion_6_solid_reduction():
    with Budget("6 (all-copies reduction)", 600):
        spec = SolidSpec.uniform(cycle(5), 2)
        red = solid_reduced_toughness(spec)
        full = toughness_exact(solid_expand(spec)[0])
        assert red.value == Ratio(4, 3) and full.value == Ratio(4, 3)
        assert red.witness == full.witness

        bases = []
        for n in range(1, 6):
            bases.extend(enumerate_connected(n))
        rng = random.Random(42)
        six = 0
        while six < 50:
            g = random_connected_graph(rng, 6, 0.25 + rng.random() * 0.5)
            bases.append(g)
            six += 1
        checked = 0
        for base in bases:
            for pattern in range(1 << base.n):
                mult = tuple(2 if pattern >> v & 1 else 1 for v in range(base.n))
                spec = SolidSpec(base, mult)
                expanded, index_map = solid_expand(spec)
                red = solid_reduced_toughness(spec)
                full = toughness_exact(expanded)
                assert red.value == full.value, (write_graph6(base), mult)
                # independent value: brute force over unions of copy groups
                groups = [[i for i, (b, _) in enumerate(index_map) if b == v]
                          for v in range(base.n)]
                want = brute_witness(expanded, groups)
                if want is None:
                    assert red.value == INFINITE, (write_graph6(base), mult)
                else:
                    assert ratio_of(red.value) == want[0], (write_graph6(base), mult)
                checked += 1
        assert checked == 2 + 4 + 16 + 96 + 672 + 50 * 64


def test_criterion_7_counterexample_search():
    with Budget("7 (search all connected n <= 8)", 1800):
        counts = [len(enumerate_connected(n)) for n in range(1, 9)]
        assert counts == [1, 1, 2, 6, 21, 112, 853, 11117]
        lines = [
            write_graph6(g) for n in range(1, 9) for g in enumerate_connected(n)
        ]
        report = filter_counterexamples(lines, SearchOptions(workers=_WORKERS))
        assert report.scanned == sum(counts)
        assert report.flagged == ()
        assert report.inconclusive == ()

        g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        rep = filter_counterexamples([write_graph6(g)])
        assert len(rep.flagged) == 1
        hit = rep.flagged[0]
        assert hit.toughness == Ratio(4, 3)
        assert hit.delta == 4 and hit.ceil_2t == 3


def test_criterion_8_circulant_upper_bound():
    with Budget("8 (78-vertex circulant blow-up)", 600):
        base = circulant(39, {3, 4})
        g, _ = solid_expand(SolidSpec.uniform(base, 2))
        assert g.n == 78
        assert degree_profile(g)[:3] == (8, 8, True)
        cert = toughness_upper_search(g, budget_steps=400_000, seed=0)
        assert cert.ratio <= Ratio(20, 13)
        assert verify_certificate(g, cert).ok


def test_criterion_9_property_suites(capsys):
    with Budget("9 (property suites)", 1200):
        rng = random.Random(0xACCE97)

        # pruned engine vs independent exhaustive oracle
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(2, 11), 0.2 + rng.random() * 0.6)
            res = toughness_exact(g)
            want = brute_toughness(g)
            if want is math.inf:
                assert res.value == INFINITE
            else:
                assert ratio_of(res.value) == want
                assert verify_certificate(g, res.witness).ok

        # deleting an edge never raises toughness; 2t never exceeds kappa
        mono = random.Random(0xED6E)
        for _ in range(500):
            g = random_connected_graph(mono, mono.randint(3, 11), 0.45)
            t = toughness_exact(g).value
            e = g.edges()[mono.randrange(g.edge_count())]
            te = toughness_exact(delete_edge(g, e)).value
            assert te <= t
            if not g.is_complete():
                kappa = vertex_connectivity(g)
                assert 2 * t.p <= kappa * t.q

        # graph6 round trip
        enc = random.Random(0x6E6E)
        for _ in range(1000):
            g = random_graph(enc, enc.randint(1, 62), enc.random())
            assert parse_graph6(write_graph6(g)) == g

        # worker-count determinism, byte for byte, through the CLI,
        # including the witness certificate files
        import tempfile
        from pathlib import Path

        fam = gen_knp3(5)
        g6 = write_graph6(fam.graph)
        outs = []
        certs = []
        with tempfile.TemporaryDirectory() as tmp:
            for threads in ("1", str(_WORKERS)):
                cert_path = Path(tmp) / f"w{threads}.cert"
                code = cli_main(
                    ["toughness", "--g6", g6, "--exact", "--threads", threads,
                     "--cert", str(cert_path)]
                )
                assert code == 0
                outs.append(capsys.readouterr().out)
                certs.append(cert_path.read_bytes())
        assert outs[0] == outs[1] == "t = 2/1\n"
        assert certs[0] == certs[1]

        # repeated runs with a fixed seed are identical
        sc52_g6 = write_graph6(solid_expand(SolidSpec.uniform(cycle(5), 2))[0])
        repeats = []
        for _ in range(2):
            code = cli_main(["minimal", "--g6", sc52_g6, "--seed", "7"])
            assert code == 0
            repeats.append(capsys.readouterr().out)
        assert repeats[0] == repeats[1]

        sc52, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        stream = [write_graph6(sc52), write_graph6(cycle(6)), g6]
        reports = []
        for workers in (1, _WORKERS):
            rep = filter_counterexamples(stream, SearchOptions(workers=workers))
            reports.append(
                [f.report_line() for f in rep.flagged] + [rep.summary_line()]
            )
        assert reports[0] == reports[1]
