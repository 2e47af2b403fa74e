import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from concurrent import futures
from dataclasses import replace

import pytest

from conftest import blown_up_c5, random_connected_graph
from oracles import (
    adj_sets,
    brute_alpha,
    brute_first_below,
    brute_toughness,
    brute_within_degree_ceiling,
    brute_witness,
    ratio_of,
    sweep_flood,
    vertex_mask_anneal,
)

import toughgraphs.toughness as engine
from toughgraphs.graph import (
    _components,
    bits_of,
    build_graph,
    component_count,
    delete_edge,
    is_connected,
    mask_of,
)
from toughgraphs.graph6 import parse_graph6, write_graph6
from toughgraphs.invariants import independence_number, vertex_connectivity
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
from toughgraphs.ratio import INFINITE, Ratio
from toughgraphs.toughness import (
    CutCertificate,
    EngineConfig,
    LimitExceeded,
    degree_excess_filter,
    find_cut_below,
    is_minimally_tough,
    parse_certificate,
    solid_reduced_toughness,
    toughness_exact,
    toughness_upper_search,
    twin_classes,
    verify_certificate,
    write_certificate,
)
from toughgraphs.families import gen_knp2_minus_matching, gen_knp3, gen_planar_chain
from toughgraphs.search import enumerate_connected


def sc52():
    return solid_expand(SolidSpec.uniform(cycle(5), 2))[0]


class TestCertificates:
    def test_chain_base_ok(self):
        fam = gen_planar_chain(4)
        assert verify_certificate(fam.graph, fam.base_certificate).ok

    def test_component_mismatch(self):
        fam = gen_planar_chain(4)
        bad = CutCertificate(fam.base_certificate.cut, 9, Ratio(12, 9))
        res = verify_certificate(fam.graph, bad)
        assert not res.ok and "component mismatch" in res.reason

    def test_ratio_mismatch(self):
        fam = gen_planar_chain(4)
        bad = CutCertificate(fam.base_certificate.cut, 8, Ratio(11, 8))
        res = verify_certificate(fam.graph, bad)
        assert not res.ok and "ratio mismatch" in res.reason

    def test_out_of_range(self):
        res = verify_certificate(cycle(4), CutCertificate(1 << 10, 2, Ratio(1, 2)))
        assert not res.ok

    def test_omega_must_be_at_least_two(self):
        g = cycle(4)
        res = verify_certificate(g, CutCertificate(1, 1, Ratio(1, 1)))
        assert not res.ok and "omega" in res.reason

    def test_knp2_rung_cut(self):
        fam = gen_knp2_minus_matching(7, 5)
        cut = mask_of(range(5))  # v_{1,1..5}
        cert = CutCertificate(cut, 2, Ratio(5, 2))
        assert verify_certificate(fam.graph, cert).ok

    def test_records_hold_no_instance_dict(self):
        # slotted records: a kept result or certificate carries no __dict__
        g = sc52()
        res = toughness_exact(g)
        for record in (res, res.witness, verify_certificate(g, res.witness)):
            assert not hasattr(record, "__dict__")

    def test_text_round_trip_byte_exact(self):
        fam = gen_planar_chain(4)
        text = write_certificate(fam.graph, fam.base_certificate)
        lines = text.split("\n")
        assert lines[0] == "cert v1"
        assert lines[2].startswith("cut: 0 3 ")
        assert lines[3] == "omega: 8"
        assert lines[4] == "ratio: 3/2"
        assert text.endswith("\n") and "\r" not in text
        g, cert = parse_certificate(text)
        assert g == fam.graph and cert == fam.base_certificate
        assert write_certificate(g, cert) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_certificate("not a cert\n")
        with pytest.raises(ValueError):
            parse_certificate("cert v1\ngraph: Dhc\ncut: 0\nomega: x\nratio: 1/2\n")

    @pytest.mark.parametrize("index", [5, 10**12])
    def test_parse_rejects_out_of_range_cut_index(self, index):
        # Dhc has 5 vertices; the huge index must be refused before any shift
        text = f"cert v1\ngraph: Dhc\ncut: 0 {index}\nomega: 2\nratio: 1/1\n"
        with pytest.raises(ValueError, match="cut contains out-of-range vertices"):
            parse_certificate(text)


class TestExact:
    def test_complete_graphs_infinite(self):
        for n in (1, 2, 5):
            res = toughness_exact(complete(n))
            assert res.value is INFINITE or res.value == INFINITE
            assert res.witness is None

    def test_disconnected_zero(self):
        g = build_graph(5, [(0, 1), (2, 3)])
        res = toughness_exact(g)
        assert res.value == Ratio(0, 1)
        assert res.witness.cut == 0 and res.witness.omega == 3

    def test_cycle5(self):
        res = toughness_exact(cycle(5))
        assert res.value == Ratio(1, 1)
        cut = res.witness.cut
        assert cut.bit_count() == 2 and res.witness.omega == 2

    def test_square_family(self):
        lg, _ = line_graph(subdivision(complete(4)))
        res = toughness_exact(square(lg))
        assert res.value == Ratio(3, 1)

    def test_k5p3(self):
        g, _ = cartesian_product(complete(5), path(3))
        res = toughness_exact(g)
        assert res.value == Ratio(2, 1)

    def test_limit(self):
        # the exact and the target scan raise one message from one check;
        # C12 has 12 twin classes, so it runs at limit 12 and not at 11
        runs = ((lambda g, cfg: toughness_exact(g, cfg).value, Ratio(1, 1)),
                (lambda g, cfg: find_cut_below(g, Ratio(1, 1), cfg), None))
        over = ((cycle(30), EngineConfig()), (cycle(12), EngineConfig(exhaustive_limit=11)))
        for run, at_limit in runs:
            for g, cfg in over:
                with pytest.raises(LimitExceeded) as exc:
                    run(g, cfg)
                assert str(exc.value) == (
                    f"{g.n} twin classes (n={g.n}) exceed exhaustive limit "
                    f"{cfg.exhaustive_limit}; use the heuristic upper-bound search"
                )
            assert run(cycle(12), EngineConfig(exhaustive_limit=12)) == at_limit

    def test_matches_oracle_small(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 9), 0.4)
            res = toughness_exact(g)
            want = brute_toughness(g)
            if want is math.inf:
                assert res.value == INFINITE
            else:
                assert ratio_of(res.value) == want
                assert verify_certificate(g, res.witness).ok

    def test_witness_determinism_across_workers(self):
        g, _ = cartesian_product(complete(4), path(3))
        a = toughness_exact(g, EngineConfig(workers=1))
        b = toughness_exact(g, EngineConfig(workers=2, exhaustive_limit=26))
        c = toughness_exact(g, EngineConfig(workers=8))
        assert a.value == b.value == c.value
        assert a.witness == b.witness == c.witness

    def test_repeat_runs_identical(self):
        g = sc52()
        runs = [toughness_exact(g) for _ in range(3)]
        assert len({(r.witness.cut, r.witness.omega) for r in runs}) == 1

    @pytest.mark.parametrize(
        "make,want,size,omega",
        [
            (lambda: complete_bipartite(1, 1000), Ratio(1, 1000), 1, 1000),
            (lambda: blown_up_c5(600), Ratio(3, 2), 1800, 1200),
        ],
        ids=["K1,1000", "C5x600"],
    )
    def test_large_twin_classes(self, make, want, size, omega):
        # alpha is 1000 and 1200: the seed and the caps take it from a
        # search over twin classes
        g = make()
        res = toughness_exact(g)
        assert res.value == want
        assert (res.witness.cut.bit_count(), res.witness.omega) == (size, omega)
        assert verify_certificate(g, res.witness).ok


def witness_key(res):
    """The engine's result in the oracle's (ratio, |S|, mask) form."""
    if res.witness is None:
        return None
    cut = res.witness.cut
    return ratio_of(res.value), cut.bit_count(), cut


def random_blowup(rng, base_n, max_mult):
    base = random_connected_graph(rng, base_n, rng.uniform(0.3, 0.8))
    spec = SolidSpec(base, tuple(rng.randint(1, max_mult) for _ in range(base.n)))
    return spec, solid_expand(spec)[0]


def copy_groups(spec):
    """The expanded vertices of each base vertex, from the multiplicities."""
    groups, start = [], 0
    for m in spec.multiplicity:
        groups.append(list(range(start, start + m)))
        start += m
    return groups


@pytest.fixture
def submitted_shards(monkeypatch):
    """The (shard, shards) pairs that the scan runner hands its pool; 22
    classes is the least it shards.  Two usable CPUs are assumed, so a
    two-worker pool is built however many the machine has."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    submitted = []

    class CountingPool(futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[-2:])
            return super().submit(fn, *args)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    return submitted


@pytest.fixture
def anneals(monkeypatch):
    """The graphs that ``toughness_upper_search`` is called on."""
    calls = []
    anneal = engine.toughness_upper_search

    def counted(g, *args, **kwargs):
        calls.append(g)
        return anneal(g, *args, **kwargs)

    monkeypatch.setattr(engine, "toughness_upper_search", counted)
    return calls


class TestScanOracles:
    def test_witness_matches_brute_on_blowups(self, rng):
        checked = 0
        while checked < 25:
            spec, g = random_blowup(rng, rng.randint(1, 6), 3)
            if g.n > 12:
                continue
            assert witness_key(toughness_exact(g)) == brute_witness(g)
            checked += 1

    def test_witness_matches_brute_on_random_graphs(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
            assert witness_key(toughness_exact(g)) == brute_witness(g)

    def test_witness_matches_brute_on_tie_heavy_circulants(self):
        # vertex-transitive, so many cuts tie at the minimum ratio and the
        # (ratio, |S|, mask) tie-break alone picks the witness
        pytest.importorskip("hypothesis")
        from hypothesis import assume, given, settings, strategies as st

        cases = st.integers(4, 12).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n // 2), min_size=1))
        )

        @settings(derandomize=True, database=None, max_examples=50, deadline=None)
        @given(cases)
        def check(case):
            g = circulant(*case)
            assume(is_connected(g) and not g.is_complete())
            assert witness_key(toughness_exact(g)) == brute_witness(g)

        check()

    def test_target_mode_matches_brute_first_below(self, rng):
        graphs = [sc52()]
        while len(graphs) < 8:
            _, g = random_blowup(rng, rng.randint(3, 5), 3)
            if 6 <= g.n <= 11 and not g.is_complete():
                graphs.append(g)
        for g in graphs:
            t = toughness_exact(g).value
            for target in (t, Ratio(t.p + t.q, t.q)):
                for e in g.edges():
                    ge = delete_edge(g, e)
                    cert = find_cut_below(ge, target)
                    got = None if cert is None else (cert.cut.bit_count(), cert.cut)
                    assert got == brute_first_below(ge, ratio_of(target))
                    if cert is not None:
                        assert verify_certificate(ge, cert).ok

    def test_every_small_connected_graph_matches_the_oracles(self):
        # every connected graph with n <= 6: the witness, and the first cut
        # below t of every G - e, which may be disconnected
        checked = 0
        for n in range(2, 7):
            for g in enumerate_connected(n):
                if g.is_complete():
                    continue
                res = toughness_exact(g)
                assert witness_key(res) == brute_witness(g), write_graph6(g)
                for e in g.edges():
                    ge = delete_edge(g, e)
                    cert = find_cut_below(ge, res.value)
                    got = None if cert is None else (cert.cut.bit_count(), cert.cut)
                    assert got == brute_first_below(ge, ratio_of(res.value)), (write_graph6(g), e)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("g", [cycle(5), build_graph(4, [(0, 1), (2, 3)])],
                             ids=["C5", "disconnected"])
    def test_target_zero_or_infinite(self, g):
        # no ratio lies below 0; a target that is not a finite Ratio is an error
        assert find_cut_below(g, Ratio(0)) is None
        with pytest.raises(ValueError, match="target must be a finite Ratio, got INFINITE"):
            find_cut_below(g, INFINITE)

    def test_cut_at_or_above_the_target_is_refused(self, monkeypatch):
        # the runner re-checks each target-mode cut below the target; C5 has
        # t = 1 and {0, 2} leaves two components, a ratio of exactly 1
        monkeypatch.setattr(engine, "_scan", lambda *args: (2, 2, 0b101))
        with pytest.raises(AssertionError, match="ratio 1/1 is not below 1/1"):
            find_cut_below(cycle(5), Ratio(1))

    @pytest.mark.parametrize(
        "run",
        [lambda: toughness_exact(cycle(5)), lambda: find_cut_below(cycle(5), Ratio(3, 2))],
        ids=["exact", "target"],
    )
    def test_scan_that_overcounts_is_refused(self, monkeypatch, run):
        # the scan's own omega is what the certificate claims: {0, 2} leaves
        # two components of C5, and a scan that counts three must not turn
        # into a recounted certificate
        monkeypatch.setattr(engine, "_scan", lambda *args: (2, 3, 0b101))
        with pytest.raises(AssertionError, match="component mismatch: claimed 3, recomputed 2"):
            run()

    def test_large_blowup_goes_through_exact(self, rng):
        spec, g = random_blowup(rng, 10, 4)
        while g.n <= 30:
            spec, g = random_blowup(rng, 10, 4)
        assert len(twin_classes(g)) <= 26
        res = toughness_exact(g)
        red = solid_reduced_toughness(spec)
        assert red.value == res.value and red.witness == res.witness
        assert witness_key(res) == brute_witness(g, copy_groups(spec))
        with pytest.raises(LimitExceeded):
            toughness_exact(cycle(30))

    def test_twin_shards_match_single_worker(self, rng, submitted_shards):
        spec = SolidSpec(twin_free_graph(rng, 22), tuple(1 + i % 3 // 2 for i in range(22)))
        g = solid_expand(spec)[0]
        assert len(twin_classes(g)) == 22 < g.n
        a = toughness_exact(g, EngineConfig(workers=1))
        b = toughness_exact(g, EngineConfig(workers=2))
        assert sorted(submitted_shards) == [(i, 64) for i in range(64)]
        assert a.value == b.value
        assert a.witness == b.witness


def relabelled(rng, g):
    """g with its vertices permuted at random."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def graph_with_classes(rng, q, twins):
    """A connected, non-complete graph with exactly q twin classes and at
    most 13 vertices, with its vertex groups for the oracle: a twin-free
    random graph, or with ``twins`` a blow-up of one with 1 to 13 - q
    doubled vertices (a twin-free base keeps its vertices' copy groups as
    the twin classes)."""
    while True:
        base = random_connected_graph(rng, q, rng.uniform(0.3, 0.8))
        if len(twin_classes(base)) == q and (twins or not base.is_complete()):
            break
    if not twins:
        return base, [[v] for v in range(q)]
    mult = [1] * q
    for v in rng.sample(range(q), rng.randint(1, min(q, 13 - q))):
        mult[v] = 2
    spec = SolidSpec(base, tuple(mult))
    return solid_expand(spec)[0], copy_groups(spec)


class TestQuotientScan:
    """The scan runs on the twin quotient, with three chunk tables per class
    mask and one component per member of a class left on its own."""

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 5), (2, 3), (3, 3), (2, 7), (4, 5)])
    def test_bipartite_residue_is_one_class(self, a, b):
        # cutting the smaller side leaves the other one, a single twin class
        # whose members are all components
        g = complete_bipartite(a, b)
        res = toughness_exact(g)
        assert res.value == Ratio(min(a, b), max(a, b))
        assert witness_key(res) == brute_witness(g)
        for target in (res.value, Ratio(1, 1), Ratio(2, 1)):
            cert = find_cut_below(g, target)
            got = None if cert is None else (cert.cut.bit_count(), cert.cut)
            assert got == brute_first_below(g, ratio_of(target))

    @pytest.mark.parametrize("q", range(2, 13))
    def test_every_chunk_split_matches_oracles(self, rng, q):
        # q = 2..12 covers every residue of q mod 3: the top chunk holds w,
        # w - 1 or w - 2 bits, none at q = 2 and 4.  No graph of 2 or 3 twin
        # classes is twin-free and non-complete
        for twins in (q < 4, True, True):
            g, groups = graph_with_classes(rng, q, twins)
            res = toughness_exact(g)
            assert witness_key(res) == brute_witness(g, groups)
            t = res.value
            for target in (t, Ratio(2 * t.p + t.q, 2 * t.q), Ratio(t.p + t.q, t.q)):
                cert = find_cut_below(g, target)
                got = None if cert is None else (cert.cut.bit_count(), cert.cut)
                assert got == brute_first_below(g, ratio_of(target))

    def test_twin_free_shards_match_single_worker(self, rng, submitted_shards, anneals):
        # only the sharded exact scan starts from an annealed cut, once
        g = twin_free_graph(rng, 22)
        a = toughness_exact(g, EngineConfig(workers=1))
        assert not submitted_shards and not anneals
        b = toughness_exact(g, EngineConfig(workers=2))
        assert sorted(submitted_shards) == [(i, 64) for i in range(64)]
        assert anneals == [g]
        assert a.value == b.value
        assert a.witness == b.witness

    def test_target_scans_shard_alike(self, rng, submitted_shards, anneals):
        # find_cut_below and minimality's per-edge scans share the pool of
        # toughness_exact.  The second graph is a twin-free tree on 22
        # vertices plus the edge 0-2, which closes a cycle of 8 (t = 1/3):
        # its bridges and annealing resolve every edge but 0-2, whose one
        # scan proves that no cut of G - e lies below 1/3
        g = twin_free_graph(rng, 22)
        t = toughness_exact(g).value
        target = Ratio(t.p + t.q, t.q)
        anneals.clear()
        a = find_cut_below(g, target, EngineConfig(workers=1))
        assert a is not None and not submitted_shards
        assert find_cut_below(g, target, EngineConfig(workers=2)) == a
        assert sorted(submitted_shards) == [(i, 64) for i in range(64)]
        # below a target the shards start from no incumbent
        assert not anneals
        submitted_shards.clear()
        g = parse_graph6("UsC`C?GG??__?G?@?G??C@????OC??CC???_?G??")
        assert len(twin_classes(g)) == 22
        t = toughness_exact(g).value
        assert t == Ratio(1, 3)
        one = is_minimally_tough(g, EngineConfig(workers=1), toughness=t)
        assert not submitted_shards
        two = is_minimally_tough(g, EngineConfig(workers=2), toughness=t)
        assert sorted(submitted_shards) == [(i, 64) for i in range(64)]
        assert one == two and one.failing_edges == [(0, 2)]

    def test_minimality_starts_one_pool(self, monkeypatch, fake_pool):
        # a twin-free tree on 22 vertices plus the edges 0-2 and 3-9: eight
        # of its edges reach a sharded scan of G - e, and all eight share
        # one pool, started by the first
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        sharded = []
        scan = engine._scan

        def counted(quotient, alpha, target, best, shard=0, shards=1):
            if shard == 0 and shards > 1:
                sharded.append(target)
            return scan(quotient, alpha, target, best, shard, shards)

        monkeypatch.setattr(engine, "_scan", counted)
        g = parse_graph6("UsC`C?GK??__?G?@?G??C@????OC??CC???_?G??")
        t = toughness_exact(g).value
        one = is_minimally_tough(g, EngineConfig(workers=1), toughness=t)
        assert not fake_pool.built and not sharded
        two = is_minimally_tough(g, EngineConfig(workers=2), toughness=t)
        assert fake_pool.built == [2] and len(sharded) == 8
        assert one == two and len(one.failing_edges) == 10

    @pytest.mark.parametrize(
        "cpus,pools,most_pending", [(1, [], 0), (2, [2], 8)], ids=["one-cpu", "two-cpus"]
    )
    def test_pool_capped_at_usable_cpus(
        self, rng, monkeypatch, fake_pool, cpus, pools, most_pending
    ):
        monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
        g = twin_free_graph(rng, 22)
        res = toughness_exact(g, EngineConfig(workers=8))
        # a wave holds 4 shards per worker
        assert (fake_pool.built, fake_pool.most_pending) == (pools, most_pending)
        assert res.witness == toughness_exact(g).witness


def twin_free_graph(rng, n, p=0.5):
    """A connected, non-complete twin-free G(n, p)."""
    while True:
        g = random_connected_graph(rng, n, p)
        if len(twin_classes(g)) == n and not g.is_complete():
            return g


def quotient_of(g):
    return engine._quotient(g, tuple(twin_classes(g)))


def block_flood(g, base, bits):
    """``_disconnected_lanes`` on g's twin quotient for the block ``base``."""
    return engine._disconnected_lanes(quotient_of(g), base, bits)


def disconnected_lanes(g, base, bits):
    """The lanes ``_disconnected_lanes`` marks on g's twin quotient."""
    return block_flood(g, base, bits)[0]


def lane_oracle(g, base, bits):
    """Bit j set iff cutting the classes of ``base | j`` leaves at least two
    components, counted on the vertex graph by ``graph.component_count`` (a
    class left alone is one component per member there)."""
    classes = twin_classes(g)
    out = 0
    for j in range(1 << bits):
        s = base | j
        cut = sum(c for i, c in enumerate(classes) if s >> i & 1)
        if component_count(g.adj, g.full_mask & ~cut) >= 2:
            out |= 1 << j
    return out


def universal_lone_blowup(rng, bits):
    """A blow-up, at most 13 vertices, of a twin-free base on bits + 3 or
    bits + 4 vertices whose class ``bits``, the first past the lanes, has
    two or three members.  Every block that leaves it alive seeds every lane
    there, and the block that cuts every other class past the lanes leaves
    it alone in the lane that cuts every lane class."""
    q = bits + rng.randint(3, 4)
    base, _ = graph_with_classes(rng, q, twins=False)
    mult = [1] * q
    mult[bits] = rng.randint(2, 3)
    for v in rng.sample(range(q), rng.randint(0, min(q, 13 - q - mult[bits]))):
        mult[v] += v != bits
    spec = SolidSpec(base, tuple(mult))
    g = solid_expand(spec)[0]
    assert twin_classes(g)[bits].bit_count() == mult[bits] > 1
    return g, copy_groups(spec)


# lane widths under which a scan of 5 to 14 classes takes up to 2,048
# blocks of 8 lanes, a few blocks, or the scan's own width, one block
LANE_WIDTHS = (3, 8, engine._LANE_BITS)


class TestLaneFilter:
    """The scan's disconnection filter floods 2^_LANE_BITS cuts at once and
    only its marked lanes have their components counted."""

    def _check_blocks(self, g, monkeypatch, widths=LANE_WIDTHS):
        """Every block, as the scan lays them out with ``_LANE_BITS`` patched
        to each of ``widths``, against one oracle pass over all 2^q cuts:
        bit s of ``whole`` is lane s - base of block base."""
        q = len(twin_classes(g))
        whole = lane_oracle(g, 0, q)
        for width in widths:
            monkeypatch.setattr(engine, "_LANE_BITS", width)
            bits = min(engine._LANE_BITS, q)
            ones = (1 << (1 << bits)) - 1
            for high in range(1 << (q - bits)):
                base = high << bits
                got = disconnected_lanes(g, base, bits)
                assert got == whole >> base & ones, (g.edges(), width, base)

    @pytest.mark.parametrize("q", [5, 9, 12, 13, 14])
    def test_twin_free_lanes_match_component_count(self, rng, monkeypatch, q):
        for p in (0.3, 0.6):
            self._check_blocks(twin_free_graph(rng, q, p), monkeypatch)

    @pytest.mark.parametrize("q", [4, 8, 12])
    def test_blowup_lanes_match_component_count(self, rng, monkeypatch, q):
        for _ in range(3):
            g, _ = graph_with_classes(rng, q, twins=True)
            self._check_blocks(g, monkeypatch)

    @pytest.mark.parametrize("bits", [1, 3, 5])
    def test_universal_lone_class_lanes(self, rng, monkeypatch, bits):
        # the seed class of every lane, left alone, is one component per
        # member: the lane that cuts every lane class is disconnected
        for _ in range(3):
            g, _ = universal_lone_blowup(rng, bits)
            self._check_blocks(g, monkeypatch, (bits,))
            q = len(twin_classes(g))
            base = ((1 << (q - bits)) - 2) << bits
            assert disconnected_lanes(g, base, bits) >> ((1 << bits) - 1) & 1

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 5), (4, 3)])
    def test_lone_class_lanes(self, a, b):
        # K_{a,b} has two twin classes: cutting one side leaves the other
        # alone, a class whose members are all components.  In one block of
        # two lanes that is a lane class; in blocks of one lane, the B side
        # seeds the first block and is the lone class of its lane 1
        g = complete_bipartite(a, b)
        assert disconnected_lanes(g, 0, 2) == lane_oracle(g, 0, 2)
        assert disconnected_lanes(g, 0, 2) >> 0b01 & 1 == (b > 1)
        assert disconnected_lanes(g, 0, 1) == lane_oracle(g, 0, 1) == (b > 1) << 1
        assert disconnected_lanes(g, 0b10, 1) == lane_oracle(g, 0b10, 1) == (a > 1)

    def test_strided_shards_flood_each_block_once(self, rng, monkeypatch):
        # shard i of k floods blocks i, i + k, ...: a split into any number
        # of shards, 3 dividing no block count, floods every block of the
        # single scan once and marks the oracle's lanes.  Without the
        # hopeless-size stop no block is skipped
        monkeypatch.setattr(engine, "_LANE_BITS", 4)
        # a table that records any cut of two or more components and
        # never stops
        monkeypatch.setattr(
            engine, "_threshold_table", lambda n, alpha, best, target: ([(2, 0, 0)] * (n + 1), n + 1)
        )
        flood = engine._disconnected_lanes
        flooded = []

        def checked(quotient, base, bits):
            flooded.append(base)
            out = flood(quotient, base, bits)
            assert out[0] == lane_oracle(g, base, bits), (g.edges(), base)
            return out

        monkeypatch.setattr(engine, "_disconnected_lanes", checked)
        for g in (twin_free_graph(rng, 11), graph_with_classes(rng, 9, twins=True)[0]):
            quotient = quotient_of(g)
            alpha = independence_number(g)[0]
            q = len(quotient.classes)
            for shards in (1, 3, 64):
                flooded.clear()
                for shard in range(shards):
                    engine._scan(quotient, alpha, None, engine._NO_INCUMBENT, shard, shards)
                assert sorted(flooded) == [high << 4 for high in range(1 << (q - 4))]

    @pytest.mark.parametrize("width", [1, 3, 5, 8, engine._LANE_BITS])
    def test_flood_matches_the_full_sweep_oracle(self, rng, width):
        # the worklist looks at fewer classes than whole sweeps do and must
        # reach the same least fixpoint: the same lanes, alive and reached
        # integers and seeds in every block
        graphs = [twin_free_graph(rng, q, p) for q, p in ((7, 0.3), (10, 0.5), (12, 0.7))]
        graphs += [graph_with_classes(rng, q, twins=True)[0] for q in (6, 9)]
        graphs += [universal_lone_blowup(rng, bits)[0] for bits in (1, 3, 5)]
        # two random parts joined by the bridge 0-6, then without it: a
        # flood seeded past the lanes misses the other part
        left = random_connected_graph(rng, 6, 0.5)
        right = random_connected_graph(rng, 5, 0.5)
        edges = left.edges() + [(u + 6, v + 6) for u, v in right.edges()]
        split = delete_edge(build_graph(11, edges + [(0, 6)]), (0, 6))
        assert not is_connected(split)
        for g in graphs + [split]:
            quotient = quotient_of(g)
            q = len(quotient.classes)
            bits = min(width, q)
            for high in range(1 << (q - bits)):
                base = high << bits
                want = sweep_flood(quotient.nbrs, quotient.sizes, base, bits)
                assert block_flood(g, base, bits) == want, (g.edges(), width, base)

    def test_patterns_are_built_on_demand(self):
        code = (
            "import toughgraphs, toughgraphs.toughness as t; "
            "assert t._lane_patterns.cache_info().currsize == 0"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        alive, levels = engine._lane_patterns(3)
        assert alive == (0b01010101, 0b00110011, 0b00001111)
        assert levels == (0b1, 0b10110, 0b1101000, 0b10000000)

    @pytest.mark.parametrize("lane_bits", [1, 3, 5])
    def test_small_blocks_match_oracles(self, rng, monkeypatch, lane_bits):
        # many blocks per scan: block order, the per-level stop and the
        # skipped blocks must leave the witness and target hits unchanged
        monkeypatch.setattr(engine, "_LANE_BITS", lane_bits)
        for q in (6, 8, 10):
            for twins in (False, True):
                g, groups = graph_with_classes(rng, q, twins)
                res = toughness_exact(g)
                assert witness_key(res) == brute_witness(g, groups)
                t = res.value
                for target in (t, Ratio(t.p + t.q, t.q)):
                    cert = find_cut_below(g, target)
                    got = None if cert is None else (cert.cut.bit_count(), cert.cut)
                    assert got == brute_first_below(g, ratio_of(target))

    @pytest.mark.parametrize("n", [14, 17, pytest.param(20, marks=pytest.mark.slow)])
    def test_twin_free_witness_matches_brute(self, rng, n):
        # one to 32 blocks of 32,768 lanes; the oracle takes 12 s at n = 20
        g = twin_free_graph(rng, n, rng.uniform(0.3, 0.7))
        assert witness_key(toughness_exact(g)) == brute_witness(g)

    def test_forced_shards_merge_to_the_single_scan(self, rng, monkeypatch):
        # the pool's shard arguments, run here: any split must min-merge to
        # the unsharded answer, whatever incumbent each shard starts from.
        # From the search screen's ceiling incumbent that answer is the
        # minimizer when it beats the ceiling, else the ceiling itself; one
        # graph ends at each.  With 4 lane bits the graphs have 1024 and 64
        # blocks, which 3 does not divide
        monkeypatch.setattr(engine, "_LANE_BITS", 4)
        capped = []
        for g in (twin_free_graph(rng, 14), graph_with_classes(rng, 10, True)[0]):
            quotient = quotient_of(g)
            alpha, aset = independence_number(g)
            seed = g.full_mask & ~aset
            inc = (seed.bit_count(), aset.bit_count(), seed)
            whole = engine._scan(quotient, alpha, None, inc)
            assert whole == engine._scan(quotient, alpha, None, engine._NO_INCUMBENT)
            delta = min(row.bit_count() for row in g.adj)
            ceiling = (g.n * (delta - 1) + 1, 2 * g.n, g.full_mask)
            below = whole if engine._better(*whole, ceiling) else ceiling
            capped.append(below == ceiling)
            for start in (inc, engine._NO_INCUMBENT, whole, ceiling):
                want = below if start == ceiling else whole
                for shards in (1, 3, 64):
                    best = start
                    for shard in range(shards):
                        cand = engine._scan(quotient, alpha, None, start, shard, shards)
                        if cand[1] and engine._better(*cand, best):
                            best = cand
                    assert best == want, (start, shards)
            # below a target the shards min-merge under (|S|, mask); t has no
            # cut below it, t + 1 has
            t = Ratio(*whole[:2])
            for target in (t, Ratio(t.p + t.q, t.q)):
                first = engine._scan(quotient, alpha, target, engine._NO_INCUMBENT)
                got = (first[0], first[2]) if first[1] else None
                assert got == brute_first_below(g, ratio_of(target))
                for start in (engine._NO_INCUMBENT, first):
                    for shards in (1, 3, 64):
                        best = start
                        for shard in range(shards):
                            cand = engine._scan(quotient, alpha, target, start, shard, shards)
                            if cand[1] and (not best[1] or cand[::2] < best[::2]):
                                best = cand
                        assert best == first, (target, start, shards)
        assert sorted(capped) == [False, True]

    def test_shard_schedule_never_changes_the_answer(self, monkeypatch, fake_pool):
        # derandomized: small graphs forced through the two-worker runner at
        # a drawn lane width, with shards finishing in a drawn order, give
        # the one-worker witness, the one-worker first cut below t and below
        # t + 1, and the one-worker search screen: the annealed start and
        # the merge end on None, below the ceiling, exactly when one worker does
        pytest.importorskip("hypothesis")
        from hypothesis import assume, given, settings, strategies as st

        monkeypatch.setattr(engine, "_SHARD_FROM_CLASSES", 0)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        one, two = EngineConfig(workers=1), EngineConfig(workers=2)

        @settings(derandomize=True, database=None, max_examples=30, deadline=None)
        @given(st.data())
        def check(data):
            n = data.draw(st.integers(4, 11), label="n")
            # a spanning tree, each vertex hung below a lower one, plus chords
            tree = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = build_graph(n, tree + data.draw(st.lists(st.sampled_from(pairs)), label="chords"))
            assume(not g.is_complete())
            monkeypatch.setattr(engine, "_LANE_BITS", data.draw(st.integers(1, 5), label="L"))

            def drawn_first(pending):
                yield pending[data.draw(st.integers(0, len(pending) - 1))]

            monkeypatch.setattr(futures, "as_completed", drawn_first)
            res = toughness_exact(g, one)
            assert witness_key(res) == witness_key(toughness_exact(g, two))
            t = res.value
            for target in (t, Ratio(t.p + t.q, t.q)):
                assert find_cut_below(g, target, one) == find_cut_below(g, target, two)
            screened = degree_excess_filter(g, one)
            assert screened == degree_excess_filter(g, two)
            reasons.add(screened.reason)
            # the drawn graphs are sparse and stay within the ceiling, so a
            # graph past it joins each
            g6 = data.draw(st.sampled_from(sorted(past)), label="past")
            assert degree_excess_filter(parse_graph6(g6), two) == past[g6]

        past = {g6: degree_excess_filter(parse_graph6(g6), one) for g6 in ("DK{", "EFz_")}
        reasons = {rep.reason for rep in past.values()}
        check()
        assert fake_pool.built
        assert reasons == {"degree within ceiling", "not minimally tough"}

    def test_peak_memory_is_bounded(self):
        # a 2^q-bit table of the cuts would take 512 KB at q = 22.  A spider
        # (ten legs of two vertices, one of three) keeps the scan short
        # under tracemalloc: cutting its centre leaves ten components
        legs = [(0, i) for i in range(1, 11)] + [(i, i + 10) for i in range(1, 11)]
        g = build_graph(22, legs + [(20, 21)])
        assert len(twin_classes(g)) == 22
        # a first scan fills the per-width caches (lane patterns and seeds,
        # unit tables), which would otherwise count when run alone
        toughness_exact(g)
        tracemalloc.start()
        try:
            res = toughness_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == Ratio(1, 10)
        assert peak < 256 * 1024, peak


def lone_seed_blowup(rng):
    """A blow-up of a twin-free base, at most 11 vertices, whose class 0 has
    two or three members and is not adjacent to every other class: the
    lane that cuts exactly its neighbours seeds its flood at class 0, left
    alone, so the bound's seed term counts."""
    while True:
        base = random_connected_graph(rng, rng.randint(5, 7), rng.uniform(0.3, 0.7))
        if len(twin_classes(base)) == base.n and base.adj[0] != base.full_mask ^ 1:
            break
    mult = [rng.randint(2, 3)] + [rng.randint(1, 2) for _ in range(base.n - 1)]
    while sum(mult) > 11:
        mult[mult.index(2, 1)] = 1
    spec = SolidSpec(base, tuple(mult))
    g = solid_expand(spec)[0]
    assert twin_classes(g)[0].bit_count() == mult[0] > 1
    return g, copy_groups(spec)


def seed_reach(g, base, bits, alive):
    """The twin class that seeds a lane of the block ``base`` and every
    alive vertex joined to it: the lowest class past the lanes that ``base``
    leaves alive, else the lane's lowest alive class.  A class left alone
    reaches only itself."""
    classes = twin_classes(g)
    past = [c for i, c in enumerate(classes) if i >= bits and not base >> i & 1]
    seed = past[0] if past else next(c for c in classes if c & alive)
    reach = frontier = seed
    while frontier:
        grown = 0
        for v in bits_of(frontier):
            grown |= g.adj[v]
        frontier = grown & alive & ~reach
        reach |= frontier
    return seed, reach


class TestLaneBound:
    """The flood's unreached lanes bound each lane's component count in a
    bitsliced saturating counter, and the scan visits only the lanes whose
    bound reaches their level's threshold."""

    def test_counter_matches_per_lane_sums(self, rng):
        weights = [1, 1, 1, 2, 3, 5, 7, 8, 12]
        for bits in (0, 3, 6, 9):
            ones = (1 << (1 << bits)) - 1
            for _ in range(15):
                terms = [
                    (rng.getrandbits(1 << bits) & ones, rng.choice(weights))
                    for _ in range(rng.randint(0, 12))
                ]
                *planes, sat = counter = engine._lane_counter(terms)
                sums = [sum(w for lanes, w in terms if lanes >> j & 1) for j in range(1 << bits)]
                for j, total in enumerate(sums):
                    assert sat >> j & 1 == (total >= 8)
                    if total < 8:
                        assert sum((p >> j & 1) << i for i, p in enumerate(planes)) == total
                for v in range(11):
                    lanes = rng.getrandbits(1 << bits)
                    # a saturated lane may hold any count from 8 up
                    want = sum(
                        1 << j
                        for j, total in enumerate(sums)
                        if lanes >> j & 1 and min(total, 8) >= min(v, 8)
                    )
                    # the thresholds of a level whose cuts need v + 1
                    got = engine._viable_lanes(lanes, counter, (v + 1, 0, 0))
                    assert got == want, (terms, v)

    def _check_bound(self, g, monkeypatch, widths=LANE_WIDTHS):
        """On every disconnected lane of every block, with ``_LANE_BITS``
        patched to each of ``widths``, the counter holds U + (size of the
        seed class - 1), computed here on the vertex graph, and 1 + that
        bounds ``graph.component_count``."""
        classes = twin_classes(g)
        sizes = [c.bit_count() for c in classes]
        q = len(classes)
        for width in widths:
            monkeypatch.setattr(engine, "_LANE_BITS", width)
            bits = min(engine._LANE_BITS, q)
            for high in range(1 << (q - bits)):
                base = high << bits
                lanes, *flood = block_flood(g, base, bits)
                *planes, sat = engine._lane_bound(sizes, *flood)
                for j in bits_of(lanes):
                    alive = g.full_mask & ~sum(classes[i] for i in bits_of(base | j))
                    seed, reach = seed_reach(g, base, bits, alive)
                    want = (alive & ~reach).bit_count() + seed.bit_count() - 1
                    got = 8 if sat >> j & 1 else sum((p >> j & 1) << i for i, p in enumerate(planes))
                    assert got == min(want, 8), (g.edges(), width, base | j)
                    assert component_count(g.adj, alive) <= 1 + want

    @pytest.mark.parametrize("q", [5, 9, 13])
    def test_twin_free_bound(self, rng, monkeypatch, q):
        for p in (0.3, 0.6):
            self._check_bound(twin_free_graph(rng, q, p), monkeypatch)

    def test_blowup_bound(self, rng, monkeypatch):
        for _ in range(3):
            self._check_bound(graph_with_classes(rng, 8, twins=True)[0], monkeypatch)
            self._check_bound(lone_seed_blowup(rng)[0], monkeypatch)
            for bits in (1, 3, 5):
                # the seed class of every lane, alone in one of them
                self._check_bound(universal_lone_blowup(rng, bits)[0], monkeypatch, (bits,))
        for a, b in ((1, 2), (2, 5), (4, 3)):
            self._check_bound(complete_bipartite(a, b), monkeypatch, (1, 2))

    @pytest.mark.parametrize("lane_bits", [1, 3, 5, None], ids=["L1", "L3", "L5", "default"])
    def test_witness_and_cuts_below_match_oracles(self, rng, monkeypatch, lane_bits):
        # each graph runs with the counter built as the scan decides, which
        # with 5 or fewer lane bits is never (a level holds at most 10
        # lanes), and built at every block's first level
        if lane_bits is not None:
            monkeypatch.setattr(engine, "_LANE_BITS", lane_bits)
        graphs = [twin_free_graph(rng, n) for n in (8, 10, 11)] + [complete_bipartite(3, 7)]
        graphs = [(g, [[v] for v in range(g.n)]) for g in graphs]
        graphs += [lone_seed_blowup(rng) for _ in range(2)]
        for g, groups in graphs:
            want = brute_witness(g, groups)
            t = want[0]
            # below t on every G - e, and below t + 1 on g, where cutting
            # K_{3,7}'s smaller side leaves the other a lone class of 7
            cases = [(delete_edge(g, e), t) for e in g.edges()] + [(g, t + 1)]
            firsts = [brute_first_below(h, target) for h, target in cases]
            for per_class in (engine._BOUND_LANES_PER_CLASS, -1):
                monkeypatch.setattr(engine, "_BOUND_LANES_PER_CLASS", per_class)
                assert witness_key(toughness_exact(g)) == want
                for (h, target), first in zip(cases, firsts):
                    cert = find_cut_below(h, Ratio(target.numerator, target.denominator))
                    assert (None if cert is None else (cert.cut.bit_count(), cert.cut)) == first

    @pytest.mark.parametrize(
        "g6,lanes",
        [
            # C18(1,2), one of exact-structured's low-width graphs
            ("QzKWWKB?W@_B?B?@_?W?B_?N??W", (179_826, 105_746, 8)),
            # the first graph of the exact-random pool: twin-free, n = 17
            ("P[[j`N@~wufQvEO{?lVQi?MO", (2_964, 716, 4)),
        ],
        ids=["C18(1,2)", "exact-random-0"],
    )
    def test_lanes_reaching_the_closure_are_pinned(self, monkeypatch, g6, lanes):
        # (lanes the flood leaves disconnected, lanes the bound lets through)
        # summed over every level the scan visits, then the blocks flooded;
        # a lost prune shows here even when timing noise hides it
        seen = [0, 0, 0]
        viable = engine._viable_lanes
        flood = engine._disconnected_lanes

        def counted(level, counter, thresholds):
            out = viable(level, counter, thresholds)
            seen[0] += level.bit_count()
            seen[1] += out.bit_count()
            return out

        def flooded(*args):
            seen[2] += 1
            return flood(*args)

        monkeypatch.setattr(engine, "_viable_lanes", counted)
        monkeypatch.setattr(engine, "_disconnected_lanes", flooded)
        g = parse_graph6(g6)
        toughness_exact(g)
        assert tuple(seen) == lanes


# (ratio, cut) of toughness_upper_search recorded from the class-indexed
# quotient implementation of the annealing; a change to any RNG draw or
# tie-break shows here
PINNED_UPPER = [
    pytest.param("chain6", 20_000, 0, 20, Ratio(17, 11), 57073507984, id="chain6"),
    pytest.param("chain10", 20_000, 2, 20, Ratio(8, 5), 417088339135905792, id="chain10"),
    # the beyond-limit benchmark's own calls: 20,000 steps, seed 0
    pytest.param("chain8", 20_000, 0, 20, Ratio(8, 5), 258537266158857, id="chain8-bench"),
    pytest.param("chain10", 20_000, 0, 20, Ratio(30, 19), 177157011599301818, id="chain10-bench"),
    # and two of its blow-ups, "<base graph6> x<copies>" from its pool:
    # 42 vertices in 14 classes and 32 in 16, so states are class masks
    pytest.param("MWUfV}}fTzRHtCeT? x3", 20_000, 0, 20, Ratio(5, 2), 61201448959, id="blowup14x3-bench"),
    pytest.param("OHWo@AAgLKgKQhPsBWTC{ x2", 20_000, 0, 20, Ratio(2, 1), 805309488, id="blowup16x2-bench"),
    # a random 28-vertex base blown up x1-x2 and relabelled: 38 vertices in
    # 28 classes, so states are vertex masks
    pytest.param(
        "eOaUK_KaIOPC_O@O?EeL?[qoOBC?k@H?[J?DAO?C_EPqSIGHGBhGacGC_??gCOo?AO?A?a[dAaOw?boU?IU?PTvIao??SeA?DPAeOAoGOCRGADEGQ?A?T_?",
        5_000, 5, 20, Ratio(23, 13), 119904092599, id="untabled-blowup",
    ),
    # a random 10-vertex base blown up x3
    pytest.param(
        "]Fz_???wF?[?wwww[[?wwFF?[[FFwFFwBb{??~F?Fww?^b_~www~www^{[[?w?~~F?F~w[?^~_",
        5_000, 4, 20, Ratio(3, 2), 1057198023, id="uniform-blowup",
    ),
    # a random 11-vertex base blown up x1-x3 and relabelled, so the classes'
    # lowest members do not come in class order
    pytest.param("ToGhpPOIHPOCM?busBG?@_G?Aa@MuD?q_Aa?", 5_000, 7, 6, Ratio(1, 2), 257, id="mixed-blowup"),
    # two more such blow-ups, where a shrink pass that drops classes in the
    # order of their lowest members ends elsewhere
    pytest.param("NzlLa]tlRTzV}NlRhMG", 200, 27, 6, Ratio(2, 1), 9106, id="mixed-blowup-shrink-order-1"),
    pytest.param("RebEABud{OO@dw?GJvq?cOCa?Gd@R?", 200, 133, 6, Ratio(7, 10), 22275, id="mixed-blowup-shrink-order-2"),
    pytest.param("K{GOeC\\?gQ?_", 5, 0, 1, Ratio(1, 1), 152, id="tiny0"),
    pytest.param("KAJ@G^on?C__", 5, 1, 1, Ratio(3, 4), 800, id="tiny1"),
    pytest.param("K?HC`BKH?EEc", 5, 2, 1, Ratio(3, 4), 292, id="tiny2"),
    pytest.param("KL\\uPoC\\_kW_", 5, 3, 1, Ratio(6, 5), 2172, id="tiny3"),
    # the star K1,3: no state of one step leaves two components, so the
    # result is the fallback cut around a leaf
    pytest.param("Cs", 1, 0, 1, Ratio(1, 3), 1, id="fallback-star"),
]


def pinned_graph(name):
    if name.startswith("chain"):
        return gen_planar_chain(int(name[5:])).graph
    text, _, copies = name.partition(" x")
    g = parse_graph6(text)
    return solid_expand(SolidSpec.uniform(g, int(copies)))[0] if copies else g


class TestUpperSearch:
    def test_cycle_reaches_optimum(self):
        cert = toughness_upper_search(cycle(5), budget_steps=2_000, seed=3)
        assert cert.ratio == Ratio(1, 1)

    def test_chain_m10_reaches_three_halves(self):
        fam = gen_planar_chain(10)
        cert = toughness_upper_search(fam.graph, budget_steps=100_000, seed=0)
        assert cert.ratio <= Ratio(3, 2)
        assert verify_certificate(fam.graph, cert).ok

    def test_deterministic_given_seed(self):
        g = sc52()
        a = toughness_upper_search(g, budget_steps=20_000, seed=11)
        b = toughness_upper_search(g, budget_steps=20_000, seed=11)
        assert a == b

    def test_always_valid_even_with_tiny_budget(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 9), 0.5)
            if g.is_complete():
                continue
            cert = toughness_upper_search(g, budget_steps=5, seed=1, restarts=1)
            assert verify_certificate(g, cert).ok
            assert ratio_of(cert.ratio) >= brute_toughness(g)

    @pytest.mark.parametrize("graph, budget, seed, restarts, ratio, cut", PINNED_UPPER)
    def test_pinned_results(self, graph, budget, seed, restarts, ratio, cut):
        g = pinned_graph(graph)
        cert = toughness_upper_search(g, budget, seed=seed, restarts=restarts)
        assert (cert.ratio, cert.cut) == (ratio, cut)

    @pytest.mark.parametrize("graph, budget, seed, restarts, ratio, cut", PINNED_UPPER)
    def test_pinned_results_with_a_tiny_count_memo(self, monkeypatch, graph, budget, seed, restarts, ratio, cut):
        # the class-mask count memo cleared every 8 states: a memo only
        # saves work, so the results stay the same
        monkeypatch.setattr(engine, "_COUNT_MEMO_CAP", 8)
        g = pinned_graph(graph)
        cert = toughness_upper_search(g, budget, seed=seed, restarts=restarts)
        assert (cert.ratio, cert.cut) == (ratio, cut)

    @pytest.mark.parametrize("n", [8, 30], ids=["class-masks", "vertex-masks"])
    def test_annealing_that_overcounts_is_refused(self, monkeypatch, n):
        """A count one too high from two components on: a cut of two
        vertices of C_n then claims ratio 2/3, below any honest one, and the
        recount of the annealing's own omega refuses it.  C8 anneals over
        class masks, C30 over vertex masks."""

        def overcounting(count):
            def wrong(alive):
                c = count(alive)
                return c + 1 if c >= 2 else c

            return wrong

        tables, vertices = engine._table_counters, engine._vertex_counter

        def wrong_tables(*args):
            count, weigh = tables(*args)
            return overcounting(count), weigh

        monkeypatch.setattr(engine, "_table_counters", wrong_tables)
        monkeypatch.setattr(engine, "_vertex_counter", lambda *args: overcounting(vertices(*args)))
        with pytest.raises(AssertionError, match="component mismatch: claimed 3, recomputed 2"):
            toughness_upper_search(cycle(n), budget_steps=2_000, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2025])
    def test_inline_move_draw_is_randrange(self, seed):
        """The step loop draws a move as getrandbits(nq.bit_length()),
        redrawn while it is nq or more, in place of rng.randrange(nq); the
        two must give the same values and leave the stream in the same
        place, between the random() calls the loop makes."""
        want, got = random.Random(seed), random.Random(seed)
        for nq in range(1, 71):
            k = nq.bit_length()
            for _ in range(50):
                i = got.getrandbits(k)
                while i >= nq:
                    i = got.getrandbits(k)
                assert i == want.randrange(nq), (seed, nq)
                assert got.random() == want.random()

    @pytest.mark.parametrize("kind, cases", [("chain", 8), ("twin-free", 24), ("blowup", 24)])
    def test_vertex_counter_matches_component_count(self, kind, cases):
        """Random walks of one- and two-class flips, as annealing moves
        make them, sometimes back to the walk's previous state and now and
        then a jump of many classes: every count equals the count from
        scratch.  The blow-ups start with the neighbours of one class of
        several copies cut away, so that class's copies stand alone."""
        rng = random.Random(f"vertex-counter-{kind}")
        lone_seen = 0
        for case in range(cases):
            if kind == "chain":
                g = relabelled(rng, gen_planar_chain(4 + 2 * (case % 4)).graph)
            elif kind == "twin-free":
                g = twin_free_graph(rng, rng.randint(28, 40), rng.uniform(0.08, 0.3))
            else:
                while True:
                    base = random_connected_graph(rng, rng.randint(28, 31), rng.uniform(0.08, 0.2))
                    spec = SolidSpec(base, tuple(rng.randint(1, 3) for _ in range(base.n)))
                    g = relabelled(rng, solid_expand(spec)[0])
                    if len(twin_classes(g)) == base.n:
                        break
            classes = twin_classes(g)
            reps = sum(c & -c for c in classes)
            count = engine._vertex_counter(g.adj, tuple(classes))
            several = [c for c in classes if c.bit_count() > 1]
            alive = g.full_mask
            if several:
                alive &= ~g.adj[rng.choice(several).bit_length() - 1]
            previous = alive
            for step in range(400):
                roll = rng.random()
                if roll < 0.05:
                    nxt = sum(c for c in classes if rng.random() < 0.6)
                else:
                    nxt = previous if roll < 0.3 else alive
                    for _ in range(rng.choice((1, 1, 2))):
                        nxt ^= rng.choice(classes)
                lone_seen += any(
                    c & nxt and not g.adj[c.bit_length() - 1] & nxt for c in several
                )
                assert count(nxt) == len(_components(g.adj, nxt, reps)), (write_graph6(g), step)
                previous, alive = alive, nxt
        if kind == "blowup":
            assert lone_seen > 0

    # the annealing as it ran on vertex masks, one BFS per step: every RNG
    # draw and (ratio, |S|, mask) choice carries over to the class masks, so
    # the results are equal.  Class counts fall on both sides of the 27 up
    # to which the search counts on the twin quotient's tables.  Budgets run
    # from 1 to 8000 as c^(u^2) for uniform u, so most are short, and the top
    # c falls as n grows past 15 (a step costs about n)
    @pytest.mark.parametrize("kind, cases", [
        ("blowup-tabled", 200),  # bases of 4-27 vertices, x1-x3
        ("blowup-untabled", 50),  # bases of 28-31 vertices, x1-x2
        ("twin-free", 140),  # n = 5-40
        ("star", 60),  # K_{1,k}: three of them end on the fallback cut
        ("chain", 50),  # m = 4 (24 classes) and m = 6 (36)
    ])
    def test_matches_vertex_mask_oracle(self, kind, cases):
        rng = random.Random(f"anneal-{kind}")
        done = 0
        while done < cases:
            if kind == "blowup-tabled":
                base = random_connected_graph(rng, rng.randint(4, 27), rng.uniform(0.1, 0.6))
                spec = SolidSpec(base, tuple(rng.randint(1, 3) for _ in range(base.n)))
                g = relabelled(rng, solid_expand(spec)[0])
            elif kind == "blowup-untabled":
                base = random_connected_graph(rng, rng.randint(28, 31), rng.uniform(0.1, 0.3))
                spec = SolidSpec(base, tuple(rng.randint(1, 2) for _ in range(base.n)))
                g = relabelled(rng, solid_expand(spec)[0])
            elif kind == "twin-free":
                g = random_connected_graph(rng, rng.randint(5, 40), rng.uniform(0.1, 0.4))
            elif kind == "star":
                k = rng.randint(2, 12)
                g = relabelled(rng, build_graph(k + 1, [(0, v) for v in range(1, k + 1)]))
            else:
                g = relabelled(rng, gen_planar_chain(rng.choice((4, 6))).graph)
            q = len(twin_classes(g))
            if g.is_complete() or (kind == "twin-free" and q < g.n):
                continue
            if kind.startswith("blowup") and (q == g.n or (q > 27) != kind.endswith("untabled")):
                continue
            budget = round(min(8000, 120_000 // g.n) ** rng.random() ** 2)
            restarts = rng.choice((1, 3, 6, 20))
            seed = rng.randrange(1 << 16)
            cert = toughness_upper_search(g, budget, seed=seed, restarts=restarts)
            want = vertex_mask_anneal(g, budget, seed, restarts)
            assert (ratio_of(cert.ratio), cert.cut) == want, (write_graph6(g), budget, seed, restarts)
            done += 1

    @pytest.mark.slow
    def test_peak_memory_is_bounded(self):
        # 200,000 steps on a 27-class blow-up, counted on class masks, meet
        # about 29,500 distinct states and peaked at 2.7 MB; the count memo
        # is cleared at _COUNT_MEMO_CAP states, which take 2.5 MB
        rng = random.Random("memo-bound")
        base = random_connected_graph(rng, 27, 0.1)
        g = solid_expand(SolidSpec(base, tuple(rng.randint(1, 2) for _ in range(27))))[0]
        assert len(twin_classes(g)) == 27 < g.n
        tracemalloc.start()
        try:
            cert = toughness_upper_search(g, 200_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verify_certificate(g, cert).ok
        assert peak < 6_000_000, peak

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            toughness_upper_search(complete(4), 100, 0)
        with pytest.raises(ValueError):
            toughness_upper_search(build_graph(4, [(0, 1), (2, 3)]), 100, 0)


class TestSolidReduction:
    def test_blown_up_cycle(self):
        spec = SolidSpec.uniform(cycle(5), 2)
        red = solid_reduced_toughness(spec)
        assert red.value == Ratio(4, 3)
        full = toughness_exact(solid_expand(spec)[0])
        assert red.value == full.value and red.witness == full.witness

    def test_blown_up_edge_is_c4(self):
        red = solid_reduced_toughness(SolidSpec.uniform(complete(2), 2))
        assert red.value == Ratio(1, 1)

    def test_identity_multiplicities_match_exact(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 8), 0.45)
            red = solid_reduced_toughness(SolidSpec.uniform(g, 1))
            full = toughness_exact(g)
            assert red.value == full.value
            if full.witness is not None:
                assert red.witness == full.witness

    def test_reduced_equals_full_on_mixed_multiplicities(self, rng):
        for _ in range(25):
            base = random_connected_graph(rng, rng.randint(2, 5), 0.5)
            mult = tuple(rng.randint(1, 2) for _ in range(base.n))
            spec = SolidSpec(base, mult)
            expanded, _ = solid_expand(spec)
            red = solid_reduced_toughness(spec)
            full = toughness_exact(expanded)
            assert red.value == full.value

    def test_twin_classes_detected(self):
        g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        classes = [c for c in twin_classes(g) if c.bit_count() > 1]
        assert len(classes) == 5

    def test_degenerate_bases(self):
        res = solid_reduced_toughness(SolidSpec.uniform(complete(2), 1))
        assert res.value == INFINITE and res.witness is None
        disconnected = build_graph(2, [])
        res = solid_reduced_toughness(SolidSpec.uniform(disconnected, 2))
        assert res.value == Ratio(0, 1) and res.witness.cut == 0

    def test_base_over_limit(self):
        with pytest.raises(LimitExceeded):
            solid_reduced_toughness(SolidSpec.uniform(cycle(30), 1))


class TestMinimality:
    def test_c4_minimal(self):
        rep = is_minimally_tough(cycle(4))
        assert rep.verdict is True
        assert rep.toughness == Ratio(1, 1)
        assert all(w.certificate.ratio == Ratio(1, 2) for w in rep.entries)

    def test_diamond_not_minimal(self):
        diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        rep = is_minimally_tough(diamond)
        assert rep.verdict is False
        assert rep.failing_edges == [(0, 1)]

    def test_failing_edge_outranks_inconclusive_ones(self, monkeypatch):
        # the diamond has 3 twin classes; G - e has 4 for every edge but the
        # chord 0-1, whose G - e (C4, twins {0,1} and {2,3}) keeps t = 1.
        # Past a 3-class limit the other edges go to annealing, which at
        # one step per restart misses the 1/2 cut of G - {0,3}
        monkeypatch.setattr(engine, "MINIMALITY_HEURISTIC_STEPS", 1)
        diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        rep = is_minimally_tough(diamond, EngineConfig(exhaustive_limit=3))
        assert rep.failing_edges == [(0, 1)]
        assert rep.inconclusive_edges == [(0, 3)]
        assert rep.verdict is False

    def test_edges_past_the_limit_fall_back_to_annealing(self):
        # G - e has 4 twin classes, over the limit: the scan cannot run,
        # so annealing must, and it finds the 1/2 cut of each such edge
        diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        rep = is_minimally_tough(diamond, EngineConfig(exhaustive_limit=3))
        assert [w.source for w in rep.entries] == ["exhaustive"] + ["heuristic"] * 4
        assert all(w.certificate.ratio == Ratio(1, 2) for w in rep.entries[1:])
        assert rep.failing_edges == [(0, 1)] and rep.verdict is False

    def test_blown_up_cycle_minimal(self):
        rep = is_minimally_tough(sc52())
        assert rep.verdict is True and rep.toughness == Ratio(4, 3)

    def test_knp3_with_hints_uses_templates(self):
        fam = gen_knp3(5)
        rep = is_minimally_tough(fam.graph, hints=fam.edge_certificates)
        assert rep.verdict is True and rep.toughness == Ratio(2, 1)
        assert all(w.source == "template" for w in rep.entries)

    def test_heuristic_only_mode_never_proves_false(self, monkeypatch):
        monkeypatch.setattr(engine, "MINIMALITY_HEURISTIC_STEPS", 50)
        diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        cfg = EngineConfig(allow_exhaustive_edges=False)
        rep = is_minimally_tough(diamond, cfg)
        assert rep.verdict is None
        assert rep.inconclusive_edges

    @pytest.mark.slow
    def test_large_twin_class_alpha(self):
        # alpha(G) = 1000 on K_{2,1000}; deleting an edge leaves t = 1/500
        g = complete_bipartite(2, 1000)
        t = toughness_exact(g).value
        assert t == Ratio(1, 500)
        assert is_minimally_tough(g, toughness=t).verdict is False

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            is_minimally_tough(complete(4))
        with pytest.raises(ValueError):
            is_minimally_tough(build_graph(4, [(0, 1), (2, 3)]))



def _oracle_failing_edges(g):
    """Edges e of g for which no cut of g-e has ratio below t(g), with the
    brute-force (|S|, mask) of the first cut below t for the others."""
    t = brute_toughness(g)
    firsts = {e: brute_first_below(delete_edge(g, e), t) for e in g.edges()}
    return [e for e, hit in firsts.items() if hit is None], firsts


class TestMinimalityRouting:
    """Per-edge dispatch: hint, then the target scan when it is predicted
    cheaper than annealing, else annealing followed by the scan."""

    def _corpus(self, rng):
        graphs = [random_connected_graph(rng, rng.randint(4, 9), 0.3 + rng.random() * 0.5)
                  for _ in range(10)]
        graphs.append(sc52())
        for base, mult in ((cycle(5), (2, 1, 2, 1, 1)), (path(4), (1, 2, 2, 1)),
                           (cycle(4), (3, 1, 2, 1))):
            graphs.append(solid_expand(SolidSpec(base, mult))[0])
        return [g for g in graphs if not g.is_complete()]

    def _check_against_oracle(self, g, rep):
        failing, firsts = _oracle_failing_edges(g)
        assert rep.failing_edges == failing
        assert rep.inconclusive_edges == []
        assert rep.verdict is (not failing)
        for w in rep.entries:
            if not w.ok:
                continue
            assert verify_certificate(delete_edge(g, w.edge), w.certificate).ok
            assert w.certificate.ratio < rep.toughness
            if w.source == "exhaustive":
                cut = w.certificate.cut
                assert (cut.bit_count(), cut) == firsts[w.edge]

    # 0 sends every edge to annealing first, the order before cost routing
    @pytest.mark.parametrize("multiple", [engine.SCAN_STEPS_PER_SUBSET, 0],
                             ids=["cost-routed", "annealing-first"])
    def test_verdicts_match_per_edge_oracle(self, rng, monkeypatch, multiple):
        monkeypatch.setattr(engine, "SCAN_STEPS_PER_SUBSET", multiple)
        for g in self._corpus(rng):
            self._check_against_oracle(g, is_minimally_tough(g))

    def test_small_graphs_skip_annealing(self, monkeypatch):
        def no_annealing(*args, **kwargs):
            raise AssertionError("annealing ran on a graph the scan resolves cheaper")

        monkeypatch.setattr(engine, "toughness_upper_search", no_annealing)
        rep = is_minimally_tough(sc52())
        assert rep.verdict is True
        assert {w.source for w in rep.entries} == {"exhaustive"}

    def test_heuristic_only_never_scans(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("exhaustive scan with allow_exhaustive_edges=False")

        t = toughness_exact(sc52()).value
        monkeypatch.setattr(engine, "_certified_scan", no_scan)
        cfg = EngineConfig(allow_exhaustive_edges=False)
        rep = is_minimally_tough(sc52(), cfg, toughness=t)
        assert {w.source for w in rep.entries} <= {"heuristic", "inconclusive"}

    def test_alpha_of_each_edge_deletion_is_derived_exactly(self, rng):
        # the scan of G - e caps component counts at alpha(G - e), which
        # minimality derives from alpha(G) and alpha(G - N[u] - N[v])
        graphs = [random_connected_graph(rng, rng.randint(3, 14), rng.uniform(0.2, 0.8))
                  for _ in range(40)]
        graphs += [random_blowup(rng, rng.randint(3, 8), 3)[1] for _ in range(15)]
        raised = kept = 0
        for g in graphs:
            alpha = independence_number(g)[0]
            for e in g.edges():
                want = independence_number(delete_edge(g, e))[0]
                assert engine._alpha_without(g, e, alpha) == want
                raised += want > alpha
                kept += want == alpha
        assert raised and kept

    def test_passed_toughness_gives_the_same_report(self, rng):
        for g in self._corpus(rng)[:6] + [cycle(4), gen_knp3(4).graph]:
            exact = toughness_exact(g)
            want = is_minimally_tough(g)
            assert is_minimally_tough(g, toughness=exact.value) == want
            assert is_minimally_tough(g, toughness=exact) == want

    def test_degree_excess_filter_searches_alpha_of_g_once(self, monkeypatch):
        # the screen searches alpha(G) only for a graph past its ceiling, and
        # minimality reuses it; the other searches are alpha(G - N[u] - N[v])
        # of single edges.  A graph rejected by degree searches none.
        searched = []
        whole, partial = engine._independent_classes, engine.independence_number

        def classes_counted(g, classes):
            searched.append(sum(classes) == g.full_mask)
            return whole(g, classes)

        def within_counted(g, within=None):
            searched.append(within in (None, g.full_mask))
            return partial(g, within)

        monkeypatch.setattr(engine, "_independent_classes", classes_counted)
        monkeypatch.setattr(engine, "independence_number", within_counted)
        cases = ((write_graph6(sc52()), "", 1), ("DK{", "not minimally tough", 1),
                 ("EFz_", "not minimally tough", 1), ("Dhc", "degree within ceiling", 0),
                 (write_graph6(path(6)), "degree within ceiling", 0))
        for g6, reason, most in cases:
            searched.clear()
            assert degree_excess_filter(parse_graph6(g6)).reason == reason
            assert searched.count(True) <= most

    def test_degree_excess_filter_computes_toughness_once(self, monkeypatch):
        # one exact-mode scan of G decides the screen and, past it, gives t;
        # the other scans are the per-edge target scans of minimality
        exact_scans, scan = [], engine._certified_scan

        def counting(g, cfg, target=None, *args, **kwargs):
            if target is None:
                exact_scans.append(g)
            return scan(g, cfg, target, *args, **kwargs)

        def no_exact(*args, **kwargs):
            raise AssertionError("toughness_exact called")

        monkeypatch.setattr(engine, "_certified_scan", counting)
        monkeypatch.setattr(engine, "toughness_exact", no_exact)
        # a hit, two graphs that reach the minimality stage and fail it, and
        # one screened out by degree
        cases = ((write_graph6(sc52()), ""), ("DK{", "not minimally tough"),
                 ("EFz_", "not minimally tough"), ("Dhc", "degree within ceiling"))
        for g6, reason in cases:
            exact_scans.clear()
            g = parse_graph6(g6)
            assert degree_excess_filter(g).reason == reason
            assert exact_scans == [g]

    def test_each_caller_enters_the_scan_once(self, monkeypatch):
        # every exact answer is one _certified_scan call: one per
        # toughness_exact and find_cut_below, one per degree_excess_filter
        # that rejects at the ceiling, and in minimality one for t plus one
        # per edge the scan resolved ("exhaustive", except a bridge, which
        # disconnects G - e and needs no scan); the screen's minimality stage
        # scans the same edges, with t from its own call
        entered, scan = [], engine._certified_scan

        def counting(*args, **kwargs):
            entered.append(args[0])
            return scan(*args, **kwargs)

        def scanned(g, rep):
            return sum(w.source == "exhaustive" and is_connected(delete_edge(g, w.edge))
                       for w in rep.entries)

        monkeypatch.setattr(engine, "_certified_scan", counting)
        triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        graphs = [cycle(5), sc52(), parse_graph6("DK{"), parse_graph6("EFz_"),
                  gen_knp3(4).graph, triangles]
        stages = set()
        for g in graphs:
            for run in (toughness_exact, lambda g: find_cut_below(g, Ratio(1, 1))):
                entered.clear()
                run(g)
                assert entered == [g]
            entered.clear()
            rep = is_minimally_tough(g)
            assert len(entered) == 1 + scanned(g, rep)
            entered.clear()
            reason = degree_excess_filter(g).reason
            assert len(entered) == 1 + (0 if reason == "degree within ceiling" else scanned(g, rep))
            stages.add(reason)
        assert {"degree within ceiling", "not minimally tough", ""} <= stages


class TestProperties:
    def test_edge_deletion_monotone(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(3, 9), 0.45)
            if g.is_complete():
                continue
            t = toughness_exact(g).value
            e = g.edges()[rng.randrange(g.edge_count())]
            te = toughness_exact(delete_edge(g, e)).value
            assert te <= t

    def test_half_connectivity_bound(self, small_corpus):
        for g in small_corpus:
            if g.is_complete():
                continue
            t = toughness_exact(g).value
            kappa = vertex_connectivity(g)
            # 2t <= kappa as exact rationals
            assert 2 * t.p <= kappa * t.q

    def test_any_valid_certificate_upper_bounds(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(3, 8), 0.5)
            if g.is_complete():
                continue
            t = toughness_exact(g).value
            cert = toughness_upper_search(g, budget_steps=300, seed=5, restarts=2)
            assert t <= cert.ratio


def planted_twins(rng, n):
    """A connected random graph on n vertices whose last vertices copy
    earlier ones: open twins (the same neighbours, not adjacent) and closed
    twins (the same neighbours and each other)."""
    base = random_connected_graph(rng, rng.randint(n // 2 + 1, n - 1), rng.uniform(0.3, 0.8))
    nbrs = adj_sets(base)
    for v in range(base.n, n):
        u = rng.randrange(v)
        nbrs.append(set(nbrs[u]) | ({u} if rng.random() < 0.5 else set()))
        for w in nbrs[v]:
            nbrs[w].add(v)
    return build_graph(n, [(u, v) for v in range(n) for u in nbrs[v] if u < v])


class TestDegreeExcess:
    def test_ceiling_bounds_the_ratios_above_it(self):
        # T = (n(delta - 1) + 1)/(2n): the least k/omega above (delta - 1)/2
        # with omega <= n - 1 components lies above T
        for n in range(2, 41):
            for delta in range(1, n):
                for omega in range(2, n):
                    k = (delta - 1) * omega // 2 + 1
                    assert 2 * n * k > (n * (delta - 1) + 1) * omega, (n, delta, omega)

    def test_ceiling_scan_matches_brute_force(self, rng, monkeypatch):
        # the screen rejects exactly the graphs with t > (delta - 1)/2, and
        # hands minimality toughness_exact's t, witness and alpha otherwise;
        # minimality itself is stubbed out, as other tests cover it
        passed = []

        def recorded(g, cfg, toughness):
            passed.append(toughness)
            return engine.MinimalityReport(toughness.value, ())

        monkeypatch.setattr(engine, "is_minimally_tough", recorded)
        graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
        graphs += [planted_twins(rng, n) for n in range(8, 13) for _ in range(12)]
        within = 0
        for g in graphs:
            if g.is_complete():
                continue
            passed.clear()
            rep = degree_excess_filter(g)
            assert (rep.reason == "degree within ceiling") == brute_within_degree_ceiling(g)
            if passed:
                exact = toughness_exact(g)
                assert passed == [exact] and rep.toughness == exact.value, write_graph6(g)
                assert rep.ceil_2t == exact.value.ceil_of_double() < rep.delta
            else:
                assert rep.toughness is None and rep.ceil_2t == 0
                within += 1
        assert 0 < within < len(graphs) - 100

    def test_class_weighted_clique_cover_bounds_alpha(self, rng):
        # the cap the screen's scan puts on omega: a clique cover of the twin
        # classes' lowest members, each weighted by its class size
        graphs = [planted_twins(rng, n) for n in range(4, 15) for _ in range(8)]
        graphs += [sc52(), solid_expand(SolidSpec.uniform(path(4), 3))[0]]
        for g in graphs:
            cover = engine._clique_cover_bound(g.adj, *engine._class_weights(g, twin_classes(g)))
            assert cover >= brute_alpha(g), write_graph6(g)

    def test_degree_one_rejected_without_a_scan(self, rng, monkeypatch):
        # t > 0 on a connected graph, so delta <= 1 <= ceil(2t): pendant
        # paths, stars and trees are rejected before any scan, even past the
        # exhaustive limit
        def no_scan(*args, **kwargs):
            raise AssertionError("_certified_scan called")

        monkeypatch.setattr(engine, "_certified_scan", no_scan)
        graphs = [path(n) for n in (3, 5, 30, 40)]
        graphs += [build_graph(m + 1, [(0, i) for i in range(1, m + 1)]) for m in (2, 5, 40)]
        graphs += [build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
                   for n in range(3, 40, 3)]
        pendant = random_connected_graph(rng, 9, 0.6)
        graphs.append(build_graph(10, pendant.edges() + [(rng.randrange(9), 9)]))
        for g in graphs:
            rep = degree_excess_filter(g)
            assert (rep.reason, rep.delta, rep.inconclusive) == ("degree within ceiling", 1, False)
            assert rep.toughness is None and rep.ceil_2t == 0

    def test_blown_up_cycle_is_hit(self):
        rep = degree_excess_filter(sc52())
        assert rep.is_hit
        assert rep.toughness == Ratio(4, 3)
        assert (rep.delta, rep.ceil_2t) == (4, 3)
        assert rep.delta_over_t == Ratio(3, 1)
        assert rep.regular

    def test_cycle_not_hit(self):
        rep = degree_excess_filter(cycle(5))
        assert not rep.is_hit and rep.reason == "degree within ceiling"

    def test_complete_not_hit(self):
        rep = degree_excess_filter(complete(4))
        assert not rep.is_hit and rep.reason == "complete"

    def test_degree_screen(self):
        rep = degree_excess_filter(cycle(5), min_delta=3)
        assert not rep.is_hit and rep.reason == "degree screen"

    def test_report_survives_pickle(self):
        # the search's process pool sends reports back pickled, and slotted
        # frozen records need dataclasses' own state methods for that
        rep = replace(degree_excess_filter(sc52()), graph6="I]~~~~~~w")
        back = pickle.loads(pickle.dumps(rep))
        assert back == rep and back.report_line() == rep.report_line()
        assert not hasattr(back, "__dict__")
