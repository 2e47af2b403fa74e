import math
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent import futures

import pytest

from conftest import random_connected_graph
from oracles import (
    brute_first_below,
    brute_toughness,
    brute_witness,
    ratio_of,
    vertex_mask_anneal,
)

import toughgraphs.toughness as engine
from toughgraphs.graph import bits_of, build_graph, component_count, delete_edge, mask_of
from toughgraphs.graph6 import parse_graph6, write_graph6
from toughgraphs.invariants import independence_number, vertex_connectivity
from toughgraphs.operators import (
    SolidSpec,
    cartesian_product,
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
        with pytest.raises(LimitExceeded):
            toughness_exact(cycle(30))
        toughness_exact(cycle(12), EngineConfig(exhaustive_limit=12))

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
    """The (shard, shards) pairs that ``toughness_exact`` hands its pool;
    22 classes is the least it shards.  Two usable CPUs are assumed, so a
    two-worker pool is built however many the machine has."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    submitted = []

    class CountingPool(futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[-2:])
            return super().submit(fn, *args)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    return submitted


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

    def test_large_blowup_goes_through_exact(self, rng):
        spec, g = random_blowup(rng, 10, 4)
        while g.n <= 30:
            spec, g = random_blowup(rng, 10, 4)
        assert len(twin_classes(g)) <= 26
        res = toughness_exact(g)
        red = solid_reduced_toughness(spec)
        assert res.method == "exact" and red.method == "reduced-solid"
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

    def test_twin_free_shards_match_single_worker(self, rng, submitted_shards):
        g = twin_free_graph(rng, 22)
        a = toughness_exact(g, EngineConfig(workers=1))
        assert not submitted_shards
        b = toughness_exact(g, EngineConfig(workers=2))
        assert sorted(submitted_shards) == [(i, 64) for i in range(64)]
        assert a.value == b.value
        assert a.witness == b.witness

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


def disconnected_lanes(g, base, bits):
    """``_disconnected_lanes`` on g's twin quotient."""
    quotient = quotient_of(g)
    nbrs = [list(bits_of(r)) for r in quotient.rows]
    return engine._disconnected_lanes(nbrs, quotient.sizes, base, bits)


def lane_oracle(g, base, bits):
    """Bit j set iff cutting the classes of ``base | j`` leaves at least two
    components, counted on the vertex graph by ``graph.component_count`` (a
    class left alone is one component per member there)."""
    classes = twin_classes(g)
    out = 0
    for j in range(1 << bits):
        s = base | j
        cut = sum(c for i, c in enumerate(classes) if s >> i & 1)
        if component_count(g.adj, g.full_mask & ~cut, g.full_mask) >= 2:
            out |= 1 << j
    return out


class TestLaneFilter:
    """The scan's disconnection filter floods 2^_LANE_BITS cuts at once and
    only its marked lanes have their components counted."""

    def _check_blocks(self, g):
        """Every block, as the scan lays them out."""
        q = len(twin_classes(g))
        bits = min(engine._LANE_BITS, q)
        for high in range(1 << (q - bits)):
            base = high << bits
            got = disconnected_lanes(g, base, bits)
            assert got == lane_oracle(g, base, bits), (g.edges(), base)

    @pytest.mark.parametrize("q", [5, 9, 12, 13, 14])
    def test_twin_free_lanes_match_component_count(self, rng, q):
        # q < L, q = L and q > L (two and four blocks of 4096 lanes)
        for p in (0.3, 0.6):
            self._check_blocks(twin_free_graph(rng, q, p))

    @pytest.mark.parametrize("q", [4, 8, 12])
    def test_blowup_lanes_match_component_count(self, rng, q):
        for _ in range(3):
            g, _ = graph_with_classes(rng, q, twins=True)
            self._check_blocks(g)

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 5), (4, 3)])
    def test_lone_class_lanes(self, a, b):
        # K_{a,b} has two twin classes: cutting one side leaves the other
        # alone, a class whose members are all components
        g = complete_bipartite(a, b)
        assert disconnected_lanes(g, 0, 2) == lane_oracle(g, 0, 2)
        assert disconnected_lanes(g, 0, 2) >> 0b01 & 1 == (b > 1)

    def test_strided_shards_flood_each_block_once(self, rng, monkeypatch):
        # shard i of k floods blocks i, i + k, ...: a split into any number
        # of shards, 3 dividing no block count, floods every block of the
        # single scan once and marks the oracle's lanes.  Without the
        # hopeless-size stop no block is skipped
        monkeypatch.setattr(engine, "_LANE_BITS", 4)
        monkeypatch.setattr(engine, "_hopeless", lambda table, caps: len(table))
        flood = engine._disconnected_lanes
        flooded = []

        def checked(nbrs, sizes, base, bits):
            flooded.append(base)
            lanes = flood(nbrs, sizes, base, bits)
            assert lanes == lane_oracle(g, base, bits), (g.edges(), base)
            return lanes

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
        # one to 256 blocks of 4096 lanes; the oracle takes 12 s at n = 20
        g = twin_free_graph(rng, n, rng.uniform(0.3, 0.7))
        assert witness_key(toughness_exact(g)) == brute_witness(g)

    def test_forced_shards_merge_to_the_single_scan(self, rng, monkeypatch):
        # the pool's shard arguments, run here: any split must min-merge to
        # the unsharded answer, whatever incumbent each shard starts from.
        # With 4 lane bits the graphs have 1024 and 64 blocks, which 3 does
        # not divide
        monkeypatch.setattr(engine, "_LANE_BITS", 4)
        for g in (twin_free_graph(rng, 14), graph_with_classes(rng, 10, True)[0]):
            quotient = quotient_of(g)
            alpha, aset = independence_number(g)
            seed = g.full_mask & ~aset
            inc = (seed.bit_count(), aset.bit_count(), seed.bit_count(), seed)
            whole = engine._scan(quotient, alpha, None, inc)
            assert whole == engine._scan(quotient, alpha, None, engine._NO_INCUMBENT)
            for start in (inc, engine._NO_INCUMBENT, whole):
                for shards in (1, 3, 64):
                    best = start
                    for shard in range(shards):
                        cand = engine._scan(quotient, alpha, None, start, shard, shards)
                        if cand[1] and engine._better(*cand, best):
                            best = cand
                    assert best == whole, (start, shards)

    def test_peak_memory_is_bounded(self):
        # a 2^q-bit table of the cuts would take 512 KB at q = 22.  A spider
        # (ten legs of two vertices, one of three) keeps the scan short
        # under tracemalloc: cutting its centre leaves ten components
        legs = [(0, i) for i in range(1, 11)] + [(i, i + 10) for i in range(1, 11)]
        g = build_graph(22, legs + [(20, 21)])
        assert len(twin_classes(g)) == 22
        tracemalloc.start()
        try:
            res = toughness_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == Ratio(1, 10)
        assert peak < 256 * 1024, peak


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

    # (ratio, cut) recorded from the class-indexed quotient implementation
    # of the annealing; a change to any RNG draw or tie-break shows here
    @pytest.mark.parametrize(
        "graph, budget, seed, restarts, ratio, cut",
        [
            ("chain6", 20_000, 0, 20, Ratio(17, 11), 57073507984),
            ("chain10", 20_000, 2, 20, Ratio(8, 5), 417088339135905792),
            # a random 10-vertex base blown up x3
            (
                "]Fz_???wF?[?wwww[[?wwFF?[[FFwFFwBb{??~F?Fww?^b_~www~www^{[[?w?~~F?F~w[?^~_",
                5_000, 4, 20, Ratio(3, 2), 1057198023,
            ),
            # a random 11-vertex base blown up x1-x3 and relabelled, so the
            # classes' lowest members do not come in class order
            ("ToGhpPOIHPOCM?busBG?@_G?Aa@MuD?q_Aa?", 5_000, 7, 6, Ratio(1, 2), 257),
            # two more such blow-ups, where a shrink pass that drops classes
            # in the order of their lowest members ends elsewhere
            ("NzlLa]tlRTzV}NlRhMG", 200, 27, 6, Ratio(2, 1), 9106),
            ("RebEABud{OO@dw?GJvq?cOCa?Gd@R?", 200, 133, 6, Ratio(7, 10), 22275),
            ("K{GOeC\\?gQ?_", 5, 0, 1, Ratio(1, 1), 152),
            ("KAJ@G^on?C__", 5, 1, 1, Ratio(3, 4), 800),
            ("K?HC`BKH?EEc", 5, 2, 1, Ratio(3, 4), 292),
            ("KL\\uPoC\\_kW_", 5, 3, 1, Ratio(6, 5), 2172),
            # the star K1,3: no state of one step leaves two components, so
            # the result is the fallback cut around a leaf
            ("Cs", 1, 0, 1, Ratio(1, 3), 1),
        ],
        ids=["chain6", "chain10", "uniform-blowup", "mixed-blowup",
             "mixed-blowup-shrink-order-1", "mixed-blowup-shrink-order-2", "tiny0", "tiny1", "tiny2", "tiny3", "fallback-star"],
    )
    def test_pinned_results(self, graph, budget, seed, restarts, ratio, cut):
        if graph.startswith("chain"):
            g = gen_planar_chain(int(graph[5:])).graph
        else:
            g = parse_graph6(graph)
        cert = toughness_upper_search(g, budget, seed=seed, restarts=restarts)
        assert (cert.ratio, cert.cut) == (ratio, cut)

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
        assert red.method == "reduced-solid"
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

        monkeypatch.setattr(engine, "_cut_below", no_scan)
        cfg = EngineConfig(allow_exhaustive_edges=False)
        rep = is_minimally_tough(sc52(), cfg)
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
            t = toughness_exact(g).value
            assert is_minimally_tough(g, toughness=t) == is_minimally_tough(g)

    def test_degree_excess_filter_computes_toughness_once(self, monkeypatch):
        calls = []
        exact = engine.toughness_exact

        def counting(g, *args, **kwargs):
            calls.append(g)
            return exact(g, *args, **kwargs)

        monkeypatch.setattr(engine, "toughness_exact", counting)
        # a hit, two graphs that reach the minimality stage and fail it, and
        # one screened out by degree
        cases = ((write_graph6(sc52()), ""), ("DK{", "not minimally tough"),
                 ("EFz_", "not minimally tough"), ("Dhc", "degree within ceiling"))
        for g6, reason in cases:
            calls.clear()
            assert degree_excess_filter(parse_graph6(g6)).reason == reason
            assert len(calls) == 1


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


class TestDegreeExcess:
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
