import random
import tracemalloc

import pytest

from conftest import nx_graph, random_graph
from oracles import bitwise_parse_graph6, min_adjacency_form

import toughgraphs.search as search
import toughgraphs.toughness as engine
from toughgraphs.graph import build_graph, is_connected
from toughgraphs.graph6 import graph6_lines, parse_graph6, write_graph6
from toughgraphs.invariants import permute_graph
from toughgraphs.operators import SolidSpec, circulant, complete, cycle, path, solid_expand
from toughgraphs.ratio import Ratio
from toughgraphs.search import (
    CONNECTED_COUNTS,
    SearchOptions,
    canonical_form,
    enumerate_connected,
    filter_counterexamples,
)
from toughgraphs.toughness import EngineConfig


class TestGraph6:
    def test_known_encodings(self):
        assert write_graph6(build_graph(1, [])) == "@"
        assert write_graph6(complete(2)) == "A_"
        assert write_graph6(cycle(5)) == "Dhc"
        assert parse_graph6("@").n == 1
        assert parse_graph6("A_") == complete(2)
        assert parse_graph6("Dhc") == cycle(5)

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<Dhc") == cycle(5)

    def test_line_reader_strips_header_and_skips_empty_lines(self):
        lines = [">>graph6<<Dhc", "", "  ", ">>graph6<<", " A_ ", "!!"]
        assert list(graph6_lines(lines)) == [(1, "Dhc"), (5, "A_"), (6, "!!")]

    def test_space_after_header_is_stripped(self):
        headed = ">>graph6<< I]KoWZBoo"
        assert list(graph6_lines([headed, ">>graph6<<  "])) == [(1, "I]KoWZBoo")]
        assert parse_graph6(headed) == parse_graph6("I]KoWZBoo")

    def test_round_trip_random(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 62), rng.random())
            assert parse_graph6(write_graph6(g)) == g

    def test_extended_header(self):
        g = random_graph(random.Random(5), 70, 0.05)
        s = write_graph6(g)
        assert s.startswith(chr(126))
        assert parse_graph6(s) == g

    def test_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        for n in [*range(0, 71, 5), 62, 63, 64, 70]:  # from 63 on, the extended header
            g = random_graph(rng, n, rng.random())
            ours = write_graph6(g)
            assert nx.to_graph6_bytes(nx_graph(nx, g), header=False) == (ours + "\n").encode()
            h = nx.from_graph6_bytes(ours.encode())
            assert sorted(h.nodes) == list(range(n))
            assert sorted(map(sorted, h.edges)) == [list(e) for e in g.edges()]

    def test_matches_the_bitwise_decoder(self, rng):
        # up to 80 vertices, so from 63 on the extended header
        for _ in range(400):
            g = random_graph(rng, rng.randint(0, 80), rng.random())
            s = write_graph6(g)
            assert parse_graph6(s) == bitwise_parse_graph6(s) == g

    def test_damaged_lines_fail_as_the_bitwise_decoder_does(self, rng):
        def outcome(parse, text):
            try:
                return parse(text).adj
            except ValueError as exc:
                return str(exc)

        failed = 0
        for _ in range(2000):
            s = write_graph6(random_graph(rng, rng.randint(0, 70), 0.3))
            i = rng.randrange(len(s))
            kind = rng.randrange(3)
            if kind == 0:
                s = s[:i]
            elif kind == 1:
                s += "".join(chr(rng.randint(32, 300)) for _ in range(rng.randint(1, 3)))
            else:
                s = s[:i] + chr(rng.randint(0, 200)) + s[i + 1 :]
            want = outcome(bitwise_parse_graph6, s)
            assert outcome(parse_graph6, s) == want, s
            failed += isinstance(want, str)
        assert failed > 1000

    def test_large_blowup(self):
        # 3,000 vertices in whole columns; bit by bit this took over a second
        g = solid_expand(SolidSpec.uniform(cycle(5), 600))[0]
        assert parse_graph6(write_graph6(g)) == g

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_graph6("")
        with pytest.raises(ValueError):
            parse_graph6("Dhc!")  # byte out of range
        with pytest.raises(ValueError):
            parse_graph6("Dh")  # truncated body
        with pytest.raises(ValueError):
            parse_graph6("A" + chr(63 + 1))  # nonzero padding for K2-size graph


def relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute_graph(g, tuple(perm))


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, rng):
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            assert canonical_form(relabeled(rng, g)) == canonical_form(g)

    def test_distinguishes_non_isomorphic(self):
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(p4) != canonical_form(star)

    def test_agrees_with_networkx_isomorphism(self, rng):
        nx = pytest.importorskip("networkx")
        pairs = []
        for _ in range(150):
            n, p = rng.randint(1, 9), rng.random()
            pairs.append((random_graph(rng, n, p), random_graph(rng, n, p)))
        # twin-rich and vertex-transitive graphs against a relabeled copy and
        # against every other one with as many vertices and edges
        symmetric = [circulant(n, s) for n in range(6, 13) for s in ({1, 2}, {1, 3}, {2, 3}, {1, 4})
                     if 2 * max(s) <= n]
        for base in (cycle(5), path(4), complete(3)):
            symmetric.append(solid_expand(SolidSpec.uniform(base, 3))[0])
            mult = tuple(rng.randint(1, 3) for _ in range(base.n))
            symmetric.append(solid_expand(SolidSpec(base, mult))[0])
        for g in symmetric:
            pairs.append((g, relabeled(rng, g)))
            for other in symmetric:
                if other.n == g.n and other.edge_count() == g.edge_count():
                    pairs.append((relabeled(rng, other), g))
        for a, b in pairs:
            if a.edge_count() == b.edge_count():
                same = canonical_form(a) == canonical_form(b)
                assert same == nx.is_isomorphic(nx_graph(nx, a), nx_graph(nx, b)), (a.edges(), b.edges())

    def test_former_minimization_gives_the_same_classes(self):
        for n in range(1, 8):
            forms = {min_adjacency_form(g) for g in enumerate_connected(n)}
            assert len(forms) == CONNECTED_COUNTS[n - 1]


class TestEnumeration:
    def test_counts_up_to_seven(self):
        want = [1, 1, 2, 6, 21, 112, 853]
        got = [len(enumerate_connected(n)) for n in range(1, 8)]
        assert got == want

    def test_all_connected_distinct(self):
        graphs = enumerate_connected(6)
        assert all(is_connected(g) for g in graphs)
        keys = {write_graph6(g) for g in graphs}
        assert len(keys) == len(graphs)

    def test_matches_labeled_brute_force(self):
        # every labeled graph on n vertices, kept when connected: independent
        # of the enumerator's extension of connected graphs only
        for n in range(1, 6):
            pairs = [(u, v) for v in range(n) for u in range(v)]
            want = set()
            for bits in range(1 << len(pairs)):
                g = build_graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
                if is_connected(g):
                    want.add(write_graph6(canonical_form(g)))
            got = [write_graph6(g) for g in enumerate_connected(n)]
            assert got == sorted(want)

    def test_returns_a_copy(self):
        first = enumerate_connected(4)
        first.clear()
        assert len(enumerate_connected(4)) == 6

    def test_limit(self):
        with pytest.raises(ValueError):
            enumerate_connected(9)
        with pytest.raises(ValueError):
            enumerate_connected(0)


class TestFilter:
    def test_blown_up_cycle_flagged(self):
        g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        rep = filter_counterexamples([write_graph6(g)])
        assert rep.scanned == 1 and len(rep.flagged) == 1
        hit = rep.flagged[0]
        assert hit.toughness == Ratio(4, 3)
        assert (hit.delta, hit.ceil_2t, hit.regular) == (4, 3, True)
        assert hit.delta_over_t == Ratio(3, 1)
        assert rep.summary_line() == "1 counterexamples / 1 scanned"

    def test_cycle_not_flagged(self):
        rep = filter_counterexamples([write_graph6(cycle(5))])
        assert rep.scanned == 1 and not rep.flagged and rep.rejected == 1

    def test_non_regular_only_drops_regular_hits(self):
        g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        rep = filter_counterexamples(
            [write_graph6(g)], SearchOptions(non_regular_only=True)
        )
        assert not rep.flagged and rep.rejected == 1

    def test_parse_errors_counted_not_fatal(self):
        lines = ["Dhc", "garbage!", "", "A_"]
        rep = filter_counterexamples(lines)
        assert rep.scanned == 2
        assert rep.parse_errors == ((2, "byte 33 outside graph6 range 63..126"),)
        assert rep.scanned == len(rep.flagged) + rep.rejected + len(rep.inconclusive)

    def test_order_preserved_and_workers_agree(self):
        g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        lines = [write_graph6(cycle(6)), write_graph6(g), write_graph6(cycle(4))]
        seq = filter_counterexamples(lines, SearchOptions(workers=1))
        par = filter_counterexamples(lines, SearchOptions(workers=2))
        assert [f.report_line() for f in seq.flagged] == [
            f.report_line() for f in par.flagged
        ]
        assert (seq.scanned, seq.rejected) == (par.scanned, par.rejected)

    def test_size_screens(self):
        lines = [write_graph6(cycle(5))]
        rep = filter_counterexamples(lines, SearchOptions(min_n=6))
        assert rep.rejected == 1
        rep = filter_counterexamples(lines, SearchOptions(max_n=4))
        assert rep.rejected == 1

    def test_stream_held_in_bounded_memory(self):
        lines = ("Dhc" for _ in range(5_000))
        tracemalloc.start()
        try:
            rep = filter_counterexamples(lines, SearchOptions(max_n=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.scanned, rep.rejected) == (5_000, 5_000)
        assert peak < 0.25 * 2**20

    def test_workers_agree_past_one_pool_batch(self):
        hit, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        pattern = [
            ">>graph6<<" + write_graph6(cycle(5)),
            "",
            "garbage!",
            write_graph6(cycle(6)),
            write_graph6(cycle(9)),  # nine twin classes: over the limit
            "   ",
            write_graph6(complete(4)),
            "Dh",
        ]
        lines = pattern * 40
        for at in (3, 150, 300):
            lines.insert(at, write_graph6(hit))
        config = EngineConfig(exhaustive_limit=8)
        seq, par = (
            filter_counterexamples(lines, SearchOptions(workers=w, config=config))
            for w in (1, 2)
        )
        assert seq.scanned == 163 and len(seq.flagged) == 3 and len(seq.inconclusive) == 40
        assert [f.report_line() for f in seq.flagged] == [f.report_line() for f in par.flagged]
        assert seq.summary_line() == par.summary_line()
        assert seq.parse_errors == par.parse_errors and len(seq.parse_errors) == 80
        assert seq.inconclusive == par.inconclusive

    def test_regular_graph_over_the_limit_is_rejected_not_inconclusive(self):
        lines = [write_graph6(complete(7)), write_graph6(cycle(7))]
        config = EngineConfig(exhaustive_limit=5)
        rep = filter_counterexamples(lines, SearchOptions(non_regular_only=True, config=config))
        assert (rep.scanned, rep.rejected, rep.inconclusive) == (2, 2, ())
        assert rep.summary_line() == "0 counterexamples / 2 scanned"
        rep = filter_counterexamples(lines, SearchOptions(config=config))
        assert rep.inconclusive == (write_graph6(cycle(7)),)

    def test_pendant_graph_over_the_limit_is_rejected_not_inconclusive(self):
        # delta = 1 <= ceil(2t) on any connected graph, so P_30 is rejected
        # before its 30 twin classes meet the exhaustive limit of 26
        hit, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        rep = filter_counterexamples([write_graph6(path(30)), write_graph6(hit)])
        assert (rep.scanned, rep.rejected, rep.inconclusive) == (2, 1, ())
        assert rep.summary_line() == "1 counterexamples / 2 scanned"

    def test_one_worker_never_asks_for_usable_cpus(self, monkeypatch):
        def no_affinity():
            raise AssertionError("usable_cpus called")

        monkeypatch.setattr(search, "usable_cpus", no_affinity)
        assert filter_counterexamples(["Dhc"] * 3, SearchOptions(workers=1)).scanned == 3

    @pytest.mark.parametrize(
        "cpus,pools,first_batch", [(1, [], []), (2, [2], [128])], ids=["one-cpu", "two-cpus"]
    )
    def test_pool_capped_at_usable_cpus(self, monkeypatch, fake_pool, cpus, pools, first_batch):
        monkeypatch.setattr(search, "usable_cpus", lambda: cpus)
        rep = filter_counterexamples(["Dhc"] * 300, SearchOptions(workers=8))
        assert rep.scanned == 300
        assert fake_pool.built == pools
        # batches of 64 per worker
        assert fake_pool.batches[:1] == first_batch

    def test_pool_workers_run_engines_with_one_worker(self, monkeypatch):
        # the pool forks, so its workers inherit the patched engine
        exact = engine.toughness_exact

        def single_worker_exact(g, cfg=engine.DEFAULT_CONFIG):
            assert cfg.workers == 1, f"engine started with {cfg.workers} workers"
            return exact(g, cfg)

        monkeypatch.setattr(engine, "toughness_exact", single_worker_exact)
        hit, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
        lines = [write_graph6(cycle(6)), write_graph6(hit)]
        options = SearchOptions(workers=2, config=EngineConfig(workers=2))
        rep = filter_counterexamples(lines, options)
        assert [f.graph6 for f in rep.flagged] == [write_graph6(hit)]
