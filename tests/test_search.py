import random

import pytest

from conftest import random_graph

from toughgraphs.graph import build_graph, is_connected
from toughgraphs.graph6 import graph6_lines, parse_graph6, write_graph6
from toughgraphs.invariants import permute_graph
from toughgraphs.operators import SolidSpec, complete, cycle, solid_expand
from toughgraphs.ratio import Ratio
from toughgraphs.search import (
    SearchOptions,
    canonical_form,
    enumerate_connected,
    filter_counterexamples,
)


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

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_graph6("")
        with pytest.raises(ValueError):
            parse_graph6("Dhc!")  # byte out of range
        with pytest.raises(ValueError):
            parse_graph6("Dh")  # truncated body
        with pytest.raises(ValueError):
            parse_graph6("A" + chr(63 + 1))  # nonzero padding for K2-size graph


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, rng):
        for _ in range(150):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(permute_graph(g, tuple(perm))) == canonical_form(g)

    def test_distinguishes_non_isomorphic(self):
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(p4) != canonical_form(star)


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
