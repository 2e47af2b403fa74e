from __future__ import annotations

import random
import sys
from concurrent import futures
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from toughgraphs.families import (
    gen_knp2_minus_matching,
    gen_knp3,
    gen_planar_chain,
    gen_square_lsk4,
)
from toughgraphs.graph import Graph, build_graph, is_connected
from toughgraphs.invariants import permute_graph
from toughgraphs.operators import SolidSpec, solid_expand


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.35) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def blown_up_c5(k: int) -> Graph:
    """C5 with every vertex blown up into k false twins, vertices 0..k-1
    the first class; its rows are written out here, independently of
    ``operators.solid_expand``, so it can serve as that function's oracle."""
    classes = [((1 << k) - 1) << (k * i) for i in range(5)]
    rows = (classes[(v // k - 1) % 5] | classes[(v // k + 1) % 5] for v in range(5 * k))
    return Graph(5 * k, tuple(rows))


def twin_corpus() -> list[tuple[Graph, int | None]]:
    """Seeded (graph, within) pairs over twin-free and twin-rich random
    graphs, blow-ups, relabelled blow-ups, the four families and the empty
    graph, each with ``within`` None, the empty mask and two random masks.
    The digests of the independence number and the twin classes over it are
    pinned in the tests."""
    r = random.Random(20261019)
    graphs = [build_graph(0, [])]
    graphs += [random_graph(r, r.randint(1, 16), r.uniform(0.1, 0.9)) for _ in range(60)]
    for _ in range(20):
        base = random_connected_graph(r, r.randint(3, 8), r.uniform(0.25, 0.6))
        g = solid_expand(SolidSpec(base, tuple(r.randint(1, 3) for _ in range(base.n))))[0]
        perm = list(range(g.n))
        r.shuffle(perm)
        graphs += [g, permute_graph(g, tuple(perm))]
    graphs += [
        gen_planar_chain(4).graph,
        gen_knp3(5).graph,
        gen_knp2_minus_matching(9, 7).graph,
        gen_square_lsk4().graph,
    ]
    out = []
    for g in graphs:
        out += [(g, None), (g, 0)]
        out += [(g, sum(1 << v for v in range(g.n) if r.random() < 0.6)) for _ in range(2)]
    return out


def nx_graph(nx, g: Graph):
    """g as a networkx graph; ``nx`` is the networkx module."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    """Mixed deterministic corpus of small connected graphs."""
    r = random.Random(20240901)
    corpus = []
    for n in (4, 5, 6, 7, 8, 9):
        for _ in range(6):
            corpus.append(random_connected_graph(r, n, 0.25 + r.random() * 0.5))
    return corpus


@pytest.fixture
def fake_pool(monkeypatch):
    """A stand-in for ``ProcessPoolExecutor`` that runs every task in this
    process.  Returns its record: ``built`` lists each pool's
    ``max_workers``, ``batches`` the length of each ``map`` call, and
    ``most_pending`` the most submitted tasks whose result was not yet read."""
    record = SimpleNamespace(built=[], batches=[], most_pending=0, pending=0)

    class ReadOnce(futures.Future):
        def result(self, timeout=None):
            record.pending -= 1
            return super().result(timeout)

    class FakePool:
        def __init__(self, max_workers):
            record.built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            record.pending += 1
            record.most_pending = max(record.most_pending, record.pending)
            done = ReadOnce()
            done.set_result(fn(*args))
            return done

        def map(self, fn, items, chunksize=1):
            items = list(items)
            record.batches.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", FakePool)
    return record
