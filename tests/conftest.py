from __future__ import annotations

import random
import sys
from concurrent import futures
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from toughgraphs.graph import Graph, build_graph, is_connected


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
    the first class; its rows are written directly, since building its
    25k^2 edges one by one takes seconds at k = 600."""
    classes = [((1 << k) - 1) << (k * i) for i in range(5)]
    rows = (classes[(v // k - 1) % 5] | classes[(v // k + 1) % 5] for v in range(5 * k))
    return Graph(5 * k, tuple(rows))


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
