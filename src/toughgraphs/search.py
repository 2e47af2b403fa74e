"""Small-graph enumeration and the counterexample stream filter.

The built-in enumerator produces exactly one representative per isomorphism
class of connected graphs for n <= 8, deduplicating by
``invariants.canonical_form``: the least leaf certificate of an
individualisation-refinement search, which isomorphic graphs share and which
reconstructs the graph.

Streams beyond n = 8 come from external graph6 files; the filter consumes
newline-delimited graph6, tolerates the ">>graph6<<" header, reports parse
errors per line without aborting, and preserves input order in its report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, islice
from typing import Iterator

from .graph import Graph, build_graph, degree_profile
from .graph6 import graph6_lines, parse_graph6, write_graph6
from .invariants import canonical_form
from .toughness import (
    DEFAULT_CONFIG,
    DegreeExcessReport,
    EngineConfig,
    _process_pool,
    degree_excess_filter,
    usable_cpus,
)

ENUM_LIMIT = 8

# connected unlabeled graph counts for n = 1..8, re-derived by this module's
# own enumeration in the test suite before being trusted
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


@cache
def _connected_graphs(n: int) -> list[Graph]:
    """Canonical representatives of the connected graphs on n vertices, in
    graph6 order.

    Each comes from a connected graph on n - 1 vertices plus a vertex with a
    non-empty neighborhood, which is connected.  That reaches every class: a
    connected graph on n >= 2 vertices has a vertex that is not a cut vertex
    (a leaf of a spanning tree), deleting it leaves a connected graph on
    n - 1 vertices, and the vertex has a neighbor.
    """
    if n == 1:
        return [build_graph(1, [])]
    seen: dict[str, Graph] = {}
    for g in _connected_graphs(n - 1):
        for nbhd in range(1, 1 << (n - 1)):
            adj = list(g.adj) + [nbhd]
            for v in range(n - 1):
                if nbhd >> v & 1:
                    adj[v] |= 1 << (n - 1)
            cand = canonical_form(Graph(n, tuple(adj)))
            key = write_graph6(cand)
            if key not in seen:
                seen[key] = cand
    return [seen[k] for k in sorted(seen)]


def enumerate_connected(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected graphs.

    Built-in construction tops out at n = 8; larger orders must come from
    external graph6 streams.
    """
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"built-in enumeration supports 1 <= n <= {ENUM_LIMIT}")
    return list(_connected_graphs(n))


# ---------------------------------------------------------------------------
# stream filter


@dataclass(frozen=True)
class SearchOptions:
    non_regular_only: bool = False
    min_n: int | None = None
    max_n: int | None = None
    min_delta: int | None = None
    workers: int = 1
    config: EngineConfig = DEFAULT_CONFIG


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Outcome of one filter call.  Tuples, not lists, and no field that the
    others give: a caller that keeps many one-line reports holds four slots
    and no list per report.  The CLI times the pass itself."""

    scanned: int = 0
    flagged: tuple[DegreeExcessReport, ...] = ()
    inconclusive: tuple[str, ...] = ()
    parse_errors: tuple[tuple[int, str], ...] = ()

    @property
    def rejected(self) -> int:
        return self.scanned - len(self.flagged) - len(self.inconclusive)

    def summary_line(self) -> str:
        extra = ""
        if self.inconclusive:
            extra += f" ({len(self.inconclusive)} inconclusive)"
        if self.parse_errors:
            extra += f" ({len(self.parse_errors)} parse errors)"
        return f"{len(self.flagged)} counterexamples / {self.scanned} scanned{extra}"


def _screen_one(item) -> tuple[str, DegreeExcessReport | None]:
    """(graph6, report) for one (graph6, graph, options) item.  No report
    means a bound that needs no toughness rejected the graph: its order, or
    its regularity under ``non_regular_only``."""
    g6, g, opts = item
    too_small = opts.min_n is not None and g.n < opts.min_n
    too_large = opts.max_n is not None and g.n > opts.max_n
    if too_small or too_large or (opts.non_regular_only and degree_profile(g)[2]):
        return g6, None
    return g6, degree_excess_filter(g, opts.config, min_delta=opts.min_delta)


def _screened(work: Iterator, workers: int) -> Iterator[tuple[str, DegreeExcessReport | None]]:
    """``_screen_one`` of each work item, in input order.  A pool takes the
    items in batches of 64 per worker and holds at most two: the next batch
    is queued before the current one is read, so no worker waits on the
    slowest item of a batch.  A stream of at most one item starts no pool,
    and no pool has more workers than ``usable_cpus``, which one worker
    never asks for."""
    if workers > 1:
        workers = min(workers, usable_cpus())
    batch = list(islice(work, 64 * workers)) if workers > 1 else []
    if len(batch) < 2:
        yield from map(_screen_one, chain(batch, work))
        return
    with _process_pool(workers) as pool:
        ahead = pool.map(_screen_one, batch, chunksize=16)
        while batch:
            batch = list(islice(work, 64 * workers))
            current, ahead = ahead, pool.map(_screen_one, batch, chunksize=16)
            yield from current


def filter_counterexamples(lines, options: SearchOptions = SearchOptions()) -> SearchReport:
    """Screen a graph6 stream for connected, non-complete, minimally tough
    graphs whose minimum degree exceeds the ceiling of twice the toughness.

    One pass: each line is parsed, screened and folded into the report as
    it is read, so only the hits, the inconclusive lines, the parse errors
    and the counts are held.  Report order is input order for any worker
    count; inside a pool, each graph's engine runs with one worker.
    """
    if options.workers > 1:
        options = replace(options, config=replace(options.config, workers=1))
    parse_errors: list[tuple[int, str]] = []

    def parsed() -> Iterator[tuple[str, Graph, SearchOptions]]:
        for lineno, text in graph6_lines(lines):
            try:
                g = parse_graph6(text)
            except ValueError as exc:
                parse_errors.append((lineno, str(exc)))
                continue
            yield text, g, options

    scanned = 0
    flagged: list[DegreeExcessReport] = []
    inconclusive: list[str] = []
    for g6, rep in _screened(parsed(), options.workers):
        scanned += 1
        if rep is not None and rep.inconclusive:
            inconclusive.append(g6)
        elif rep is not None and rep.is_hit:
            flagged.append(replace(rep, graph6=g6))
    return SearchReport(
        scanned=scanned,
        flagged=tuple(flagged),
        inconclusive=tuple(inconclusive),
        parse_errors=tuple(parse_errors),
    )
