"""Small-graph enumeration and the counterexample stream filter.

The built-in enumerator produces exactly one representative per isomorphism
class of connected graphs for n <= 8, deduplicating by a canonical form: the
lexicographically smallest upper-triangle adjacency bitstring over all vertex
orders that respect an iterated neighborhood-refinement partition.  The
restriction is sound because the partition is an isomorphism invariant and
the minimized bitstring reconstructs the graph.

Streams beyond n = 8 come from external graph6 files; the filter consumes
newline-delimited graph6, tolerates the ">>graph6<<" header, reports parse
errors per line without aborting, and preserves input order in its report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import Graph, build_graph
from .graph6 import graph6_lines, parse_graph6, write_graph6
from .invariants import refine_colors
from .ratio import Ratio
from .toughness import DEFAULT_CONFIG, EngineConfig, degree_excess_filter

ENUM_LIMIT = 8

# connected unlabeled graph counts for n = 1..8, re-derived by this module's
# own enumeration in the test suite before being trusted
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def canonical_form(g: Graph, limit: int = ENUM_LIMIT + 2) -> Graph:
    """Canonically relabeled copy of g (isomorphic graphs map to equal graphs).

    Exhaustive minimization of the adjacency bitstring over partition
    respecting orders, with branch-and-bound pruning and skipping of
    interchangeable (twin) candidates.
    """
    n = g.n
    if n > limit:
        raise ValueError(f"canonical_form limited to n <= {limit}, got {n}")
    if n <= 1:
        return g
    colors = refine_colors(g)
    class_of: dict[int, list[int]] = {}
    for v in range(n):
        class_of.setdefault(colors[v], []).append(v)
    class_sequence: list[list[int]] = [class_of[c] for c in sorted(class_of)]
    position_class: list[list[int]] = []
    for cls in class_sequence:
        position_class.extend([cls] * len(cls))

    adj = g.adj
    best_cols: list[int] | None = None
    best_order: list[int] | None = None
    placed: list[int] = []
    placed_mask = 0
    cols: list[int] = []  # cols[d-1] is the adjacency column of position d

    def dfs(depth: int) -> None:
        nonlocal best_cols, best_order, placed_mask
        if depth == n:
            if best_cols is None or cols < best_cols:
                best_cols = cols[:]
                best_order = placed[:]
            return
        candidates = [v for v in position_class[depth] if not placed_mask >> v & 1]
        seen: list[tuple[int, int, int]] = []
        for w in candidates:
            col = 0
            aw = adj[w]
            for u in placed:
                col = (col << 1) | (aw >> u & 1)
            # interchangeable with an already-tried candidate: same column and
            # same adjacency outside the placed prefix and the pair itself
            sig = aw & ~placed_mask
            skip = False
            for c0, w0, s0 in seen:
                scrub = ~((1 << w) | (1 << w0))
                if c0 == col and s0 & scrub == sig & scrub:
                    skip = True
                    break
            if skip:
                continue
            seen.append((col, w, sig))
            if depth:
                cols.append(col)
                # lexicographic branch-and-bound against the incumbent string
                if best_cols is not None and cols > best_cols[:depth]:
                    cols.pop()
                    continue
            placed.append(w)
            placed_mask |= 1 << w
            dfs(depth + 1)
            placed_mask ^= 1 << w
            placed.pop()
            if depth:
                cols.pop()

    dfs(0)
    assert best_order is not None
    perm = [0] * n
    for new_idx, old in enumerate(best_order):
        perm[old] = new_idx
    new_adj = [0] * n
    for v in range(n):
        row = 0
        a = adj[v]
        while a:
            b = a & -a
            row |= 1 << perm[b.bit_length() - 1]
            a ^= b
        new_adj[perm[v]] = row
    return Graph(n, tuple(new_adj))


_CONNECTED_LEVELS: dict[int, list[Graph]] = {}


def _connected_graphs(n: int) -> list[Graph]:
    """Canonical representatives of the connected graphs on n vertices, in
    graph6 order.

    Each comes from a connected graph on n - 1 vertices plus a vertex with a
    non-empty neighborhood, which is connected.  That reaches every class: a
    connected graph on n >= 2 vertices has a vertex that is not a cut vertex
    (a leaf of a spanning tree), deleting it leaves a connected graph on
    n - 1 vertices, and the vertex has a neighbor.
    """
    if n in _CONNECTED_LEVELS:
        return _CONNECTED_LEVELS[n]
    if n == 1:
        level = [build_graph(1, [])]
    else:
        prev = _connected_graphs(n - 1)
        seen: dict[str, Graph] = {}
        for g in prev:
            for nbhd in range(1, 1 << (n - 1)):
                adj = list(g.adj) + [nbhd]
                for v in range(n - 1):
                    if nbhd >> v & 1:
                        adj[v] |= 1 << (n - 1)
                cand = canonical_form(Graph(n, tuple(adj)))
                key = write_graph6(cand)
                if key not in seen:
                    seen[key] = cand
        level = [seen[k] for k in sorted(seen)]
    _CONNECTED_LEVELS[n] = level
    return level


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


@dataclass(frozen=True)
class FlaggedGraph:
    graph6: str
    toughness: Ratio
    delta: int
    ceil_2t: int
    delta_over_t: Ratio
    regular: bool

    def report_line(self) -> str:
        return (
            f"{self.graph6}\tt={self.toughness}\tdelta={self.delta}"
            f"\tceil2t={self.ceil_2t}\tratio={self.delta_over_t}"
            f"\tregular={1 if self.regular else 0}"
        )


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Outcome of one filter call.  Tuples, not lists: a caller that keeps
    many one-line reports holds no empty lists."""

    scanned: int = 0
    flagged: tuple[FlaggedGraph, ...] = ()
    rejected: int = 0
    inconclusive: tuple[str, ...] = ()
    parse_errors: tuple[tuple[int, str], ...] = ()
    wall_time: float = 0.0

    def summary_line(self) -> str:
        extra = ""
        if self.inconclusive:
            extra += f" ({len(self.inconclusive)} inconclusive)"
        if self.parse_errors:
            extra += f" ({len(self.parse_errors)} parse errors)"
        return f"{len(self.flagged)} counterexamples / {self.scanned} scanned{extra}"


def _screen_one(args) -> tuple[str, FlaggedGraph | None]:
    """Worker: returns (verdict, flagged-entry-or-None); verdict in
    {flag, reject, inconclusive}."""
    g6, g, opts = args
    if opts.min_n is not None and g.n < opts.min_n:
        return "reject", None
    if opts.max_n is not None and g.n > opts.max_n:
        return "reject", None
    rep = degree_excess_filter(g, opts.config, min_delta=opts.min_delta)
    if rep.inconclusive:
        return "inconclusive", None
    if not rep.is_hit:
        return "reject", None
    if opts.non_regular_only and rep.regular:
        return "reject", None
    return "flag", FlaggedGraph(
        graph6=g6,
        toughness=rep.toughness,
        delta=rep.delta,
        ceil_2t=rep.ceil_2t,
        delta_over_t=rep.delta_over_t,
        regular=rep.regular,
    )


def filter_counterexamples(lines, options: SearchOptions = SearchOptions()) -> SearchReport:
    """Screen a graph6 stream for connected, non-complete, minimally tough
    graphs whose minimum degree exceeds the ceiling of twice the toughness.

    Report ordering equals input order regardless of worker count; parse
    errors are recorded per line and skipped.
    """
    started = time.monotonic()
    parse_errors: list[tuple[int, str]] = []
    work: list[tuple[str, Graph, SearchOptions]] = []
    for lineno, text in graph6_lines(lines):
        try:
            g = parse_graph6(text)
        except ValueError as exc:
            parse_errors.append((lineno, str(exc)))
            continue
        work.append((text, g, options))

    if options.workers > 1 and len(work) > 1:
        # imported only here: single-worker callers never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=options.workers) as pool:
            outcomes = list(pool.map(_screen_one, work, chunksize=16))
    else:
        outcomes = [_screen_one(item) for item in work]

    flagged: list[FlaggedGraph] = []
    inconclusive: list[str] = []
    for (g6, _, _), (verdict, entry) in zip(work, outcomes):
        if verdict == "flag":
            flagged.append(entry)
        elif verdict == "inconclusive":
            inconclusive.append(g6)
    return SearchReport(
        scanned=len(work),
        flagged=tuple(flagged),
        rejected=len(work) - len(flagged) - len(inconclusive),
        inconclusive=tuple(inconclusive),
        parse_errors=tuple(parse_errors),
        wall_time=time.monotonic() - started,
    )
