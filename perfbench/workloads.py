"""The benchmark's four workloads: seeded corpora, the calls they make, and
the checks their outputs must pass.

Every workload builds its whole corpus from the seed before anything is
timed. Items are laid out in blocks that each hold one item of every stratum
(graph order, density band or item kind), so any prefix a time-bounded run
completes has nearly the same mix whatever the seed. The program is reached
only through the package namespace (``tg.<function>``) at call time, so the
tracer's wrappers see every call.

Reference values come from two places: the certified families'
``expected.toughness``, and the pinned pools in ``data/`` (written by
``make_pools.py`` at the commit that introduced the benchmark) for random
graphs, low-width graphs and blow-ups. Blow-up values in the pools are
``solid_reduced_toughness`` results, cross-checked by brute force.

Every call that takes an engine configuration gets ``CONFIG``
(``workers=1``), so no work leaves this process whatever the package's
defaults become.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import toughgraphs as tg

DATA = Path(__file__).resolve().parent / "data"
CONFIG = tg.EngineConfig(workers=1)


@dataclass
class Item:
    """One request of the closed loop.

    ``run`` calls the program; ``check`` returns '' for a correct output or a
    one-line reason; ``key`` renders the output for the digest; ``gap`` gives
    certified bound / reference - 1 for upper-bound items.
    """

    label: str
    graph: tg.Graph
    run: Callable[[], object]
    check: Callable[[object], str]
    key: Callable[[object], str]
    reaches_minimality: bool = False
    gap: Callable[[object], float] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Item]]
    # items of the fixed traced prefix, sized so an untraced plus a traced
    # pass over it take about one run at seed-state speed
    trace_items: int
    # highest multiple of 5 (or 99) that leaves at least ten items beyond it
    # in every 25 s run at seed-state speed; fixed so that runs of
    # different speed compare
    tail_pct: int


# ---------------------------------------------------------------------------
# shared helpers


def has_twins(g: tg.Graph) -> bool:
    """True when two vertices have identical neighbourhoods (a twin class of
    size at least 2)."""
    return len(set(g.adj)) < g.n


def parse_fraction(text: str) -> tg.Ratio:
    p, _, q = text.partition("/")
    return tg.Ratio(int(p), int(q or 1))


def read_pool(name: str) -> list[list[str]]:
    rows = []
    with open(DATA / name, encoding="ascii") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                rows.append(line.split())
    return rows


def repeated(rng: random.Random, items: list[Item], count: int) -> list[Item]:
    """``count`` items cycling through a seeded order of ``items``."""
    order = rng.sample(items, len(items))
    return [order[i % len(order)] for i in range(count)]


def interleave(rng: random.Random, strata: list[list[Item]]) -> list[Item]:
    """Block i holds item i of every stratum, in a seeded order."""
    out: list[Item] = []
    for block in zip(*strata):
        block = list(block)
        rng.shuffle(block)
        out.extend(block)
    return out


def _exact_key(res) -> str:
    w = res.witness
    return f"{res.value} {w.cut.bit_count()} {w.cut:x}"


def _check_exact(g: tg.Graph, value: tg.Ratio, mask: int | None, res) -> str:
    """The exact result equals the reference value (and the pinned witness
    mask, when one is pinned) and its certificate re-verifies."""
    if res.value != value:
        return f"value {res.value} != reference {value}"
    if res.witness is None:
        return "no witness"
    verdict = tg.verify_certificate(g, res.witness)
    if not verdict:
        return f"certificate rejected: {verdict.reason}"
    if res.witness.ratio != value:
        return f"witness ratio {res.witness.ratio} != value {value}"
    if mask is not None and res.witness.cut != mask:
        return f"witness mask {res.witness.cut:x} != pinned {mask:x}"
    return ""


# ---------------------------------------------------------------------------
# exact-random: the 2^n subset scan on twin-free random graphs


EXACT_RANDOM_BLOCKS = 60


def exact_item(label: str, g: tg.Graph, value: tg.Ratio, mask: int | None) -> Item:
    return Item(
        label,
        g,
        run=lambda: tg.toughness_exact(g, CONFIG),
        check=lambda res: _check_exact(g, value, mask, res),
        key=_exact_key,
    )


def build_exact_random(seed: int) -> list[Item]:
    rng = random.Random(seed)
    bands: dict[str, list[list[str]]] = {}
    for row in read_pool("exact_random.txt"):
        bands.setdefault(row[1], []).append(row)
    strata = []
    for band in sorted(bands):
        rows = rng.sample(bands[band], EXACT_RANDOM_BLOCKS)
        strata.append(
            [
                exact_item(
                    f"random/{band}/{g6}",
                    tg.parse_graph6(g6),
                    parse_fraction(value),
                    int(mask, 16),
                )
                for g6, _, value, mask in rows
            ]
        )
    return interleave(rng, strata)


# ---------------------------------------------------------------------------
# exact-structured: twin-rich blow-ups, twin-free low-width graphs, and the
# certified families through the minimality check


STRUCTURED_BLOCKS = 40
BLOWUPS_PER_BLOCK = 3

# twin-free graphs of low path-width, all on 18 vertices: (name,
# constructor). They are the costliest items and set the p90 tail. The
# three at about 0.45-0.5 s (seed state) hold it there; C18(1,2), about
# 0.7 s, sits above p95. Graphs of other orders would put cost levels far
# apart near p90, where the tail would jump between them from run to run.
LOW_WIDTH = (
    ("circulant-18-1-2", lambda: tg.circulant(18, {1, 2})),
    ("circulant-18-1-3", lambda: tg.circulant(18, {1, 3})),
    ("prism-9", lambda: tg.cartesian_product(tg.cycle(9), tg.path(2))[0]),
    ("grid-3x6", lambda: tg.cartesian_product(tg.path(3), tg.cycle(6))[0]),
)

# one instance of every certified family small enough for the exact engine
FAMILIES = (
    ("knp3-6", lambda: tg.gen_knp3(6)),
    ("knp3-6-regularized", lambda: tg.gen_knp3(6, regularized=True)),
    ("knp2-9-7", lambda: tg.gen_knp2_minus_matching(9, 7)),
    ("knp2-9-8", lambda: tg.gen_knp2_minus_matching(9, 8)),
    ("square-lsk4", lambda: tg.gen_square_lsk4()),
)


def check_minimality(g: tg.Graph, t: tg.Ratio, rep) -> str:
    """Verdict True at the family's toughness, every edge witnessed by a
    re-verified certificate strictly below it."""
    if rep.toughness != t:
        return f"toughness {rep.toughness} != expected {t}"
    if rep.verdict is not True:
        return f"verdict {rep.verdict}, expected True"
    if len(rep.entries) != g.edge_count():
        return f"{len(rep.entries)} entries for {g.edge_count()} edges"
    for w in rep.entries:
        verdict = tg.verify_certificate(tg.delete_edge(g, w.edge), w.certificate)
        if not verdict:
            return f"edge {w.edge}: certificate rejected: {verdict.reason}"
        if not w.certificate.ratio < t:
            return f"edge {w.edge}: ratio {w.certificate.ratio} not below {t}"
    return ""


def family_item(label: str, fam, t: tg.Ratio) -> Item:
    g = fam.graph
    return Item(
        label,
        g,
        run=lambda: tg.is_minimally_tough(g, CONFIG, hints=fam.edge_certificates),
        check=lambda rep: check_minimality(g, t, rep),
        key=lambda rep: f"{rep.verdict} {rep.toughness}",
        reaches_minimality=True,
    )


def build_structured(seed: int) -> list[Item]:
    rng = random.Random(seed)
    pinned = {row[0]: row for row in read_pool("structured.txt")}
    low_width = []
    for name, make in LOW_WIDTH:
        _, value, mask = pinned[name]
        low_width.append(exact_item(f"low-width/{name}", make(), parse_fraction(value), int(mask, 16)))
    families = []
    for name, make in FAMILIES:
        fam = make()
        families.append(family_item(f"family/{name}", fam, fam.expected.toughness))
    pool = []
    for g6, mult, value in read_pool("blowups.txt"):
        spec = tg.SolidSpec(tg.parse_graph6(g6), tuple(int(m) for m in mult.split(",")))
        g, _ = tg.solid_expand(spec)
        pool.append(exact_item(f"blowup/{g6}/{mult}", g, parse_fraction(value), None))
    # the pool is smaller than a run's share of blow-ups, so every run times
    # each of them and seeds differ only in order and in which are repeated
    blowups = repeated(rng, pool, BLOWUPS_PER_BLOCK * STRUCTURED_BLOCKS)
    strata = [blowups[i::BLOWUPS_PER_BLOCK] for i in range(BLOWUPS_PER_BLOCK)]
    return interleave(
        rng,
        [
            *strata,
            repeated(rng, low_width, STRUCTURED_BLOCKS),
            repeated(rng, families, STRUCTURED_BLOCKS),
        ],
    )


# ---------------------------------------------------------------------------
# search-stream: the graph6 stream filter, one line per request


SEARCH_BLOCKS = 120
SCREENED_PER_BLOCK = 12  # four of each order
HIT_EVERY = 20  # one block in every HIT_EVERY carries a spliced known hit
HIT_TOUGHNESS = tg.Ratio(4, 3)
SEARCH_OPTIONS = tg.SearchOptions(workers=1, config=CONFIG)


def check_search(line: str, hit: tg.Ratio | None, report) -> str:
    """The one-line report flags exactly the expected hits, with their
    toughness, and has no parse errors or inconclusive graphs."""
    if report.parse_errors or report.inconclusive or report.scanned != 1:
        return (
            f"scanned={report.scanned} parse_errors={len(report.parse_errors)} "
            f"inconclusive={len(report.inconclusive)}"
        )
    g6 = line.removeprefix(">>graph6<<")
    if hit is None:
        if report.flagged:
            return f"unexpected hit t={report.flagged[0].toughness}"
        return ""
    if len(report.flagged) != 1:
        return "expected hit not flagged"
    entry = report.flagged[0]
    if entry.graph6 != g6 or entry.toughness != hit:
        return f"hit reported as {entry.graph6} t={entry.toughness}, expected t={hit}"
    return ""


def search_item(label: str, line: str, hit: tg.Ratio | None, reaches_minimality: bool) -> Item:
    return Item(
        label,
        tg.parse_graph6(line),
        run=lambda: tg.filter_counterexamples([line], SEARCH_OPTIONS),
        check=lambda rep: check_search(line, hit, rep),
        key=lambda rep: " ".join(f"{f.graph6}:{f.toughness}" for f in rep.flagged) or "-",
        reaches_minimality=reaches_minimality,
    )


def known_hit(rng: random.Random) -> str:
    """C5 blown up x2 (t = 4/3, delta = 4 > ceil(8/3)) under a seeded relabelling."""
    g, _ = tg.solid_expand(tg.SolidSpec.uniform(tg.cycle(5), 2))
    perm = rng.sample(range(g.n), g.n)
    return tg.write_graph6(tg.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))


def build_search_stream(seed: int) -> list[Item]:
    rng = random.Random(seed)
    pool: dict[tuple[str, str], list[list[str]]] = {}
    for row in read_pool("search_stream.txt"):
        kind = "screened" if row[4] == "screened" else "minimal"
        pool.setdefault((kind, row[1]), []).append(row)
    orders = sorted({n for _, n in pool})
    per_order = SCREENED_PER_BLOCK // len(orders)
    screened = {n: rng.sample(pool["screened", n], SEARCH_BLOCKS * per_order) for n in orders}
    minimal = {n: rng.sample(pool["minimal", n], SEARCH_BLOCKS // len(orders)) for n in orders}
    hit_blocks = {g * HIT_EVERY + rng.randrange(HIT_EVERY) for g in range(SEARCH_BLOCKS // HIT_EVERY)}

    rows: list[tuple[str, tg.Ratio | None, bool]] = []
    for b in range(SEARCH_BLOCKS):
        block = [
            (r[0], None, False)
            for n in orders
            for r in screened[n][b * per_order : (b + 1) * per_order]
        ]
        rng.shuffle(block)
        if b in hit_blocks:
            special = (known_hit(rng), HIT_TOUGHNESS, True)
        else:
            r = minimal[orders[b % len(orders)]][b // len(orders)]
            special = (r[0], parse_fraction(r[2]) if r[4] == "hit" else None, True)
        block.insert(rng.randrange(len(block) + 1), special)
        rows.extend(block)
    items = []
    for i, (g6, hit, reaches) in enumerate(rows):
        line = (">>graph6<<" if i == 0 else "") + g6
        items.append(search_item(f"stream/{i}", line, hit, reaches))
    return items


# ---------------------------------------------------------------------------
# beyond-limit: annealing upper bounds and the solid reduction past the
# 26-vertex exhaustive limit


BEYOND_BLOCKS = 20
UPPER_BUDGET = 20_000
UPPER_SEED = 0
CHAIN_ORDERS = (6, 8, 10)


def _check_upper(g: tg.Graph, reference: tg.Ratio, cert) -> str:
    verdict = tg.verify_certificate(g, cert)
    if not verdict:
        return f"certificate rejected: {verdict.reason}"
    if cert.ratio < reference:
        return f"upper bound {cert.ratio} below reference {reference}"
    return ""


def _gap(bound: tg.Ratio, reference: tg.Ratio) -> float:
    return (bound.p * reference.q) / (bound.q * reference.p) - 1


def beyond_blowup_item(label: str, spec: tg.SolidSpec, value: tg.Ratio) -> Item:
    g, _ = tg.solid_expand(spec)

    def run():
        cert = tg.toughness_upper_search(g, UPPER_BUDGET, seed=UPPER_SEED)
        return cert, tg.solid_reduced_toughness(spec, CONFIG)

    def check(out) -> str:
        cert, reduced = out
        if reduced.value != value:
            return f"reduced value {reduced.value} != pinned {value}"
        verdict = tg.verify_certificate(g, reduced.witness)
        if not verdict or reduced.witness.ratio != reduced.value:
            return "reduction certificate rejected"
        return _check_upper(g, value, cert)

    return Item(
        label,
        g,
        run=run,
        check=check,
        key=lambda out: f"{out[0].ratio} {out[0].cut:x} {out[1].value} {out[1].witness.cut:x}",
        gap=lambda out: _gap(out[0].ratio, value),
    )


def chain_item(label: str, fam, t: tg.Ratio) -> Item:
    g = fam.graph
    return Item(
        label,
        g,
        run=lambda: tg.toughness_upper_search(g, UPPER_BUDGET, seed=UPPER_SEED),
        check=lambda cert: _check_upper(g, t, cert),
        key=lambda cert: f"{cert.ratio} {cert.cut:x}",
        gap=lambda cert: _gap(cert.ratio, t),
    )


def build_beyond_limit(seed: int) -> list[Item]:
    rng = random.Random(seed)
    chains = []
    for m in CHAIN_ORDERS:
        fam = tg.gen_planar_chain(m)
        chains.append(chain_item(f"chain/{m}", fam, fam.expected.toughness))
    shapes: dict[str, list[list[str]]] = {}
    for row in read_pool("beyond_limit.txt"):
        shapes.setdefault(row[1], []).append(row)
    strata = []
    for shape in sorted(shapes):
        s = int(shape.partition("x")[2])
        strata.append(
            [
                beyond_blowup_item(
                    f"blowup-{shape}/{g6}",
                    tg.SolidSpec.uniform(tg.parse_graph6(g6), s),
                    parse_fraction(value),
                )
                for g6, _, value in rng.sample(shapes[shape], BEYOND_BLOCKS)
            ]
        )
    return interleave(rng, [*strata, repeated(rng, chains, BEYOND_BLOCKS)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-random",
            build_exact_random,
            trace_items=44,
            tail_pct=85,
        ),
        Workload(
            "exact-structured",
            build_structured,
            trace_items=65,
            tail_pct=90,
        ),
        Workload(
            "search-stream",
            build_search_stream,
            trace_items=1040,
            tail_pct=99,
        ),
        Workload(
            "beyond-limit",
            build_beyond_limit,
            trace_items=24,
            tail_pct=80,
        ),
    )
}
