"""Write the pinned input pools in perfbench/data/.

    python3 perfbench/make_pools.py

The pools hold the random graphs, blow-ups and structured graphs the
workloads sample from, with the reference values the correctness gate
compares against. They were
written once, by the package at the commit that introduced the benchmark,
and are committed; rerunning this script at that commit reproduces them byte
for byte. Search-pool and blow-up toughness values are cross-checked here
against independent brute forces that share no code with the package.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations

from run import load_package

load_package()

import toughgraphs as tg  # noqa: E402
from workloads import DATA, LOW_WIDTH, has_twins  # noqa: E402

EXACT_RANDOM_ORDER = 17
EXACT_RANDOM_BANDS = {"p45-55": (0.45, 0.55), "p55-65": (0.55, 0.65)}
EXACT_RANDOM_PER_BAND = 120

SEARCH_ORDERS = (8, 9, 10)
SEARCH_SCREENED_PER_ORDER = 700
SEARCH_MINIMAL_PER_ORDER = 60

# fewer than the blow-ups an exact-structured run completes, so every run
# times the whole pool
BLOWUP_POOL = 60
BLOWUP_ORDER = 19

# beyond-limit blow-ups as (base order, multiplicity): 42, 45 and 32
# vertices, all past the exhaustive limit; each shape costs a narrow band of
# time, which keeps runs comparable
BLOWUP_SHAPES = ((14, 3), (15, 3), (16, 2))
BEYOND_PER_SHAPE = 40


def random_connected_graph(rng: random.Random, n: int, p: float, min_degree: int = 1) -> tg.Graph:
    """G(n, p) redrawn until it is connected, non-complete and has the given
    minimum degree."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = tg.build_graph(n, edges)
        if (
            tg.is_connected(g)
            and not g.is_complete()
            and min(a.bit_count() for a in g.adj) >= min_degree
        ):
            return g


def random_blowup(rng: random.Random) -> tg.SolidSpec:
    """A random base of 7-10 vertices with multiplicities 1-3 adding up to
    BLOWUP_ORDER."""
    while True:
        k = rng.randint(7, 10)
        mult = [rng.randint(1, 3) for _ in range(k)]
        if sum(mult) == BLOWUP_ORDER:
            break
    base = random_connected_graph(rng, k, rng.uniform(0.45, 0.7), min_degree=2)
    return tg.SolidSpec(base, tuple(mult))


def brute_toughness(g: tg.Graph) -> Fraction:
    """min |S| / omega(G - S) over every S with omega >= 2, by plain search."""
    nbrs = [{u for u in range(g.n) if g.adj[v] >> u & 1} for v in range(g.n)]
    best = None
    for k in range(g.n - 1):
        for removed in combinations(range(g.n), k):
            gone = set(removed)
            seen: set[int] = set()
            comps = 0
            for start in range(g.n):
                if start in gone or start in seen:
                    continue
                comps += 1
                stack = [start]
                seen.add(start)
                while stack:
                    for u in nbrs[stack.pop()] - gone - seen:
                        seen.add(u)
                        stack.append(u)
            if comps >= 2 and (best is None or Fraction(k, comps) < best):
                best = Fraction(k, comps)
    return best


def brute_blowup_toughness(spec: tg.SolidSpec) -> Fraction:
    """Toughness of a blow-up, by plain search over cuts that take every copy
    of a base vertex or none: a remaining base component of two or more
    vertices stays one component, an isolated base vertex v leaves as many
    as v has copies."""
    base, mult = spec.base, spec.multiplicity
    nbrs = [{u for u in range(base.n) if base.adj[v] >> u & 1} for v in range(base.n)]
    best = None
    for k in range(base.n):
        for removed in combinations(range(base.n), k):
            gone = set(removed)
            seen: set[int] = set()
            comps = 0
            for start in range(base.n):
                if start in gone or start in seen:
                    continue
                size = 0
                stack = [start]
                seen.add(start)
                while stack:
                    size += 1
                    for u in nbrs[stack.pop()] - gone - seen:
                        seen.add(u)
                        stack.append(u)
                comps += 1 if size > 1 else mult[start]
            cut = sum(mult[v] for v in removed)
            if comps >= 2 and (best is None or Fraction(cut, comps) < best):
                best = Fraction(cut, comps)
    return best


def exact_random_pool() -> list[str]:
    rng = random.Random(17_2505)
    lines = [f"# graph6 band toughness witness-mask(hex); n={EXACT_RANDOM_ORDER}, twin-free"]
    for band, (lo, hi) in EXACT_RANDOM_BANDS.items():
        made = 0
        while made < EXACT_RANDOM_PER_BAND:
            g = random_connected_graph(rng, EXACT_RANDOM_ORDER, rng.uniform(lo, hi))
            if has_twins(g):
                continue
            res = tg.toughness_exact(g)
            lines.append(f"{tg.write_graph6(g)} {band} {res.value} {res.witness.cut:x}")
            made += 1
    return lines


def search_pool() -> list[str]:
    rng = random.Random(10_2505)
    lines = ["# graph6 n toughness min-degree class(screened|minimal|hit)"]
    for n in SEARCH_ORDERS:
        quota = {"screened": SEARCH_SCREENED_PER_ORDER, "minimal": SEARCH_MINIMAL_PER_ORDER}
        while quota["screened"] or quota["minimal"]:
            g = random_connected_graph(rng, n, rng.uniform(0.35, 0.85))
            rep = tg.degree_excess_filter(g)
            cls = {
                "degree within ceiling": "screened",
                "not minimally tough": "minimal",
                "": "hit",
            }[rep.reason]
            if cls != "hit":
                if not quota[cls]:
                    continue
                quota[cls] -= 1
            t = rep.toughness
            if brute_toughness(g) != Fraction(t.p, t.q):
                sys.exit(f"pinned toughness of {tg.write_graph6(g)} disagrees with brute force")
            lines.append(f"{tg.write_graph6(g)} {n} {t} {rep.delta} {cls}")
    return lines


def beyond_limit_pool() -> list[str]:
    rng = random.Random(45_2505)
    lines = ["# base-graph6 shape(order x multiplicity) toughness of the blow-up"]
    for k, s in BLOWUP_SHAPES:
        for _ in range(BEYOND_PER_SHAPE):
            base = random_connected_graph(rng, k, rng.uniform(0.35, 0.6))
            lines.append(f"{tg.write_graph6(base)} {k}x{s} {blowup_toughness(tg.SolidSpec.uniform(base, s))}")
    return lines


def blowup_toughness(spec: tg.SolidSpec) -> tg.Ratio:
    """``solid_reduced_toughness`` of the blow-up, checked by brute force."""
    value = tg.solid_reduced_toughness(spec).value
    if brute_blowup_toughness(spec) != Fraction(value.p, value.q):
        sys.exit(f"reduced toughness of {tg.write_graph6(spec.base)} {spec.multiplicity} disagrees with brute force")
    return value


def blowups_pool() -> list[str]:
    rng = random.Random(19_2505)
    lines = [f"# base-graph6 multiplicities toughness of the blow-up; n={BLOWUP_ORDER}"]
    for _ in range(BLOWUP_POOL):
        spec = random_blowup(rng)
        mult = ",".join(map(str, spec.multiplicity))
        lines.append(f"{tg.write_graph6(spec.base)} {mult} {blowup_toughness(spec)}")
    return lines


def structured_pool() -> list[str]:
    lines = ["# name toughness witness-mask(hex)"]
    for name, make in LOW_WIDTH:
        res = tg.toughness_exact(make())
        lines.append(f"{name} {res.value} {res.witness.cut:x}")
    return lines


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for name, make in (
        ("structured.txt", structured_pool),
        ("search_stream.txt", search_pool),
        ("exact_random.txt", exact_random_pool),
        ("beyond_limit.txt", beyond_limit_pool),
        ("blowups.txt", blowups_pool),
    ):
        (DATA / name).write_text("\n".join(make()) + "\n", encoding="ascii")
        print(f"wrote {DATA / name}", flush=True)


if __name__ == "__main__":
    main()
