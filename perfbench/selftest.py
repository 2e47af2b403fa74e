"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that both modes emit exactly the metrics BENCHMARK.json names, that
two traced runs give the same call counts, that the correctness gate trips
on a tampered certificate or reference value, that a pass whose items start
child processes fails, and that the benchmark exits non-zero without a
result where the package sources are missing. Faults are
injected into the test's own inputs and outputs, never into the package.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import run

run.load_package()

import toughgraphs as tg  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        problems.append(what)


def trips(item, output) -> bool:
    """The gate reports a failure for this output."""
    return len(run.check_outputs([item], [output])) == 1


def test_metrics_emitted() -> None:
    expect([w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS), "BENCHMARK.json names every workload")
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name in (w["name"] for w in SPEC["workloads"]):
        _, result = run.measure(name, seed=1, seconds=0.2, probes=1)
        expect(set(result["metrics"]) == end_to_end, f"{name}: untraced run emits the end-to-end metrics")
        expect(result["correct"] and result["attempted"] >= 1, f"{name}: untraced outputs pass the gate")
        _, first, calls = run.trace(name, seed=1, count=3)
        _, _, again = run.trace(name, seed=1, count=3)
        expect(set(first["metrics"]) == per_layer, f"{name}: traced run emits the per-layer metrics")
        expect(first["correct"], f"{name}: traced outputs pass the gate")
        expect(calls == again and sum(calls.values()) > 0, f"{name}: traced call counts repeat")


def test_gate_exact() -> None:
    item = W.build_exact_random(1)[0]
    res = item.run()
    expect(not trips(item, res), "exact: true output passes")
    cert = res.witness
    expect(trips(item, replace(res, witness=replace(cert, cut=cert.cut ^ 1))), "exact: tampered certificate trips")
    value = res.value
    wrong = W.exact_item("tampered", item.graph, tg.Ratio(value.p + value.q, value.q), cert.cut)
    expect(trips(wrong, wrong.run()), "exact: tampered reference value trips")
    expect(trips(item, RuntimeError("boom")), "exact: an exception counts as a failure")


def test_gate_minimality() -> None:
    fam = tg.gen_knp2_minus_matching(7, 5)
    item = W.family_item("family", fam, fam.expected.toughness)
    rep = item.run()
    expect(not trips(item, rep), "minimality: true output passes")
    first = rep.entries[0]
    bad = replace(first, certificate=replace(first.certificate, omega=first.certificate.omega + 1))
    expect(trips(item, replace(rep, entries=[bad, *rep.entries[1:]])), "minimality: tampered edge certificate trips")
    wrong = W.family_item("tampered", fam, tg.Ratio(3))
    expect(trips(wrong, wrong.run()), "minimality: tampered family value trips")


def test_gate_search() -> None:
    hit_line = W.known_hit(random.Random(1))
    item = W.search_item("hit", hit_line, W.HIT_TOUGHNESS, True)
    rep = item.run()
    expect(not trips(item, rep), "search: spliced hit is flagged")
    unexpected = W.search_item("tampered", hit_line, None, True)
    expect(trips(unexpected, rep), "search: a hit the stream does not expect trips")
    wrong = W.search_item("tampered", hit_line, tg.Ratio(3, 2), True)
    expect(trips(wrong, rep), "search: hit with a tampered toughness trips")


def test_gate_upper() -> None:
    fam = tg.gen_planar_chain(6)
    item = W.chain_item("chain", fam, fam.expected.toughness)
    cert = item.run()
    expect(not trips(item, cert), "upper: true output passes")
    expect(trips(item, replace(cert, omega=cert.omega + 1)), "upper: tampered certificate trips")
    above = W.chain_item("tampered", fam, tg.Ratio(cert.ratio.p + cert.ratio.q, cert.ratio.q))
    expect(trips(above, cert), "upper: bound below a tampered reference trips")


def test_gate_reduction() -> None:
    item = next(it for it in W.build_beyond_limit(1) if it.label.startswith("blowup"))
    cert, reduced = item.run()
    expect(not trips(item, (cert, reduced)), "reduction: true output passes")
    above = replace(reduced, value=tg.Ratio(reduced.value.p + reduced.value.q, reduced.value.q))
    expect(trips(item, (cert, above)), "reduction: a value above the pinned one trips")


def test_gate_children() -> None:
    spawn = W.Item(
        "spawn",
        tg.cycle(5),
        run=lambda: subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True),
        check=lambda out: "",
        key=repr,
    )
    *_, child_cpu = run.timed_pass([spawn])
    expect(child_cpu > 0 and len(run.child_failures(child_cpu)) == 1, "children: CPU spent in a child fails the pass")
    *_, none = run.timed_pass(W.build_exact_random(1)[:1])
    expect(not run.child_failures(none), "children: an in-process pass has no child CPU")


def test_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(), "bare directory: exits non-zero, prints no result")


if __name__ == "__main__":
    test_gate_exact()
    test_gate_minimality()
    test_gate_search()
    test_gate_upper()
    test_gate_reduction()
    test_gate_children()
    test_bare_directory()
    test_metrics_emitted()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
