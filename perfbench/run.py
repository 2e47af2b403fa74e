"""toughgraphs benchmark: one process, one closed-loop client, workers=1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client starts each item only after the previous one returns; there is
no arrival rate, so nothing queues. Run from a checkout that holds ``src/``:
the package is imported from there and nowhere else.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds with
tracing off. Their times are CPU seconds of this process scaled to a
reference speed: the machine this benchmark was written on shares its cores
with other tenants, and the same item's CPU time there drifts by 15-25%
within seconds. A fixed probe (``reference_seconds``) runs between windows
of about ``WINDOW_S`` of work, and each item's CPU time is multiplied by
``PROBE_NOMINAL_S`` over the mean probe time around its window. Raw CPU and
wall times are printed alongside.

``--trace 1`` builds the corpus under the tracer, runs the workload's fixed
prefix twice, untraced then traced, and reports the per-layer metrics, with
the tracing overhead as the difference of the two passes' times, each taken
at the reference speed as above.

Both modes check every output, print a report, and end with one JSON line.
A run also fails when child processes spend CPU time while items run: every
figure is of this one process, so work sent elsewhere would read as a gain.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

END_TO_END = {
    "throughput": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 11
WINDOW_S = 0.25
# median probe time on the 2-core Xeon VM the benchmark was written on
PROBE_NOMINAL_S = 0.0038

# the probe's graph: a 24-vertex circulant C_24(1, 5) as bitmask rows
_PROBE_N = 24
_PROBE_ADJ = tuple(
    (1 << ((v + 1) % _PROBE_N)) | (1 << ((v - 1) % _PROBE_N))
    | (1 << ((v + 5) % _PROBE_N)) | (1 << ((v - 5) % _PROBE_N))
    for v in range(_PROBE_N)
)


def load_package() -> None:
    """Put the checkout's src/ first on the path and import toughgraphs from
    it; exit with an error when the sources are missing."""
    # cache bytecode under .perfbench/, out of the benchmark and package
    # directories, even where the environment turns caching off: set-up
    # times then measure imports and corpus builds, not compilation
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False
    src = ROOT / "src"
    if not (src / "toughgraphs" / "__init__.py").is_file():
        sys.exit(f"benchmark: no toughgraphs sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import toughgraphs

    if Path(toughgraphs.__file__).resolve().parent != (src / "toughgraphs").resolve():
        sys.exit(f"benchmark: toughgraphs imported from {toughgraphs.__file__}, not {src}")


def reference_seconds() -> float:
    """CPU seconds of a fixed computation in the engine's idiom (bitmask
    component counts over 1000 vertex subsets), with the collector off."""
    full = (1 << _PROBE_N) - 1
    adj = _PROBE_ADJ
    gc.disable()
    try:
        start = time.process_time()
        for s in range(1, 1001):
            alive = full & ~((s * 0x9E3779B1) >> 5 & full)
            while alive:
                comp = alive & -alive
                frontier = comp
                while frontier:
                    nxt = 0
                    f = frontier
                    while f:
                        b = f & -f
                        nxt |= adj[b.bit_length() - 1]
                        f ^= b
                    frontier = nxt & alive & ~comp
                    comp |= frontier
                alive &= ~comp
        return time.process_time() - start
    finally:
        gc.enable()


def to_reference(cpu_seconds: float, before: float, after: float) -> float:
    """CPU seconds scaled by the probe times measured around them."""
    return cpu_seconds * PROBE_NOMINAL_S / ((before + after) / 2)


def setup_probe(workload: str, seed: int) -> float:
    """Reference-speed seconds to import the package and build the
    workload's inputs."""
    before = reference_seconds()
    start = time.process_time()
    load_package()
    import workloads

    workloads.WORKLOADS[workload].build(seed)
    spent = time.process_time() - start
    return to_reference(spent, before, reference_seconds())


def setup_seconds(workload: str, seed: int, probes: int) -> float:
    """Median of ``probes`` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def call(item):
    """Run one item; an exception is the item's output and fails its check."""
    try:
        return item.run()
    except Exception as exc:  # noqa: BLE001 - the loop must go on and count it
        return exc


def children_cpu() -> float:
    """CPU seconds of this process's children that have ended."""
    times = os.times()
    return times.children_user + times.children_system


def timed_pass(items, seconds: float | None = None, tracer=None):
    """Run items back to back with a speed probe between windows of about
    ``WINDOW_S``: each item once when ``seconds`` is None, otherwise cycling
    the corpus until ``seconds`` of wall time pass. Returns (per-item
    reference-speed seconds, outputs, raw CPU seconds of the items, wall
    seconds of the pass, CPU seconds of children that ended during it)."""
    wall, cpu = time.perf_counter, time.process_time
    latencies, outputs = [], []
    raw = 0.0
    count = len(items) if seconds is None else math.inf
    children = children_cpu()
    start = wall()
    deadline = start + (math.inf if seconds is None else seconds)
    before = reference_seconds()
    while len(outputs) < count and wall() < deadline:
        window_end = min(wall() + WINDOW_S, deadline)
        window = []
        while len(outputs) < count and (not window or wall() < window_end):
            index = len(outputs) % len(items)
            if tracer is not None:
                tracer.item = index
            begin = cpu()
            outputs.append(call(items[index]))
            window.append(cpu() - begin)
        after = reference_seconds()
        latencies.extend(to_reference(t, before, after) for t in window)
        raw += sum(window)
        before = after
    return latencies, outputs, raw, wall() - start, children_cpu() - children


def child_failures(child_cpu: float) -> list[str]:
    """A failure line when child processes spent CPU time during a pass."""
    if child_cpu > 0:
        return [f"child processes spent {child_cpu:.3f} s CPU while items ran"]
    return []


def check_outputs(items, outputs) -> list[str]:
    """Failure lines for outputs that raised or fail their item's check;
    output i belongs to item i modulo the corpus size."""
    failures = []
    for i, out in enumerate(outputs):
        item = items[i % len(items)]
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = item.check(out)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{item.label}: {reason}")
    return failures


def digest(items, outputs, count: int) -> str:
    """Hash of the first ``count`` outputs' values and witness masks, for a
    byte-for-byte comparison of two commits."""
    h = hashlib.sha256()
    for item, out in zip(items[:count], outputs[:count]):
        text = repr(out) if isinstance(out, Exception) else item.key(out)
        h.update(f"{item.label} {text}\n".encode())
    return h.hexdigest()[:16]


def properties(items) -> dict:
    """Input properties of the corpus, for claims that depend on them."""
    from workloads import has_twins

    orders = [it.graph.n for it in items]
    return {
        "items": len(items),
        "n_range": [min(orders), max(orders)],
        "twin_share": sum(has_twins(it.graph) for it in items) / len(items),
        "minimality_share": sum(it.reaches_minimality for it in items) / len(items),
    }


def mean_gap(items, outputs) -> float:
    """Mean certified bound / reference - 1 over the upper-bound outputs."""
    gaps = []
    for i, out in enumerate(outputs):
        item = items[i % len(items)]
        if item.gap is not None and not isinstance(out, Exception):
            gaps.append(item.gap(out))
    return sum(gaps) / len(gaps) if gaps else 0.0


def measure(workload: str, seed: int, seconds: float, probes: int = SETUP_PROBES):
    """The untraced run. Returns (report lines, result object)."""
    setup_s = setup_seconds(workload, seed, probes)
    load_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    items = wl.build(seed)
    latencies, outputs, raw, wall, child_cpu = timed_pass(items, seconds)
    busy = sum(latencies)
    item_failures = check_outputs(items, outputs)
    failures = item_failures + child_failures(child_cpu)
    done = len(outputs)
    tail = percentile(latencies, wl.tail_pct)
    beyond = sum(1 for x in latencies if x > tail)
    metrics = {
        "throughput": (done - len(item_failures)) / busy,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    prefix = min(done, wl.trace_items, len(items))
    lines = [
        f"workload {workload} seed {seed} untraced, {done} items: {busy:.3f} s at "
        f"reference speed, {raw:.3f} s CPU, {wall:.3f} s wall",
        *(f"{name} {value!r} {END_TO_END[name]}" for name, value in metrics.items()),
        f"latency_tail_s is p{wl.tail_pct} of {done} items, {beyond} beyond it",
        f"failed_frac {len(item_failures) / done!r} ({len(item_failures)}/{done})",
        f"upper_gap {mean_gap(items, outputs)!r} ratio",
        "properties " + json.dumps(properties(items)),
        f"digest {digest(items, outputs, prefix)} over the first {prefix} items",
        *(f"FAILED {line}" for line in failures[:20]),
    ]
    result = {
        "correct": not failures,
        "attempted": done,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()},
    }
    return lines, result


def trace(workload: str, seed: int, count: int | None = None):
    """The traced run over the workload's fixed prefix. Returns (report
    lines, result object, per-function call counts)."""
    load_package()
    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    count = count or wl.trace_items
    tracer = Tracer()
    tracer.install()
    try:
        items = wl.build(seed)[:count]
    finally:
        tracer.uninstall()
    plain_lat, plain_out, plain_cpu, plain_wall, plain_children = timed_pass(items)
    tracer.install()
    try:
        traced_lat, traced_out, traced_cpu, traced_wall, traced_children = timed_pass(items, tracer=tracer)
    finally:
        tracer.uninstall()

    failures = (
        check_outputs(items, plain_out)
        + check_outputs(items, traced_out)
        + child_failures(plain_children + traced_children)
    )
    plain_digest = digest(items, plain_out, count)
    traced_digest = digest(items, traced_out, count)
    if plain_digest != traced_digest:
        failures.append(f"traced digest {traced_digest} != untraced {plain_digest}")
    values = tracer.metrics()
    values["upper_gap"] = mean_gap(items, traced_out)
    values["trace.overhead_s"] = sum(traced_lat) - sum(plain_lat)
    units = dict(per_layer_metrics())
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-{seed}.tsv"
    tracer.write(spans_file)
    attempted = 2 * count
    lines = [
        f"workload {workload} seed {seed} traced, {count} items at reference speed: "
        f"untraced {sum(plain_lat):.3f} s ({plain_cpu:.3f} s CPU, {plain_wall:.3f} s wall), "
        f"traced {sum(traced_lat):.3f} s ({traced_cpu:.3f} s CPU, {traced_wall:.3f} s wall)",
        *(f"{name} {values[name]!r} {unit}" for name, unit in units.items()),
        f"failed_frac {len(failures) / attempted!r} ({len(failures)}/{attempted})",
        "properties " + json.dumps(properties(items)),
        f"digest {traced_digest} over the first {count} items",
        f"spans {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}",
        *(f"FAILED {line}" for line in failures[:20]),
    ]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    calls = {k: v for k, v in values.items() if k.endswith(".calls")}
    return lines, result, calls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.trace:
        lines, result, _ = trace(args.workload, args.seed)
    else:
        lines, result = measure(args.workload, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
