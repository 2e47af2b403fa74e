"""Command-line interface.

Subcommands: toughness, gen, minimal, certify, search, orbits.  All output on
stdout is byte-deterministic given (input, flags, seed, threads); timing and
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure or
user error, 2 inconclusive.  A user error (bad input, a file that cannot be
read or written, an input past a configured limit) prints one ``error:`` line
on stderr, nothing on stdout.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from .families import GENERATORS, LabeledFamily
from .graph import Graph, delete_edge
from .graph6 import graph6_lines, parse_graph6, write_graph6
from .invariants import edge_orbits
from .search import SearchOptions, filter_counterexamples
from .toughness import (
    DEFAULT_CONFIG,
    CutCertificate,
    EngineConfig,
    LimitExceeded,
    is_minimally_tough,
    parse_certificate,
    toughness_exact,
    toughness_upper_search,
    usable_cpus,
    verify_certificate,
    write_certificate,
)

# deterministic substitute for wall-clock budgets: annealing moves per nominal
# second of --budget-secs
STEPS_PER_BUDGET_SECOND = 25_000


def _at_least(low: int):
    """An argparse type: an int of at least ``low``.  A value below it exits 2
    with a message that names the flag, as argparse does for a non-integer."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=_at_least(1), default=None, help="worker count")
    parser.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed, help="random seed")
    parser.add_argument(
        "--exhaustive-limit", type=_at_least(0), default=DEFAULT_CONFIG.exhaustive_limit
    )


def _config(args) -> EngineConfig:
    threads = args.threads if args.threads is not None else usable_cpus()
    return EngineConfig(
        exhaustive_limit=args.exhaustive_limit,
        workers=threads,
        seed=args.seed,
    )


def _load_graph(args) -> Graph:
    if args.g6:
        return parse_graph6(args.g6)
    if not args.file:
        raise ValueError("one of --g6 or --file is required")
    with open(args.file) as stream:
        for _, text in graph6_lines(stream):
            return parse_graph6(text)
    raise ValueError(f"no graph6 line found in {args.file}")


def _cmd_toughness(args) -> int:
    cfg = _config(args)
    g = _load_graph(args)
    if args.upper:
        steps = args.budget_secs * STEPS_PER_BUDGET_SECOND
        cert = toughness_upper_search(g, steps, seed=cfg.seed)
        line = f"t <= {cert.ratio}"
    else:
        result = toughness_exact(g, cfg)
        cert, line = result.witness, f"t = {result.value}"
    if args.cert and cert is not None:
        Path(args.cert).write_text(write_certificate(g, cert))
    print(line)
    return 0


def _write_family_files(fam: LabeledFamily, args) -> None:
    if args.certs:
        outdir = Path(args.certs)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "base.cert").write_text(
            write_certificate(fam.graph, fam.base_certificate)
        )
        for (u, v), cert in sorted(fam.edge_certificates.items()):
            (outdir / f"edge-{u}-{v}.cert").write_text(
                write_certificate(delete_edge(fam.graph, (u, v)), cert)
            )
    if args.rotation:
        if fam.rotation is None:
            raise ValueError(f"family {fam.tag} has no rotation system")
        Path(args.rotation).write_text(fam.rotation.to_text())
    if args.labels:
        Path(args.labels).write_text(fam.label_map_text())


def _cmd_gen(args) -> int:
    # a family takes its generator's parameters as flags, all required except
    # the --regularized switch, which is never None, and no other family's
    taken = {f: inspect.signature(gen).parameters for f, gen in GENERATORS.items()}
    params = {k: getattr(args, k) for k in taken[args.family]}
    missing = [f"--{k}" for k, value in params.items() if value is None]
    if missing:
        raise ValueError(f"{args.family} needs {' and '.join(missing)}")
    for k in sorted({k for ks in taken.values() for k in ks} - params.keys()):
        value = getattr(args, k)  # unset: None, or False for the switch
        if value is not None and value is not False:
            raise ValueError(f"{args.family} takes no --{k}")
    fam = GENERATORS[args.family](**params)
    _write_family_files(fam, args)
    print(write_graph6(fam.graph))
    return 0


def _load_hints(g: Graph, hints_dir: str) -> dict[tuple[int, int], CutCertificate]:
    """The certificates of a directory's edge-<u>-<v>.cert files.  Each must
    name an edge e of g and hold a certificate of g - e that verifies."""
    if not Path(hints_dir).is_dir():
        raise ValueError(f"--hints {hints_dir} is not a directory")
    hints: dict[tuple[int, int], CutCertificate] = {}
    for path in sorted(Path(hints_dir).glob("edge-*.cert")):
        try:
            named = re.fullmatch(r"edge-([0-9]+)-([0-9]+)", path.stem)
            if named is None:
                raise ValueError("name is not edge-<u>-<v>.cert")
            u, v = sorted(map(int, named.groups()))
            minus_edge = delete_edge(g, (u, v))  # raises unless uv is an edge
            ge, cert = parse_certificate(path.read_text())
            if ge != minus_edge:
                raise ValueError(f"its graph is not the graph minus edge {u}-{v}")
            check = verify_certificate(ge, cert)
            if not check:
                raise ValueError(check.reason)
        except ValueError as exc:
            raise ValueError(f"hint {path}: {exc}") from None
        hints[(u, v)] = cert
    return hints


def _cmd_minimal(args) -> int:
    cfg = _config(args)
    g = _load_graph(args)
    if args.heuristic_only:
        cfg = replace(cfg, allow_exhaustive_edges=False)
    hints = _load_hints(g, args.hints) if args.hints else None
    report = is_minimally_tough(g, cfg, hints=hints)
    verdict = {True: "true", False: "false", None: "inconclusive"}[report.verdict]
    print(f"minimally tough: {verdict}, t = {report.toughness}")
    for w in report.entries:
        u, v = w.edge
        if w.certificate is not None:
            c = w.certificate
            print(
                f"edge {u}-{v}: |S|={c.cut.bit_count()} omega={c.omega} "
                f"ratio={c.ratio} source={w.source}"
            )
        else:
            status = "no certificate below t" if w.source == "exhaustive" else "unresolved"
            print(f"edge {u}-{v}: {status}")
    return 2 if report.verdict is None else 0


def _cmd_certify(args) -> int:
    try:
        g, cert = parse_certificate(Path(args.cert).read_text())
    except (ValueError, OSError) as exc:
        print(f"FAIL {exc}")
        return 1
    result = verify_certificate(g, cert)
    if result:
        print(f"OK {cert.cut.bit_count()}/{cert.omega} = {cert.ratio}")
        return 0
    print(f"FAIL {result.reason}")
    return 1


def _cmd_search(args) -> int:
    cfg = _config(args)
    options = SearchOptions(
        non_regular_only=args.non_regular_only,
        min_n=args.min_n,
        max_n=args.max_n,
        min_delta=args.min_delta,
        workers=cfg.workers,
        config=cfg,
    )
    started = time.monotonic()
    with open(args.input) as stream:
        report = filter_counterexamples(stream, options)
    wall_time = time.monotonic() - started
    for entry in report.flagged:
        print(entry.report_line())
    for lineno, msg in report.parse_errors:
        print(f"parse error at line {lineno}: {msg}", file=sys.stderr)
    print(report.summary_line())
    print(f"wall time: {wall_time:.2f}s", file=sys.stderr)
    return 0


def _cmd_orbits(args) -> int:
    orbits = edge_orbits(_load_graph(args))
    print(f"{len(orbits)} edge orbits")
    for k, orbit in enumerate(orbits):
        members = " ".join(f"{u}-{v}" for u, v in orbit)
        print(f"orbit {k}: {members}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toughgraphs",
        description="Exact graph toughness, cut certificates, construction "
        "generators, and counterexample stream search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toughness", help="compute toughness of one graph")
    p.add_argument("--g6", help="graph6 literal")
    p.add_argument("--file", help="file containing a graph6 line")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--upper", action="store_true")
    p.add_argument("--cert", help="write the witness certificate here")
    p.add_argument(
        "--budget-secs", type=_at_least(1), default=60,
        help="annealing budget of --upper; converted to a deterministic step count",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_toughness)

    p = sub.add_parser("gen", help="generate a built-in family")
    p.add_argument("family", choices=list(GENERATORS))
    p.add_argument("--m", type=int, help="block count / rung count")
    p.add_argument("--n", type=int, help="clique order")
    p.add_argument("--regularized", action="store_true")
    p.add_argument("--certs", help="directory for base + per-edge certificates")
    p.add_argument("--rotation", help="write the rotation system here")
    p.add_argument("--labels", help="write the label map here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("minimal", help="verify minimal toughness")
    p.add_argument("--g6")
    p.add_argument("--file")
    p.add_argument("--hints", help="directory of edge-<u>-<v>.cert hint files")
    p.add_argument(
        "--heuristic-only",
        action="store_true",
        help="never fall back to exhaustive per-edge scans; unresolved edges "
        "make the verdict inconclusive (exit 2)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("certify", help="check a cert v1 file")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="filter a graph6 stream for counterexamples")
    p.add_argument("--input", required=True)
    p.add_argument("--non-regular-only", action="store_true")
    p.add_argument("--min-n", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--min-delta", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("orbits", help="edge orbits under the automorphism group")
    p.add_argument("--g6")
    p.add_argument("--file")
    p.set_defaults(func=_cmd_orbits)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (``| head``): quiet now and at shutdown's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, LimitExceeded) as exc:
        # user errors only: any other exception is a defect and keeps its
        # traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
