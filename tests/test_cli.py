from pathlib import Path

import pytest

import toughgraphs.cli as cli
import toughgraphs.families as families
import toughgraphs.invariants as invariants
import toughgraphs.toughness as toughness
from toughgraphs.cli import main
from toughgraphs.families import FamilyError
from toughgraphs.graph6 import parse_graph6, write_graph6
from toughgraphs.graph import Graph, build_graph, degree_profile, delete_edge
from toughgraphs.operators import SolidSpec, cartesian_product, complete, cycle, path, solid_expand
from toughgraphs.toughness import CutCertificate, VerifyResult, write_certificate


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_user_error(capsys, argv) -> str:
    """Exit code 1, one ``error:`` line on stderr and nothing on stdout;
    returns that line."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    return captured.err


def test_toughness_exact_cycle(capsys):
    code, out = run(capsys, "toughness", "--g6", "Dhc", "--exact")
    assert code == 0 and out == "t = 1/1\n"


def test_toughness_exact_complete(capsys):
    code, out = run(capsys, "toughness", "--g6", "D~{", "--exact")
    assert code == 0 and out == "t = inf\n"


def test_toughness_disconnected_prints_zero_ratio(capsys):
    g6 = write_graph6(build_graph(4, [(0, 1), (2, 3)]))
    code, out = run(capsys, "toughness", "--g6", g6, "--exact")
    assert code == 0 and out == "t = 0/1\n"


def test_toughness_from_file(capsys, tmp_path):
    g, _ = cartesian_product(complete(5), path(3))
    f = tmp_path / "k5p3.g6"
    f.write_text(write_graph6(g) + "\n")
    code, out = run(capsys, "toughness", "--file", str(f), "--exact")
    assert code == 0 and out == "t = 2/1\n"


def test_toughness_parse_error_exit_code(capsys):
    code, _ = run(capsys, "toughness", "--g6", "!!bad", "--exact")
    assert code == 1


def test_toughness_limit_exit_code(capsys):
    code, _ = run(capsys, "toughness", "--g6", write_graph6(cycle(30)), "--exact")
    assert code == 1


def test_toughness_upper_with_certificate(capsys, tmp_path):
    cert_path = tmp_path / "c5.cert"
    code, out = run(
        capsys,
        "toughness", "--g6", "Dhc", "--upper", "--cert", str(cert_path),
        "--budget-secs", "1",
    )
    assert code == 0 and out == "t <= 1/1\n"
    code, out = run(capsys, "certify", "--cert", str(cert_path))
    assert code == 0 and out.startswith("OK ")


def test_gen_square(capsys):
    code, out = run(capsys, "gen", "square-lsk4")
    g = parse_graph6(out.strip())
    assert code == 0 and g.n == 12 and degree_profile(g)[:3] == (7, 7, True)


def test_gen_knp3_regularized(capsys):
    code, out = run(capsys, "gen", "knp3", "--n", "5", "--regularized")
    g = parse_graph6(out.strip())
    assert code == 0 and g.n == 14 and degree_profile(g)[:3] == (5, 5, True)


def test_gen_parameter_error(capsys):
    code, _ = run(capsys, "gen", "planar-chain", "--m", "5")
    assert code == 1
    code, _ = run(capsys, "gen", "knp2-minus-matching", "--n", "7", "--m", "4")
    assert code == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("square-lsk4", "--m", "9"), "m"),
        (("square-lsk4", "--m", "0"), "m"),
        (("knp3", "--n", "5", "--m", "2"), "m"),
        (("planar-chain", "--m", "4", "--n", "7", "--regularized"), "n"),
        (("knp2-minus-matching", "--n", "7", "--m", "5", "--regularized"), "regularized"),
    ],
    ids=["square-m", "square-m-zero", "knp3-m", "chain-n", "knp2-regularized"],
)
def test_gen_rejects_parameters_its_family_does_not_take(capsys, argv, flag):
    err = assert_user_error(capsys, ("gen",) + argv)
    assert err == f"error: {argv[0]} takes no --{flag}\n"


def test_gen_chain_writes_everything_and_certify_round_trip(capsys, tmp_path):
    certs = tmp_path / "certs"
    code, out = run(
        capsys,
        "gen", "planar-chain", "--m", "4",
        "--certs", str(certs),
        "--rotation", str(tmp_path / "rot.txt"),
        "--labels", str(tmp_path / "labels.txt"),
    )
    assert code == 0
    assert parse_graph6(out.strip()).n == 24
    files = sorted(certs.iterdir())
    assert len(files) == 49
    base = certs / "base.cert"
    code, out = run(capsys, "certify", "--cert", str(base))
    assert code == 0 and out == "OK 12/8 = 3/2\n"
    # closed loop: every emitted certificate is accepted
    for f in files:
        code, out = run(capsys, "certify", "--cert", str(f))
        assert code == 0, f
    labels = (tmp_path / "labels.txt").read_text()
    assert labels.splitlines()[0] == "v_{1,1} 0"
    rot = (tmp_path / "rot.txt").read_text()
    assert len(rot.splitlines()) == 24


def test_certify_failure(capsys, tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text("cert v1\ngraph: Dhc\ncut: 0 2\nomega: 3\nratio: 2/3\n")
    code, out = run(capsys, "certify", "--cert", str(bad))
    assert code == 1 and out.startswith("FAIL")


def test_minimal_true(capsys, tmp_path):
    g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
    f = tmp_path / "sc52.g6"
    f.write_text(write_graph6(g) + "\n")
    code, out = run(capsys, "minimal", "--file", str(f))
    assert code == 0
    assert out.splitlines()[0] == "minimally tough: true, t = 4/3"
    assert len(out.splitlines()) == 1 + g.edge_count()


def test_minimal_false(capsys):
    diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    code, out = run(capsys, "minimal", "--g6", write_graph6(diamond))
    assert code == 0
    assert out.splitlines()[0] == "minimally tough: false, t = 1/1"


def test_minimal_failing_edge_outranks_unresolved_ones(capsys, monkeypatch):
    # past a 3-class limit only the diamond's chord 0-1 is scanned, and it
    # keeps t; annealing at one step per restart misses edge 0-3's cut
    monkeypatch.setattr(toughness, "MINIMALITY_HEURISTIC_STEPS", 1)
    code, out = run(capsys, "minimal", "--g6", "C}", "--exhaustive-limit", "3", "--threads", "1")
    assert code == 0
    assert out.splitlines() == [
        "minimally tough: false, t = 1/1",
        "edge 0-1: no certificate below t",
        "edge 0-2: |S|=1 omega=2 ratio=1/2 source=heuristic",
        "edge 0-3: unresolved",
        "edge 1-2: |S|=1 omega=2 ratio=1/2 source=heuristic",
        "edge 1-3: |S|=1 omega=2 ratio=1/2 source=heuristic",
    ]


def test_minimal_anneals_edges_past_the_limit(capsys):
    code, out = run(capsys, "minimal", "--g6", "C}", "--exhaustive-limit", "3", "--threads", "1")
    assert code == 0
    assert out.splitlines() == [
        "minimally tough: false, t = 1/1",
        "edge 0-1: no certificate below t",
    ] + [f"edge {e}: |S|=1 omega=2 ratio=1/2 source=heuristic"
         for e in ("0-2", "0-3", "1-2", "1-3")]


def test_minimal_heuristic_only_inconclusive(capsys):
    diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    code, out = run(capsys, "minimal", "--g6", write_graph6(diamond), "--heuristic-only")
    assert code == 2
    assert out.splitlines()[0].startswith("minimally tough: inconclusive")


def test_minimal_with_hints(capsys, tmp_path):
    certs = tmp_path / "hints"
    run(capsys, "gen", "knp3", "--n", "4", "--certs", str(certs))
    g6 = run(capsys, "gen", "knp3", "--n", "4")[1].strip()
    code, out = run(capsys, "minimal", "--g6", g6, "--hints", str(certs))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "minimally tough: true, t = 5/3"
    assert all("source=template" in l for l in lines[1:])


def test_search_stream(capsys, tmp_path):
    g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
    stream = tmp_path / "stream.g6"
    stream.write_text("\n".join([write_graph6(cycle(5)), write_graph6(g)]) + "\n")
    code, out = run(capsys, "search", "--input", str(stream))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "1 counterexamples / 2 scanned"
    assert lines[0].startswith(write_graph6(g) + "\t")
    assert "t=4/3" in lines[0] and "regular=1" in lines[0]


def test_search_output_thread_independent(capsys, tmp_path):
    g, _ = solid_expand(SolidSpec.uniform(cycle(5), 2))
    stream = tmp_path / "stream.g6"
    stream.write_text(
        "\n".join([write_graph6(g), write_graph6(cycle(6)), write_graph6(complete(4))])
        + "\n"
    )
    outs = []
    for threads in ("1", "2"):
        code, out = run(capsys, "search", "--input", str(stream), "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_exact_output_thread_independent(capsys):
    g, _ = cartesian_product(complete(4), path(3))
    outs = []
    for threads in ("1", "2"):
        code, out = run(
            capsys, "toughness", "--g6", write_graph6(g), "--exact",
            "--threads", threads,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_orbits(capsys):
    code, out = run(capsys, "orbits", "--g6", "Dhc")
    assert code == 0
    assert out.splitlines()[0] == "1 edge orbits"


@pytest.mark.parametrize(
    "graph, count",
    [
        (lambda: solid_expand(SolidSpec.uniform(cycle(7), 3))[0], 1),
        (lambda: families.gen_planar_chain(10).graph, 7),
        (lambda: build_graph(0, []), 0),
        (lambda: build_graph(1, []), 0),
    ],
    ids=["c7-blown-up-x3", "chain-m10", "n0", "n1"],
)
def test_orbits_of_symmetric_graphs(capsys, graph, count):
    code, out = run(capsys, "orbits", "--g6", write_graph6(graph()))
    assert code == 0 and out.splitlines()[0] == f"{count} edge orbits"
    assert len(out.splitlines()) == count + 1


@pytest.mark.parametrize("edges", [False, True], ids=["edgeless", "complete"])
def test_orbits_of_one_large_twin_class(capsys, edges):
    # one twin class of 1,100 vertices: the search tree is its root alone
    n = 1100
    g = Graph(n, tuple((1 << n) - 1 ^ 1 << v if edges else 0 for v in range(n)))
    code, out = run(capsys, "orbits", "--g6", write_graph6(g))
    assert code == 0
    assert out.splitlines()[0] == ("1 edge orbits" if edges else "0 edge orbits")


def test_default_threads_are_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("TOUGHNESS_THREADS", raising=False)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    assert cli._default_threads() == 3


def test_env_threads_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TOUGHNESS_THREADS", "1")
    code, out = run(capsys, "toughness", "--g6", "Dhc", "--exact")
    assert code == 0 and out == "t = 1/1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("toughness", "--exact"),
        ("minimal",),
        ("orbits",),
        ("gen", "planar-chain"),
        ("gen", "knp3"),
        ("toughness", "--upper", "--g6", "D~{"),
        ("toughness", "--upper", "--g6", "C?"),
    ],
    ids=["toughness-no-input", "minimal-no-input", "orbits-no-input", "chain-no-m",
         "knp3-no-n", "upper-complete", "upper-disconnected"],
)
def test_user_errors_exit_one_without_traceback(capsys, argv):
    assert_user_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--threads", "2", "--cert", "X"),
        ("gen", "square-lsk4", "--seed", "1"),
        ("orbits", "--g6", "Dhc", "--budget-secs", "1"),
        ("orbits", "--g6", "Dhc", "--exhaustive-limit", "5"),
        ("orbits", "--g6", "Dhc", "--limit", "5"),
        ("minimal", "--g6", "Dhc", "--budget-secs", "1"),
        ("search", "--input", "X", "--budget-secs", "1"),
    ],
    ids=["certify-threads", "gen-seed", "orbits-budget", "orbits-limit",
         "orbits-node-limit", "minimal-budget", "search-budget"],
)
def test_engine_flags_rejected_where_unused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_minimal_knp3_output_pinned(capsys):
    # recorded from the class-indexed quotient implementation of the
    # annealing: 37 edges resolve by annealing and 3 by the target scan
    expected = (Path(__file__).parent / "data" / "minimal_knp3_n5.txt").read_text()
    g6 = run(capsys, "gen", "knp3", "--n", "5")[1].strip()
    code, out = run(capsys, "minimal", "--g6", g6, "--threads", "1")
    assert code == 0 and out == expected
    assert out.count("source=heuristic") == 37 and out.count("source=exhaustive") == 3


def test_unwritable_cert_is_a_user_error(capsys, tmp_path):
    # the certificate is written before the result line, so stdout stays empty
    cert = tmp_path / "missing" / "x.cert"
    assert_user_error(capsys, ["toughness", "--exact", "--g6", "Dhc", "--cert", cert])


def test_binary_search_input_is_a_user_error(capsys, tmp_path):
    stream = tmp_path / "stream.bin"
    stream.write_bytes(b"\xff\xfe\x00Dhc\n")
    assert_user_error(capsys, ["search", "--input", stream])


def test_unreadable_hint_is_a_user_error(capsys, tmp_path):
    (tmp_path / "edge-0-1.cert").mkdir()
    assert_user_error(capsys, ["minimal", "--g6", "Dhc", "--hints", tmp_path])


def c5_hint(edge, cut_text=None) -> str:
    """A certificate of C5 - edge cutting vertex 3 (omega 2 when edge is 0-1),
    optionally with its cut line replaced."""
    ge = delete_edge(cycle(5), edge)
    text = write_certificate(ge, CutCertificate.from_cut(ge, 1 << 3))
    return text if cut_text is None else text.replace("cut: 3", f"cut: {cut_text}")


@pytest.mark.parametrize(
    "files, named, reason",
    [
        # a junk file and an out-of-range cut; the first in name order is named
        (
            {"edge-0-4.cert": "junk\n", "edge-0-1.cert": c5_hint((0, 1), "3 9")},
            "edge-0-1.cert",
            "cut contains out-of-range vertices",
        ),
        ({"edge-0-4.cert": "junk\n"}, "edge-0-4.cert", "not a cert v1 block"),
        ({"edge-0-2.cert": c5_hint((0, 1))}, "edge-0-2.cert", "edge (0, 2) not present"),
        ({"edge-0-1-2.cert": c5_hint((0, 1))}, "edge-0-1-2.cert", "name is not"),
        ({"edge-1-2.cert": c5_hint((0, 1))}, "edge-1-2.cert", "graph minus edge 1-2"),
        (
            {"edge-0-1.cert": c5_hint((0, 1)).replace("omega: 2", "omega: 3")},
            "edge-0-1.cert",
            "component mismatch",
        ),
    ],
    ids=["junk-and-out-of-range", "junk", "non-edge", "misnamed", "other-edge", "unverified"],
)
def test_unusable_hint_is_a_user_error(capsys, tmp_path, files, named, reason):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    err = assert_user_error(capsys, ["minimal", "--g6", "Dhc", "--hints", tmp_path])
    assert f"{named}: " in err and reason in err


def test_hint_written_for_another_graph_is_a_user_error(capsys, tmp_path):
    run(capsys, "gen", "knp3", "--n", "4", "--certs", str(tmp_path))
    g6 = run(capsys, "gen", "knp3", "--n", "5")[1].strip()
    err = assert_user_error(capsys, ["minimal", "--g6", g6, "--hints", tmp_path])
    assert "edge-0-1.cert: its graph is not the graph minus edge 0-1" in err


def test_missing_hints_directory_is_a_user_error(capsys, tmp_path):
    assert_user_error(capsys, ["minimal", "--g6", "Dhc", "--hints", tmp_path / "missing"])


def test_search_reports_a_headed_line_without_the_space(capsys, tmp_path):
    stream = tmp_path / "stream.g6"
    stream.write_text(">>graph6<< I]KoWZBoo\n")
    code, out = run(capsys, "search", "--threads", "1", "--input", str(stream))
    assert code == 0 and out.startswith("I]KoWZBoo\t")


def test_automorphism_node_limit_is_a_user_error(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "SEARCH_NODE_LIMIT", 3)
    assert_user_error(capsys, ["orbits", "--g6", "Dhc"])


def test_defects_keep_their_traceback(monkeypatch):
    rejected = VerifyResult(False, "rejected")
    monkeypatch.setattr(families, "verify_certificate", lambda g, cert: rejected)
    with pytest.raises(FamilyError):
        main(["gen", "square-lsk4"])


@pytest.mark.parametrize(
    "argv",
    [("toughness", "--exact"), ("minimal", "--threads", "1"), ("orbits",)],
    ids=["toughness", "minimal", "orbits"],
)
def test_file_header_line_reads_like_a_bare_line(capsys, tmp_path, argv):
    bare = tmp_path / "bare.g6"
    bare.write_text("Dhc\n")
    headed = tmp_path / "headed.g6"
    headed.write_text(">>graph6<<Dhc\nD~{\n")
    want = run(capsys, *argv, "--file", str(bare))
    assert want[0] == 0
    assert run(capsys, *argv, "--file", str(headed)) == want
