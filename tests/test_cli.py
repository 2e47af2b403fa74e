from pathlib import Path

import pytest

import toughgraphs.families as families
import toughgraphs.invariants as invariants
from toughgraphs.cli import main
from toughgraphs.families import FamilyError
from toughgraphs.graph6 import parse_graph6, write_graph6
from toughgraphs.graph import build_graph, degree_profile
from toughgraphs.operators import SolidSpec, cartesian_product, complete, cycle, path, solid_expand
from toughgraphs.toughness import VerifyResult


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_user_error(capsys, argv):
    """Exit code 1, one ``error:`` line on stderr and nothing on stdout."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


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
        ("minimal", "--g6", "Dhc", "--budget-secs", "1"),
        ("search", "--input", "X", "--budget-secs", "1"),
    ],
    ids=["certify-threads", "gen-seed", "orbits-budget", "orbits-limit",
         "minimal-budget", "search-budget"],
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


def test_missing_hints_directory_is_a_user_error(capsys, tmp_path):
    assert_user_error(capsys, ["minimal", "--g6", "Dhc", "--hints", tmp_path / "missing"])


def test_search_reports_a_headed_line_without_the_space(capsys, tmp_path):
    stream = tmp_path / "stream.g6"
    stream.write_text(">>graph6<< I]KoWZBoo\n")
    code, out = run(capsys, "search", "--threads", "1", "--input", str(stream))
    assert code == 0 and out.startswith("I]KoWZBoo\t")


def test_automorphism_node_limit_is_a_user_error(capsys, monkeypatch):
    search = invariants.automorphisms
    monkeypatch.setattr(invariants, "automorphisms", lambda g: search(g, node_limit=3))
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
