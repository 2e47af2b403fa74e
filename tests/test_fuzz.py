"""Derandomized fuzz of the two parsers that read outside input: whatever the
text, they return a value or raise ValueError, never anything else."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from toughgraphs.graph import build_graph
from toughgraphs.graph6 import parse_graph6, write_graph6
from toughgraphs.toughness import parse_certificate

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

G6_CHARS = st.characters(min_codepoint=32, max_codepoint=130)


@st.composite
def graph6_strings(draw):
    """Valid encodings of small graphs, possibly damaged afterwards."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    text = write_graph6(build_graph(n, edges))
    if draw(st.booleans()):
        text = ">>graph6<<" + text
    damage = draw(st.sampled_from(["none"] * 4 + ["truncate", "append"]))
    if damage == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif damage == "append":
        text += draw(st.text(G6_CHARS, max_size=3))
    return text


def _field(valid):
    # mostly well formed, so that many blocks reach the later checks
    return st.one_of(valid, valid, valid, st.text(G6_CHARS, max_size=12))


@st.composite
def certificate_texts(draw):
    """cert v1 blocks whose fields are sometimes well formed, sometimes not."""
    index = st.integers(-(10**15), 10**15).map(str)
    cut = st.lists(st.one_of(st.integers(0, 12).map(str), index), max_size=5).map(" ".join)
    ratio = st.tuples(st.integers(-1, 20), st.integers(-1, 20)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    head = draw(st.sampled_from(["cert v1"] * 6 + ["cert v2", ""]))
    lines = [
        head,
        "graph: " + draw(_field(graph6_strings())),
        "cut: " + draw(_field(cut)),
        "omega: " + draw(_field(st.integers(-3, 20).map(str))),
        "ratio: " + draw(_field(ratio)),
    ]
    if draw(st.integers(0, 5)) == 0:
        lines = draw(st.permutations(lines))
    return "\n".join(lines[: draw(st.sampled_from([5] * 6 + [3, 0]))]) + "\n"


@FUZZ
@given(st.one_of(graph6_strings(), st.text(G6_CHARS, max_size=30), st.text(max_size=30)))
def test_parse_graph6_raises_only_value_error(text):
    try:
        g = parse_graph6(text)
    except ValueError:
        return
    assert parse_graph6(write_graph6(g)) == g


@FUZZ
@given(st.one_of(certificate_texts(), certificate_texts(), st.text(max_size=80)))
def test_parse_certificate_raises_only_value_error(text):
    try:
        g, cert = parse_certificate(text)
    except ValueError:
        return
    assert cert.cut >> g.n == 0
