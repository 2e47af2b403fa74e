"""graph6 encoding and decoding.

Standard format: one printable byte n+63 for n <= 62 (the extended three-byte
header 126, b1, b2, b3 covers 63 <= n <= 258047), then the upper-triangle
adjacency bits in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., zero
padded to a multiple of 6, each 6-bit group emitted as one byte +63.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph

_HEADER = ">>graph6<<"


def _unwrap(line: str) -> str:
    """The graph6 text of a line: stripped, without a '>>graph6<<' prefix,
    and stripped again."""
    return line.strip().removeprefix(_HEADER).strip()


def graph6_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, graph6 text) for each line of a stream whose
    text (see ``_unwrap``) is not empty."""
    for lineno, raw in enumerate(lines, start=1):
        text = _unwrap(raw)
        if text:
            yield lineno, text


def write_graph6(g: Graph) -> str:
    n = g.n
    if n > 258047:
        raise ValueError(f"graph6 supports n <= 258047, got {n}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; tolerates the optional '>>graph6<<' prefix."""
    s = _unwrap(line)
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) for c in s]
    for byte in data:
        if not 63 <= byte <= 126:
            raise ValueError(f"byte {byte} outside graph6 range 63..126")
    if data[0] == 126:
        if len(data) >= 4 and data[1] == 126:
            raise ValueError("graph6 n > 258047 not supported")
        if len(data) < 4:
            raise ValueError("truncated extended graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body length {len(body)} does not match n={n} (need {(nbits + 5) // 6})"
        )
    bits = []
    for byte in body:
        val = byte - 63
        for s_ in (5, 4, 3, 2, 1, 0):
            bits.append((val >> s_) & 1)
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 string")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))
