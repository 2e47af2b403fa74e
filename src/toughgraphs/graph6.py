"""graph6 encoding and decoding.

Standard format: one printable byte n+63 for n <= 62 (the extended three-byte
header 126, b1, b2, b3 covers 63 <= n <= 258047), then the upper-triangle
adjacency bits in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., zero
padded to a multiple of 6, each 6-bit group emitted as one byte +63.
"""

from __future__ import annotations

import binascii
from functools import cache
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
    # column j holds x(0,j) .. x(j-1,j): bits 0..j-1 of adj[j], lowest first
    bits = "".join([format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    return head + "".join([chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6)])


# graph6 bytes 63..126 carry the 6-bit values 0..63, as base64 digits do
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


@cache
def _transpose_rounds(N: int) -> list[tuple[int, int, int]]:
    """(j, j N, mask), j = N/2 .. 1: the rounds that transpose an N x N bit
    matrix, entry (r, c) at bit r N + c, each swapping the j x j blocks off
    the diagonal of every 2j x 2j block (Hacker's Delight, 2nd ed., 7-3)."""
    rounds = []
    for j in (N >> e for e in range(1, N.bit_length())):
        cols = (((1 << N) - 1) // ((1 << 2 * j) - 1) * ((1 << j) - 1)).to_bytes(N // 8, "little")
        mask = int.from_bytes((cols * j + bytes(N // 8) * j) * (N // 2 // j), "little")
        rounds.append((j, j * N, mask))
    return rounds


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; tolerates the optional '>>graph6<<' prefix.
    Column j of the body, x(0,j) .. x(j-1,j), fills row j of a square bit
    matrix below the diagonal, and the matrix's transpose the rest."""
    s = _unwrap(line)
    if not s:
        raise ValueError("empty graph6 string")
    data = s.encode() if s.isascii() else b"\0"
    if min(data) < 63 or max(data) > 126:
        byte = next(ord(c) for c in s if not 63 <= ord(c) <= 126)
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
    raw = binascii.a2b_base64(body.translate(_TO_BASE64) + b"A" * (-len(body) % 4))
    raw = raw.translate(_REVERSED)  # bit k, little-endian, is the body's k-th bit
    if int.from_bytes(raw, "little") >> nbits:
        raise ValueError("nonzero padding bits in graph6 string")
    N = max(8, 1 << (n - 1).bit_length())  # a power of two, so rows are whole bytes
    B, rows, k = N // 8, [], 0  # column j starts at bit k = j (j - 1) / 2
    for j in range(n):
        col = int.from_bytes(raw[k >> 3 : (k + j + 7) >> 3], "little") >> (k & 7)
        rows.append((col & ((1 << j) - 1)).to_bytes(B, "little"))
        k += j
    below = upper = int.from_bytes(b"".join(rows), "little")
    for j, jN, mask in _transpose_rounds(N):
        t = (upper >> j ^ upper >> jN) & mask
        upper ^= t << j | t << jN
    full = (below | upper).to_bytes(N * B, "little")
    return Graph(n, tuple(int.from_bytes(full[r : r + B], "little") for r in range(0, n * B, B)))
