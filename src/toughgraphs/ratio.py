"""Exact rational values with a distinguished infinity.

Toughness values are ratios |S|/omega of small non-negative integers.  All
comparisons are exact cross multiplications; no floating point is involved
anywhere.  Complete graphs get the infinite value, disconnected graphs get
zero.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd
from typing import Any


@total_ordering
class Ratio:
    """An exact non-negative rational p/q in lowest terms, or infinity."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int = 1):
        if q <= 0:
            raise ValueError(f"denominator must be positive, got {q}")
        if p < 0:
            raise ValueError(f"numerator must be non-negative, got {p}")
        g = gcd(p, q)
        self.p = p // g
        self.q = q // g

    def ceil_of_double(self) -> int:
        """Smallest integer >= 2*p/q, computed exactly."""
        return (2 * self.p + self.q - 1) // self.q

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, _Infinite):
            return False
        if isinstance(other, Ratio):
            return self.p == other.p and self.q == other.q
        if isinstance(other, int):
            return self.q == 1 and self.p == other
        return NotImplemented

    def __lt__(self, other: Any) -> bool:
        if isinstance(other, _Infinite):
            return True
        if isinstance(other, Ratio):
            return self.p * other.q < other.p * self.q
        if isinstance(other, int):
            return self.p < other * self.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Ratio({self.p}, {self.q})"


@total_ordering
class _Infinite:
    """Singleton value strictly greater than every finite Ratio."""

    __slots__ = ()

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Infinite)

    def __lt__(self, other: Any) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("Ratio.INFINITE")

    def __str__(self) -> str:
        return "inf"

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _Infinite()


def parse_ratio(text: str) -> Ratio:
    """Parse 'p/q' (or a bare integer) into a Ratio."""
    text = text.strip()
    if "/" in text:
        p_str, q_str = text.split("/", 1)
        return Ratio(int(p_str), int(q_str))
    return Ratio(int(text))
