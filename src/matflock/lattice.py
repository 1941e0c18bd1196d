"""Integer-vector helpers and the extended-integer conventions.

Vectors over a ground set are plain tuples of ints, aligned with the
canonical (sorted) ground order.  Infinity is the symbolic ``INF``
(``float("inf")``); finite values are always ``int``, so arithmetic never
contaminates finite results with floats.  Max-plus conventions apply:
``x + INF == INF`` and infinite scores are excluded from argmax sets.
"""

from __future__ import annotations

from typing import Sequence

INF = float("inf")


def vadd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def vjoin(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Componentwise max."""
    return tuple(max(x, y) for x, y in zip(a, b))


def vmeet(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Componentwise min."""
    return tuple(min(x, y) for x, y in zip(a, b))


def ones(n: int) -> tuple[int, ...]:
    return (1,) * n
