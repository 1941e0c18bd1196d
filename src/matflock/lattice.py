"""Integer-vector helpers and the extended-integer conventions.

Vectors over a ground set are plain tuples of ints, aligned with the
canonical (sorted) ground order.  Infinity is the symbolic ``INF``
(``float("inf")``); finite values are always ``int``, so arithmetic never
contaminates finite results with floats.  Max-plus conventions apply:
``x + INF == INF`` and infinite scores are excluded from argmax sets.
"""

from __future__ import annotations

from typing import Optional, Sequence

INF = float("inf")


def as_ints(xs, what: str) -> tuple[int, ...]:
    """The entries of ``xs`` as ints.  An int passes, and an integral value
    of another type (2.0, numpy.int64(2)) reads as that int; a bool (numpy's
    too) or a non-integral value raises ValueError("<what> must be an integer")."""
    xs = tuple(xs)
    if set(map(type, xs)) <= {int}:
        return xs
    for x in xs:
        try:
            ok = (int(x) == x and not isinstance(x, bool)
                  and getattr(getattr(x, "dtype", None), "kind", None) != "b")
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"{what} must be an integer, got {x!r}")
    return tuple(map(int, xs))


def as_int(x, what: str, least: Optional[int] = None) -> int:
    """``x`` as an int by ``as_ints``, refused below ``least`` when given
    ("<what> must be nonnegative" for 0, else "... at least <least>")."""
    x, = as_ints((x,), what)
    if least is not None and x < least:
        raise ValueError(f"{what} must be " + (f"at least {least}" if least else "nonnegative"))
    return x


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
