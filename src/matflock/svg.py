"""Plain static SVG rendering of a 2-D slice of a cell decomposition.

The slice fixes every coordinate at 0 except two chosen axes and colors each
integer point by the matroid it induces; zero-dimensional cells landing in
the slice are marked with dots.
"""

from __future__ import annotations

import numpy as np

from . import window
from .lattice import as_int
from .matroid import _connected
from .valuation import Valuation

_PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860",
    "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd", "#e377c2", "#17becf",
    "#bcbd22", "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
)

_CELL = 28
_PAD = 46
_AXIS_COUNT = "an SVG slice needs exactly 2 axes, got {}"
_AXES_DISTINCT = "axes must be two distinct elements"


def render_cells_svg(nu: Valuation, axes, radius: int) -> str:
    """Color the integer points of the (axes) slice by induced matroid, on
    the window |alpha_i| <= radius (a nonnegative int, ``lattice.as_int``)."""
    ground = nu.ground
    n = len(ground)
    idx = {e: i for i, e in enumerate(ground)}
    if len(axes) != 2:
        raise ValueError(_AXIS_COUNT.format(len(axes)))
    try:
        ax, ay = (idx[a] for a in axes)
    except KeyError as exc:
        raise ValueError(f"unknown axis element {exc.args[0]!r}") from None
    if ax == ay:
        raise ValueError(_AXES_DISTINCT)
    radius = as_int(radius, "window radius", 0)

    span = 2 * radius + 1
    xy = window.box_array((-radius, -radius), (radius, radius))
    points = np.zeros((len(xy), n), dtype=np.int64)
    points[:, [ax, ay]] = xy
    # the slice is the box that is 0 on every other axis, scored in ground
    # order: transposed to x-major when the x axis comes second
    ids, table = window.score_box(nu.finite_items(), n, points[0].tolist(), points[-1].tolist())
    if ax > ay:
        ids = ids.reshape(span, span).T.ravel()
    colors: dict = {}
    squares = []
    for (x, y), k in zip(xy.tolist(), ids.tolist()):
        if k not in colors:
            colors[k] = _PALETTE[len(colors) % len(_PALETTE)]
        px = _PAD + (x + radius) * _CELL
        py = _PAD + (radius - y) * _CELL
        squares.append(
            f'<rect x="{px}" y="{py}" width="{_CELL}" height="{_CELL}" '
            f'fill="{colors[k]}" stroke="#ffffff" stroke-width="1">'
            f'<title>alpha[{ground[ax]!r}]={x}, alpha[{ground[ay]!r}]={y}: '
            f'{len(table[k])} bases</title></rect>')

    # vertices are normalized to alpha_{i0} = 0, so only those slice points
    # can carry a dot; alpha is a vertex exactly when M_alpha is connected
    vertex = np.array([_connected(family, n) for family in table], dtype=bool)
    vertices = sorted(map(tuple, points[(points[:, 0] == 0) & vertex[ids]].tolist()))
    dots = []
    for cell in vertices:
        px = _PAD + (cell[ax] + radius) * _CELL + _CELL // 2
        py = _PAD + (radius - cell[ay]) * _CELL + _CELL // 2
        dots.append(f'<circle cx="{px}" cy="{py}" r="5" fill="#000000"/>')

    size = 2 * _PAD + span * _CELL
    label_x = f'<text x="{size // 2}" y="{size - 10}" text-anchor="middle" ' \
              f'font-size="13">alpha[{ground[ax]}]</text>'
    label_y = f'<text x="14" y="{size // 2}" text-anchor="middle" font-size="13" ' \
              f'transform="rotate(-90 14 {size // 2})">alpha[{ground[ay]}]</text>'
    body = "\n".join(squares + dots + [label_x, label_y])
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="#fafafa"/>\n'
        f'{body}\n</svg>\n'
    )
