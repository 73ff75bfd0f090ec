"""Deterministic CSV and SVG writers (and the matching readers).

All floats are written with 17 significant digits, files are written to a
temporary sibling and atomically renamed, and identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .fourier import FourierShape, fourier_to_nodal
from .geometry import (
    GeometryError,
    SupportSamples,
    _values,
    boundary_points,
    container_bounds,
    container_scale,
    convexify,
    grid_angles,
    reconstruct_boundary,
)

SHAPE_HEADER = "theta,h"
HISTORY_HEADER = "outer_iter,inner_iter,objective,area_residual,max_violation"
FOURIER_HEADER = "k,a,b"
SVG_SIZE = 640  # pixels along the longer side of the view box


def fmt(x):
    """17-significant-digit decimal form (round-trips float64)."""
    return format(float(x), ".17g")


def atomic_write_text(path, text):
    """Write-to-temp plus rename: no partially written file survives an error.
    The file gets the mode `open(path, "w")` would give it, 0o666 less the
    umask (the temp file's own is 0o600)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path, header, rows):
    """The header line, then one comma-joined line per row; float cells
    (np.float64 included) go through `fmt`, every other cell through `str`."""
    lines = [header]
    lines += [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_csv(samples, path):
    """Nodal shape as `theta,h` rows, radians in [0, 2pi), monotone."""
    values = _values(samples)
    _write_table(path, SHAPE_HEADER, zip(grid_angles(len(values)), values))


def _read_rows(path, header):
    """(line number, cells) of every non-blank row below the expected header."""
    with open(path) as handle:
        first = handle.readline().strip()
        if first != header:
            raise GeometryError(f"{path}: expected header {header!r}, got {first!r}")
        return [(number, line.strip().split(",")) for number, line in enumerate(handle, 2) if line.strip()]


def _column(path, rows, column):
    """Cell `column` of every row as a float; GeometryError naming the line otherwise."""
    out = []
    for number, cells in rows:
        try:
            out.append(float(cells[column]))
        except (IndexError, ValueError):
            raise GeometryError(f"{path}, line {number}: no number in column {column + 1}") from None
    return np.array(out)


def load_shape_csv(path):
    """Read a `theta,h` file back into SupportSamples (uniform grid required)."""
    rows = _read_rows(path, SHAPE_HEADER)
    theta = _column(path, rows, 0)
    values = _column(path, rows, 1)
    if len(values) < 3 or np.max(np.abs(theta - grid_angles(len(values)))) > 1e-9:
        raise GeometryError(f"{path}: angles are not the uniform [0, 2pi) grid")
    return SupportSamples(values)


def export_history_csv(history, path):
    """Convergence history, one row per outer iteration; its three measures
    are written as floats, whatever number type they hold."""
    rows = [
        (r.outer_iter, r.inner_iters, float(r.objective), float(r.eq_residual), float(r.max_violation))
        for r in history
    ]
    _write_table(path, HISTORY_HEADER, rows)


def export_study_csv(columns, rows, path):
    """Generic study table; cells are formatted via fmt for floats."""
    _write_table(path, ",".join(columns), ([row[c] for c in columns] for row in rows))


def export_fourier_csv(shape, path):
    """Coefficients as `k,a,b` rows; the b cell is empty for k = 0."""
    rows = [(k, shape.a[k], shape.b[k - 1]) for k in range(1, shape.order + 1)]
    _write_table(path, FOURIER_HEADER, [(0, shape.a[0], "")] + rows)


def load_fourier_csv(path):
    """Read a `k,a,b` file back into a FourierShape; `k` must run 0, 1, ..., order."""
    rows = _read_rows(path, FOURIER_HEADER)
    if not rows:
        raise GeometryError(f"{path}: no coefficient rows")
    for expected, ((number, _), k) in enumerate(zip(rows, _column(path, rows, 0))):
        if k != expected:
            raise GeometryError(f"{path}, line {number}: expected k = {expected}, got {k:g}")
    return FourierShape(_column(path, rows, 1), _column(path, rows[1:], 2))


def fourier_figure(samples):
    """What a Fourier shape's figure draws: the body its samples' half-planes
    cut out (`geometry.convexify`).  Its program keeps convexity only at its m
    angles, so the samples may break it by more than `export_svg` forgives."""
    return SupportSamples(convexify(_values(samples)))


def load_overlay_csv(path, n):
    """A shape CSV as SupportSamples, or a coefficient CSV sampled on the
    n-point nodal grid as its figure draws it (`fourier_figure`)."""
    with open(path) as handle:
        header = handle.readline().strip()
    if header == FOURIER_HEADER:
        return fourier_figure(fourier_to_nodal(load_fourier_csv(path), n))
    if header != SHAPE_HEADER:
        raise GeometryError(f"{path}: expected header {SHAPE_HEADER!r} or {FOURIER_HEADER!r}, got {header!r}")
    return load_shape_csv(path)


def export_svg(container, shapes, path):
    """Container outline with shape overlays, deterministic bytes.

    The view box is the container bounding box plus a 5% margin; the
    container outline is its boundary points at 512 normal directions.
    Shapes are nodal samples, reconstructed with a tolerance loose enough
    for solver output.
    """
    xmin, xmax, ymin, ymax = container_bounds(container)
    margin = 0.05 * max(xmax - xmin, ymax - ymin)
    xmin, xmax = xmin - margin, xmax + margin
    ymin, ymax = ymin - margin, ymax + margin
    width = xmax - xmin
    height = ymax - ymin
    scale = SVG_SIZE / max(width, height)

    def to_px(pts):
        x = (pts[:, 0] - xmin) * scale
        y = (ymax - pts[:, 1]) * scale  # SVG y grows downward
        return x, y

    def polyline(pts, style):
        x, y = to_px(pts)
        coords = " ".join(f"{fmt(a)},{fmt(b)}" for a, b in zip(x, y))
        return f'<polygon points="{coords}" style="{style}" />'

    outline = boundary_points(container, grid_angles(512))
    tol = 1e-6 * container_scale(container)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width * scale)}" '
        f'height="{fmt(height * scale)}" viewBox="0 0 {fmt(width * scale)} {fmt(height * scale)}">',
        polyline(outline, "fill:none;stroke:#1f3b66;stroke-width:2"),
    ]
    fills = ["#e0533d", "#3d8be0", "#3de07c", "#c93de0"]
    for i, shape in enumerate(shapes):
        pts = reconstruct_boundary(shape, tol=tol)
        color = fills[i % len(fills)]
        parts.append(polyline(pts, f"fill:{color};fill-opacity:0.45;stroke:{color};stroke-width:1"))
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
