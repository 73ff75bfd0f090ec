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
    TWO_PI,
    container_bounds,
    container_scale,
    reconstruct_boundary,
    support_samples,
)

SHAPE_HEADER = "theta,h"
HISTORY_HEADER = "outer_iter,inner_iter,objective,area_residual,max_violation"
FOURIER_HEADER = "k,a,b"


def fmt(x):
    """17-significant-digit decimal form (round-trips float64)."""
    return format(float(x), ".17g")


def atomic_write_text(path, text):
    """Write-to-temp plus rename: no partially written file survives an error."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_csv(samples, path):
    """Nodal shape as `theta,h` rows, radians in [0, 2pi), monotone."""
    values = samples.values if isinstance(samples, SupportSamples) else np.asarray(samples)
    n = len(values)
    theta = TWO_PI * np.arange(n) / n
    lines = [SHAPE_HEADER]
    lines += [f"{fmt(t)},{fmt(h)}" for t, h in zip(theta, values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    n = len(values)
    expected = TWO_PI * np.arange(n) / n
    if n < 3 or np.max(np.abs(theta - expected)) > 1e-9:
        raise GeometryError(f"{path}: angles are not the uniform [0, 2pi) grid")
    return SupportSamples(values)


def export_history_csv(history, path):
    """Convergence history, one row per outer iteration."""
    lines = [HISTORY_HEADER]
    for rec in history:
        lines.append(
            f"{rec.outer_iter},{rec.inner_iters},{fmt(rec.objective)},"
            f"{fmt(rec.eq_residual)},{fmt(rec.max_violation)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_study_csv(columns, rows, path):
    """Generic study table; cells are formatted via fmt for floats."""

    def cell(v):
        if isinstance(v, float):
            return fmt(v)
        return str(v)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row[c]) for c in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_fourier_csv(shape, path):
    """Coefficients as `k,a,b` rows; the b cell is empty for k = 0."""
    lines = [FOURIER_HEADER, f"0,{fmt(shape.a[0])},"]
    for k in range(1, shape.order + 1):
        lines.append(f"{k},{fmt(shape.a[k])},{fmt(shape.b[k - 1])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_fourier_csv(path):
    """Read a `k,a,b` file back into a FourierShape; `k` must run 0, 1, ..., order."""
    rows = _read_rows(path, FOURIER_HEADER)
    if not rows:
        raise GeometryError(f"{path}: no coefficient rows")
    for expected, ((number, _), k) in enumerate(zip(rows, _column(path, rows, 0))):
        if k != expected:
            raise GeometryError(f"{path}, line {number}: expected k = {expected}, got {k:g}")
    return FourierShape(_column(path, rows, 1), _column(path, rows[1:], 2))


def load_overlay_csv(path, n):
    """A shape CSV as SupportSamples, or a coefficient CSV sampled on the n-point nodal grid."""
    with open(path) as handle:
        header = handle.readline().strip()
    if header == FOURIER_HEADER:
        return fourier_to_nodal(load_fourier_csv(path), n)
    if header != SHAPE_HEADER:
        raise GeometryError(f"{path}: expected header {SHAPE_HEADER!r} or {FOURIER_HEADER!r}, got {header!r}")
    return load_shape_csv(path)


def export_svg(container, shapes, path, size=640):
    """Container outline with shape overlays, deterministic bytes.

    The view box is the container bounding box plus a 5% margin; shapes are
    nodal samples, reconstructed with a tolerance loose enough for solver
    output.
    """
    xmin, xmax, ymin, ymax = container_bounds(container)
    margin = 0.05 * max(xmax - xmin, ymax - ymin)
    xmin, xmax = xmin - margin, xmax + margin
    ymin, ymax = ymin - margin, ymax + margin
    width = xmax - xmin
    height = ymax - ymin
    scale = size / max(width, height)

    def to_px(pts):
        x = (pts[:, 0] - xmin) * scale
        y = (ymax - pts[:, 1]) * scale  # SVG y grows downward
        return x, y

    def polyline(pts, style):
        x, y = to_px(pts)
        coords = " ".join(f"{fmt(a)},{fmt(b)}" for a, b in zip(x, y))
        return f'<polygon points="{coords}" style="{style}" />'

    tol = 1e-6 * container_scale(container)
    outline = reconstruct_boundary(support_samples(container, 512), tol=tol)
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
