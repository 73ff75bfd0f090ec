"""CSV/SVG exporters: formats, determinism, atomicity."""

import os
import re

import numpy as np
import pytest

from convexfit.exports import (
    SVG_SIZE,
    atomic_write_text,
    export_csv,
    export_fourier_csv,
    export_history_csv,
    export_study_csv,
    export_svg,
    load_fourier_csv,
    load_shape_csv,
)
from convexfit.fourier import FourierShape
from convexfit.geometry import (
    Disk,
    GeometryError,
    SupportSamples,
    container_area,
    container_bounds,
    named_container,
    polygon_area,
    support_samples,
)
from convexfit.solver import OuterRecord

DISK = Disk((0.0, 0.0), 1.0)


def test_shape_csv_rows(tmp_path):
    path = tmp_path / "shape.csv"
    export_csv(SupportSamples(np.full(4, 2.0)), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "theta,h"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "0"


def test_shape_csv_round_trip(tmp_path):
    path = tmp_path / "shape.csv"
    samples = support_samples(named_container("pentagon"), 64)
    export_csv(samples, path)
    back = load_shape_csv(path)
    np.testing.assert_array_equal(back.values, samples.values)


def test_shape_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta,h\n0,1\n1,1\n2,1\n")
    with pytest.raises(GeometryError):
        load_shape_csv(path)


@pytest.mark.parametrize("rows", ["0,1,\n1,0.5\n", "0,1,\n1,0.5,x\n"], ids=["short", "not_a_number"])
def test_fourier_csv_names_a_malformed_line(tmp_path, rows):
    path = tmp_path / "bad.csv"
    path.write_text("k,a,b\n" + rows)
    with pytest.raises(GeometryError, match="line 3"):
        load_fourier_csv(path)


@pytest.mark.parametrize(
    "rows, line",
    [
        ("0,1,\n2,0.1,0\n1,0.2,0\n", 3),  # used to load as a = [1, 0.1, 0.2]
        ("0,1,\n1,0.2,0\n1,0.1,0\n", 4),  # used to load as order 2
        ("0,1,\n2,0.1,0\n", 3),  # used to load the k = 2 coefficient at k = 1
    ],
    ids=["out_of_order", "repeated", "gap"],
)
def test_fourier_csv_rejects_a_k_column_that_does_not_count_up(tmp_path, rows, line):
    path = tmp_path / "bad.csv"
    path.write_text("k,a,b\n" + rows)
    with pytest.raises(GeometryError, match=f"line {line}: expected k = {line - 2}"):
        load_fourier_csv(path)


def test_fourier_csv_without_rows_names_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("k,a,b\n")
    with pytest.raises(GeometryError, match=f"^{re.escape(str(path))}: no coefficient rows$"):
        load_fourier_csv(path)


def test_history_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "history.csv"
    export_history_csv([], path)
    assert path.read_text() == "outer_iter,inner_iter,objective,area_residual,max_violation\n"


def test_history_csv_rows(tmp_path):
    path = tmp_path / "history.csv"
    rec = OuterRecord(0, 12, 1.5, -2e-9, 3e-8, 1e-7)
    export_history_csv([rec], path)
    lines = path.read_text().strip().split("\n")
    assert lines[1].startswith("0,12,1.5,")


def test_re_export_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    samples = support_samples(DISK, 32)
    export_csv(samples, a)
    export_csv(samples, b)
    assert a.read_bytes() == b.read_bytes()


def test_fourier_csv_round_trip(tmp_path):
    path = tmp_path / "coef.csv"
    shape = FourierShape(np.array([1.0, 0.25, -0.125]), np.array([0.5, 1e-17]))
    export_fourier_csv(shape, path)
    text = path.read_text()
    assert text.splitlines()[0] == "k,a,b"
    assert text.splitlines()[1] == "0,1,"  # b cell empty for k = 0
    back = load_fourier_csv(path)
    np.testing.assert_array_equal(back.a, shape.a)
    np.testing.assert_array_equal(back.b, shape.b)


def test_study_csv_formats_floats(tmp_path):
    path = tmp_path / "study.csv"
    export_study_csv(["a", "b"], [{"a": 1.0 / 3.0, "b": "ok"}], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "0.33333333333333331,ok"


def test_every_writer_formats_each_cell_kind(tmp_path):
    # floats (np.float64 too) in 17 digits, integers and text as written;
    # the shape, history-measure and coefficient cells are floats whatever
    # number type they come in as
    third = np.float64(1 / 3)
    cells = [0.1, third, 7, np.int64(-12), float("nan"), float("inf"), ""]
    export_study_csv(list("abcdefg"), [dict(zip("abcdefg", cells))], tmp_path / "study.csv")
    export_csv([7, np.int64(-12), 0.1, third, np.nan, -np.inf], tmp_path / "shape.csv")
    records = [
        OuterRecord(np.int64(3), 7, 2, third, np.inf, 0.0),
        OuterRecord(4, np.int64(0), np.nan, 0.1, np.int64(-12), 0.0),
    ]
    export_history_csv(records, tmp_path / "history.csv")
    export_fourier_csv(FourierShape(np.array([2, np.int64(-12)]), [third]), tmp_path / "coef.csv")
    expected = {
        "study": "a,b,c,d,e,f,g\n0.10000000000000001,0.33333333333333331,7,-12,nan,inf,\n",
        "shape": (
            "theta,h\n0,7\n1.0471975511965976,-12\n2.0943951023931953,0.10000000000000001\n"
            "3.1415926535897931,0.33333333333333331\n4.1887902047863905,nan\n5.2359877559829888,-inf\n"
        ),
        "history": (
            "outer_iter,inner_iter,objective,area_residual,max_violation\n"
            "3,7,2,0.33333333333333331,inf\n4,0,nan,0.10000000000000001,-12\n"
        ),
        "coef": "k,a,b\n0,2,\n1,-12,0.33333333333333331\n",
    }
    for name, text in expected.items():
        assert (tmp_path / f"{name}.csv").read_bytes() == text.encode()


def test_svg_two_concentric_disks(tmp_path):
    path = tmp_path / "disks.svg"
    export_svg(DISK, [support_samples(Disk((0, 0), 0.5), 128)], path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polygon") == 2
    export_svg(DISK, [support_samples(Disk((0, 0), 0.5), 128)], tmp_path / "again.svg")
    assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()


def test_svg_container_only(tmp_path):
    path = tmp_path / "container.svg"
    export_svg(named_container("square"), [], path)
    assert path.read_text().count("<polygon") == 1


@pytest.mark.parametrize("name", ["triangle", "pentagon"])
def test_svg_container_outline_lies_on_the_boundary(tmp_path, name):
    # the outline's points are the container's boundary points, so the
    # polygon they draw is the container itself (edge normals that fall
    # between the 512 directions included)
    container = named_container(name)
    path = tmp_path / "outline.svg"
    export_svg(container, [], path)
    points = re.search(r'<polygon points="([^"]*)"', path.read_text()).group(1)
    px = np.array([pair.split(",") for pair in points.split()], dtype=float)
    xmin, xmax, ymin, ymax = container_bounds(container)
    scale = SVG_SIZE / (1.1 * max(xmax - xmin, ymax - ymin))  # the view box has a 5 % margin
    area = abs(polygon_area(px)) / scale**2
    assert area == pytest.approx(container_area(container), rel=1e-12)


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "sub" / "out.txt"
    atomic_write_text(target, "hello")
    assert target.read_text() == "hello"
    # a failing writer must not leave temp files behind
    class Boom(Exception):
        pass

    try:
        raise Boom()
    except Boom:
        pass
    leftovers = [p for p in os.listdir(tmp_path / "sub") if p.startswith(".tmp-")]
    assert leftovers == []
