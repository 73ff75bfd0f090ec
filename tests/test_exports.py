"""CSV/SVG exporters: formats, determinism, atomicity."""

import os

import numpy as np
import pytest

from convexfit.exports import (
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
from convexfit.geometry import Disk, GeometryError, SupportSamples, named_container, support_samples
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
