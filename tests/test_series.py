"""Curve container and file round trips."""

import json
import math
import os

import pytest

from dlcz_swap.series import (
    CurveSeries,
    atomic_write_text,
    read_csv,
    read_json,
    write_csv,
    write_json,
)


def _series(name="demo", metadata=None):
    rows = ((0.0, 1.0, 0.1), (1.5, 0.5, 0.05), (2.0, 0.25, float("nan")))
    return CurveSeries(name=name, columns=("t_us", "value", "sigma"),
                       rows=rows, metadata=metadata or {"seed": 7})


def test_rows_coerced_and_sorted():
    s = _series()
    assert [r[:2] for r in s.rows] == [(0.0, 1.0), (1.5, 0.5), (2.0, 0.25)]
    assert all(isinstance(v, float) for row in s.rows for v in row)


def test_version_stamped():
    s = _series()
    assert "version" in s.metadata
    assert s.metadata["seed"] == 7


def test_unsorted_rejected():
    with pytest.raises(ValueError):
        CurveSeries("bad", ("x", "y", "s"), ((1.0, 0.0, 0.0), (0.5, 0.0, 0.0)))


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        CurveSeries("bad", ("x", "y", "s"), ((0.0, 0.0, -0.1),))


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        CurveSeries("bad", ("x", "y"), ((0.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        CurveSeries("bad", ("x", "y", "s"), ((0.0, 0.0),))


def test_json_round_trip(tmp_path):
    path = str(tmp_path / "curves.json")
    a, b = _series("alpha"), _series("beta", metadata={"note": "x"})
    write_json(path, [a, b])
    back = read_json(path)
    assert [s.name for s in back] == ["alpha", "beta"]
    assert back[0].rows[:2] == a.rows[:2]
    assert math.isnan(back[0].rows[2][2])
    assert back[1].metadata["note"] == "x"


def test_json_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": 99, "series": []}))
    with pytest.raises(ValueError):
        read_json(str(path))


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "curves.csv")
    a, b = _series("alpha"), _series("beta")
    write_csv(path, [a, b])
    back = read_csv(path)
    assert [s.name for s in back] == ["alpha", "beta"]
    assert back[0].columns == a.columns
    # repr floats round-trip exactly
    assert back[0].rows[:2] == a.rows[:2]
    assert math.isnan(back[0].rows[2][2])
    assert back[0].metadata["seed"] == 7


def test_csv_single_series_arg(tmp_path):
    path = str(tmp_path / "one.csv")
    write_csv(path, _series())
    assert len(read_csv(path)) == 1


def test_write_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json(p1, _series())
    write_json(p2, _series())
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_atomic_write(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "hello\n")
    assert open(path).read() == "hello\n"
    # overwrite in place, no stray temp files left behind
    atomic_write_text(path, "bye\n")
    assert open(path).read() == "bye\n"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def test_empty_series_list_rejected(tmp_path):
    with pytest.raises(TypeError):
        write_json(str(tmp_path / "x.json"), [])
