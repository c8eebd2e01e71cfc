import json

import numpy as np
import pytest

from rabibeat.config import load_config
from rabibeat.evolve import rabi_trace_vtype
from rabibeat.traces import (
    SampledTrace, TRACE_COLUMNS, TRACE_HEADER, format_float, read_columns,
)


def test_trace_validation():
    with pytest.raises(ValueError):
        SampledTrace([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        SampledTrace([0.0], [1.0])
    with pytest.raises(ValueError):
        SampledTrace([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SampledTrace([0.0, np.nan], [1.0, 2.0])


def test_trace_properties():
    trace = SampledTrace(np.linspace(0.0, 10.0, 101), np.zeros(101))
    assert trace.n == 101
    assert trace.duration == pytest.approx(10.0)
    assert trace.dt == pytest.approx(0.1)
    assert trace.is_uniform()
    ragged = SampledTrace([0.0, 1.0, 3.0], [0.0, 0.0, 0.0])
    assert not ragged.is_uniform()


def test_csv_round_trip_is_stable(tmp_path):
    times = np.linspace(0.0, 1.0, 9)
    values = np.sin(times * 3.7) ** 2
    trace = SampledTrace(times, values, meta={"units": {"time": "us"}})
    first = tmp_path / "a.csv"
    trace.save(first)

    text = first.read_text()
    assert text.splitlines()[0] == TRACE_HEADER
    assert text.splitlines()[1] == TRACE_COLUMNS

    loaded = SampledTrace.from_csv(first)
    second = tmp_path / "b.csv"
    loaded.to_csv(second)
    # parse -> format is idempotent at the serialized precision
    assert first.read_text() == second.read_text()

    meta = json.loads((tmp_path / "a.meta.json").read_text())
    assert meta["units"]["time"] == "us"


def test_from_csv_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(TRACE_HEADER + "\n" + TRACE_COLUMNS + "\n0.0,1.0\noops,2.0\n")
    with pytest.raises(ValueError, match="bad.csv:4"):
        SampledTrace.from_csv(bad)


def test_from_csv_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,signal\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        SampledTrace.from_csv(bad)


def test_format_float_is_reparse_exact_at_13_digits():
    for x in (0.0, 1.0, np.pi, 2.18e-3, 22.2):
        assert float(format_float(x)) == pytest.approx(x, rel=1e-12, abs=1e-300)


def fig7_trace_csv(tmp_path):
    cfg = load_config("paper-fig7")
    trace = rabi_trace_vtype(cfg.drive["lambda_mhz"], cfg.manifolds, cfg.grid,
                             decay=cfg.decay)
    return trace.to_csv(tmp_path / "fig7.csv")


def test_read_columns_matches_float_per_field(tmp_path):
    path = fig7_trace_csv(tmp_path)
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    (times, values), comments = read_columns(path, TRACE_HEADER, TRACE_COLUMNS)
    assert comments == {}
    for column, parsed in enumerate((times, values)):
        expected = np.array([float(row[column]) for row in rows])
        assert parsed.dtype == expected.dtype
        assert parsed.tobytes() == expected.tobytes()


def test_read_columns_skips_blank_and_comment_lines_anywhere(tmp_path):
    clean = tmp_path / "clean.csv"
    clean.write_text(TRACE_HEADER + "\n# a: 1\n" + TRACE_COLUMNS
                     + "\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    messy = tmp_path / "messy.csv"
    messy.write_text(TRACE_HEADER + "\n\n# a: 1\n" + TRACE_COLUMNS
                     + "\n0.0,1.0\n\n   \n# b: two words\n 0.5 , 2.0 \n"
                     + TRACE_COLUMNS + "\n#no colon\n1.0,3.0\n\n# a: 3\n")
    (t0, v0), _ = read_columns(clean, TRACE_HEADER, TRACE_COLUMNS)
    (t1, v1), comments = read_columns(messy, TRACE_HEADER, TRACE_COLUMNS)
    assert np.array_equal(t0, t1) and np.array_equal(v0, v1)
    assert comments == {"a": "3", "b": "two words"}


@pytest.mark.parametrize("bad_row, cause", [
    ("oops,2.0", "could not convert string to float: 'oops'"),
    ("1.0,2.0,3.0", "expected 2 comma-separated fields, got '1.0,2.0,3.0'"),
    ("1.0", "expected 2 comma-separated fields, got '1.0'"),
])
def test_read_columns_names_the_line_past_row_1000(tmp_path, bad_row, cause):
    lines = fig7_trace_csv(tmp_path).read_text().splitlines()
    lines[1500] = bad_row  # line 1501 of the file, data row 1499
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        read_columns(bad, TRACE_HEADER, TRACE_COLUMNS)
    assert str(excinfo.value) == f"{bad}:1501: {cause}"
