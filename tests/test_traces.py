import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabibeat.config import load_config
from rabibeat.evolve import rabi_trace_vtype
from rabibeat.traces import (
    SampledTrace, TRACE_COLUMNS, TRACE_HEADER, format_float, read_columns,
    write_columns,
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


def assert_rows_formatted_as_format_float(directory, rows):
    rows = np.asarray(rows, dtype=float)
    path = write_columns(directory / "rows.csv", "# rows", "x", rows.T)
    written = path.read_bytes().decode("ascii").split("\n")
    assert written[:2] == ["# rows", "x"] and written[-1] == ""
    assert written[2:-1] == [",".join(map(format_float, row)) for row in rows.tolist()]


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.floats(), min_size=width, max_size=width), min_size=1, max_size=40)))
def test_write_columns_writes_every_double_as_format_float(tmp_path_factory, rows):
    assert_rows_formatted_as_format_float(tmp_path_factory.mktemp("rows"), rows)


def test_write_columns_is_exact_next_to_rounding_ties(tmp_path):
    rng = np.random.default_rng(5)
    mantissas = rng.integers(10**12, 10**13, size=400).tolist()
    exponents = rng.integers(-300, 301, size=400).tolist()
    # (k + 0.5) * 10**(e - 12): the 13-digit rounding of these is a tie
    ties = [float(f"{k}5e{e - 13}") for k, e in zip(mantissas, exponents)]
    ties += [float(f"{k}.5") for k in mantissas]  # exact ties
    ties = np.array(ties + [9.9999999999995, 9.9999999999995e-5])
    # values that round up into the next decade, and the decade edges
    decades = np.array([1e-280, 1e-5, 1.0, 1e12, 1e13, 1e200, 1e279])
    edges = [9.99999999999996e-5, 9.99999999999999e200, *decades,
             *np.nextafter(decades, 0.0), *np.nextafter(decades, np.inf)]
    values = np.concatenate([
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), edges,
        [1e100, -1e-100, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
         1.7976931348623157e308, 1e-290, -1e290, np.nan, np.inf, -np.inf],
    ])
    values = np.concatenate([values, np.zeros(-values.size % 3)])
    assert_rows_formatted_as_format_float(tmp_path, values.reshape(-1, 3))


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
