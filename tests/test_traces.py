import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabibeat import traces
from rabibeat.analysis import (
    LINESHAPE_COLUMNS, LINESHAPE_HEADER, SPECTRUM_COLUMNS, SPECTRUM_HEADER,
    fft_spectrum, synthesize_esr,
)
from rabibeat.cli import main
from rabibeat.config import load_config
from rabibeat.evolve import rabi_trace_vtype
from rabibeat.imaging import (
    FIELDMAP_COLUMNS, FIELDMAP_HEADER, FieldMap, WaveguideGeometry,
)
from rabibeat.traces import (
    SampledTrace, TRACE_COLUMNS, TRACE_HEADER, format_float, read_columns,
    write_columns, write_json,
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


def test_write_json_converts_numpy_values_and_non_finite_floats(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {
        "array": np.array([1.5, np.nan]),
        "nested": [(np.float64(np.inf), np.int64(7))],
        "flags": [np.bool_(True), np.bool_(False)],
        "scalar": np.float32(0.25),
        "floats": [float("nan"), float("inf"), float("-inf"), 2.0],
    })
    assert json.loads(path.read_text()) == {
        "array": [1.5, None],
        "nested": [[None, 7]],
        "flags": [True, False],
        "scalar": 0.25,
        "floats": [None, None, None, 2.0],
    }
    # strict JSON: no NaN or Infinity tokens
    assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()


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
@given(st.tuples(st.integers(1, 3), st.sampled_from([st.floats(), st.floats(0, 1e99)]))
       .flatmap(lambda drawn: st.lists(st.lists(drawn[1], min_size=drawn[0],
                                                max_size=drawn[0]),
                                       min_size=1, max_size=40)))
def test_write_columns_writes_every_double_as_format_float(tmp_path_factory, rows):
    # st.floats(0, 1e99) rows are mostly plain packed records; st.floats()
    # rows mostly get a sign inserted or, with a three-digit exponent, are
    # spliced format_float text
    assert_rows_formatted_as_format_float(tmp_path_factory.mktemp("rows"), rows)


def test_write_columns_is_exact_next_to_rounding_ties(tmp_path):
    rng = np.random.default_rng(5)
    mantissas = rng.integers(10**12, 10**13, size=400).tolist()
    exponents = rng.integers(-300, 301, size=400).tolist()
    # (k + 0.5) * 10**(e - 12): the 13-digit rounding of these is a tie
    ties = [float(f"{k}5e{e - 13}") for k, e in zip(mantissas, exponents)]
    ties += [float(f"{k}.5") for k in mantissas]  # exact ties
    ties = np.array(ties + [9.9999999999995, 9.9999999999995e-5, 9.9999999999995e99,
                            9.9999999999995e-100])
    # values that round up into the next decade, and the decade edges, among
    # them those of the two-digit exponents
    decades = np.array([1e-280, 1e-99, 1e-5, 1.0, 1e12, 1e13, 1e100, 1e200, 1e279])
    edges = [9.99999999999996e-5, 9.99999999999999e200, *decades,
             *np.nextafter(decades, 0.0), *np.nextafter(decades, np.inf)]
    values = np.concatenate([
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), edges,
        [1e100, -1e-100, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
         1.7976931348623157e308, 1e-290, -1e290, np.nan, np.inf, -np.inf],
    ])
    values = np.concatenate([values, np.zeros(-values.size % 3)])
    assert_rows_formatted_as_format_float(tmp_path, values.reshape(-1, 3))


def test_write_columns_packs_exact_ties_zeros_and_isolated_wide_records(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    # exact 13-digit ties (2k + 1) / 2 * 10**(e - 12): with 2k + 1 = j * 5**(12 - e)
    # the value is j / 2**(13 - e), a double for odd j < 2**53 (so e >= -7)
    exact = []
    for e in range(-7, 13):
        step = 5 ** (12 - e)
        low, high = -(-(2 * 10**12 + 1) // step), (2 * 10**13 - 1) // step
        high -= high % 2 == 0
        exact += [math.ldexp(int(j) | 1, e - 13)
                  for j in rng.integers(low, high + 1, size=30)]
    for x, e in zip(exact, np.repeat(np.arange(-7, 13), 30)):
        assert (Fraction(x) * Fraction(10) ** (12 - int(e))).denominator == 2
    # the doubles nearest to ties, down to e = -10, where no exact tie exists
    nearest = [float(f"{k}5e{e - 13}") for k, e in zip(
        rng.integers(10**12, 10**13, size=400).tolist(),
        rng.integers(-10, 13, size=400).tolist())]
    ties = np.array(exact + nearest + [9.9999999999995e12, 1.0000000000005e-10])
    edges = np.array([1e-10, 1e13])
    pool = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
                           edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                           np.zeros(50)])
    values = rng.choice(pool, size=3 * traces._CHUNK)
    values[: pool.size] = pool
    # one isolated wide record in each of the first two chunks
    values[traces._CHUNK // 2] = -1.1102230246251565e-16
    values[traces._CHUNK + 7] = 2.5e-120
    calls = []
    monkeypatch.setattr(traces, "format_float",
                        lambda x: calls.append(x) or format_float(x))
    assert_rows_formatted_as_format_float(tmp_path, values.reshape(-1, 2))
    # a three-digit exponent is format_float's
    assert calls == [2.5e-120]


def test_write_columns_inserts_signs_in_dense_chunks(tmp_path, monkeypatch):
    rng = np.random.default_rng(29)
    # an ESR scan: a half-negative frequency column beside a positive signal
    freqs = np.linspace(-15.0, 15.0, traces._CHUNK)
    esr = np.column_stack([freqs, 1 - 0.3 / (1 + (freqs / 0.7) ** 2)])
    # three-digit exponents of either sign on values of either sign, with
    # 13-digit mantissas, so none is next to a rounding tie
    digits = rng.integers(10**12, 10**13, size=2 * traces._CHUNK).tolist()
    exponents = (rng.choice([-1, 1], size=len(digits))
                 * rng.integers(100, 280, size=len(digits))).tolist()
    signs = rng.choice(["", "-"], size=len(digits)).tolist()
    wide = np.array([float(f"{s}{d}e{e - 12}")
                     for s, d, e in zip(signs, digits, exponents)]).reshape(-1, 2)
    # a negative, three-digit or slow value on either side of the chunk
    # edge; the ties are slow, as their exponents lie outside [-10, 12]
    slow = [5e-324, -np.inf, np.inf, np.nan, 1.2345678901235e-20,
            -1.2345678901235e-120]
    special = [-2.5, -0.0, 3e-120, -7e250, *slow]
    three = re.compile(r"e[+-][0-9]{3}$")
    calls = []
    monkeypatch.setattr(traces, "format_float",
                        lambda x: calls.append(x) or format_float(x))
    for table in (esr, wide):
        for k in range(len(special)):
            edge = [k, (k + 1) % len(special)]
            rows = table.copy()
            rows.flat[traces._CHUNK - 1 : traces._CHUNK + 1] = [special[j] for j in edge]
            calls.clear()
            assert_rows_formatted_as_format_float(tmp_path, rows)
            # format_float writes each slow value and each three-digit
            # exponent, in the order of the rows
            slow_at = {traces._CHUNK - 1 + n for n, j in enumerate(edge)
                       if j >= len(special) - len(slow)}
            texts = [format_float(x) for x in rows.ravel().tolist()]
            assert list(map(format_float, calls)) == [
                text for i, text in enumerate(texts) if i in slow_at or three.search(text)]


def test_simulated_presets_write_without_format_float(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(traces, "format_float",
                        lambda x: calls.append(x) or format_float(x))
    for preset in ("paper-fig3", "paper-fig7", "drift-demo"):
        assert main(["simulate", "--config", preset, "--out", str(tmp_path / preset)]) == 0
    assert calls == []


def fig7_trace():
    cfg = load_config("paper-fig7")
    return rabi_trace_vtype(cfg.drive["lambda_mhz"], cfg.manifolds, cfg.grid,
                            decay=cfg.decay)


def fig7_trace_csv(tmp_path):
    return fig7_trace().to_csv(tmp_path / "fig7.csv")


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
    # a written trace decodes as packed records; with a comment past row
    # 1000 the rows after it still decode and the line reader reads the
    # comment and the rows before it, to the same bits
    full = fig7_trace_csv(tmp_path)
    lines = full.read_text().splitlines()
    lines.insert(1500, "# k: v")
    commented = tmp_path / "commented.csv"
    commented.write_text("\n".join(lines) + "\n")
    (t0, v0), _ = read_columns(full, TRACE_HEADER, TRACE_COLUMNS)
    (t1, v1), comments = read_columns(commented, TRACE_HEADER, TRACE_COLUMNS)
    assert t0.tobytes() == t1.tobytes() and v0.tobytes() == v1.tobytes()
    assert t1.size == len(lines) - 3 and comments == {"k": "v"}


def test_read_columns_decodes_commented_files_and_the_line_reader_reads_the_rest(
        tmp_path, monkeypatch):
    # spectrum.csv and fieldmap.csv carry "# key: value" lines under the
    # header and decode as packed records; hand.csv has no packed row, so
    # float() reads each of its fields.  A .txt copy, which goes to the line
    # reader, gives the same bits and comments
    trace = SampledTrace.from_csv(fig7_trace_csv(tmp_path))
    fmap = FieldMap.from_model(WaveguideGeometry(gap=10.0, drive_scale=20.0))
    hand = tmp_path / "hand.csv"
    hand.write_text("# rows\n# a: 1\n#no colon\n#  b : two words \n# a: 3\n"
                    "a,b\n0.0,1.0\n0.5,2.0\n")
    files = [
        (fft_spectrum(trace).to_csv(tmp_path / "spectrum.csv"),
         SPECTRUM_HEADER, SPECTRUM_COLUMNS, {"window": "hann"}),
        (fmap.to_csv(tmp_path / "fieldmap.csv"), FIELDMAP_HEADER, FIELDMAP_COLUMNS,
         {"model": "edge-cutoff waveguide profile"}),
        (hand, "# rows", "a,b", {"a": "3", "b": "two words"}),
    ]
    read = []
    for path, header, columns, expected in files:
        copy = path.with_suffix(".txt")
        copy.write_bytes(path.read_bytes())
        calls = count_reads(monkeypatch)
        fast, fast_comments = read_columns(path, header, columns)
        read.append([text for text in calls if isinstance(text, str)])
        monkeypatch.undo()
        slow, slow_comments = read_columns(copy, header, columns)
        assert fast_comments == slow_comments == expected
        assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow]
    assert read == [[], [], ["0.0", "1.0", "0.5", "2.0"]]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".txt"])
def test_read_columns_reads_plain_text_under_any_suffix(tmp_path, suffix):
    # no suffix names a decompressor: .gz, .bz2 and .xz files are read as
    # the plain text they hold
    path = tmp_path / f"rows{suffix}"
    path.write_text("# rows\na,b\n1.0,2.0\n3.0,4.0\n")
    (a, b), _ = read_columns(path, "# rows", "a,b")
    assert a.tolist() == [1.0, 3.0] and b.tolist() == [2.0, 4.0]


@pytest.mark.parametrize("bad_row, cause", [
    ("oops,2.0", "could not convert string to float: 'oops'"),
    ("1.0,2.0,3.0", "expected 2 comma-separated fields, got '1.0,2.0,3.0'"),
    ("1.0", "expected 2 comma-separated fields, got '1.0'"),
    # str.strip counts "\x1f" as whitespace, float() does not
    ("1.0,\x1f2.0", "could not convert string to float: '\\x1f2.0'"),
])
def test_read_columns_names_the_line_past_row_1000(tmp_path, bad_row, cause):
    lines = fig7_trace_csv(tmp_path).read_text().splitlines()
    lines[1500] = bad_row  # line 1501 of the file, data row 1499
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        read_columns(bad, TRACE_HEADER, TRACE_COLUMNS)
    assert str(excinfo.value) == f"{bad}:1501: {cause}"


def read_back(directory, rows):
    """``read_columns`` of ``write_columns(rows)`` against ``float(format_float(x))``."""
    rows = np.asarray(rows, dtype=float)
    names = ",".join("abc"[: rows.shape[1]])
    path = write_columns(directory / "rows.csv", "# rows", names, rows.T)
    columns, comments = read_columns(path, "# rows", names)
    expected = np.array([[float(format_float(x)) for x in row] for row in rows.tolist()])
    assert comments == {} and len(columns) == rows.shape[1]
    for parsed, column in zip(columns, expected.T):
        assert parsed.dtype == column.dtype
        assert parsed.tobytes() == column.tobytes()


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.one_of(st.floats(), st.floats(-1e35, 1e35)),
             min_size=width, max_size=width), min_size=2, max_size=40)))
def test_read_columns_reads_every_written_double_exactly(tmp_path_factory, rows):
    # st.floats() draws ±0, subnormals, nan and ±inf; the second strategy
    # keeps most values in the exponent window of the fast path
    read_back(tmp_path_factory.mktemp("rows"), rows)


def test_read_columns_is_exact_across_the_fast_exponent_window(tmp_path):
    rng = np.random.default_rng(12)
    mantissas = rng.integers(0, 10**13, size=3000).tolist()
    exponents = rng.integers(-13, 38, size=3000).tolist()
    # random mantissas of up to 13 digits at exponents from 1e-13 to 1e37
    values = [float(f"{k}e{e - 12}") for k, e in zip(mantissas, exponents)]
    values = np.array(values) * np.where(rng.random(3000) < 0.5, -1.0, 1.0)
    edges = [float(f"{d}e{e}") for d in ("1", "9.999999999999") for e in (-11, -10, 34, 35)]
    read_back(tmp_path, np.concatenate([values, edges, -np.array(edges)]).reshape(-1, 2))


def count_reads(monkeypatch):
    """The texts read_columns hands to float(), collected as it runs: the
    line reader's fields as str, the decoder's out-of-window packed fields
    as bytes."""
    calls = []
    monkeypatch.setattr(traces, "float", lambda text: calls.append(text)
                        or float(text), raising=False)
    return calls


def float_per_field(path, columns):
    """Each column of the rows below the column line, read by float()."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[lines.index(columns) + 1:]]
    return [np.array([float(row[i]) for row in rows]) for i in range(len(rows[0]))]


def test_reading_a_written_trace_sends_only_out_of_window_fields_to_float(
        tmp_path, monkeypatch):
    # 12001 rows of packed records, three of them with a field outside the
    # exponent window [-10, 34]: float() sees just those three fields
    trace = fig7_trace()
    values = trace.values.copy()
    values[[100, 5000, 12000]] = [2.5e-11, 4.0e35, 9.0e-99]
    path = write_columns(tmp_path / "trace.csv", TRACE_HEADER, TRACE_COLUMNS,
                         (trace.times, values))
    calls = count_reads(monkeypatch)
    columns, comments = read_columns(path, TRACE_HEADER, TRACE_COLUMNS)
    assert trace.n == 12001 and comments == {}
    assert calls == [b"2.500000000000e-11", b"4.000000000000e+35", b"9.000000000000e-99"]
    expected = float_per_field(path, TRACE_COLUMNS)
    assert [a.tobytes() for a in columns] == [a.tobytes() for a in expected]


def test_every_writer_artifact_reads_back_as_float(tmp_path, monkeypatch):
    # a trace whose first row is spliced (a negative residue at t = 0),
    # spectrum.csv, fieldmap.csv, and esr.csv with its negative
    # frequencies: each field reads as float() reads it, and float() sees
    # just the fields of the rows that are not packed records
    trace = fig7_trace()
    values = trace.values.copy()
    values[0] = -5.551115123126e-17
    fmap = FieldMap.from_model(WaveguideGeometry(gap=10.0, drive_scale=20.0))
    esr = synthesize_esr([0.0, 2.18, 4.36], [0.12] * 3, 0.8, np.linspace(-3.0, 7.5, 1051))
    files = [
        (write_columns(tmp_path / "trace.csv", TRACE_HEADER, TRACE_COLUMNS,
                       (trace.times, values)), TRACE_HEADER, TRACE_COLUMNS),
        (fft_spectrum(trace).to_csv(tmp_path / "spectrum.csv"),
         SPECTRUM_HEADER, SPECTRUM_COLUMNS),
        (fmap.to_csv(tmp_path / "fieldmap.csv"), FIELDMAP_HEADER, FIELDMAP_COLUMNS),
        (esr.to_csv(tmp_path / "esr.csv"), LINESHAPE_HEADER, LINESHAPE_COLUMNS),
    ]
    assert files[0][0].read_text().splitlines()[2] == "0.000000000000e+00,-5.551115123126e-17"
    assert files[3][0].read_text().splitlines()[2].startswith("-3.000000000000e+00,")
    packed_row = re.compile(r"[0-9]\.[0-9]{12}e[+-][0-9]{2}(,[0-9]\.[0-9]{12}e[+-][0-9]{2})*")
    for path, header, columns in files:
        calls = count_reads(monkeypatch)
        arrays, _ = read_columns(path, header, columns)
        monkeypatch.undo()
        expected = float_per_field(path, columns)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in expected]
        lines = path.read_text().splitlines()
        wide = [line for line in lines[lines.index(columns) + 1:]
                if not packed_row.fullmatch(line)]
        assert [text for text in calls if isinstance(text, str)] == [
            text for line in wide for text in line.split(",")]
        assert len(wide) == {"trace.csv": 1, "esr.csv": 300}.get(path.name, 0)


def test_read_columns_reads_window_edges_wide_exponents_and_zeros_as_float(tmp_path):
    # the first and last exponents of the window, their neighbours outside
    # it, three-digit exponents and both zeros, each in a row of packed
    # records where it is one
    values = [float(f"{d}e{e}") for d in ("1", "9.999999999999") for e in (-11, -10, 34, 35)]
    values += [1e-100, 9.999999999999e-100, 1e100, 2.5e-300, 1.7976931348623157e308,
               0.0, -0.0]
    read_back(tmp_path, [row for x in values for row in ([x, 0.5], [0.5, x])])


def test_packed_lines_accept_exactly_the_packed_shape():
    # every one-byte change of a packed field: a line is packed only if its
    # field has the shape d.dddddddddddde±dd, and then its value is float()'s
    base = b"1.234567890123e+05"
    texts = [base[:i] + bytes([c]) + base[i + 1:] for i in range(len(base)) for c in range(128)]
    texts += [b"0.000000000000e+00", b"0.000000000001e-10", b"9.999999999999e-11",
              b"9.999999999999e+34", b"1.000000000000e+35", b"5.000000000000e-00"]
    data = b"".join(text + b"\n" for text in texts)
    values, packed = traces._packed_lines(data, 0, 1)
    shape = re.compile(rb"[0-9]\.[0-9]{12}e[+-][0-9]{2}")
    assert packed.tolist() == [bool(shape.fullmatch(text)) for text in texts]
    for text, value in zip(np.array(texts, dtype=object)[packed], values[packed, 0]):
        assert np.float64(value).tobytes() == np.float64(float(text)).tobytes()


def read_outcome(path, header, columns):
    """``read_columns`` as comparable data: the column bytes and comments,
    or the error message with the path taken out."""
    try:
        arrays, comments = read_columns(path, header, columns)
    except ValueError as exc:
        return str(exc).replace(str(path), "<path>")
    return [a.tobytes() for a in arrays], comments


# packed rows, spliced rows (a sign, a three-digit exponent) and packed
# fields outside the exponent window
MUTATED_ROWS = np.array([[0.0, -5.551115123126e-17], [0.5, 0.25], [1.0, 1e-120],
                         [1.5, 3.5e34], [2.0, 2.5e-11], [2.5, 0.75], [3.0, 4.5e35],
                         [3.5, 1.0]])


@pytest.mark.parametrize("edit", ["drop the last line break", "add an empty line"])
def test_read_columns_reads_edited_files_as_the_line_reader(tmp_path, edit):
    packed = np.array([[0.5, 0.25], [1.5, 3.5e34], [2.0, 2.5e-11], [3.5, 1.0]])
    for rows in (MUTATED_ROWS, packed):
        path = write_columns(tmp_path / "rows.csv", "# rows", "a,b", rows.T)
        data = path.read_bytes()
        if edit == "add an empty line":
            second = data.index(b"\n", data.index(b"a,b\n") + 4) + 1
            path.write_bytes(data[:second] + b"\n" + data[second:])
        else:
            path.write_bytes(data[:-1])
        copy = path.with_suffix(".txt")
        copy.write_bytes(path.read_bytes())
        (a, b), _ = read_columns(path, "# rows", "a,b")
        assert a.size == len(rows)
        assert read_outcome(path, "# rows", "a,b") == read_outcome(copy, "# rows", "a,b")


def test_read_columns_needs_two_rows_of_packed_records(tmp_path):
    path = write_columns(tmp_path / "one.csv", "# rows", "a,b", ([0.5], [0.25]))
    with pytest.raises(ValueError, match="fewer than two data rows"):
        read_columns(path, "# rows", "a,b")


def test_read_columns_names_a_short_row_before_the_packed_rows(tmp_path):
    # a first row of one field, before the packed rows: the line reader
    # names it
    path = write_columns(tmp_path / "rows.csv", "# rows", "a,b",
                         ([0.0, 0.5, 1.0], [-5.5e-17, 0.25, 0.75]))
    lines = path.read_text().splitlines()
    lines[2] = "-1.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="rows.csv:3: expected 2 comma-separated fields"):
        read_columns(path, "# rows", "a,b")


@pytest.mark.parametrize("form, decoded", [("%.6e", 0), ("%+.11e", 1)])
def test_read_columns_sends_a_file_without_a_packed_last_row_to_the_line_reader(
        tmp_path, monkeypatch, form, decoded):
    # another program's CSV reads as before the decoder, by float() on
    # every field; a %+.11e row has a packed row's length, so only that
    # file is decoded first
    trace = fig7_trace()
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([TRACE_HEADER, TRACE_COLUMNS, *(
        f"{form},{form}" % row for row in zip(trace.times.tolist(), trace.values.tolist()))])
        + "\n")
    starts, packed_lines = [], traces._packed_lines
    monkeypatch.setattr(traces, "_packed_lines",
                        lambda data, start, width: starts.append(start)
                        or packed_lines(data, start, width))
    calls = count_reads(monkeypatch)
    columns, _ = read_columns(path, TRACE_HEADER, TRACE_COLUMNS)
    rows = path.read_text().splitlines()[2:]
    assert calls == [text for row in rows for text in row.split(",")]
    assert len(starts) == decoded
    expected = float_per_field(path, TRACE_COLUMNS)
    assert [a.tobytes() for a in columns] == [a.tobytes() for a in expected]


@settings(max_examples=300)
@given(st.sampled_from(["substitute", "delete", "insert"]), st.integers(0, 10**6),
       st.integers(0, 255))
def test_read_columns_decodes_no_file_the_line_reader_rejects(
        tmp_path_factory, change, at, byte):
    # one byte of the body changed: the .csv reads to the same bits and
    # comments as a .txt copy, which the line reader reads, or fails with
    # the same message
    directory = tmp_path_factory.mktemp("mutated")
    path = write_columns(directory / "rows.csv", "# rows", "a,b", MUTATED_ROWS.T, {"k": "v"})
    data = bytearray(path.read_bytes())
    body = data.index(b"\na,b\n") + 5
    at = body + at % (len(data) - body + (change == "insert"))
    if change == "substitute":
        data[at] = byte
    elif change == "delete":
        del data[at]
    else:
        data.insert(at, byte)
    path.write_bytes(bytes(data))
    copy = path.with_suffix(".txt")
    copy.write_bytes(bytes(data))
    assert read_outcome(path, "# rows", "a,b") == read_outcome(copy, "# rows", "a,b")


@pytest.mark.parametrize("text", [
    "1.5", "1E5", "+1.0", ".5", "5.", "1_0", "1.000000000000e+0005",
    "1.0000000000000e+00", " 2.0 ", "-0.000000000000e+00", "infinity",
    # 18 bytes, as long as a fast-path field, but of another shape
    "12345678901234e+00", "1.23456789012e+005", "1.234567890123E+00",
    "1.2345678901234500", "1.2345_6789012e+00", "1.23456789_012e+00",
])
def test_read_columns_reads_hand_written_fields_as_float(tmp_path, text):
    path = tmp_path / "hand.csv"
    path.write_text(f"# rows\na,b\n{text},0.0\n1.0,{text}\n")
    (a, b), _ = read_columns(path, "# rows", "a,b")
    expected = np.array([float(text)])
    assert a[:1].tobytes() == b[1:].tobytes() == expected.tobytes()


def test_read_columns_ends_lines_as_splitlines_does(tmp_path):
    text = (TRACE_HEADER + "\r\n# a: 1\r\n" + TRACE_COLUMNS + "\r\n0.0,1.0\r"
            + "0.5,2.0\n\f\n \t \r\n# b: 2\x1c1.0,3.0\v1.5,4.0")
    odd = tmp_path / "odd.csv"
    odd.write_bytes(text.encode("ascii"))
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(text.splitlines()) + "\n")
    (t0, v0), c0 = read_columns(plain, TRACE_HEADER, TRACE_COLUMNS)
    (t1, v1), c1 = read_columns(odd, TRACE_HEADER, TRACE_COLUMNS)
    assert t0.tolist() == t1.tolist() == [0.0, 0.5, 1.0, 1.5]
    assert v0.tolist() == v1.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert c0 == c1 == {"a": "1", "b": "2"}
    bad = odd.with_name("bad.csv")
    bad.write_bytes(text.replace("1.5,4.0", "1.5,four").encode("ascii"))
    lineno = text.replace("1.5,4.0", "1.5,four").splitlines().index("1.5,four") + 1
    with pytest.raises(ValueError) as excinfo:
        read_columns(bad, TRACE_HEADER, TRACE_COLUMNS)
    assert str(excinfo.value) == (
        f"{bad}:{lineno}: could not convert string to float: 'four'")


def test_read_columns_reads_a_crlf_file_by_the_line_reader(tmp_path, monkeypatch):
    # CRLF line ends leave no run of packed lines: every field goes to
    # float(), and reads to the bits of the LF original, which the decoder
    # reads
    path = fig7_trace_csv(tmp_path)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    expected, _ = read_columns(path, TRACE_HEADER, TRACE_COLUMNS)
    calls = count_reads(monkeypatch)
    columns, comments = read_columns(crlf, TRACE_HEADER, TRACE_COLUMNS)
    rows = crlf.read_text().splitlines()[2:]
    assert comments == {} and len(rows) == expected[0].size == 12001
    assert calls == [text for row in rows for text in row.split(",")]
    assert [a.tobytes() for a in columns] == [a.tobytes() for a in expected]
