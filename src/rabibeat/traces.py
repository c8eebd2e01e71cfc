"""Sampled time traces and the on-disk formats of every artifact.

Every CSV artifact is a columns file: a versioned header line such as
``# rabibeat-trace v1``, optional ``# key: value`` comment lines, a column
line such as ``time_us,signal``, then one :func:`format_float` row per
sample.  Both directions are exact to the bit.  :func:`write_columns`
prints each value as ``format_float`` does: one numpy pass computes the
digits of a chunk of values and lays each value out as a packed 19-byte
record, one ``np.insert`` adds the "-" of each negative value, and
``format_float``'s own text replaces the records of the few values it must
write, among them every value with a three-digit exponent.
:func:`read_columns` reads each field as ``float()`` does, with two
readers: one numpy pass decodes the run of packed lines that ends a
``.csv`` file, possibly empty, and a line reader reads the lines before
it, and every file with another suffix, with ``float()`` per field.  A trace's
metadata travels in a JSON sidecar ``<stem>.meta.json`` with the top-level
keys ``units``, ``drive``, ``decay`` and ``provenance``; all JSON goes
through :func:`write_json`.  Equal inputs produce byte-identical files, and
parse -> re-serialize is the identity on files this module wrote.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["SampledTrace", "TRACE_HEADER", "format_float", "meta_path_for",
           "read_columns", "write_columns", "write_json"]

TRACE_HEADER = "# rabibeat-trace v1"
TRACE_COLUMNS = "time_us,signal"


_FLOAT = "{:.12e}"


def format_float(x: float) -> str:
    """13-significant-digit format; parses back to a float that reprints
    identically, which keeps file round-trips byte-stable."""
    return _FLOAT.format(x)


# write_columns formats zeros and every value with a two-digit decimal
# exponent e itself; three-digit exponents, subnormals and non-finite values
# go through format_float.  Tables are indexed by e, a negative e counting
# from the end, and reach e = ±100, one past the two-digit range, where
# log10 misses a decade.
_EXPONENTS = np.concatenate([np.arange(101), np.arange(-100, 0)])
# correctly rounded 10**(12 - e)
_SCALE = np.array([float(f"1e{12 - e}") for e in _EXPONENTS.tolist()])
# The scaled mantissa y = |x| * _SCALE[e] carries two roundings, of the scale
# and of the product, so |y - |x| * 10**(12 - e)| <= 2**-52 * y < 2.3e-3 for
# y < 1e13.  np.rint(y) is then the correctly rounded mantissa unless y lies
# within that distance of a half-integer.  _TIE_BAND covers the bound with a
# margin.  A value inside it is rounded exactly by _round_exact where
# 10**(12 - e) is a double, for e in _EXACT_E (10**22 is the largest such
# power), and goes through format_float elsewhere.
_TIE_BAND = 4e-3
_EXACT_E = (-10, 12)
# |x| in [_LOW, _HIGH] has a two-digit exponent unless it rounds up to
# 1e+100, and unless it lies next to a tie or a decade edge its text comes
# from the short path of _digits
_LOW, _HIGH = 1e-99, float(np.nextafter(1e100, 0.0))
# values formatted per numpy pass: the pass's temporaries stay in cache
_CHUNK = 8192
_U8 = np.uint8


def _digit_text(values, width: int) -> np.ndarray:
    """ASCII digits of ``values``, zero-padded to ``width``, one row each."""
    places = np.int64(10) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (values[:, None] // places % 10).astype(_U8) + _U8(ord("0"))


# A value that prints at 18 characters (no sign, a two-digit exponent) is
# one packed 19-byte record: "d.", three 4-digit groups, "e±dd" and the
# separator.  Each table holds the text of a field, gathered by value.
_RECORD = np.dtype({
    "names": ["lead", "high", "mid", "low", "exp", "sep"],
    "formats": [np.uint16, np.uint32, np.uint32, np.uint32, np.uint32, _U8],
    "offsets": [0, 2, 6, 10, 14, 18], "itemsize": 19})
_GROUP = _digit_text(np.arange(10_000, dtype=np.int64), 4).view(np.uint32)[:, 0]
_DOT = np.zeros((10, 2), dtype=_U8)
_DOT[:, 0] = np.arange(10, dtype=_U8) + _U8(ord("0"))
_DOT[:, 1] = ord(".")
_DOT = _DOT.view(np.uint16)[:, 0]
_EXP = np.zeros((_EXPONENTS.size, 4), dtype=_U8)
_EXP[:, 0] = ord("e")
_EXP[:, 1] = np.where(_EXPONENTS < 0, _U8(ord("-")), _U8(ord("+")))
_EXP[:, 2:] = _digit_text(np.abs(_EXPONENTS), 2)
_EXP = _EXP.view(np.uint32)[:, 0]


def _split(v):
    """Veltkamp's split of ``v`` into halves of 26 bits, hi + lo == v."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _round_exact(a, scale):
    """``(rint(a * scale), tie)``: the rounding of the exact product of the
    doubles ``a`` and ``scale``, ties to even, and whether the rounded
    product ``a * scale`` lies within _TIE_BAND of a half-integer.  Dekker's
    two-product gives the rounding error of ``a * scale`` exactly."""
    y = a * scale
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scale)
    error = ((a_hi * s_hi - y) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    floor = np.floor(y)
    # y - floor - 0.5 is exact, so the sum has the sign of the exact excess
    excess = y - floor - 0.5
    above = excess + error
    rounded = floor + ((above > 0) | ((above == 0) & (floor % 2 == 1)))
    return rounded, np.abs(excess) < _TIE_BAND


def _digits_rare(a):
    """``(mantissa, e, slow)`` of magnitudes ``a`` that the short path of
    :func:`_digits` leaves: zeros, |x| outside [_LOW, _HIGH], values next
    to a decade edge or within _TIE_BAND of a rounding tie."""
    in_range = (a >= _LOW) & (a <= _HIGH)
    b = np.where(in_range, a, 1.0)
    e = np.floor(np.log10(b)).astype(np.intp)
    # next to a power of ten log10 can miss the decade by one
    y = b * _SCALE[e]
    e += (y >= 1e13).astype(np.intp) - (y < 1e12)
    # the exact product is |x| * 10**(12 - e) only for e in _EXACT_E; the
    # rounding of the other products is the right one away from ties
    mantissa, tie = _round_exact(b, _SCALE[e])
    # a mantissa that rounds up to 1e13 carries into the exponent
    carry = mantissa >= 1e13
    mantissa[carry] = 1e12
    slow = (~in_range & (a != 0)) | (tie & ((e < _EXACT_E[0]) | (e > _EXACT_E[1])))
    e += carry
    # a zero is 0e+00; format_float writes the values left slow, and those
    # that carry to a three-digit exponent
    return mantissa * in_range, e, slow | (e == 100)


def _digits(x):
    """``(mantissa, e, slow)`` of the values ``x``: the 13-digit mantissa
    of ``format_float(x)`` as an integer-valued float, the decimal exponent
    and the indices of the values left to format_float."""
    a = np.abs(x)
    # the short path: log10 of |x| clipped to [_LOW, _HIGH] (NaN to _HIGH)
    clipped = np.fmax(np.fmin(a, _HIGH), _LOW)
    e = np.floor(np.log10(clipped)).astype(np.intp)
    y = clipped * _SCALE[e]
    mantissa = np.rint(y)
    rare = np.flatnonzero((np.abs(y - mantissa) > 0.5 - _TIE_BAND)
                          | (np.abs(mantissa - 5.5e12) >= 4.5e12)
                          | (clipped != a))
    if rare.size == 0:
        return mantissa, e, rare
    mantissa[rare], e[rare], slow = _digits_rare(a[rare])
    return mantissa, e, rare[slow]


def _groups(mantissa):
    """The lead digit and the three 4-digit groups of ``mantissa``, as
    indices.  Multiply and floor are exact here: 1e-4 rounds up and each
    quotient stays below 1e9."""
    groups = []
    for _ in range(3):
        quotient = np.floor(mantissa * 1e-4)
        groups.append((mantissa - quotient * 1e4).astype(np.intp))
        mantissa = quotient
    return mantissa.astype(np.intp), *groups[::-1]


def _format_rows(values: np.ndarray, records: np.ndarray) -> list:
    """The bytes of ``"".join(",".join(map(format_float, row)) + "\\n" for
    row in values)`` for a 2-D float array, as a list of bytes-like parts.

    Each value is laid out as a packed record.  One np.insert adds a "-"
    before each negative record.  format_float's text then replaces the
    records of the slow values, among them every three-digit exponent, at
    offsets shifted by the signs inserted before them.  ``records`` is a
    _RECORD array of at least as many rows, with the separators set; the
    parts may be views of it."""
    x = values.ravel()
    mantissa, e, slow = _digits(x)
    lead, high, mid, low = _groups(mantissa)
    flat = records[: len(values)].ravel()
    flat["lead"] = _DOT[lead]
    flat["high"] = _GROUP[high]
    flat["mid"] = _GROUP[mid]
    flat["low"] = _GROUP[low]
    flat["exp"] = _EXP[e]
    negative = np.signbit(x)
    # format_float's text replaces a slow record whole: no sign goes before it
    negative[slow] = False
    size = _RECORD.itemsize
    offsets = np.flatnonzero(negative) * size
    text = flat.view(_U8)
    if offsets.size:  # with no offsets np.insert still masks the whole chunk
        text = np.insert(text, offsets, _U8(ord("-")))
    text = memoryview(text)
    parts, start = [], 0
    shifts = np.searchsorted(offsets, slow * size)
    for i, shift in zip(slow.tolist(), shifts.tolist()):
        begin = i * size + shift
        parts += [text[start:begin], format_float(float(x[i])).encode("ascii")]
        start = begin + size - 1  # at the record's separator
    parts.append(text[start:])
    return parts


def meta_path_for(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def write_columns(path, header: str, columns: str, arrays, comments=None) -> Path:
    """Write equal-length ``arrays`` as the rows of a columns file, with
    ``comments`` (a dict) as ``# key: value`` lines under the header.
    Every value is written as :func:`format_float` writes it."""
    path = Path(path)
    lines = [header, *(f"# {k}: {v}" for k, v in (comments or {}).items()), columns]
    rows = np.column_stack([np.asarray(a, dtype=np.float64) for a in arrays])
    step = max(1, _CHUNK // rows.shape[1])
    # one record buffer for every chunk; each chunk is written before the next
    records = np.empty((min(step, len(rows)), rows.shape[1]), dtype=_RECORD)
    records["sep"] = ord(",")
    records["sep"][:, -1] = ord("\n")
    with path.open("wb") as file:
        file.write(("\n".join(lines) + "\n").encode("ascii"))
        for i in range(0, len(rows), step):
            file.writelines(_format_rows(rows[i : i + step], records))
    return path


def _add_comment(comments: dict, text: str) -> None:
    """Record a stripped ``# key: value`` line; a comment without ":" is
    skipped."""
    key, sep, value = text[1:].partition(":")
    if sep:
        comments[key.strip()] = value.strip()


def _decode(records, up, down):
    """``(values, valid, window)`` of a flat _RECORD array: each field's
    value, whether the field is packed (``d.``, three 4-digit groups and
    ``e±dd``; its separator is not checked), and whether its exponent e
    lies in [-10, 34].  ``up`` and ``down`` are the powers of ten that a
    mantissa is multiplied and divided by, indexed by 34 - e.

    The checks and the digits are SWAR arithmetic on the little-endian
    fields.  ``d.`` reads as 0x2E30 + d.  A word of four ASCII bytes holds
    digits only if no byte gets its high bit set by adding 0x46 or by
    subtracting 0x30; the digits d0..d3, d0 in the lowest byte, then give
    the pairs 10·d0 + d1 and 10·d2 + d3 in bytes 0 and 2, and one multiply
    combines them.  ``e±dd`` is checked and read as the digits ``00dd``."""
    flat = records.view(_RECORD.newbyteorder("<"))
    # one row for each of the uint32 fields high, mid, low and exp
    words = np.ndarray((4, flat.size), dtype="<u4", buffer=flat,
                       offset=_RECORD.fields["high"][1],
                       strides=(4, _RECORD.itemsize)).copy()
    sign = words[3] & np.uint32(0xFFFF)  # "e" and the exponent's sign
    words[3] ^= sign ^ np.uint32(0x3030)
    digits = words - np.uint32(0x30303030)
    words += np.uint32(0x46464646)
    words |= digits
    high_bits = np.bitwise_or.reduce(words)
    np.right_shift(digits, np.uint32(8), out=words)
    digits *= np.uint32(10)
    digits += words
    digits &= np.uint32(0x00FF00FF)
    digits *= np.uint32(1 + (100 << 16))
    digits >>= np.uint32(16)
    lead = flat["lead"] - np.uint16(0x2E30)
    valid = ((lead < np.uint16(10))
             & ((sign == np.uint32(0x2B65)) | (sign == np.uint32(0x2D65)))
             & ((high_bits & np.uint32(0x80808080)) == 0))
    # 34 - e as uint32: the sign byte less 44 is -1 for "+" and 1 for "-"
    index = sign
    index >>= np.uint32(8)
    index -= np.uint32(44)
    index *= digits[3]
    index += np.uint32(34)
    window = index <= np.uint32(44)
    np.minimum(index, np.uint32(45), out=index)
    mantissa = lead.astype(np.float64)
    for group in digits[:3]:
        mantissa *= 1e4
        mantissa += group
    # one of the two factors is 1, so one rounding
    mantissa *= up[index]
    mantissa /= down[index]
    return mantissa, valid, window


def _parse_lines(path, lines, columns: str, width: int, comments: dict):
    """The data rows among the ``(lineno, raw)`` pairs ``lines``, as an
    array of ``width`` columns, each field read by ``float()``.  Comment
    lines go into ``comments``; blank and column lines are skipped.  The
    first line with another number of fields raises, then the first field
    float() rejects."""
    fields = []
    for lineno, raw in lines:
        text = raw.strip()
        if text[:1] == "#":
            _add_comment(comments, text)
        elif not text or text == columns:
            continue
        elif text.count(",") != width - 1:
            raise ValueError(f"{path}:{lineno}: expected {width} "
                             f"comma-separated fields, got {raw!r}")
        else:
            fields.append((lineno, text.split(",")))
    rows = []
    for lineno, row in fields:  # after every row's field count is checked
        try:
            rows.append([float(text) for text in row])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return np.array(rows).reshape(-1, width)


def _packed_lines(data: bytes, start: int, width: int):
    """``(values, packed)`` of the lines of ``width`` records from ``start``
    to the end of ``data``, each ending in "\\n": the values of each line,
    and whether it is one of packed fields with "," between them.  A packed
    field outside the exponent window is read by float()."""
    records = np.frombuffer(data, dtype=_RECORD, offset=start)
    # 10**(e - 12) as up / down, by 34 - e in [0, 44]; 45 is out of the window
    tens = np.array([10**k for k in range(23)], dtype=np.float64)
    up = np.concatenate((tens[:0:-1], np.ones(24)))
    down = np.concatenate((np.ones(22), tens, [1.0]))
    values = np.empty(records.size)
    valid = np.empty(records.size, dtype=bool)
    window = np.empty(records.size, dtype=bool)
    for i in range(0, records.size, _CHUNK):
        chunk = slice(i, i + _CHUNK)
        values[chunk], valid[chunk], window[chunk] = _decode(records[chunk], up, down)
    valid = valid.reshape(-1, width)
    valid[:, :-1] &= records["sep"].reshape(-1, width)[:, :-1] == ord(",")
    # (valid.all(axis=1) takes some 30 times as long on two columns)
    packed = np.ones(len(valid), dtype=bool)
    packed[np.flatnonzero(~valid) // width] = False
    for i in np.flatnonzero(~window).tolist():
        if packed[i // width]:
            at = start + i * _RECORD.itemsize
            values[i] = float(data[at : at + _RECORD.itemsize - 1])
    return values.reshape(-1, width), packed


def _packed_run(data: bytes, width: int):
    """``(start, values)`` of the run of lines of ``width`` packed records
    that ends ``data`` after its first line: the offset of the run's first
    line and the values :func:`_packed_lines` reads from the run.  The run
    may be empty."""
    size = _RECORD.itemsize * width
    tail = len(data) - (len(data) - data.find(b"\n") - 1) // size * size
    start = len(data)
    if tail < len(data) and data[-1] == 10:
        # The run, found without a scan: of the slots of ``size`` bytes
        # counted back from the end, those after the last one without a
        # "\n" before it and at its end, then those after the last one that
        # is not a packed line.
        ends = np.frombuffer(data, dtype=_U8)[tail - 1 :: size]
        breaks = np.flatnonzero(ends != _U8(10))
        start = tail + size * (int(breaks[-1]) + 1 if breaks.size else 0)
    if start == len(data):
        return start, np.empty((0, width))
    run, packed = _packed_lines(data, start, width)
    if not packed.all():
        cut = int(np.flatnonzero(~packed)[-1]) + 1
        start, run = start + size * cut, run[cut:]
    return start, run


def read_columns(path, header: str, columns: str):
    """Parse a columns file into ``(arrays, comments)``: one float array
    per column and the dict of ``# key: value`` lines.  Blank lines,
    comment lines and repeats of the column line may stand anywhere after
    the header, lines end as ``str.splitlines`` ends them, and every field
    reads as ``float()`` reads it.  Errors name the file and line.

    Two readers share a file.  The run of lines of packed 19-byte records
    that ends a ``.csv`` file (:func:`_packed_run`; it may be empty) is
    decoded in one numpy pass by :func:`_decode`: each field is checked
    byte for byte and, with its exponent e in [-10, 34], read as the
    13-digit mantissa m times or over an exact power of ten,
    m · 10**(e - 12).  m < 2**53 and 10**22 are exact doubles, so one
    correctly rounded operation gives the double float() gives (Clinger's
    fast path).  Other fields of such lines go to float().  The text
    before the run, and all of a file with another suffix, is split into
    lines and read by :func:`_parse_lines` with ``float()`` per field,
    which also names a line at fault.  In a file :func:`write_columns`
    wrote, its rows run to the last one with a sign or a three-digit
    exponent, one of the first rows in the package's artifacts; in another
    program's file they are every row."""
    path = Path(path)
    data = path.read_bytes()
    if not data.isascii():
        pos = int(np.flatnonzero(np.frombuffer(data, dtype=_U8) > 127)[0])
        lineno = len((data[:pos].decode("ascii") + "x").splitlines())
        raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{data[pos]:02x}")
    width = columns.count(",") + 1
    csv = path.suffix == ".csv"
    start, run = _packed_run(data, width) if csv else (len(data), np.empty((0, width)))
    lines = data[:start].decode("ascii").splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}:1: missing header {header!r}")
    comments = {}
    rows = _parse_lines(path, enumerate(lines[1:], start=2), columns, width, comments)
    table = np.concatenate((rows, run))
    if len(table) < 2:
        raise ValueError(f"{path}: fewer than two data rows")
    return list(table.T.copy()), comments


def _jsonable(obj):
    """Convert numpy scalars/arrays and non-finite floats for JSON output."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON via :func:`_jsonable`."""
    Path(path).write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@dataclass
class SampledTrace:
    """A sampled signal: times in microseconds, dimensionless values.

    Times must be strictly increasing and finite.  ``meta`` is free-form
    JSON-serializable metadata.
    """

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if self.times.size != self.values.size:
            raise ValueError(
                f"length mismatch: {self.times.size} times, "
                f"{self.values.size} values"
            )
        if self.times.size < 2:
            raise ValueError("a trace needs at least two samples")
        if not np.all(np.isfinite(self.times)) or not np.all(
            np.isfinite(self.values)
        ):
            raise ValueError("times and values must be finite")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def dt(self) -> float:
        """Mean sample spacing in microseconds."""
        return self.duration / (self.n - 1)

    def is_uniform(self) -> bool:
        """Every step equals the first to 1e-6 relative."""
        steps = np.diff(self.times)
        return bool(np.all(np.abs(steps - steps[0]) <= 1e-6 * abs(steps[0])))

    def to_csv(self, path) -> Path:
        return write_columns(
            path, TRACE_HEADER, TRACE_COLUMNS, (self.times, self.values)
        )

    @classmethod
    def from_csv(cls, path) -> "SampledTrace":
        """Read a trace and its sidecar; errors name the file at fault."""
        (times, values), _ = read_columns(path, TRACE_HEADER, TRACE_COLUMNS)
        meta = {}
        side = meta_path_for(path)
        if side.exists():
            try:
                meta = json.loads(side.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise ValueError(f"{side}: {exc}") from None
        try:
            return cls(times, values, meta)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def save(self, path) -> Path:
        """Write the CSV and, when metadata is present, the JSON sidecar."""
        path = self.to_csv(path)
        if self.meta:
            write_json(meta_path_for(path), self.meta)
        return path
