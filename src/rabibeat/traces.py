"""Sampled time traces and the on-disk formats of every artifact.

Every CSV artifact is a columns file: a versioned header line such as
``# rabibeat-trace v1``, optional ``# key: value`` comment lines, a column
line such as ``time_us,signal``, then one :func:`format_float` row per
sample.  Both directions are numpy passes over the file's bytes, exact to
the bit: :func:`write_columns` prints each value as ``format_float`` does,
and :func:`read_columns` reads each field as ``float()`` does.  A trace's
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


# write_columns formats a value with decimal exponent e in [-_EMAX - 1, _EMAX]
# itself; every other value goes through format_float.  In that range the
# scale 10**(12 - e) is a normal double and |x| * 10**(12 - e) cannot overflow.
_EMAX = 280
_EXPONENTS = np.arange(-_EMAX - 1, _EMAX + 1, dtype=np.int64)
# correctly rounded 10**(12 - e), indexed by e + _EMAX + 1
_SCALE = np.array([float(f"1e{12 - e}") for e in _EXPONENTS.tolist()])
# The scaled mantissa y = |x| * _SCALE[e] carries two roundings, of the scale
# and of the product, so |y - |x| * 10**(12 - e)| <= 2**-52 * y < 2.3e-3 for
# y < 1e13.  np.rint(y) is then the correctly rounded mantissa unless y lies
# within that distance of a half-integer; _TIE_BAND covers the bound with a
# margin, and values inside it go through format_float.
_TIE_BAND = 4e-3
# Each value is laid out in 24 bytes, read as six 4-byte words:
#   [sign, lead digit, ".", NUL] [4 digits] [4 digits] [4 digits]
#   ["e", exponent sign, hundreds digit, tens] [ones, NUL, NUL, separator]
# with NUL for a '+' sign and for a hundreds digit of 0.  Tables hold the
# text of a word (or of the 8-byte exponent) and are gathered by value.
_SLOTS = 24
# values formatted or parsed per numpy pass: the pass's temporaries stay
# in cache
_CHUNK = 8192
_U8 = np.uint8


def _digit_text(values, width: int) -> np.ndarray:
    """ASCII digits of ``values``, zero-padded to ``width``, one row each."""
    places = np.int64(10) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (values[:, None] // places % 10).astype(_U8) + _U8(ord("0"))


_GROUP = _digit_text(np.arange(10_000, dtype=np.int64), 4).view(np.uint32)[:, 0]
_LEAD = np.zeros((2, 10, 4), dtype=_U8)
_LEAD[1, :, 0] = ord("-")
_LEAD[:, :, 1] = np.arange(10, dtype=_U8) + _U8(ord("0"))
_LEAD[:, :, 2] = ord(".")
_LEAD = _LEAD.view(np.uint32).reshape(20)
_EXP = np.zeros((_EXPONENTS.size, 8), dtype=_U8)
_EXP[:, 0] = ord("e")
_EXP[:, 1] = np.where(_EXPONENTS < 0, _U8(ord("-")), _U8(ord("+")))
_EXP[:, 2:5] = _digit_text(np.abs(_EXPONENTS), 3)
_EXP[np.abs(_EXPONENTS) < 100, 2] = 0
_EXP = _EXP.view(np.uint64)[:, 0]


def _format_rows(values: np.ndarray) -> bytes:
    """The bytes of ``"".join(",".join(map(format_float, row)) + "\\n" for
    row in values)`` for a 2-D float array, computed as one numpy pass."""
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= float(f"1e-{_EMAX}")) & (a < float(f"1e{_EMAX}"))
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _SCALE[e + _EMAX + 1]
    mantissa = np.rint(y)
    # Next to a power of ten log10 can miss the decade by one; y then lies
    # outside [1e12, 1e13) and the value falls back, as does a mantissa
    # that rounds up to 1e13 and carries into the exponent.  (A computed
    # y >= 1e12 whose exact value lies just below rounds to 1e12, which is
    # the carried result of the decade below.)
    slow = (~fast | (np.abs(y - mantissa) > 0.5 - _TIE_BAND)
            | (y < 1e12) | (mantissa >= 1e13))
    mantissa[slow] = 1e12
    lead, rest = np.divmod(mantissa.astype(np.int64), np.int64(10**12))
    high, rest = np.divmod(rest, np.int64(10**8))
    mid, low = np.divmod(rest, np.int64(10**4))

    buf = np.empty((x.size, _SLOTS), dtype=_U8)
    words = buf.view(np.uint32)
    words[:, 0] = _LEAD[np.signbit(x).astype(np.int64) * 10 + lead]
    words[:, 1] = _GROUP[high]
    words[:, 2] = _GROUP[mid]
    words[:, 3] = _GROUP[low]
    buf.view(np.uint64)[:, 2] = _EXP[e + _EMAX + 1]
    buf[:, -1] = ord(",")
    buf.reshape(values.shape + (_SLOTS,))[:, -1, -1] = ord("\n")
    # format_float text is at most 20 bytes; NULs pad it to the slots
    texts = b"".join(format_float(v).encode("ascii").ljust(_SLOTS - 1, b"\0")
                     for v in x[slow].tolist())
    buf[slow, :-1] = np.frombuffer(texts, dtype=_U8).reshape(-1, _SLOTS - 1)
    return buf.tobytes().translate(None, b"\0")


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
    path.write_bytes(b"".join([
        ("\n".join(lines) + "\n").encode("ascii"),
        *(_format_rows(rows[i : i + step]) for i in range(0, len(rows), step)),
    ]))
    return path


# The fast path of read_columns (see its docstring) works on 8-byte words.
_U64 = np.uint64  # numpy 1.x promotes mixed integer types by value: keep all uint64
_ZEROS = _U64(0x3030303030303030)
_HIGH_NIBBLES = _U64(0xF0F0F0F0F0F0F0F0)
_SIXES = _U64(0x0606060606060606)
_PAIRS = _U64(0x000000FF000000FF)
# The exponent e of a field by its code 100·(e < 0) + |e|; the factor and
# divisor of m by the code plus 200 for a negative field.  One of the two
# is ±1, so the quotient of their product is rounded once.
_EXPONENT = [*range(100), *range(0, -100, -1)]
_EXPONENT_OK = np.array([abs(e - 12) <= 22 for e in _EXPONENT])
_FACTOR = np.array([float(10 ** max(e - 12, 0)) for e in _EXPONENT] * 2)
_FACTOR[200:] *= -1.0
_DIVISOR = np.array([float(10 ** max(12 - e, 0)) for e in _EXPONENT] * 2)
# bytes a line can start with and still be read as a data row without the
# line logic of read_columns; and str.isspace over ASCII
_ROW_START = np.zeros(256, dtype=bool)
_ROW_START[np.frombuffer(b"0123456789+-.", dtype=_U8)] = True
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[c for c in range(128) if chr(c).isspace()]] = True
# the line breaks of str.splitlines besides "\n" ("\x85" is not ASCII)
_OTHER_BREAKS = b"\r\v\f\x1c\x1d\x1e"
_TO_NEWLINE = bytes.maketrans(_OTHER_BREAKS, b"\n" * len(_OTHER_BREAKS))


def _all_digits(words):
    """Which uint64 ``words`` hold eight ASCII digits."""
    return (((words & _HIGH_NIBBLES) == _ZEROS)
            & (((words + _SIXES) & _HIGH_NIBBLES) == _ZEROS))


def _digits_value(words):
    """The integer that eight ASCII digits spell, the first digit in the
    lowest byte (Lemire's SWAR conversion)."""
    words = words - _ZEROS
    words = words * _U64(10) + (words >> _U64(8))  # digit pairs in bytes 0, 2, 4, 6
    return ((words & _PAIRS) * _U64(100 + (1000000 << 32))
            + ((words >> _U64(16)) & _PAIRS) * _U64(1 + (10000 << 32))) >> _U64(32)


def _parse_fields(buf, words, starts, ends):
    """``float(text)`` of each field ``buf[starts[i]:ends[i]]`` of the shape
    and exponent range above, from three 8-byte loads: ``D.dddddd``, the
    8 digits after the point, and ``dddde±XX``.  Returns the values and
    the indices of the other fields, whose values are left undefined."""
    neg = buf.take(starts, mode="clip") == ord("-")
    at = starts + neg
    fast = ends - at == 18
    if not fast.any():
        return np.empty(starts.size), np.arange(starts.size)
    # a fast field ends inside the buffer; take() would copy the strided view
    at = np.minimum(at, words.size - 11)
    head, digits, tail = words[at], words[at + 2], words[at + 10]
    lead = (head & _U64(0xFFFF)) - _U64(0x2E30)  # "D." -> D
    tag = (tail >> _U64(32)) & _U64(0xFFFF)  # "e" and the exponent's sign
    minus = tag == _U64(0x2D65)
    tail = (tail & _U64(0xFFFF0000FFFFFFFF)) | _U64(0x0000303000000000)
    low = _digits_value(tail)  # the digits dddd00XX
    code = low + minus * _U64(100)
    low //= _U64(10**4)
    code -= low * _U64(10**4)
    fast &= ((lead < _U64(10)) & _all_digits(digits) & _all_digits(tail)
             & (minus | (tag == _U64(0x2B65)))
             & _EXPONENT_OK.take(code.astype(np.int64), mode="clip"))
    mantissa = lead * _U64(10**12) + _digits_value(digits) * _U64(10**4) + low
    code = (code + neg * _U64(200)).astype(np.int64)
    values = (mantissa.astype(np.float64) * _FACTOR.take(code, mode="clip")
              / _DIVISOR.take(code, mode="clip"))
    return values, np.flatnonzero(~fast)


def read_columns(path, header: str, columns: str):
    """Parse a columns file into ``(arrays, comments)``: one float array
    per column and the dict of ``# key: value`` lines.  Blank lines,
    comment lines and repeats of the column line may stand anywhere after
    the header, lines end as ``str.splitlines`` ends them, and every field
    reads as ``float()`` reads it.  Errors name the file and line.

    The file is parsed in one numpy pass over its bytes.  Only lines that
    do not start with a digit, sign or point, or that end in whitespace,
    go through the line logic in Python.  A field of the shape
    :func:`write_columns` writes, ``[-]D.DDDDDDDDDDDDe±XX`` with an
    exponent e in [-10, 34], is converted from its 13-digit mantissa m:
    m < 10**13 < 2**53 and 10**|e - 12| <= 10**22 are exact doubles, so
    ``m * 10**(e - 12)`` (or ``m / 10**(12 - e)``) is one correctly rounded
    operation and equals ``float(text)`` bit for bit (Clinger 1990).
    Every other field, such as |x| < 1e-10, nan, inf, 3-digit exponents
    and hand-written or padded text, goes through ``float()``."""
    path = Path(path)
    data = path.read_bytes()
    if not data.isascii():
        pos = int(np.flatnonzero(np.frombuffer(data, dtype=_U8) > 127)[0])
        lineno = len((data[:pos].decode("ascii") + "x").splitlines())
        raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{data[pos]:02x}")
    if any(byte in data for byte in _OTHER_BREAKS):
        data = data.replace(b"\r\n", b"\n").translate(_TO_NEWLINE)
    buf = np.frombuffer(data, dtype=_U8)
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    is_break = buf[seps] == ord("\n")
    breaks = seps[np.flatnonzero(is_break)]
    line_starts = np.concatenate(([0], breaks + 1))
    line_ends = np.append(breaks, buf.size)
    if line_starts[-1] == buf.size:  # no line after a final break
        line_starts, line_ends = line_starts[:-1], line_ends[:-1]

    def line(i):
        return data[line_starts[i]:line_ends[i]].decode("ascii")

    if not line_starts.size or line(0).strip() != header:
        raise ValueError(f"{path}:1: missing header {header!r}")
    starts, ends = line_starts[1:].copy(), line_ends[1:].copy()
    first = buf[starts]  # an empty line's own break
    rows = (_ROW_START[first] & ~_SPACE[buf[ends - 1]]
            & (first != ord(columns[0])))
    comments = {}
    for i in np.flatnonzero(~rows).tolist():
        raw = line(i + 1)
        text = raw.strip()
        if not text or text[0] == "#" or text == columns:
            key, sep, value = text[1:].partition(":")
            if sep and text[0] == "#":
                comments[key.strip()] = value.strip()
        else:
            rows[i] = True
            ends[i] = starts[i] + len(raw.rstrip())
            starts[i] += len(raw) - len(raw.lstrip())
    row_lines = np.flatnonzero(rows)
    starts, ends = starts[row_lines], ends[row_lines]
    row_lines += 1  # counted from 0 at the header
    # the separators before the j-th comma are j commas and as many line
    # breaks as the index of its line
    commas = np.flatnonzero(~is_break)
    line_of = commas - np.arange(commas.size)
    inside = np.flatnonzero(np.concatenate(([False], rows))[line_of])
    commas, line_of = seps[commas[inside]], line_of[inside]
    width = columns.count(",") + 1
    counts = np.bincount(line_of, minlength=line_starts.size)[row_lines]
    bad = np.flatnonzero(counts != width - 1)
    linenos = row_lines + 1
    if bad.size:
        lineno = linenos[bad[0]]
        raise ValueError(
            f"{path}:{lineno}: expected {width} comma-separated fields, "
            f"got {line(lineno - 1)!r}"
        )
    field_starts = np.empty((linenos.size, width), dtype=np.int64)
    field_ends = np.empty_like(field_starts)
    field_starts[:, 0] = starts
    field_starts[:, 1:] = commas.reshape(linenos.size, width - 1) + 1
    field_ends[:, :-1] = commas.reshape(linenos.size, width - 1)
    field_ends[:, -1] = ends
    field_starts, field_ends = field_starts.ravel(), field_ends.ravel()
    # the 8 bytes from every offset, as little-endian integers
    words = np.ndarray((max(buf.size - 7, 0),), dtype="<u8", buffer=data,
                       strides=(1,))
    values = np.empty(field_starts.size)
    for i in range(0, values.size, _CHUNK):
        chunk = slice(i, i + _CHUNK)
        values[chunk], slow = _parse_fields(
            buf, words, field_starts[chunk], field_ends[chunk])
        for j in (slow + i).tolist():
            try:
                values[j] = float(data[field_starts[j]:field_ends[j]]
                                  .decode("ascii"))
            except ValueError as exc:
                raise ValueError(f"{path}:{linenos[j // width]}: {exc}") from None
    if linenos.size < 2:
        raise ValueError(f"{path}: fewer than two data rows")
    return list(values.reshape(-1, width).T.copy()), comments


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
