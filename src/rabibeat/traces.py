"""Sampled time traces and the on-disk formats of every artifact.

Every CSV artifact is a columns file: a versioned header line such as
``# rabibeat-trace v1``, optional ``# key: value`` comment lines, a column
line such as ``time_us,signal``, then one :func:`format_float` row per
sample.  A trace's metadata travels in a JSON sidecar ``<stem>.meta.json``
with the top-level keys ``units``, ``drive``, ``decay`` and ``provenance``;
all JSON goes through :func:`write_json`.  Equal inputs produce
byte-identical files, and parse -> re-serialize is the identity on files
this module wrote.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import compress
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
# values formatted per numpy pass: the pass's temporaries stay in cache
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


def read_columns(path, header: str, columns: str):
    """Parse a columns file into ``(arrays, comments)``: one float array
    per column and the dict of ``# key: value`` lines.  Blank lines,
    comment lines and repeats of the column line may stand anywhere after
    the header.  The data rows are joined and split once and converted by
    one ``np.array`` call, which parses each field as ``float()`` does.
    Errors name the file and line."""
    path = Path(path)
    raw = path.read_text(encoding="ascii").splitlines()
    if not raw or raw[0].strip() != header:
        raise ValueError(f"{path}:1: missing header {header!r}")
    width = columns.count(",") + 1
    body = list(map(str.strip, raw[1:]))
    skip = [i for i, text in enumerate(body) if not text or text[0] == "#"
            or text == columns]
    comments = {}
    for i in skip:
        key, sep, value = body[i][1:].partition(":")
        if sep and body[i][0] == "#":
            comments[key.strip()] = value.strip()
    keep = np.ones(len(body), dtype=bool)
    keep[skip] = False
    rows = list(compress(body, keep))
    linenos = np.flatnonzero(keep) + 2
    block = "\n".join(rows)
    # commas per row, in one pass: a comma's row is the count of line breaks before it
    seps = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    seps = seps[(seps == ord(",")) | (seps == ord("\n"))]
    row_of_comma = np.cumsum(seps == ord("\n"))[seps == ord(",")]
    bad = np.flatnonzero(np.bincount(row_of_comma, minlength=len(rows)) != width - 1)
    if bad.size:
        lineno = linenos[bad[0]]
        raise ValueError(
            f"{path}:{lineno}: expected {width} comma-separated fields, "
            f"got {raw[lineno - 1]!r}"
        )
    fields = block.replace("\n", ",").split(",") if rows else []
    try:
        values = np.array(fields, dtype=float)
    except ValueError:
        # rare path: find the offending field to report its line
        for i, text in enumerate(fields):
            try:
                float(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{linenos[i // width]}: {exc}") from None
        raise
    if len(rows) < 2:
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

    def is_uniform(self, rtol: float = 1e-6) -> bool:
        steps = np.diff(self.times)
        return bool(np.all(np.abs(steps - steps[0]) <= rtol * abs(steps[0])))

    def to_csv(self, path) -> Path:
        return write_columns(
            path, TRACE_HEADER, TRACE_COLUMNS, (self.times, self.values)
        )

    @classmethod
    def from_csv(cls, path) -> "SampledTrace":
        (times, values), _ = read_columns(path, TRACE_HEADER, TRACE_COLUMNS)
        meta = {}
        side = meta_path_for(path)
        if side.exists():
            meta = json.loads(side.read_text(encoding="utf-8"))
        return cls(times, values, meta)

    def save(self, path) -> Path:
        """Write the CSV and, when metadata is present, the JSON sidecar."""
        path = self.to_csv(path)
        if self.meta:
            write_json(meta_path_for(path), self.meta)
        return path
