"""Correctness gate for every CLI job the benchmark runs.

A job fails when it exits nonzero, when an artifact is missing or does not
parse, or when its contents contradict the generated input (wrong sample
count, populations outside [0, 1], a report without its keys).  Accuracy
against the generated truth is measured, not gated: ``analyze`` and
``imaging-demo`` return their errors so the benchmark can report them.
"""
from __future__ import annotations

import filecmp
import json
import math
from pathlib import Path

# relative tolerance within which a recovered detuning counts as found
DETUNING_RTOL = 0.05

REPORT_KEYS = {
    "analyze": {
        "mode", "base_frequency_MHz", "beat_frequencies_MHz",
        "recovered_detunings_MHz", "decay_time_us", "n_oscillations",
        "resolution", "diagnostics", "units", "provenance",
    },
    "imaging-demo": {
        "true", "recovered", "error_um", "budget", "resolution", "reference",
        "units", "provenance",
    },
}
META_KEYS = {"units", "drive", "decay", "provenance"}


class GateError(Exception):
    """A job's artifacts are missing, unparseable or inconsistent."""


def _need(path: Path) -> Path:
    if not path.is_file():
        raise GateError(f"missing artifact {path.name}")
    return path


def _json(path: Path, keys) -> dict:
    try:
        data = json.loads(_need(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise GateError(f"{path.name}: {exc}") from None
    missing = set(keys) - set(data)
    if missing:
        raise GateError(f"{path.name}: missing keys {sorted(missing)}")
    return data


def _columns(path: Path, header: str):
    """Rows of a two-column CSV written by rabibeat, as two float lists."""
    lines = _need(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != header:
        raise GateError(f"{path.name}: header is not {header!r}")
    xs, ys = [], []
    for line in lines[1:]:
        if line.startswith("#") or line[:1].isalpha():
            continue
        try:
            x, y = line.split(",")
            xs.append(float(x))
            ys.append(float(y))
        except ValueError:
            raise GateError(f"{path.name}: bad row {line!r}") from None
    return xs, ys


def check_trace(trace_cls, path: Path, n_points: int) -> None:
    """``path`` parses with ``trace_cls.from_csv``, holds ``n_points``
    populations in [0, 1], and re-serializes to the same bytes."""
    try:
        trace = trace_cls.from_csv(_need(path))
    except ValueError as exc:
        raise GateError(f"{path.name}: {exc}") from None
    if trace.n != n_points:
        raise GateError(f"{path.name}: {trace.n} samples, expected {n_points}")
    if trace.values.min() < -1e-9 or trace.values.max() > 1 + 1e-9:
        raise GateError(f"{path.name}: population outside [0, 1]")
    again = path.with_name(path.stem + ".roundtrip.csv")
    trace.to_csv(again)
    same = filecmp.cmp(path, again, shallow=False)
    again.unlink()
    if not same:
        raise GateError(f"{path.name}: does not round-trip byte for byte")
    _json(path.with_suffix(".meta.json"), META_KEYS)


def match_detunings(true, recovered, rtol: float = DETUNING_RTOL):
    """Match each true detuning to the nearest recovered one.

    Returns ``(missed, errors)``: whether any true value has no recovered
    value within ``rtol``, and the absolute errors of the ones that do.
    """
    errors, missed = [], False
    for d in true:
        err = min((abs(r - d) for r in recovered), default=math.inf)
        if err <= rtol * d:
            errors.append(err)
        else:
            missed = True
    return missed, errors


def check_job(job, out_dir: Path, trace_cls):
    """Gate one finished job; returns accuracy figures for analyze and
    imaging jobs, ``{}`` otherwise.  Raises GateError on a failure."""
    truth = job.truth
    if job.command == "simulate":
        if job.sweep:
            sweep = _json(out_dir / "sweep.json",
                          {"key", "values", "derived_seeds", "directories"})
            if len(sweep["directories"]) != len(job.sweep):
                raise GateError("sweep.json: wrong variant count")
            for sub in sweep["directories"]:
                check_trace(trace_cls, out_dir / sub / "trace.csv",
                            truth["n_points"])
        else:
            check_trace(trace_cls, out_dir / "trace.csv", truth["n_points"])
        return {}
    if job.command == "analyze":
        report = _json(out_dir / "report.json", REPORT_KEYS["analyze"])
        if report["mode"] != truth["mode"]:
            raise GateError(f"report.json: mode {report['mode']!r}")
        freqs, mags = _columns(out_dir / "spectrum.csv", "# rabibeat-spectrum v1")
        if len(freqs) < 2 or freqs[0] != 0.0 or min(mags) < 0:
            raise GateError("spectrum.csv: not a magnitude spectrum from 0 Hz")
        missed, errors = match_detunings(
            truth["detunings"], report["recovered_detunings_MHz"])
        return {"missed": missed, "errors": errors}
    if job.command == "esr":
        _json(out_dir / "esr.meta.json", {"units", "drive", "provenance"})
        freqs, signal = _columns(out_dir / "esr.csv", "# rabibeat-esr v1")
        if len(freqs) != truth["n_points"]:
            raise GateError(f"esr.csv: {len(freqs)} rows")
        if not (math.isclose(freqs[0], truth["f_start"], abs_tol=1e-9)
                and math.isclose(freqs[-1], truth["f_stop"], abs_tol=1e-9)):
            raise GateError("esr.csv: scan range differs from the config")
        if min(signal) < 0 or max(signal) > 1:
            raise GateError("esr.csv: signal outside [0, 1]")
        return {}
    if job.command == "imaging-demo":
        report = _json(out_dir / "report.json", REPORT_KEYS["imaging-demo"])
        x_true = truth["x_um"]
        if not math.isclose(report["true"]["position_um"], x_true, rel_tol=1e-12):
            raise GateError("report.json: true position differs from the config")
        positions, _ = _columns(out_dir / "fieldmap.csv", "# rabibeat-fieldmap v1")
        if len(positions) != truth["map_points"]:
            raise GateError(f"fieldmap.csv: {len(positions)} rows")
        check_trace(trace_cls, out_dir / "trace.csv", truth["n_points"])
        delta_x_um = report["budget"]["delta_x_nm"] / 1000.0
        x_rec = report["recovered"]["position_um"]
        return {"position_err_ratio": abs(x_rec - x_true) / delta_x_um}
    raise GateError(f"unknown command {job.command!r}")

