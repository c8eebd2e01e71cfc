"""Run configuration: INI parsing, schema validation, bundled presets.

A run is described by one plain-text INI document with typed sections.
Validation reports the failing field as ``section.key`` so configs can be
fixed without reading code.  The published schema is the SCHEMA table
below, reproduced in the README.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .evolve import DecayModel, DriftModel, ManifoldSpec, TimeGrid
from .imaging import WaveguideGeometry

__all__ = ["ConfigError", "RunConfig", "load_config", "preset_names", "SCHEMA"]


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


KINDS = ("rabi-single", "rabi-vtype", "esr", "drift", "imaging-demo", "analyze")

# section -> key -> (type tag, description).  Types: float, int, str, floats
# (comma-separated list).  Unknown sections or keys are rejected.
SCHEMA = {
    "run": {
        "kind": ("str", "one of " + ", ".join(KINDS)),
        "label": ("str", "free-form run label recorded in outputs"),
    },
    "drive": {
        "omega0_mhz": ("float", "resonant Rabi frequency, MHz (single/drift)"),
        "lambda_mhz": ("float", "branch coupling, MHz (vtype)"),
        "amplitude_mode": ("str", "exact or equal_cosine"),
    },
    "manifolds": {
        "detunings_mhz": ("floats", "detunings or half-splittings, MHz"),
        "weights": ("str", "'equal' or comma-separated weights summing to 1"),
    },
    "grid": {
        "t_start_us": ("float", "first sample time, us"),
        "t_end_us": ("float", "last sample time, us"),
        "n_points": ("int", "number of samples, >= 2"),
    },
    "decay": {
        "kind": ("str", "none or exponential"),
        "t1_rho_us": ("float", "envelope time constant, us"),
    },
    "drift": {
        "kind": ("str", "constant, linear, or gaussian"),
        "total_relative_change": ("float", "linear ramp of P/P0 - 1"),
        "sigma_relative": ("float", "gaussian sigma of P/P0"),
        "n_sweeps": ("int", "averaged sweeps per acquisition"),
    },
    "esr": {
        "transitions_mhz": ("floats", "dip positions, MHz"),
        "contrasts": ("floats", "dip contrasts in (0, 1]"),
        "linewidth_fwhm_mhz": ("float", "Lorentzian FWHM, MHz"),
        "f_start_mhz": ("float", "scan start, MHz"),
        "f_stop_mhz": ("float", "scan stop, MHz"),
        "n_points": ("int", "scan points"),
    },
    "imaging": {
        "gap_um": ("float", "waveguide gap, um"),
        "center_width_um": ("float", "strip width at the taper, um"),
        "edge_cutoff_um": ("float", "edge softening length, um"),
        "drive_scale_mhz": ("float", "Rabi frequency at gap midpoint, MHz"),
        "t1_rho_us": ("float", "envelope time constant, us"),
        "emitter_x_um": ("float", "true emitter position, um"),
        "map_points": ("int", "field map tabulation points"),
        "branch": ("str", "left or right monotone branch"),
    },
    "analyze": {
        "mode": ("str", "single or vtype"),
        "window": ("str", "rectangular or hann; spectrum.csv only, beats use hann"),
        "zero_pad": ("int", "FFT zero-padding factor, >= 1; spectrum.csv only"),
        "trace": ("str", "input trace CSV path"),
    },
}

_REQUIRED = {
    "rabi-single": {"drive": ["omega0_mhz"], "manifolds": ["detunings_mhz"],
                    "grid": ["t_end_us", "n_points"]},
    "rabi-vtype": {"drive": ["lambda_mhz"], "manifolds": ["detunings_mhz"],
                   "grid": ["t_end_us", "n_points"]},
    "drift": {"drive": ["omega0_mhz"], "manifolds": ["detunings_mhz"],
              "grid": ["t_end_us", "n_points"], "drift": ["kind", "n_sweeps"]},
    "esr": {"esr": ["transitions_mhz", "contrasts", "linewidth_fwhm_mhz",
                    "f_start_mhz", "f_stop_mhz", "n_points"]},
    "imaging-demo": {"imaging": ["gap_um", "drive_scale_mhz", "t1_rho_us",
                                 "emitter_x_um"],
                     "grid": ["t_end_us", "n_points"]},
    "analyze": {"analyze": ["mode"]},
}


@dataclass
class RunConfig:
    """Validated run description, independent of where it was loaded from."""

    kind: str
    label: str
    drive: dict = field(default_factory=dict)
    manifolds: ManifoldSpec | None = None
    grid: TimeGrid | None = None
    decay: DecayModel = DecayModel()
    drift: DriftModel | None = None
    n_sweeps: int = 1
    esr: dict = field(default_factory=dict)
    imaging: dict = field(default_factory=dict)
    geometry: WaveguideGeometry | None = None
    analyze: dict = field(default_factory=dict)


def preset_names() -> list:
    root = resources.files("rabibeat") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def _resolve_source(name_or_path) -> str:
    """Return config text from a filesystem path or a bundled preset name."""
    path = Path(name_or_path)
    if path.exists():
        return path.read_text(encoding="utf-8")
    candidate = resources.files("rabibeat") / "presets" / f"{name_or_path}.ini"
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    raise ConfigError(
        f"config {name_or_path!r} is neither a file nor a bundled preset "
        f"(presets: {', '.join(preset_names())})"
    )


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _parse_floats(text: str):
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"not a comma-separated float list: {exc}") from None
    return [_finite(v) for v in values]


def _typed(section: str, key: str, raw: str):
    tag = SCHEMA[section][key][0]
    try:
        if tag == "float":
            return _finite(float(raw))
        if tag == "int":
            return int(raw)
        if tag == "floats":
            return _parse_floats(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None


# [imaging] key -> WaveguideGeometry field; absent keys take its defaults
_GEOMETRY_FIELDS = {"gap_um": "gap", "center_width_um": "center_width",
                    "drive_scale_mhz": "drive_scale", "edge_cutoff_um": "edge_cutoff"}


def load_config(name_or_path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a run config from a path or bundled preset name.

    ``overrides`` maps ``"section.key"`` to replacement raw values applied
    before validation; the CLI sweep option uses this.
    """
    text = _resolve_source(name_or_path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    data: dict = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"{section}: unknown section (known: {', '.join(SCHEMA)})"
            )
        data[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"{section}.{key}: unknown key (known: "
                    f"{', '.join(SCHEMA[section])})"
                )
            data[section][key] = raw
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"{dotted}: override must be section.key")
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"{dotted}: unknown config field")
        data.setdefault(section, {})[key] = str(value)

    if "run" not in data or "kind" not in data["run"]:
        raise ConfigError("run.kind: required")
    kind = data["run"]["kind"].strip()
    if kind not in KINDS:
        raise ConfigError(f"run.kind: must be one of {', '.join(KINDS)}")
    for section, keys in _REQUIRED[kind].items():
        for key in keys:
            if key not in data.get(section, {}):
                raise ConfigError(f"{section}.{key}: required for kind {kind}")

    typed = {
        section: {key: _typed(section, key, raw) for key, raw in entries.items()}
        for section, entries in data.items()
    }

    def build(section, factory):
        try:
            return factory()
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None

    cfg = RunConfig(kind=kind, label=typed["run"].get("label", kind))
    if "grid" in typed and kind != "esr":
        g = typed["grid"]
        cfg.grid = build(
            "grid",
            lambda: TimeGrid(g.get("t_start_us", 0.0), g["t_end_us"], g["n_points"]),
        )
    if "manifolds" in typed:
        m = typed["manifolds"]
        weights = m.get("weights", "equal")
        if isinstance(weights, str) and weights.strip() == "equal":
            cfg.manifolds = build(
                "manifolds", lambda: ManifoldSpec(tuple(m["detunings_mhz"]))
            )
        else:
            cfg.manifolds = build(
                "manifolds",
                lambda: ManifoldSpec(
                    tuple(m["detunings_mhz"]), tuple(_parse_floats(weights))
                ),
            )
    if "decay" in typed:
        d = typed["decay"]
        cfg.decay = build(
            "decay", lambda: DecayModel(d.get("kind", "none"), d.get("t1_rho_us"))
        )
    if "drift" in typed:
        d = typed["drift"]
        cfg.drift = build(
            "drift",
            lambda: DriftModel(
                d.get("kind", "constant"),
                d.get("total_relative_change", 0.0),
                d.get("sigma_relative", 0.0),
            ),
        )
        cfg.n_sweeps = d.get("n_sweeps", 1)
        if cfg.n_sweeps < 1:
            raise ConfigError("drift.n_sweeps: must be >= 1")
    cfg.drive = typed.get("drive", {})
    if "amplitude_mode" in cfg.drive and cfg.drive["amplitude_mode"] not in (
        "exact",
        "equal_cosine",
    ):
        raise ConfigError("drive.amplitude_mode: must be exact or equal_cosine")
    cfg.esr = typed.get("esr", {})
    if kind == "esr":
        if not cfg.esr["f_stop_mhz"] > cfg.esr["f_start_mhz"]:
            raise ConfigError("esr.f_stop_mhz: must exceed esr.f_start_mhz")
        if cfg.esr["n_points"] < 2:
            raise ConfigError("esr.n_points: must be >= 2")
    cfg.imaging = im = typed.get("imaging", {})
    if kind == "imaging-demo":
        cfg.geometry = geom = build("imaging", lambda: WaveguideGeometry(
            **{attr: im[key] for key, attr in _GEOMETRY_FIELDS.items() if key in im}
        ))
        if not im["t1_rho_us"] > 0:
            raise ConfigError("imaging.t1_rho_us: must be positive")
        branch = im.setdefault("branch", "left")
        if branch not in ("left", "right"):
            raise ConfigError("imaging.branch: must be left or right")
        x, half = im["emitter_x_um"], geom.gap / 2.0
        if not ((0 < x < half) if branch == "left" else (half < x < geom.gap)):
            raise ConfigError(
                "imaging.emitter_x_um: must lie strictly inside the selected branch"
            )
    cfg.analyze = typed.get("analyze", {})
    if kind == "analyze":
        mode = cfg.analyze.get("mode")
        if mode not in ("single", "vtype"):
            raise ConfigError("analyze.mode: must be single or vtype")
    return cfg
