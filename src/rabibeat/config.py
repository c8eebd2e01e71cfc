"""Run configuration: INI parsing, schema validation, bundled presets.

A run is described by one plain-text INI document with typed sections.
SCHEMA declares each field once: its type and its allowed values (choices
or a bound), and ``_typed`` is the one place that parses and checks a value.
The library constructors built here (time grid, decay, drift, manifolds,
waveguide) keep their own checks, and ``load_config`` adds the few checks
that span fields.  Every message names the failing ``section.key``, and
every check runs before anything is computed or written.  SCHEMA is
reproduced in the README.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import WINDOWS
from .evolve import AMPLITUDE_MODES, DecayModel, DriftModel, ManifoldSpec, TimeGrid
from .imaging import WaveguideGeometry, rabi_at

__all__ = [
    "ConfigError", "RunConfig", "load_config", "parse_sweep", "preset_names", "SCHEMA",
]


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


KINDS = ("rabi-single", "rabi-vtype", "esr", "drift", "imaging-demo", "analyze")

# Allowed-value rules a SCHEMA entry may name, keyed by the text its message
# quotes.  A list value passes when every element does.
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in (0, 1]": lambda v: 0 < v <= 1,
}

# section -> key -> (type tag, description, allowed).  Types: float, int,
# str, floats (comma-separated list), weights ("equal" or floats).  Allowed
# is None, a tuple of choices, or a _RULES key.  Unknown sections or keys
# are rejected.
SCHEMA = {
    "run": {
        "kind": ("str", "run type; decides the required fields", KINDS),
        "label": ("str", "free-form run label recorded in outputs", None),
    },
    "drive": {
        "omega0_mhz": ("float", "resonant Rabi frequency, MHz (single/drift)", "> 0"),
        "lambda_mhz": ("float", "branch coupling, MHz (vtype)", "> 0"),
        "amplitude_mode": ("str", "detuned amplitude model", AMPLITUDE_MODES),
    },
    "manifolds": {
        "detunings_mhz": ("floats", "detunings or half-splittings, MHz", None),
        "weights": ("weights", "manifold weights summing to 1", None),
    },
    "grid": {
        "t_start_us": ("float", "first sample time, us", None),
        "t_end_us": ("float", "last sample time, us", None),
        "n_points": ("int", "number of samples", None),
    },
    "decay": {
        "kind": ("str", "none or exponential", None),
        "t1_rho_us": ("float", "envelope time constant, us", None),
    },
    "drift": {
        "kind": ("str", "constant, linear, or gaussian", None),
        "total_relative_change": ("float", "linear ramp of P/P0 - 1", None),
        "sigma_relative": ("float", "gaussian sigma of P/P0", None),
        "n_sweeps": ("int", "averaged sweeps per acquisition", ">= 1"),
    },
    "esr": {
        "transitions_mhz": ("floats", "dip positions, MHz", None),
        "contrasts": ("floats", "dip contrasts, one per transition", "in (0, 1]"),
        "linewidth_fwhm_mhz": ("float", "Lorentzian FWHM, MHz", "> 0"),
        "f_start_mhz": ("float", "scan start, MHz", None),
        "f_stop_mhz": ("float", "scan stop, MHz", None),
        "n_points": ("int", "scan points", ">= 2"),
    },
    "imaging": {
        "gap_um": ("float", "waveguide gap, um", None),
        "center_width_um": ("float", "strip width at the taper, um", None),
        "edge_cutoff_um": ("float", "edge softening length, um", None),
        "drive_scale_mhz": ("float", "Rabi frequency at gap midpoint, MHz", None),
        "t1_rho_us": ("float", "envelope time constant, us", "> 0"),
        "emitter_x_um": ("float", "true emitter position, um", None),
        "map_points": ("int", "field map tabulation points", ">= 2"),
        "branch": ("str", "monotone half of the gap", ("left", "right")),
    },
    "analyze": {
        "mode": ("str", "beat inversion", ("single", "vtype")),
        "window": ("str", "FFT window, spectrum.csv only; beats use hann", WINDOWS),
        "zero_pad": ("int", "minimum FFT zero-padding factor, rounded up to a "
                     "5-smooth length; spectrum.csv only", ">= 1"),
        "trace": ("str", "input trace CSV path", None),
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
    if path.is_file():
        return path.read_text(encoding="utf-8")
    candidate = resources.files("rabibeat") / "presets" / f"{name_or_path}.ini"
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    raise ConfigError(
        f"config {name_or_path!r} is neither a file nor a bundled preset "
        f"(presets: {', '.join(preset_names())})"
    )


def _typed(section: str, key: str, raw: str):
    """Parse one raw value by its SCHEMA type and check its allowed values."""
    tag, _, allowed = SCHEMA[section][key]
    text = raw.strip()
    if tag == "weights" and text == "equal":
        return None
    try:
        if tag == "str":
            value = text
        elif tag == "int":
            value = int(text)
        elif tag == "float":
            value = float(text)
        else:
            value = [float(tok) for tok in text.split(",")]
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"must be finite, got {v}")
            if isinstance(allowed, str) and not _RULES[allowed](v):
                raise ValueError(f"must be {allowed}, got {v}")
        if isinstance(allowed, tuple) and value not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}, got {value!r}")
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None
    return value


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
    kind = _typed("run", "kind", data["run"]["kind"])
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
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None

    cfg = RunConfig(kind=kind, label=typed["run"].get("label", kind))
    # only the kinds that use a grid or a mixture build one; in another kind
    # these sections may be partial, since no key in them is required
    if "grid" in _REQUIRED[kind]:
        g = typed["grid"]
        cfg.grid = build(
            "grid",
            lambda: TimeGrid(g.get("t_start_us", 0.0), g["t_end_us"], g["n_points"]),
        )
    if "manifolds" in _REQUIRED[kind]:
        m = typed["manifolds"]
        weights = m.get("weights")
        cfg.manifolds = build(
            "manifolds" if weights is None else "manifolds.weights",
            lambda: ManifoldSpec(tuple(m["detunings_mhz"]), weights),
        )
        if kind == "rabi-vtype" and min(cfg.manifolds.detunings) < 0:
            raise ConfigError(
                "manifolds.detunings_mhz: half-splittings must be >= 0, "
                f"got {min(cfg.manifolds.detunings)}"
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
    cfg.drive = typed.get("drive", {})
    cfg.esr = e = typed.get("esr", {})
    if kind == "esr":
        if not e["f_stop_mhz"] > e["f_start_mhz"]:
            raise ConfigError("esr.f_stop_mhz: must exceed esr.f_start_mhz")
        if len(e["contrasts"]) != len(e["transitions_mhz"]):
            raise ConfigError(
                f"esr.contrasts: {len(e['contrasts'])} contrasts for "
                f"{len(e['transitions_mhz'])} transitions"
            )
    cfg.imaging = im = typed.get("imaging", {})
    if kind == "imaging-demo":
        cfg.geometry = geom = build("imaging", lambda: WaveguideGeometry(
            **{attr: im[key] for key, attr in _GEOMETRY_FIELDS.items() if key in im}
        ))
        branch = im.setdefault("branch", "left")
        x, half = im["emitter_x_um"], geom.gap / 2.0
        ends = (0.0, half) if branch == "left" else (half, geom.gap)
        if not ends[0] < x < ends[1]:
            raise ConfigError(
                "imaging.emitter_x_um: must lie strictly inside the selected branch"
            )
        # the trace must resolve every Rabi frequency the branch's map holds
        top = float(np.max(rabi_at(geom, ends)))
        grid = cfg.grid
        nyquist = 0.5 * (grid.n_points - 1) / (grid.t_end - grid.t_start)
        if not nyquist > top:
            raise ConfigError(
                f"grid.n_points: {grid.n_points} samples over "
                f"{grid.t_end - grid.t_start:g} us reach a Nyquist frequency of "
                f"{nyquist:.4g} MHz, not above the {branch} branch's highest "
                f"Rabi frequency {top:.4g} MHz"
            )
    cfg.analyze = typed.get("analyze", {})
    return cfg


def parse_sweep(text: str):
    """Parse ``section.key=start:stop:count`` or ``section.key=v1,v2,...``
    into the key and its float values; ``load_config`` checks each value."""
    key, sep, spec = text.partition("=")
    key = key.strip()
    if not sep or not key or "." not in key:
        raise ConfigError("sweep: expected section.key=start:stop:count or =v1,v2,...")
    parts = spec.strip().split(":")
    if len(parts) not in (1, 3):
        raise ConfigError("sweep: range must be start:stop:count")
    try:
        if len(parts) == 1:
            return key, [float(tok) for tok in parts[0].split(",")]
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from None
    if count < 2:
        raise ConfigError("sweep: count must be >= 2")
    return key, np.linspace(start, stop, count).tolist()
