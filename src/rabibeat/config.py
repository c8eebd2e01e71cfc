"""Run configuration: INI parsing, schema validation, bundled presets.

A run is described by one plain-text INI document with typed sections.
KINDS declares once which subcommand runs each kind and which sections it
reads; SCHEMA declares each field once: its type, its allowed values
(choices or a bound) and its default.  ``_typed`` is the one place that
parses and checks a value.
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
from .evolve import (AMPLITUDE_MODES, DecayModel, DriftModel, ManifoldSpec, TimeGrid,
                     _lines)
from .imaging import WaveguideGeometry, rabi_at

__all__ = [
    "ConfigError", "KINDS", "RunConfig", "check_trace_sampling", "load_config",
    "parse_sweep", "preset_names", "SCHEMA",
]


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


_GRID = ["t_end_us", "n_points"]
# kind -> (subcommand that runs it, {section the kind reads: keys it
# requires}).  Every kind also reads [run]; overrides of a section the kind
# does not read are rejected, and such a section in a file is ignored.
KINDS = {
    "rabi-single": ("simulate", {"drive": ["omega0_mhz"],
                                 "manifolds": ["detunings_mhz"], "grid": _GRID,
                                 "decay": []}),
    "rabi-vtype": ("simulate", {"drive": ["lambda_mhz"],
                                "manifolds": ["detunings_mhz"], "grid": _GRID,
                                "decay": []}),
    "esr": ("esr", {"esr": ["transitions_mhz", "contrasts", "linewidth_fwhm_mhz",
                            "f_start_mhz", "f_stop_mhz", "n_points"]}),
    "drift": ("simulate", {"drive": ["omega0_mhz"],
                           "manifolds": ["detunings_mhz"], "grid": _GRID,
                           "decay": [], "drift": ["kind", "n_sweeps"]}),
    "imaging-demo": ("imaging-demo", {"imaging": ["gap_um", "drive_scale_mhz",
                                                  "t1_rho_us", "emitter_x_um"],
                                      "grid": _GRID}),
    "analyze": ("analyze", {"analyze": ["mode"]}),
}

# Allowed-value rules a SCHEMA entry may name, keyed by the text its message
# quotes.  A list value passes when every element does.
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in (0, 1]": lambda v: 0 < v <= 1,
}

# section -> key -> (type tag, description, allowed, default).  Types:
# float, int, str, floats (comma-separated list), weights ("equal" or
# floats).  Allowed is None, a tuple of choices, or a _RULES key.  The
# default is a typed value, None for unset; load_config fills it into
# every section the kind reads.  Unknown sections or keys are rejected.
SCHEMA = {
    "run": {
        "kind": ("str", "run type; decides the sections read and the fields "
                 "required", tuple(KINDS), None),
        "label": ("str", "free-form run label recorded in outputs; the kind when "
                  "unset", None, None),
    },
    "drive": {
        "omega0_mhz": ("float", "resonant Rabi frequency, MHz (single/drift)", "> 0",
                       None),
        "lambda_mhz": ("float", "branch coupling, MHz (vtype)", "> 0", None),
        "amplitude_mode": ("str", "detuned amplitude model", AMPLITUDE_MODES, "exact"),
    },
    "manifolds": {
        "detunings_mhz": ("floats", "detunings or half-splittings, MHz", None, None),
        "weights": ("weights", "manifold weights summing to 1", None, None),
    },
    "grid": {
        "t_start_us": ("float", "first sample time, us", ">= 0", 0.0),
        "t_end_us": ("float", "last sample time, us", None, None),
        "n_points": ("int", "number of samples", None, None),
    },
    "decay": {
        "kind": ("str", "none or exponential", None, "none"),
        "t1_rho_us": ("float", "envelope time constant, us", None, None),
    },
    "drift": {
        "kind": ("str", "constant, linear, or gaussian", None, None),
        "total_relative_change": ("float", "linear ramp of P/P0 - 1", None, 0.0),
        "sigma_relative": ("float", "gaussian sigma of P/P0", None, 0.0),
        "n_sweeps": ("int", "averaged sweeps per acquisition", ">= 1", None),
    },
    "esr": {
        "transitions_mhz": ("floats", "dip positions, MHz", None, None),
        "contrasts": ("floats", "dip contrasts, one per transition", "in (0, 1]", None),
        "linewidth_fwhm_mhz": ("float", "Lorentzian FWHM, MHz", "> 0", None),
        "f_start_mhz": ("float", "scan start, MHz", None, None),
        "f_stop_mhz": ("float", "scan stop, MHz", None, None),
        "n_points": ("int", "scan points", ">= 2", None),
    },
    "imaging": {
        "gap_um": ("float", "waveguide gap, um", None, None),
        "center_width_um": ("float", "accepted, read by nothing", "> 0", 10.0),
        "edge_cutoff_um": ("float", "edge softening length, um", None, 0.5),
        "drive_scale_mhz": ("float", "Rabi frequency at gap midpoint, MHz", None, None),
        "t1_rho_us": ("float", "envelope time constant, us", "> 0", None),
        "emitter_x_um": ("float", "true emitter position, um", None, None),
        "map_points": ("int", "field map tabulation points", ">= 2", 501),
        "branch": ("str", "monotone half of the gap", ("left", "right"), "left"),
    },
    "analyze": {
        "mode": ("str", "beat inversion", ("single", "vtype"), None),
        "window": ("str", "FFT window, spectrum.csv only; beats use hann", WINDOWS,
                   "hann"),
        "zero_pad": ("int", "minimum FFT zero-padding factor, rounded up to a "
                     "5-smooth length; spectrum.csv only", ">= 1", 4),
    },
}


@dataclass
class RunConfig:
    """Validated run description, independent of where it was loaded from.

    Only the sections the kind reads are filled in: the dict fields hold
    their typed fields, defaults included, and the model fields are built
    from them.  The others stay empty or None.
    """

    kind: str
    label: str
    drive: dict = field(default_factory=dict)
    manifolds: ManifoldSpec | None = None
    grid: TimeGrid | None = None
    decay: DecayModel | None = None
    drift: DriftModel | None = None
    n_sweeps: int | None = None
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
    tag, _, allowed, _ = SCHEMA[section][key]
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


# [imaging] key -> WaveguideGeometry field
_GEOMETRY_FIELDS = {"gap_um": "gap", "drive_scale_mhz": "drive_scale",
                    "edge_cutoff_um": "edge_cutoff"}


def load_config(name_or_path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a run config from a path or bundled preset name.

    ``overrides`` maps ``"section.key"`` to replacement raw values applied
    before validation; the CLI sweep option uses this.
    """
    text = _resolve_source(name_or_path)
    # values are literal: a "%" is text, not the start of an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    data: dict = {section: {} for section in SCHEMA}
    # configparser copies [DEFAULT]'s keys into every section; name it first
    defaults = [parser.default_section] if parser.defaults() else []
    for section in defaults + parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"{section}: unknown section (known: {', '.join(SCHEMA)})"
            )
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
        data[section][key] = str(value)

    if "kind" not in data["run"]:
        raise ConfigError("run.kind: required")
    kind = _typed("run", "kind", data["run"]["kind"])
    reads = {"run": [], **KINDS[kind][1]}
    # a sweep over a section the kind ignores would write equal variants
    for dotted in overrides or {}:
        section = dotted.split(".", 1)[0]
        if section not in reads:
            raise ConfigError(f"{dotted}: kind {kind} does not read [{section}]")
    for section, keys in reads.items():
        for key in keys:
            if key not in data[section]:
                raise ConfigError(f"{section}.{key}: required for kind {kind}")

    typed = {
        section: {
            key: _typed(section, key, data[section][key])
            if key in data[section] else default
            for key, (_, _, _, default) in SCHEMA[section].items()
        }
        for section in reads
    }

    def build(section, factory):
        try:
            return factory()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None

    label = typed["run"]["label"]
    cfg = RunConfig(
        kind=kind, label=kind if label is None else label,
        **{s: typed[s] for s in ("drive", "esr", "imaging", "analyze") if s in typed},
    )
    if "grid" in typed:
        g = typed["grid"]
        cfg.grid = build(
            "grid", lambda: TimeGrid(g["t_start_us"], g["t_end_us"], g["n_points"])
        )
    if "manifolds" in typed:
        m = typed["manifolds"]
        cfg.manifolds = build(
            "manifolds" if m["weights"] is None else "manifolds.weights",
            lambda: ManifoldSpec(tuple(m["detunings_mhz"]), m["weights"]),
        )
        if kind == "rabi-vtype" and min(cfg.manifolds.detunings) < 0:
            raise ConfigError(
                "manifolds.detunings_mhz: half-splittings must be >= 0, "
                f"got {min(cfg.manifolds.detunings)}"
            )
        if kind != "drift":
            check_trace_sampling(cfg)
    if "decay" in typed:
        d = typed["decay"]
        cfg.decay = build("decay", lambda: DecayModel(d["kind"], d["t1_rho_us"]))
    if "drift" in typed:
        d = typed["drift"]
        cfg.drift = build("drift", lambda: DriftModel(
            d["kind"], d["total_relative_change"], d["sigma_relative"]
        ))
        cfg.n_sweeps = d["n_sweeps"]
    if kind == "esr":
        e = cfg.esr
        if not e["f_stop_mhz"] > e["f_start_mhz"]:
            raise ConfigError("esr.f_stop_mhz: must exceed esr.f_start_mhz")
        if len(e["contrasts"]) != len(e["transitions_mhz"]):
            raise ConfigError(
                f"esr.contrasts: {len(e['contrasts'])} contrasts for "
                f"{len(e['transitions_mhz'])} transitions"
            )
    if kind == "imaging-demo":
        im = cfg.imaging
        cfg.geometry = geom = build("imaging", lambda: WaveguideGeometry(
            **{attr: im[key] for key, attr in _GEOMETRY_FIELDS.items()}
        ))
        branch = im["branch"]
        x, half = im["emitter_x_um"], geom.gap / 2.0
        ends = (0.0, half) if branch == "left" else (half, geom.gap)
        if not ends[0] < x < ends[1]:
            raise ConfigError(
                "imaging.emitter_x_um: must lie strictly inside the selected branch"
            )
        # the trace must resolve every Rabi frequency the branch's map holds
        _check_nyquist(cfg.grid, float(np.max(rabi_at(geom, ends))),
                       f"the {branch} branch's highest Rabi frequency")
    return cfg


def _check_nyquist(grid: TimeGrid, top: float, line: str) -> None:
    """Reject ``grid`` unless its Nyquist frequency lies above ``top``, the
    highest frequency (MHz) of the trace it samples, which ``line`` names."""
    nyquist = 0.5 * (grid.n_points - 1) / (grid.t_end - grid.t_start)
    if not nyquist > top:
        raise ConfigError(
            f"grid.n_points: {grid.n_points} samples over "
            f"{grid.t_end - grid.t_start:g} us reach a Nyquist frequency of "
            f"{nyquist:.4g} MHz, not above {line} {top:.4g} MHz"
        )


def check_trace_sampling(cfg: RunConfig, max_power: float = 1.0) -> None:
    """Reject the grid of a ``simulate`` run that would alias the highest
    line of its trace.  A drift's drives reach omega0 sqrt(max_power), its
    largest power factor, which depends on the seed, so the command line
    makes this check for drifts."""
    drive = (cfg.drive["lambda_mhz"] if cfg.kind == "rabi-vtype"
             else cfg.drive["omega0_mhz"] * math.sqrt(max_power))
    top = float(_lines(cfg.kind, drive, cfg.manifolds)[1].max())
    _check_nyquist(cfg.grid, top, "the trace's highest line")


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
