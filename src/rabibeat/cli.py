"""Command-line interface.

Four subcommands share one shape: load a validated config (a file path or
a bundled preset name), run, and write artifacts into an output directory.
The same config and seed always produce byte-identical files; nothing
time- or host-dependent is written.  Exit status is 0 on success, 2 for
configuration and argument errors, 1 for runtime failures.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    dominant_frequency,
    extract_beats,
    fft_spectrum,
    fit_decay_time,
    resolution_estimate,
    synthesize_esr,
)
from .config import ConfigError, RunConfig, load_config, preset_names
from .evolve import (
    DecayModel,
    ManifoldSpec,
    apply_power_drift,
    rabi_trace_incoherent,
    rabi_trace_vtype,
)
from .imaging import (
    FieldMap,
    position_from_rabi,
    rabi_at,
    resolution_budget,
    resolution_from_count,
)
from .traces import SampledTrace, write_json

__all__ = ["main"]

UNITS = {
    "time": "us",
    "frequency": "MHz",
    "position": "um",
    "signal": "population",
}

_COMMAND_KINDS = {
    "simulate": ("rabi-single", "rabi-vtype", "drift"),
    "analyze": ("analyze",),
    "esr": ("esr",),
    "imaging-demo": ("imaging-demo",),
}


def _provenance(config_name, label: str, seed: int) -> dict:
    return {
        "tool": f"rabibeat {__version__}",
        "config": str(config_name),
        "label": label,
        "seed": int(seed),
    }


# gnuplot stub per command: (x label, y label, plotted CSV, extra lines)
_PLOTS = {
    "simulate": ("time (us)", "population", "trace.csv", []),
    "analyze": ("frequency (MHz)", "magnitude", "spectrum.csv", []),
    "esr": ("frequency offset (MHz)", "signal", "esr.csv", ["set yrange [0:1.05]"]),
    "imaging-demo": ("position (um)", "rabi (MHz)", "fieldmap.csv", []),
}


def _write_plot(out_dir: Path, command: str) -> None:
    xlabel, ylabel, csv, extra = _PLOTS[command]
    lines = [
        "# gnuplot stub; run: gnuplot -p plot.gp",
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set grid",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        *extra,
        f'plot "{csv}" using 1:2 with lines',
    ]
    (out_dir / "plot.gp").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _seed_arg(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _resolve_out(arg) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("RABIBEAT_OUT")
    if env:
        return Path(env)
    return Path("rabibeat-out")


def _parse_sweep(text: str):
    """Parse ``section.key=start:stop:count`` or ``section.key=v1,v2,...``."""
    key, sep, spec = text.partition("=")
    key = key.strip()
    if not sep or not key or "." not in key:
        raise ConfigError("sweep: expected section.key=start:stop:count or =v1,v2,...")
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("sweep: range must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from None
        if count < 2:
            raise ConfigError("sweep: count must be >= 2")
        values = np.linspace(start, stop, count).tolist()
    else:
        try:
            values = [float(tok) for tok in spec.split(",")]
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from None
    return key, values


def _simulate_trace(cfg: RunConfig, seed: int) -> SampledTrace:
    if cfg.kind == "rabi-single":
        return rabi_trace_incoherent(
            cfg.drive["omega0_mhz"],
            cfg.manifolds,
            cfg.grid,
            decay=cfg.decay,
            amplitude_mode=cfg.drive.get("amplitude_mode", "exact"),
        )
    if cfg.kind == "rabi-vtype":
        return rabi_trace_vtype(
            cfg.drive["lambda_mhz"], cfg.manifolds, cfg.grid, decay=cfg.decay
        )
    return apply_power_drift(
        cfg.drive["omega0_mhz"],
        cfg.manifolds,
        cfg.grid,
        cfg.drift,
        cfg.n_sweeps,
        decay=cfg.decay,
        amplitude_mode=cfg.drive.get("amplitude_mode", "exact"),
        seed=seed,
    )


def _cmd_simulate(cfg: RunConfig, out_dir: Path, seed: int, args) -> None:
    trace = _simulate_trace(cfg, seed)
    trace.meta["provenance"] = _provenance(args.config, cfg.label, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.save(out_dir / "trace.csv")


def _cmd_analyze(cfg: RunConfig, out_dir: Path, seed: int, args) -> None:
    trace_path = getattr(args, "trace", None) or cfg.analyze.get("trace")
    if not trace_path:
        raise ConfigError("analyze.trace: required (or pass --trace)")
    try:
        trace = SampledTrace.from_csv(trace_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"analyze.trace: {exc}") from None

    window = cfg.analyze.get("window", "hann")
    zero_pad = cfg.analyze.get("zero_pad", 4)
    try:
        spectrum = fft_spectrum(trace, window=window, zero_pad=zero_pad)
    except ValueError as exc:
        raise ConfigError(f"analyze: {exc}") from None
    report = extract_beats(trace, mode=cfg.analyze["mode"])

    base = report.base_frequency
    decay_time = fit_decay_time(trace, band=(0.7 * base, 1.3 * base), method="trend")
    effective_time = decay_time if math.isfinite(decay_time) else trace.duration
    n_osc = report.base_frequency * effective_time
    res = resolution_estimate(report.base_frequency, max(n_osc, 1.0))

    out_dir.mkdir(parents=True, exist_ok=True)
    spectrum.to_csv(out_dir / "spectrum.csv")
    write_json(
        out_dir / "report.json",
        {
            "mode": report.mode,
            "base_frequency_MHz": report.base_frequency,
            "beat_frequencies_MHz": list(report.beat_frequencies),
            "recovered_detunings_MHz": list(report.recovered_detunings),
            "decay_time_us": decay_time,
            "n_oscillations": n_osc,
            "resolution": {
                "delta_cyclic_MHz": res.delta_cyclic,
                "delta_angular_rad_per_us": res.delta_angular,
            },
            "diagnostics": report.diagnostics,
            "units": UNITS,
            "provenance": _provenance(args.config, cfg.label, seed),
        },
    )


def _cmd_esr(cfg: RunConfig, out_dir: Path, seed: int, args) -> None:
    e = cfg.esr
    grid = np.linspace(e["f_start_mhz"], e["f_stop_mhz"], e["n_points"])
    try:
        shape = synthesize_esr(
            e["transitions_mhz"], e["contrasts"], e["linewidth_fwhm_mhz"], grid
        )
    except ValueError as exc:
        raise ConfigError(f"esr: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    shape.to_csv(out_dir / "esr.csv")
    write_json(
        out_dir / "esr.meta.json",
        {
            "units": UNITS,
            "drive": {
                "transitions_MHz": list(e["transitions_mhz"]),
                "contrasts": list(e["contrasts"]),
                "linewidth_fwhm_MHz": e["linewidth_fwhm_mhz"],
            },
            "decay": {"kind": "none"},
            "provenance": _provenance(args.config, cfg.label, seed),
        },
    )


def _cmd_imaging_demo(cfg: RunConfig, out_dir: Path, seed: int, args) -> None:
    im = cfg.imaging
    geom = cfg.geometry
    x_true = im["emitter_x_um"]
    fmap = FieldMap.from_model(
        geom, n_points=im.get("map_points", 501), branch=im["branch"]
    )

    t1 = im["t1_rho_us"]
    true_rabi = float(rabi_at(geom, x_true))
    trace = rabi_trace_incoherent(
        true_rabi,
        ManifoldSpec.single(),
        cfg.grid,
        decay=DecayModel("exponential", t1),
    )
    measured = dominant_frequency(trace)
    budget = resolution_budget(geom.gap, measured, t1)
    res = resolution_estimate(measured, budget.n_oscillations)
    loc = position_from_rabi(measured, fmap, resolvable_mhz=res.delta_cyclic)

    out_dir.mkdir(parents=True, exist_ok=True)
    fmap.to_csv(out_dir / "fieldmap.csv")
    trace.meta["provenance"] = _provenance(args.config, cfg.label, seed)
    trace.save(out_dir / "trace.csv")
    write_json(
        out_dir / "report.json",
        {
            "true": {"position_um": x_true, "rabi_MHz": true_rabi},
            "recovered": {
                "position_um": loc.position,
                "rabi_MHz": measured,
                "uncertainty_um": loc.uncertainty,
            },
            "error_um": abs(loc.position - x_true),
            "budget": {
                "t1_rho_us": budget.t1_rho,
                "base_rabi_MHz": budget.base_rabi,
                "n_oscillations": budget.n_oscillations,
                "delta_x_nm": budget.delta_x_nm,
                "stability_required": budget.stability_required,
            },
            "resolution": {
                "delta_cyclic_MHz": res.delta_cyclic,
                "delta_angular_rad_per_us": res.delta_angular,
            },
            "reference": {
                "million_oscillations": {
                    "gap_um": geom.gap,
                    "n_oscillations": 1.0e6,
                    "delta_x_nm": resolution_from_count(geom.gap, 1.0e6),
                },
                "high_field": {
                    "gap_um": 10.0,
                    "t1_rho_us": 1000.0,
                    "base_rabi_MHz": 2880.0,
                    "delta_x_nm": resolution_from_count(10.0, 2880.0 * 1000.0),
                },
            },
            "units": UNITS,
            "provenance": _provenance(args.config, cfg.label, seed),
        },
    )


_RUNNERS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "esr": _cmd_esr,
    "imaging-demo": _cmd_imaging_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabibeat",
        description="Rabi-beat simulation, spectral analysis, and localization.",
        epilog="bundled presets: " + ", ".join(preset_names()),
    )
    parser.add_argument(
        "--version", action="version", version=f"rabibeat {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "simulate a Rabi trace (kinds rabi-single, rabi-vtype, drift)",
        "analyze": "extract base, beats, and resolution from a trace CSV",
        "esr": "synthesize a continuous-wave resonance scan",
        "imaging-demo": "field map, forward trace, and localization round trip",
    }
    for name in _RUNNERS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument(
            "--config",
            required=True,
            help="config file path or bundled preset name",
        )
        p.add_argument(
            "--out",
            default=None,
            help="output directory (default: $RABIBEAT_OUT or ./rabibeat-out)",
        )
        p.add_argument(
            "--seed", type=_seed_arg, default=0, help="random seed (u64)"
        )
        p.add_argument(
            "--sweep",
            default=None,
            metavar="SECTION.KEY=START:STOP:COUNT",
            help="run once per value (also accepts =v1,v2,...); "
            "each variant writes to its own subdirectory",
        )
        if name == "analyze":
            p.add_argument(
                "--trace",
                default=None,
                help="input trace CSV (overrides analyze.trace)",
            )
    return parser


def _check_kind(cfg: RunConfig, command: str) -> None:
    allowed = _COMMAND_KINDS[command]
    if cfg.kind not in allowed:
        raise ConfigError(
            f"run.kind: {cfg.kind!r} is not valid for {command} "
            f"(expected one of {', '.join(allowed)})"
        )


def _run(args, cfg: RunConfig, out_dir: Path, seed: int) -> None:
    """Run one config and write the command's plot stub beside it."""
    _RUNNERS[args.command](cfg, out_dir, seed, args)
    _write_plot(out_dir, args.command)


def _dispatch(args) -> int:
    out_dir = _resolve_out(args.out)
    if args.sweep is None:
        cfg = load_config(args.config)
        _check_kind(cfg, args.command)
        _run(args, cfg, out_dir, args.seed)
        print(f"{args.command}: wrote {out_dir}")
        return 0

    key, values = _parse_sweep(args.sweep)
    children = np.random.SeedSequence(args.seed).spawn(len(values))
    child_seeds = [int(c.generate_state(1, np.uint64)[0]) for c in children]
    variants, seen = [], {}
    for value, child_seed in zip(values, child_seeds):
        name = f"{key.replace('.', '-')}={value:.6g}"
        if name in seen:
            raise ConfigError(
                f"sweep: values {seen[name]!r} and {value!r} both write to {name}"
            )
        seen[name] = value
        # integral values without ".0", so int fields take them too
        cfg = load_config(args.config, overrides={key: repr(value).removesuffix(".0")})
        _check_kind(cfg, args.command)
        variants.append((cfg, out_dir / name, child_seed))
    with ThreadPoolExecutor(max_workers=min(8, len(variants))) as pool:
        list(pool.map(lambda item: _run(args, *item), variants))
    write_json(
        out_dir / "sweep.json",
        {
            "key": key,
            "values": values,
            "seed": args.seed,
            "derived_seeds": child_seeds,
            "directories": [str(sub.name) for _, sub, _ in variants],
        },
    )
    print(f"{args.command}: wrote {len(values)} sweep variants under {out_dir}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"rabibeat: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"rabibeat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
