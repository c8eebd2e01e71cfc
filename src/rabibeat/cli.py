"""Command-line interface.

Four subcommands share one shape: load a validated config (a file path or
a bundled preset name), run, and write artifacts into an output directory.
The same config and seed always produce byte-identical files; nothing
time- or host-dependent is written.  Exit status is 0 on success, 2 for
configuration and argument errors, 1 for runtime failures.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
# ThreadPoolExecutor is unused here; perfbench's tracer patches this name
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    Spectrum,
    dominant_frequency,
    extract_beats,
    fft_spectrum,
    resolution_estimate,
    synthesize_esr,
)
from .config import (
    KINDS,
    ConfigError,
    RunConfig,
    check_trace_sampling,
    load_config,
    parse_sweep,
    preset_names,
)
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
from .traces import SampledTrace, meta_path_for, write_json

__all__ = ["main"]

UNITS = {
    "time": "us",
    "frequency": "MHz",
    "position": "um",
    "signal": "population",
}

def _write(out_dir: Path, args, cfg: RunConfig, seed: int, artifacts: dict) -> None:
    """Write one run's ``{file name: artifact}`` into ``out_dir``: a dict as
    JSON, with ``UNITS`` unless it has its own units and with the run's
    provenance; anything else through its ``to_csv``; and then the
    command's gnuplot stub."""
    provenance = {
        "tool": f"rabibeat {__version__}",
        "config": str(args.config),
        "label": cfg.label,
        "seed": int(seed),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, artifact in artifacts.items():
        if isinstance(artifact, dict):
            write_json(out_dir / name,
                       {"units": UNITS, **artifact, "provenance": provenance})
        else:
            artifact.to_csv(out_dir / name)
    xlabel, ylabel, csv, extra = _COMMANDS[args.command][2]
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
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**64), got {text!r}"
        ) from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _cmd_simulate(cfg: RunConfig, seed: int, args) -> dict:
    if cfg.kind == "rabi-single":
        trace = rabi_trace_incoherent(
            cfg.drive["omega0_mhz"],
            cfg.manifolds,
            cfg.grid,
            decay=cfg.decay,
            amplitude_mode=cfg.drive["amplitude_mode"],
        )
    elif cfg.kind == "rabi-vtype":
        trace = rabi_trace_vtype(
            cfg.drive["lambda_mhz"], cfg.manifolds, cfg.grid, decay=cfg.decay
        )
    else:
        trace = apply_power_drift(
            cfg.drive["omega0_mhz"],
            cfg.manifolds,
            cfg.grid,
            cfg.drift,
            cfg.n_sweeps,
            decay=cfg.decay,
            amplitude_mode=cfg.drive["amplitude_mode"],
            seed=seed,
        )
    return {"trace.csv": trace, "trace.meta.json": trace.meta}


def _cmd_analyze(cfg: RunConfig, seed: int, args) -> dict:
    # the trace is the one input that arrives at run time, so its checks
    # (format, sidecar, sampling, length, a spectral peak) run here
    try:
        trace = SampledTrace.from_csv(args.trace)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--trace: {exc}") from None
    # a sidecar that names the simulated kind fixes the beat inversion
    mode = cfg.analyze["mode"]
    drive = trace.meta.get("drive") if isinstance(trace.meta, dict) else None
    kind = drive.get("kind") if isinstance(drive, dict) else None
    if kind in ("rabi-single", "rabi-vtype") and kind != f"rabi-{mode}":
        raise ConfigError(
            f"analyze.mode: {mode} does not fit the trace's drive kind {kind} "
            f"({meta_path_for(args.trace)})"
        )
    try:
        spectrum = fft_spectrum(
            trace, window=cfg.analyze["window"], zero_pad=cfg.analyze["zero_pad"]
        )
        report = extract_beats(trace, mode=mode)
    except ValueError as exc:
        raise ConfigError(f"--trace: {exc}") from None

    decay_time = report.decay_time
    effective_time = decay_time if math.isfinite(decay_time) else trace.duration
    n_osc = report.base_frequency * effective_time
    res = resolution_estimate(report.base_frequency, max(n_osc, 1.0))

    # every line the models produce lies below 1.3 x base, so the bins
    # above 2 x base carry no signal and stay out of the artifact
    top = 2.0 * report.base_frequency
    band = max(2, int(np.searchsorted(spectrum.freqs, top, side="right")))
    return {
        "spectrum.csv": Spectrum(
            spectrum.freqs[:band], spectrum.magnitudes[:band], spectrum.window
        ),
        "report.json": {
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
        },
    }


def _cmd_esr(cfg: RunConfig, seed: int, args) -> dict:
    e = cfg.esr
    grid = np.linspace(e["f_start_mhz"], e["f_stop_mhz"], e["n_points"])
    shape = synthesize_esr(
        e["transitions_mhz"], e["contrasts"], e["linewidth_fwhm_mhz"], grid
    )
    return {
        "esr.csv": shape,
        "esr.meta.json": {
            "drive": {
                "transitions_MHz": list(e["transitions_mhz"]),
                "contrasts": list(e["contrasts"]),
                "linewidth_fwhm_MHz": e["linewidth_fwhm_mhz"],
            },
            "decay": {"kind": "none"},
        },
    }


def _cmd_imaging_demo(cfg: RunConfig, seed: int, args) -> dict:
    im = cfg.imaging
    geom = cfg.geometry
    x_true = im["emitter_x_um"]
    fmap = FieldMap.from_model(geom, n_points=im["map_points"], branch=im["branch"])

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

    return {
        "fieldmap.csv": fmap,
        "trace.csv": trace,
        "trace.meta.json": trace.meta,
        "report.json": {
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
        },
    }


def _kinds_of(command: str) -> list:
    return [kind for kind, (runner, _) in KINDS.items() if runner == command]


# each subcommand: its runner, its help line, and its gnuplot stub
# (x label, y label, plotted CSV, extra lines)
_COMMANDS = {
    "simulate": (_cmd_simulate,
                 f"simulate a Rabi trace (kinds {', '.join(_kinds_of('simulate'))})",
                 ("time (us)", "population", "trace.csv", [])),
    "analyze": (_cmd_analyze,
                "extract base, beats, and resolution from a trace CSV",
                ("frequency (MHz)", "magnitude", "spectrum.csv", [])),
    "esr": (_cmd_esr,
            "synthesize a continuous-wave resonance scan",
            ("frequency offset (MHz)", "signal", "esr.csv", ["set yrange [0:1.05]"])),
    "imaging-demo": (_cmd_imaging_demo,
                     "field map, forward trace, and localization round trip",
                     ("position (um)", "rabi (MHz)", "fieldmap.csv", [])),
}


# built at the first main() call, not at import, and reused by every later
# call in the process: parse_args leaves the parser as it found it
@functools.cache
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
    for name, (_, help_line, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
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
            p.add_argument("--trace", required=True, help="input trace CSV")
    return parser


def _check_run(cfg: RunConfig, command: str, seed: int) -> None:
    """The checks that need the command or the seed, which ``load_config``
    does not see: the run kind, and a drift's power-factor draw and the
    sampling of the drives it gives."""
    allowed = _kinds_of(command)
    if cfg.kind not in allowed:
        raise ConfigError(
            f"run.kind: {cfg.kind!r} is not valid for {command} "
            f"(expected one of {', '.join(allowed)})"
        )
    if cfg.kind == "drift":
        try:
            factors = cfg.drift.power_factors(cfg.n_sweeps, seed)
        except ValueError as exc:
            raise ConfigError(f"drift.sigma_relative: {exc} (seed {seed})") from None
        check_trace_sampling(cfg, float(factors.max()))


def _dispatch(args) -> int:
    out_dir = Path(args.out or os.environ.get("RABIBEAT_OUT") or "rabibeat-out")
    if args.sweep is None:
        cfg = load_config(args.config)
        _check_run(cfg, args.command, args.seed)
        _write(out_dir, args, cfg, args.seed,
               _COMMANDS[args.command][0](cfg, args.seed, args))
        print(f"{args.command}: wrote {out_dir}")
        return 0

    key, values = parse_sweep(args.sweep)
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
        _check_run(cfg, args.command, child_seed)
        variants.append((cfg, out_dir / name, child_seed))
    # every variant computes before any writes, so a failing one leaves nothing
    run = _COMMANDS[args.command][0]
    results = [run(cfg, child_seed, args) for cfg, _, child_seed in variants]
    for (cfg, sub, child_seed), artifacts in zip(variants, results):
        _write(sub, args, cfg, child_seed, artifacts)
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help, --version or an error
        return exc.code
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
