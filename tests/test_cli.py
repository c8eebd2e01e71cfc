import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import rabibeat
from rabibeat.analysis import LINESHAPE_COLUMNS, LINESHAPE_HEADER
from rabibeat.analysis import SPECTRUM_COLUMNS, SPECTRUM_HEADER
from rabibeat.cli import _build_parser, main
from rabibeat.evolve import DriftModel
from rabibeat.imaging import FIELDMAP_COLUMNS, FIELDMAP_HEADER
from rabibeat.traces import SampledTrace, read_columns, write_columns


def read_json(path):
    return json.loads(path.read_text())


def test_simulate_writes_trace_meta_and_plot(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", "paper-fig3", "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "# rabibeat-trace v1"
    assert lines[1] == "time_us,signal"
    meta = read_json(out / "trace.meta.json")
    assert meta["units"]["frequency"] == "MHz"
    assert meta["drive"]["omega0_MHz"] == 22.2
    assert meta["decay"]["kind"] == "exponential"
    assert meta["provenance"]["config"] == "paper-fig3"
    assert "plot" in (out / "plot.gp").read_text()


def test_analyze_reads_simulated_trace(tmp_path):
    sim = tmp_path / "sim"
    ana = tmp_path / "ana"
    main(["simulate", "--config", "paper-fig3", "--out", str(sim)])
    code = main(
        [
            "analyze",
            "--config",
            "paper-fig4",
            "--trace",
            str(sim / "trace.csv"),
            "--out",
            str(ana),
        ]
    )
    assert code == 0
    report = read_json(ana / "report.json")
    assert report["base_frequency_MHz"] == pytest.approx(22.2, abs=0.05)
    assert report["recovered_detunings_MHz"][0] == pytest.approx(2.18, rel=0.05)
    assert report["recovered_detunings_MHz"][1] == pytest.approx(4.36, rel=0.05)
    assert "delta_cyclic_MHz" in report["resolution"]
    assert "delta_angular_rad_per_us" in report["resolution"]
    spectrum_lines = (ana / "spectrum.csv").read_text().splitlines()
    assert spectrum_lines[0] == "# rabibeat-spectrum v1"


def test_analyze_round_trips_its_own_output(tmp_path):
    # every trace the CLI writes must parse back without loss
    sim = tmp_path / "sim"
    main(["simulate", "--config", "paper-fig7", "--out", str(sim)])
    trace = SampledTrace.from_csv(sim / "trace.csv")
    second = trace.to_csv(tmp_path / "again.csv")
    assert (sim / "trace.csv").read_text() == second.read_text()

    # and so must the spectrum and ESR columns files, with the comments
    # their writers were given
    ana = tmp_path / "ana"
    esr = tmp_path / "esr"
    main(["analyze", "--config", "paper-fig8", "--trace", str(second),
          "--out", str(ana)])
    main(["esr", "--config", "paper-fig2", "--out", str(esr)])
    for path, header, columns, comments in (
        (ana / "spectrum.csv", SPECTRUM_HEADER, SPECTRUM_COLUMNS, {"window": "hann"}),
        (esr / "esr.csv", LINESHAPE_HEADER, LINESHAPE_COLUMNS, None),
    ):
        arrays = read_columns(path, header, columns)
        again = write_columns(tmp_path / path.name, header, columns, arrays, comments)
        assert path.read_bytes() == again.read_bytes()


def test_esr_writes_lineshape(tmp_path):
    out = tmp_path / "esr"
    assert main(["esr", "--config", "paper-fig2", "--out", str(out)]) == 0
    lines = (out / "esr.csv").read_text().splitlines()
    assert lines[0] == "# rabibeat-esr v1"
    assert lines[1] == "freq_MHz,signal"
    meta = read_json(out / "esr.meta.json")
    assert meta["drive"]["transitions_MHz"] == [0.0, 2.18, 4.36]


def test_imaging_demo_report(tmp_path):
    out = tmp_path / "demo"
    assert main(["imaging-demo", "--config", "imaging-default", "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["recovered"]["position_um"] == pytest.approx(
        report["true"]["position_um"], abs=1e-3
    )
    assert report["budget"]["delta_x_nm"] > 0
    assert report["reference"]["million_oscillations"]["delta_x_nm"] == pytest.approx(0.01)
    fieldmap_lines = (out / "fieldmap.csv").read_text().splitlines()
    assert fieldmap_lines[0] == "# rabibeat-fieldmap v1"


def test_imaging_demo_localizes_on_the_right_branch(tmp_path):
    # the imaging-default geometry and grid, with the emitter mirrored into
    # the half of the gap where the Rabi frequency rises with x
    config = tmp_path / "right.ini"
    config.write_text(
        "[run]\nkind = imaging-demo\n[imaging]\ngap_um = 10.0\n"
        "center_width_um = 10.0\nedge_cutoff_um = 0.5\ndrive_scale_mhz = 20.0\n"
        "t1_rho_us = 25.0\nemitter_x_um = 6.79\nmap_points = 801\n"
        "branch = right\n[grid]\nt_start_us = 0.0\nt_end_us = 40.0\n"
        "n_points = 12001\n"
    )
    out = tmp_path / "right"
    assert main(["imaging-demo", "--config", str(config), "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert 1e3 * report["error_um"] <= report["budget"]["delta_x_nm"]
    positions, _ = read_columns(out / "fieldmap.csv", FIELDMAP_HEADER,
                                FIELDMAP_COLUMNS)
    assert positions[0] == 5.0 and positions[-1] == 10.0


def test_imaging_demo_recovers_a_short_lived_oscillation(tmp_path, capsys):
    # at t1 = 0.3 us of a 40 us record the Hann window nearly hides the
    # oscillation; the frequency guess must still come from its line
    out = tmp_path / "short"
    assert main(["imaging-demo", "--config", "imaging-default", "--out", str(out),
                 "--sweep", "imaging.t1_rho_us=0.3"]) == 0
    report = read_json(out / "imaging-t1_rho_us=0.3" / "report.json")
    assert 1e3 * report["error_um"] <= report["budget"]["delta_x_nm"]
    # far shorter, no line is left to find, and the failure names the
    # frequency it measured instead of a non-positive one
    assert main(["imaging-demo", "--config", "imaging-default", "--out", str(out),
                 "--sweep", "imaging.t1_rho_us=0.02"]) == 1
    err = capsys.readouterr().err
    assert "outside the map range" in err
    assert "base_rabi must be positive" not in err


def test_rabibeat_out_env_var(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("RABIBEAT_OUT", str(target))
    assert main(["esr", "--config", "paper-fig2"]) == 0
    assert (target / "esr.csv").exists()


def test_explicit_out_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RABIBEAT_OUT", str(tmp_path / "ignored"))
    out = tmp_path / "explicit"
    assert main(["esr", "--config", "paper-fig2", "--out", str(out)]) == 0
    assert (out / "esr.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    assert main(["simulate", "--config", "nope", "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", "paper-fig2", "--out", str(tmp_path)]) == 2
    # the input trace is named on the command line only
    assert main(["analyze", "--config", "paper-fig4", "--out", str(tmp_path)]) == 2
    assert "required: --trace" in capsys.readouterr().err
    trace_key = tmp_path / "trace-key.ini"
    trace_key.write_text("[run]\nkind = analyze\n[analyze]\nmode = single\n"
                         "trace = sim/trace.csv\n")
    assert main(["analyze", "--config", str(trace_key), "--trace", "sim/trace.csv",
                 "--out", str(tmp_path / "trace-key")]) == 2
    assert "config error: analyze.trace: unknown key" in capsys.readouterr().err
    # read by nothing, but still checked
    assert main(["imaging-demo", "--config", "imaging-default", "--out",
                 str(tmp_path / "width"), "--sweep", "imaging.center_width_um=-1"]) == 2
    assert "config error: imaging.center_width_um: must be > 0, got -1.0" in (
        capsys.readouterr().err)
    bad_esr = tmp_path / "esr.ini"
    bad_esr.write_text(
        "[run]\nkind = esr\n[esr]\ntransitions_mhz = 0.0\ncontrasts = 0.1\n"
        "linewidth_fwhm_mhz = 0.8\nf_start_mhz = 5.0\nf_stop_mhz = 1.0\n"
        "n_points = 101\n"
    )
    assert main(["esr", "--config", str(bad_esr), "--out", str(tmp_path)]) == 2
    # every sweep variant is validated before any of them writes
    sweep = tmp_path / "sweep"
    assert main(["imaging-demo", "--config", "imaging-default", "--out",
                 str(sweep), "--sweep", "imaging.gap_um=10,-1"]) == 2
    assert not sweep.exists()
    assert main(["imaging-demo", "--config", "imaging-default", "--out",
                 str(sweep), "--sweep", "imaging.t1_rho_us=25,-5"]) == 2
    assert not sweep.exists()
    err = capsys.readouterr().err
    assert "config error" in err
    assert main(["simulate", "--config", "drift-demo", "--out", str(sweep),
                 "--sweep", "drift.sigma_relative=nan,0.001"]) == 2
    assert not sweep.exists()
    assert "drift.sigma_relative: must be finite" in capsys.readouterr().err
    # two values that share one variant directory
    for values in ("20,20", "22.2,22.2000001"):
        assert main(["simulate", "--config", "paper-fig3", "--out", str(sweep),
                     "--sweep", f"drive.omega0_mhz={values}"]) == 2
        assert not sweep.exists()
        assert "both write to drive-omega0_mhz=" in capsys.readouterr().err
    # a bad last variant fails before the first one writes
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", "paper-fig3", "--out", str(sim)]) == 0
    for command, config, field, values in (
        ("analyze", "paper-fig4", "analyze.zero_pad", "4,0"),
        ("imaging-demo", "imaging-default", "imaging.map_points", "501,1"),
        ("esr", "paper-fig2", "esr.linewidth_fwhm_mhz", "0.5,-1"),
        ("simulate", "paper-fig3", "drive.omega0_mhz", "22,-1"),
        ("simulate", "paper-fig7", "drive.lambda_mhz", "14,-1"),
        ("simulate", "paper-fig7", "manifolds.detunings_mhz", "1,-1"),
        ("simulate", "paper-fig7", "grid.t_start_us", "0,-20"),
        ("imaging-demo", "imaging-default", "grid.n_points", "12001,101"),
        # the 0.5 variant's derived seed draws a non-positive power factor
        ("simulate", "drift-demo", "drift.sigma_relative", "8e-4,0.5"),
        # sections the kind does not read: every variant would be the same
        ("simulate", "paper-fig3", "drift.n_sweeps", "1,2"),
        ("imaging-demo", "imaging-default", "decay.t1_rho_us", "1,2"),
    ):
        args = [command, "--config", config, "--out", str(sweep),
                "--sweep", f"{field}={values}"]
        if command == "analyze":
            args += ["--trace", str(sim / "trace.csv")]
        assert main(args) == 2
        assert not sweep.exists()
        assert f"config error: {field}: " in capsys.readouterr().err
    # a single run draws its power factors before it writes, too
    drift = tmp_path / "drift.ini"
    drift.write_text(
        "[run]\nkind = drift\n[drive]\nomega0_mhz = 22.2\n[manifolds]\n"
        "detunings_mhz = 0.0\n[grid]\nt_end_us = 10.0\nn_points = 1001\n"
        "[drift]\nkind = gaussian\nsigma_relative = 1.0\nn_sweeps = 100\n"
    )
    single = tmp_path / "single"
    assert main(["simulate", "--config", str(drift), "--out", str(single)]) == 2
    assert not single.exists()
    assert "config error: drift.sigma_relative: drawn power factors" in (
        capsys.readouterr().err)
    # before t = 0 a decay envelope would grow instead of decay
    early = tmp_path / "early.ini"
    early.write_text(
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 22.2\n[manifolds]\n"
        "detunings_mhz = 0.0\n[grid]\nt_start_us = -20\nt_end_us = 10.0\n"
        "n_points = 1001\n[decay]\nkind = exponential\nt1_rho_us = 5\n"
    )
    assert main(["simulate", "--config", str(early), "--out", str(single)]) == 2
    assert not single.exists()
    assert "config error: grid.t_start_us: must be >= 0, got -20.0" in (
        capsys.readouterr().err)
    # configparser copies [DEFAULT]'s keys into every section, so a
    # non-empty one is an unknown section, not an unknown key of [run]
    defaults = tmp_path / "defaults.ini"
    defaults.write_text(
        "[DEFAULT]\nt1_rho_us = 25.0\n[run]\nkind = rabi-single\n[drive]\n"
        "omega0_mhz = 22.2\n[manifolds]\ndetunings_mhz = 0.0\n[grid]\n"
        "t_end_us = 10.0\nn_points = 1001\n"
    )
    assert main(["simulate", "--config", str(defaults), "--out", str(single)]) == 2
    assert not single.exists()
    assert "config error: DEFAULT: unknown section (known: run, " in (
        capsys.readouterr().err)


def test_exit_code_2_on_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# rabibeat-trace v1\ntime_us,signal\n0.0,1.0\nnope,2.0\n")
    code = main(
        [
            "analyze",
            "--config",
            "paper-fig4",
            "--trace",
            str(bad),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "config error: --trace: " in capsys.readouterr().err
    # too few rows, with no warning from the reader on an empty body
    for name, body in (("header-only", ""), ("one-row", "0.0,1.0\n")):
        path = tmp_path / f"{name}.csv"
        path.write_text("# rabibeat-trace v1\ntime_us,signal\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--config", "paper-fig4", "--trace", str(path),
                         "--out", str(tmp_path / f"out-{name}")]) == 2
        assert (f"config error: --trace: {path}: fewer than two data rows"
                in capsys.readouterr().err)
    # traces that parse but cannot be analyzed
    times = np.linspace(0.0, 10.0, 2001)
    for name, trace, cause in (
        ("uneven", SampledTrace(times**2, np.sin(times)), "not uniformly sampled"),
        ("short", SampledTrace(times[:4], np.sin(times[:4])), "at least 8 samples"),
        ("flat", SampledTrace(times, np.full(times.size, 0.1)), "no spectral peak"),
    ):
        path = trace.to_csv(tmp_path / f"{name}.csv")
        out = tmp_path / f"out-{name}"
        assert main(["analyze", "--config", "paper-fig4", "--trace", str(path),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: --trace: " in err and cause in err


def test_analyze_names_the_file_of_a_bad_trace_or_sidecar(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", "paper-fig3", "--out", str(sim)]) == 0
    lines = (sim / "trace.csv").read_bytes().split(b"\n")
    accented = list(lines)
    accented[100] = accented[100].replace(b"e", "\u00e9".encode("utf-8"), 1)
    repeated = lines[:101] + lines[100:]
    for name, trace, sidecar, cause in (
        ("accented", accented, None, "{csv}:101: non-ASCII byte 0xc3"),
        ("sidecar", lines, "{'units': 'us'}",
         "{side}: Expecting property name enclosed in double quotes"),
        ("repeated", repeated, None, "{csv}: times must be strictly increasing"),
    ):
        csv = tmp_path / name / "trace.csv"
        csv.parent.mkdir()
        csv.write_bytes(b"\n".join(trace))
        side = csv.with_suffix(".meta.json")
        if sidecar is not None:
            side.write_text(sidecar)
        out = tmp_path / f"out-{name}"
        assert main(["analyze", "--config", "paper-fig4", "--trace", str(csv),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert ("config error: --trace: " + cause.format(csv=csv, side=side)
                in capsys.readouterr().err)


def test_analyze_rejects_a_mode_the_trace_sidecar_contradicts(tmp_path, capsys):
    # inverting V-type beats as single-mode ones doubles every detuning
    for simulated, analyzed, mode, kind in (
        ("paper-fig7", "paper-fig4", "single", "rabi-vtype"),
        ("paper-fig3", "paper-fig8", "vtype", "rabi-single"),
    ):
        sim = tmp_path / simulated
        assert main(["simulate", "--config", simulated, "--out", str(sim)]) == 0
        out = tmp_path / f"{analyzed}-on-{simulated}"
        assert main(["analyze", "--config", analyzed, "--trace",
                     str(sim / "trace.csv"), "--out", str(out)]) == 2
        assert not out.exists()
        assert (f"config error: analyze.mode: {mode} does not fit the trace's "
                f"drive kind {kind}") in capsys.readouterr().err
    # the sidecar is checked before anything is computed, so a flat trace
    # fails on its mode, not on its missing spectral peak
    times = np.linspace(0.0, 10.0, 2001)
    flat = SampledTrace(times, np.full(times.size, 0.1),
                        {"drive": {"kind": "rabi-vtype"}}).save(tmp_path / "flat.csv")
    assert main(["analyze", "--config", "paper-fig4", "--trace", str(flat),
                 "--out", str(tmp_path / "flat")]) == 2
    assert ("config error: analyze.mode: single does not fit the trace's drive "
            "kind rabi-vtype") in capsys.readouterr().err
    # a trace without a sidecar, or with one that names no kind, is
    # analyzed in the configured mode
    bare = SampledTrace.from_csv(sim / "trace.csv").to_csv(tmp_path / "bare.csv")
    for sidecar in (None, "[]", '{"drive": "rabi-single"}'):
        if sidecar is not None:
            (tmp_path / "bare.meta.json").write_text(sidecar)
        assert main(["analyze", "--config", "paper-fig8", "--trace", str(bare),
                     "--out", str(tmp_path / "bare")]) == 0


def test_exit_code_1_on_runtime_failure(tmp_path, monkeypatch):
    # break the output path after validation has passed
    import rabibeat.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setitem(cli._COMMANDS, "esr", (boom, *cli._COMMANDS["esr"][1:]))
    assert main(["esr", "--config", "paper-fig2", "--out", str(tmp_path)]) == 1


def test_seed_must_be_u64(capsys):
    # the error names the seed, not the private function that parses it
    for seed in ("-1", "18446744073709551616", "abc", "1.5"):
        assert main(["simulate", "--config", "drift-demo", "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: seed must" in err
        assert "_seed_arg" not in err


def test_help_and_version_return_0(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"rabibeat {rabibeat.__version__}\n"
    assert main(["simulate", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_determinism_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        main(["simulate", "--config", "drift-demo", "--out", str(out), "--seed", "7"])
    for name in ("trace.csv", "trace.meta.json", "plot.gp"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_percent_in_a_config_value_is_literal(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nkind = esr\nlabel = 50% power, %(kind)s\n[esr]\n"
        "transitions_mhz = 0.0\ncontrasts = 0.1\nlinewidth_fwhm_mhz = 0.8\n"
        "f_start_mhz = -5.0\nf_stop_mhz = 5.0\nn_points = 101\n"
    )
    out = tmp_path / "out"
    assert main(["esr", "--config", str(config), "--out", str(out)]) == 0
    label = read_json(out / "esr.meta.json")["provenance"]["label"]
    assert label == "50% power, %(kind)s"


def test_simulate_rejects_a_grid_that_aliases_its_trace(tmp_path, capsys):
    config = tmp_path / "aliased.ini"
    config.write_text(
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 5\n[manifolds]\n"
        "detunings_mhz = 0, 9.8\n[grid]\nt_end_us = 30\nn_points = 200\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert ("config error: grid.n_points: 200 samples over 30 us reach a Nyquist "
            "frequency of 3.317 MHz, not above the trace's highest line 11 MHz"
            ) in capsys.readouterr().err


def test_drift_grid_must_resolve_its_drawn_drives(tmp_path, capsys):
    # 441 samples over 10 us: a Nyquist frequency of 22 MHz, just above the
    # 21.9 MHz drive, which the drawn power factors then push past it
    text = (
        "[run]\nkind = drift\n[drive]\nomega0_mhz = 21.9\n[manifolds]\n"
        "detunings_mhz = 0.0\n[grid]\nt_end_us = 10.0\nn_points = 441\n"
        "[drift]\nkind = gaussian\nn_sweeps = 100\nsigma_relative = {}\n"
    )
    for sigma, code in ((0.0, 0), (0.01, 2)):
        config = tmp_path / f"drift-{sigma}.ini"
        config.write_text(text.format(sigma))
        out = tmp_path / f"out-{sigma}"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--seed", "7"]) == code
        assert out.exists() == (code == 0)
    factors = DriftModel("gaussian", sigma_relative=0.01).power_factors(100, 7)
    top = 21.9 * np.sqrt(factors.max())
    assert f"not above the trace's highest line {top:.4g} MHz" in (
        capsys.readouterr().err)


def run_fresh(script, **env):
    """Stdout of ``script`` run by a new interpreter that imports this
    rabibeat, with ``env`` added to the environment."""
    src = str(Path(rabibeat.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def run_main(runs):
    """A script that passes each argv of ``runs`` to ``rabibeat.cli.main``."""
    return f"from rabibeat.cli import main\nfor a in {runs!r}: assert main(a) == 0\n"


def test_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


def test_import_leaves_the_parser_unbuilt(tmp_path):
    argv = ["esr", "--config", "paper-fig2", "--out", str(tmp_path)]
    script = (
        "import rabibeat.cli as cli\n"
        "print(cli._build_parser.cache_info().currsize)\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(cli._build_parser.cache_info().currsize)\n"
    )
    lines = run_fresh(script).splitlines()
    assert (lines[0], lines[-1]) == ("0", "1")


def test_repeated_main_calls_match_fresh_interpreters(tmp_path, capsys, monkeypatch):
    # the usage line in argparse's error message wraps at $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")

    def runs(out):
        return [
            ["simulate", "--config", "paper-fig3", "--out", str(out / "sim")],
            ["esr", "--config", "paper-fig2", "--out", str(out / "esr")],
            ["analyze", "--config", "paper-fig4", "--out", str(out / "ana"),
             "--trace", str(out / "sim" / "trace.csv")],
        ]

    bad_seed = ["simulate", "--config", "paper-fig3", "--seed", "-1"]
    simulate, esr, analyze = runs(tmp_path / "one")
    assert main(simulate) == 0
    capsys.readouterr()
    assert main(bad_seed) == 2
    message = capsys.readouterr().err
    assert "argument --seed: seed must fit in an unsigned 64-bit int" in message
    assert main(esr) == 0
    assert main(analyze) == 0

    for argv in runs(tmp_path / "fresh"):
        run_fresh(run_main([argv]))
    fresh = json.loads(run_fresh(
        "import contextlib, io, json\nfrom rabibeat.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = main({bad_seed!r})\n"
        "print(json.dumps([code, err.getvalue()]))\n"
    ))
    assert fresh == [2, message]

    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    one, separate = files(tmp_path / "one"), files(tmp_path / "fresh")
    assert len(one) == 9
    assert one == separate


DRIFT_CONFIG = """[run]
kind = drift

[drive]
omega0_mhz = {omega0}

[manifolds]
detunings_mhz = {detunings}

[grid]
t_end_us = {t_end}
n_points = {n_points}

[drift]
kind = linear
n_sweeps = {n_sweeps}
total_relative_change = {change}
"""


def test_drift_trace_is_independent_of_blas_threads(tmp_path):
    # the drift average's bytes must not depend on the BLAS thread count.
    # The linear drift of one manifold is a generated benchmark case whose
    # trace differed in 6 of its 22407 lines at 1 and 2 threads when the
    # average was one blocked BLAS product over all sweeps
    configs = {
        "one": dict(omega0=18.703728477413947, detunings="0.0",
                    t_end=45.641506399427115, n_points=22405, n_sweeps=242,
                    change=-0.01894900511242511),
        "three": dict(omega0=22.2, detunings="0.0, 2.18, 4.36", t_end=30.0,
                      n_points=6001, n_sweeps=500, change=0.02),
    }
    for name, fields in configs.items():
        (tmp_path / f"{name}.ini").write_text(DRIFT_CONFIG.format(**fields))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        run = ["simulate", "--config", "drift-demo", "--seed", "7", "--out"]
        runs = [run + [str(out / "single")],
                run + [str(out / "sweep"), "--sweep", "drift.sigma_relative=8e-4,1.6e-3"]]
        runs += [["simulate", "--config", str(tmp_path / f"{name}.ini"), "--seed", "7",
                  "--out", str(out / name)] for name in configs]
        run_fresh(run_main(runs), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outs.append(out)
    traces = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("trace.csv"))
    assert len(traces) == 5
    for rel in traces:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


VTYPE_CONFIG = """[run]
kind = rabi-vtype

[drive]
lambda_mhz = 14.0

[manifolds]
detunings_mhz = 0.0, 2.0, 4.0, 6.0

[grid]
t_end_us = 25.0
n_points = 9911
"""


def test_analyze_is_independent_of_blas_threads(tmp_path):
    # the trace kernels make no BLAS call and the DTFT refinement is a BLAS
    # matrix-vector product; the traces of simulate and the artifacts of
    # analyze must not depend on the thread count.  The 4-manifold
    # rabi-vtype trace is a benchmark shape whose blocked BLAS product once
    # stalled at 2 threads
    (tmp_path / "vtype.ini").write_text(VTYPE_CONFIG)
    cases = [("paper-fig3", "paper-fig3", "paper-fig4"),
             ("paper-fig7", "paper-fig7", "paper-fig8"),
             ("vtype", str(tmp_path / "vtype.ini"), "paper-fig8")]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        runs = []
        for name, sim, ana in cases:
            trace = str(out / name / "trace.csv")
            runs += [["simulate", "--config", sim, "--out", str(out / name)],
                     ["analyze", "--config", ana, "--trace", trace,
                      "--out", str(out / f"{name}-analysis")]]
        run_fresh(run_main(runs), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outs.append(out)
    files = [Path(name) / "trace.csv" for name, _, _ in cases]
    files += [Path(f"{name}-analysis") / file for name, _, _ in cases
              for file in ("report.json", "spectrum.csv")]
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_no_command_imports_scipy(tmp_path):
    # the CLI runs on numpy alone: no stage of a fresh interpreter loads any
    # scipy module, the peak refinements of analyze and imaging-demo included
    trace = str(tmp_path / "sim" / "trace.csv")
    stages = [
        ("simulate", ["simulate", "--config", "paper-fig3", "--out", str(tmp_path / "sim")]),
        ("drift", ["simulate", "--config", "drift-demo", "--out", str(tmp_path / "drift")]),
        ("esr", ["esr", "--config", "paper-fig2", "--out", str(tmp_path / "esr")]),
        ("analyze", ["analyze", "--config", "paper-fig4", "--trace", trace,
                     "--out", str(tmp_path / "ana")]),
        ("imaging-demo", ["imaging-demo", "--config", "imaging-default",
                          "--out", str(tmp_path / "img")]),
        ("drift-sweep", ["simulate", "--config", "drift-demo",
                         "--sweep", "drift.sigma_relative=4e-4,8e-4",
                         "--out", str(tmp_path / "sweep")]),
    ]
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from rabibeat.cli import main\n"
        "loaded = {'import': scipy_modules()}\n"
        f"for name, argv in {stages!r}:\n"
        "    assert main(argv) == 0\n"
        "    loaded[name] = scipy_modules()\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = json.loads(run_fresh(script).splitlines()[-1])
    assert loaded == {stage: [] for stage in ["import"] + [name for name, _ in stages]}


def test_imaging_sweep_is_the_same_with_scipy_loaded(tmp_path):
    # an imaging-demo sweep in a fresh interpreter leaves scipy unloaded,
    # and its files equal those of a run with scipy.optimize preloaded
    argv = ["imaging-demo", "--config", "imaging-default",
            "--sweep", "imaging.t1_rho_us=20,25,30", "--out"]
    bare = (run_main([argv + [str(tmp_path / "bare")]])
            + "import sys\nassert 'scipy' not in sys.modules\n")
    run_fresh(bare)
    run_fresh("import scipy.optimize\n" + run_main([argv + [str(tmp_path / "scipy")]]))
    files = sorted(p.relative_to(tmp_path / "bare")
                   for p in (tmp_path / "bare").rglob("*") if p.is_file())
    assert len(files) == 16
    assert files == sorted(p.relative_to(tmp_path / "scipy")
                           for p in (tmp_path / "scipy").rglob("*") if p.is_file())
    for rel in files:
        assert (tmp_path / "bare" / rel).read_bytes() == (tmp_path / "scipy" / rel).read_bytes()


def test_sweep_writes_variant_directories(tmp_path, monkeypatch):
    # variants run in sweep order on the calling thread
    import threading

    import rabibeat.cli as cli

    runner = cli._COMMANDS["simulate"][0]
    calls = []

    def recording_runner(cfg, seed, args):
        calls.append((threading.get_ident(), cfg.drive["omega0_mhz"]))
        return runner(cfg, seed, args)

    monkeypatch.setitem(cli._COMMANDS, "simulate",
                        (recording_runner, *cli._COMMANDS["simulate"][1:]))
    out = tmp_path / "sweep"
    code = main(
        [
            "simulate",
            "--config",
            "paper-fig3",
            "--out",
            str(out),
            "--seed",
            "3",
            "--sweep",
            "drive.omega0_mhz=20,22,24",
        ]
    )
    assert code == 0
    index = read_json(out / "sweep.json")
    assert index["values"] == [20.0, 22.0, 24.0]
    assert len(index["derived_seeds"]) == 3
    for sub, omega0 in zip(index["directories"], index["values"]):
        meta = read_json(out / sub / "trace.meta.json")
        assert meta["drive"]["omega0_MHz"] == omega0
    assert calls == [(threading.get_ident(), omega0) for omega0 in index["values"]]


def test_sweep_range_expansion(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "esr",
            "--config",
            "paper-fig2",
            "--out",
            str(out),
            "--sweep",
            "esr.linewidth_fwhm_mhz=0.4:0.8:3",
        ]
    )
    assert code == 0
    index = read_json(out / "sweep.json")
    assert index["values"] == pytest.approx([0.4, 0.6, 0.8])
    # an int field takes the integral values of a range
    out = tmp_path / "points"
    assert main(["esr", "--config", "paper-fig2", "--out", str(out),
                 "--sweep", "esr.n_points=101:201:2"]) == 0
    index = read_json(out / "sweep.json")
    assert index["directories"] == ["esr-n_points=101", "esr-n_points=201"]
    for sub, n_points in zip(index["directories"], (101, 201)):
        rows = (out / sub / "esr.csv").read_text().splitlines()[2:]
        assert len(rows) == n_points


def test_sweep_with_a_failing_variant_writes_nothing(tmp_path, capsys):
    # at t1_rho = 0.02 us the oscillation is gone within a few samples, so
    # that variant measures a Rabi frequency outside the field map, which
    # only running it shows; the t1_rho = 25 us variant succeeds
    out = tmp_path / "sweep"
    assert main(["imaging-demo", "--config", "imaging-default", "--out", str(out),
                 "--sweep", "imaging.t1_rho_us=0.02,25"]) == 1
    assert "outside the map range" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_malformed_spec(tmp_path):
    code = main(
        [
            "simulate",
            "--config",
            "paper-fig3",
            "--out",
            str(tmp_path),
            "--sweep",
            "omega0=1,2",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "sim_name, ana_name",
    [("paper-fig3", "paper-fig4"), ("paper-fig7", "paper-fig8")],
)
def test_paper_presets_leave_no_envelope_line_unexplained(
    tmp_path, sim_name, ana_name
):
    sim, ana = tmp_path / "sim", tmp_path / "ana"
    assert main(["simulate", "--config", sim_name, "--out", str(sim)]) == 0
    assert main(["analyze", "--config", ana_name, "--trace",
                 str(sim / "trace.csv"), "--out", str(ana)]) == 0
    report = read_json(ana / "report.json")
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == {"notes", "envelope_beats", "unexplained_lines",
                                "analysis_band_MHz"}
    assert len(diagnostics["envelope_beats"]) == 3
    assert diagnostics["unexplained_lines"] == []
    # the base band the envelope keeps and the band the beats are read in
    base = report["base_frequency_MHz"]
    duration = SampledTrace.from_csv(sim / "trace.csv").duration
    assert diagnostics["analysis_band_MHz"] == {
        "lines": pytest.approx([0.7 * base, 1.3 * base], rel=1e-15),
        "beats": pytest.approx([1.5 / duration, 0.45 * base], rel=1e-15),
    }


def test_single_tone_trace_analyzes_cleanly(tmp_path):
    # one manifold, no beats: report must be empty but well-formed
    times = np.linspace(0.0, 10.0, 2001)
    values = np.sin(np.pi * 22.2 * times) ** 2
    trace_path = tmp_path / "tone.csv"
    SampledTrace(times, values).to_csv(trace_path)
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--config",
            "paper-fig4",
            "--trace",
            str(trace_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["beat_frequencies_MHz"] == []
    assert report["recovered_detunings_MHz"] == []


@given(
    kind=st.sampled_from(["rabi-single", "rabi-vtype"]),
    drive=st.floats(0.5, 300.0),
    detunings=st.lists(st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
                       max_size=3),
    n_points=st.integers(2, 6001),
    t_end=st.floats(0.05, 200.0),
    t1_rho=st.none() | st.floats(0.01, 25.0),
)
@example(kind="rabi-single", drive=22.2, detunings=[2.18, 4.36], n_points=6001,
         t_end=30.0, t1_rho=25.0)
@example(kind="rabi-vtype", drive=42.0, detunings=[2.0, 4.1], n_points=6001,
         t_end=30.0, t1_rho=None)
# three samples pass the aliasing check, and analyze needs eight
@example(kind="rabi-single", drive=0.5, detunings=[], n_points=3, t_end=1.0,
         t1_rho=None)
def test_accepted_round_trips_exit_0_or_name_their_cause(
    kind, drive, detunings, n_points, t_end, t1_rho
):
    # simulate then analyze: each step exits 0, or 2 with the section.key
    # or --trace at fault, never 1.  The V coupling is drive / (2 sqrt 2)
    coupling = ("omega0_mhz = " if kind == "rabi-single" else "lambda_mhz = ") + repr(
        drive if kind == "rabi-single" else drive / (2.0 * math.sqrt(2.0)))
    decay = "none" if t1_rho is None else f"exponential\nt1_rho_us = {t1_rho!r}"
    analyze = "paper-fig4" if kind == "rabi-single" else "paper-fig8"
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_text(
            f"[run]\nkind = {kind}\n[drive]\n{coupling}\n[manifolds]\n"
            f"detunings_mhz = {', '.join(map(repr, [0.0, *detunings]))}\n"
            f"[grid]\nt_end_us = {t_end!r}\nn_points = {n_points}\n"
            f"[decay]\nkind = {decay}\n"
        )
        for argv in (["simulate", "--config", str(config), "--out", f"{tmp}/sim"],
                     ["analyze", "--config", analyze, "--trace",
                      f"{tmp}/sim/trace.csv", "--out", f"{tmp}/ana"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
                code = main(argv)
            assert code in (0, 2), err.getvalue()
            if code == 2:
                assert re.search(r"config error: ([a-z_]+\.[a-z0-9_]+|--trace): ",
                                 err.getvalue()), err.getvalue()
                break
