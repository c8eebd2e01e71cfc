import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabibeat
from rabibeat.analysis import LINESHAPE_COLUMNS, LINESHAPE_HEADER
from rabibeat.analysis import SPECTRUM_COLUMNS, SPECTRUM_HEADER
from rabibeat.cli import main
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

    # and so must the spectrum and ESR columns files
    ana = tmp_path / "ana"
    esr = tmp_path / "esr"
    main(["analyze", "--config", "paper-fig8", "--trace", str(second),
          "--out", str(ana)])
    main(["esr", "--config", "paper-fig2", "--out", str(esr)])
    for path, header, columns in (
        (ana / "spectrum.csv", SPECTRUM_HEADER, SPECTRUM_COLUMNS),
        (esr / "esr.csv", LINESHAPE_HEADER, LINESHAPE_COLUMNS),
    ):
        arrays, comments = read_columns(path, header, columns)
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
    assert main(["analyze", "--config", "paper-fig4", "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", "paper-fig2", "--out", str(tmp_path)]) == 2
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


def test_exit_code_2_on_malformed_trace(tmp_path):
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


def test_exit_code_1_on_runtime_failure(tmp_path, monkeypatch):
    # break the output path after validation has passed
    import rabibeat.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "_cmd_esr", boom)
    monkeypatch.setitem(cli._RUNNERS, "esr", boom)
    assert main(["esr", "--config", "paper-fig2", "--out", str(tmp_path)]) == 1


def test_seed_must_be_u64():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--config", "drift-demo", "--seed", "-1"])
    assert excinfo.value.code == 2


def test_determinism_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        main(["simulate", "--config", "drift-demo", "--out", str(out), "--seed", "7"])
    for name in ("trace.csv", "trace.meta.json", "plot.gp"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_drift_trace_is_independent_of_blas_threads(tmp_path):
    # the drift average is a BLAS matrix product; its bytes must not depend
    # on the thread count, also while sweep variants run concurrently
    src = str(Path(rabibeat.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = ["simulate", "--config", "drift-demo", "--seed", "7", "--out"]
        runs = [run + [str(out / "single")],
                run + [str(out / "sweep"), "--sweep", "drift.sigma_relative=8e-4,1.6e-3"]]
        script = f"from rabibeat.cli import main\nfor a in {runs!r}: assert main(a) == 0"
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        outs.append(out)
    traces = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("trace.csv"))
    assert len(traces) == 3
    for rel in traces:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_sweep_writes_variant_directories(tmp_path):
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
