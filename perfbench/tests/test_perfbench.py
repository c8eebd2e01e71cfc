"""Tests of the benchmark's own code: generators, statistics and tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import scipy.optimize

import rabibeat
import rabibeat.analysis
import rabibeat.cli
import rabibeat.evolve
from rabibeat.evolve import DecayModel, ManifoldSpec, TimeGrid, rabi_trace_incoherent
from rabibeat.traces import SampledTrace

import checks
import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    first = workloads.build(name, 11, nproc=2)
    assert workloads.build(name, 11, nproc=2) == first
    assert workloads.build(name, 12, nproc=2) != first


def test_sweeps_never_exceed_the_cores():
    for nproc in (1, 2, 64):
        wl = workloads.build("drift-sweep", 3, nproc)
        sweeps = [job for case in wl.cases for job in case.jobs if job.sweep]
        assert sweeps and all(len(job.sweep) <= nproc for job in sweeps)


def test_four_manifold_cases_are_kept():
    wl = workloads.build("beat-pipeline", 5, nproc=2)
    ladders = [len(job.truth["detunings"]) for case in wl.cases
               for job in case.jobs if job.command == "analyze"]
    assert ladders.count(3) >= workloads.N_BEAT // 3


def _span(id, parent, start, end, name="f"):
    return tracing.Span(id, parent, 1, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 5.0),
        _span(3, 1, 4.0, 8.0),   # overlaps its sibling, as pool threads do
        _span(4, 3, 4.5, 5.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 6.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def _beat_trace():
    return rabi_trace_incoherent(
        22.2, ManifoldSpec((0.0, 2.18, 4.36)), TimeGrid(0.0, 30.0, 6001),
        decay=DecayModel("exponential", 25.0))


def test_extract_beats_self_time_excludes_its_fft_calls():
    trace = _beat_trace()
    tracer = tracing.Tracer()
    with tracer:
        tracer.job(1).run(rabibeat.analysis.extract_beats, trace)
    spans = {s.id: s for s in tracer.spans}
    (top,) = [s for s in spans.values() if s.name == "analysis.extract_beats"]
    ffts = [s for s in spans.values() if s.name == "analysis.fft_spectrum"]
    # one direct call, one through the envelope beat spectrum
    assert len(ffts) == 2
    assert ffts[0].parent == top.id
    children = [s for s in spans.values() if s.parent == top.id]
    selfs = tracing.self_times(tracer.spans)
    assert selfs[top.id] == pytest.approx(
        top.duration - sum(c.duration for c in children), abs=1e-9)
    assert 0 < selfs[top.id] < top.duration
    table = tracing.layer_table(tracer.spans, n_jobs=1)
    assert table["analysis.fft_spectrum.points"] == sum(
        s.counts["points"] for s in ffts)
    assert table["analysis.refine_peak_frequency.dtft_evals"] > 0


def test_p90_needs_ten_samples_beyond_it():
    # p90 of 0..90 is 81: nine samples lie beyond it
    assert "p90" not in run.summary(range(91))
    assert run.summary(range(91))["n"] == 91
    full = run.summary(range(100))
    assert full["p90"] == pytest.approx(89.1)
    assert full["p50"] == pytest.approx(49.5)
    # ties at the top leave fewer than ten samples strictly beyond
    assert "p90" not in run.summary([1.0] * 200)


def test_spans_from_sweep_pool_threads_nest_under_their_variant(tmp_path):
    config = tmp_path / "drift.ini"
    config.write_text(
        "[run]\nkind = drift\n[drive]\nomega0_mhz = 20.0\n"
        "[manifolds]\ndetunings_mhz = 0.0\n"
        "[grid]\nt_end_us = 5.0\nn_points = 501\n"
        "[drift]\nkind = gaussian\nsigma_relative = 0.001\nn_sweeps = 20\n")
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
            "--sweep", "drift.sigma_relative=0.001,0.002,0.003"]
    tracer = tracing.Tracer()
    with tracer:
        assert tracer.job(7).run(rabibeat.cli.main, argv) == 0
    by_id = {s.id: s for s in tracer.spans}
    (main,) = [s for s in by_id.values() if s.name == "cli.main"]
    (sweep,) = [s for s in by_id.values() if s.name == "cli.sweep"]
    variants = [s for s in by_id.values() if s.name == "cli.sweep.variant"]
    drifts = [s for s in by_id.values() if s.name == "evolve.apply_power_drift"]
    assert sweep.parent == main.id
    assert len(variants) == 3 and all(v.parent == sweep.id for v in variants)
    assert sorted(d.parent for d in drifts) == sorted(v.id for v in variants)
    assert {v.thread for v in variants} - {main.thread}
    inner = [s for s in by_id.values() if s.name == "evolve.rabi_trace_incoherent"]
    assert len(inner) == 3 * 21
    assert all(s.job == 7 for s in by_id.values())
    table = tracing.layer_table(tracer.spans, n_jobs=3)
    assert table["evolve.apply_power_drift.useful_trace_frac"] == pytest.approx(20 / 21)
    assert table["cli.sweep.overlap"] > 0


def test_recorder_loses_no_span_under_thread_contention():
    tracer = tracing.Tracer()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(i):
            for _ in range(200):
                span = tracer.start("w")
                tracer.finish(span)

        with ThreadPoolExecutor(max_workers=8) as pool:
            ctx = tracer.job(1)
            futures = [pool.submit(ctx.copy().run, work, i) for i in range(8)]
            for f in futures:
                f.result(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert len(tracer.spans) == 8 * 200
    assert len({s.id for s in tracer.spans}) == 8 * 200


def test_calls_outside_a_job_are_not_recorded():
    tracer = tracing.Tracer()
    with tracer:
        rabibeat.analysis.fft_spectrum(_beat_trace())
    assert tracer.spans == []


def _patch_points():
    points = {}
    for module in (rabibeat, rabibeat.analysis, rabibeat.cli, rabibeat.evolve,
                   rabibeat.config, rabibeat.spinmodel, rabibeat.imaging,
                   rabibeat.traces, scipy.optimize):
        points.update({(module.__name__, k): v for k, v in vars(module).items()})
    for cls in (SampledTrace, rabibeat.analysis.Spectrum,
                rabibeat.analysis.Lineshape, rabibeat.imaging.FieldMap):
        points.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return points


def test_wrappers_are_restored_after_the_traced_run():
    before = _patch_points()
    tracer = tracing.Tracer()
    with tracer:
        during = _patch_points()
        assert during[("rabibeat.cli", "fft_spectrum")] is not before[
            ("rabibeat.cli", "fft_spectrum")]
        assert during[("rabibeat.analysis", "fft_spectrum")] is during[
            ("rabibeat.cli", "fft_spectrum")]
        assert during[("rabibeat.evolve", "vtype_population")] is not before[
            ("rabibeat.evolve", "vtype_population")]
        assert during[("SampledTrace", "from_csv")] is not before[
            ("SampledTrace", "from_csv")]
        assert during[("scipy.optimize", "minimize_scalar")] is not before[
            ("scipy.optimize", "minimize_scalar")]
        assert during[("rabibeat.cli", "ThreadPoolExecutor")] is not before[
            ("rabibeat.cli", "ThreadPoolExecutor")]
    after = _patch_points()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_match_detunings_reports_misses_without_dropping_cases():
    missed, errors = checks.match_detunings((2.18, 4.36), [2.17, 4.34])
    assert not missed and errors == pytest.approx([0.01, 0.02])
    missed, errors = checks.match_detunings((2.18, 4.36, 6.54), [2.9])
    assert missed and errors == []


def test_gate_rejects_a_trace_with_the_wrong_length(tmp_path):
    trace = _beat_trace()
    trace.meta["provenance"] = {"seed": 0}
    path = trace.save(tmp_path / "trace.csv")
    checks.check_trace(SampledTrace, path, 6001)
    with pytest.raises(checks.GateError, match="samples"):
        checks.check_trace(SampledTrace, path, 6000)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "beat-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.LAYER_METRICS]
