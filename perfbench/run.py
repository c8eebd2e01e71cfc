#!/usr/bin/env python3
"""rabibeat benchmark: closed-loop CLI jobs, timed and traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload beat-pipeline --seed 1 --seconds 20 --trace 0

One client runs each generated case's CLI jobs in-process through
``rabibeat.cli.main``, each job after the previous one finished.  A first
pass warms the process and gates every artifact against the generated
truth; timed passes follow until ``--seconds`` have passed, and every job
in them must reproduce its first-pass artifacts byte for byte.  A fixed
reference kernel timed between jobs measures how much other tenants of the
host slow the run, and throughput is also quoted at the reference speed.  With
``--trace 1`` half the time runs untraced and half with span wrappers
around rabibeat's public functions, and the per-layer figures are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a JSON report with the environment, per-subcommand latencies,
accuracy and every per-layer figure.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5
# fastest time of reference_seconds() on the 2-core Intel Xeon sandbox the
# baseline was taken on; normalized throughput is quoted at this speed
REF_NOMINAL_S = 1.12e-3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# per-layer metrics reported on the last line with --trace 1: every figure
# that is defined, and for times non-zero, on all three workloads.  The
# report above the last line carries the rest, for each workload where the
# layer is called.
LAYER_METRICS = (
    "cli.main.self_ms",
    "config.load_config.self_ms",
    "config.load_config.calls",
    "evolve.rabi_trace_incoherent.self_ms",
    "evolve.rabi_trace_incoherent.calls",
    "evolve.rabi_trace_incoherent.samples",
    "traces.SampledTrace.to_csv.self_ms",
    "traces.SampledTrace.to_csv.bytes",
    "traces.SampledTrace.from_csv.bytes",
    "analysis.fft_spectrum.calls",
    "analysis.fft_spectrum.points",
    "analysis.analytic_envelope.points",
    "analysis.refine_peak_frequency.calls",
    "analysis.refine_peak_frequency.dtft_evals",
    "analysis.synthesize_esr.points",
    "analysis.Spectrum.to_csv.bytes",
    "analysis.Lineshape.to_csv.bytes",
    "imaging.FieldMap.to_csv.bytes",
    "trace.overhead_frac",
)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable cores; returns that core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def measure_setup(src: Path) -> list:
    """Seconds to import ``rabibeat.cli`` in fresh interpreters, after one
    untimed import that fills the bytecode cache."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "t = time.perf_counter()\n"
        "import rabibeat.cli\n"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times[1:]


def summary(values, scale: float = 1.0) -> dict:
    """Sample count, median and, when at least 10 samples lie beyond it, p90."""
    import numpy as np

    v = np.asarray(values, dtype=float) * scale
    out = {"n": int(v.size)}
    if v.size:
        out["p50"] = float(np.median(v))
        p90 = float(np.percentile(v, 90))
        if np.count_nonzero(v > p90) >= 10:
            out["p90"] = p90
    return out


def git_revision(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(ROOT),
        "seed": seed,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs a workload's cases through ``rabibeat.cli.main`` and gates them."""

    def __init__(self, workload, work_dir: Path, tracer=None):
        import rabibeat.cli
        from rabibeat.traces import SampledTrace

        self.cli = rabibeat.cli
        self.trace_cls = SampledTrace
        self.workload = workload
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.accuracy: dict = {}
        self.digests: dict = {}
        self.refs: list = []
        self.job_ids: dict = {}
        self._next_job = 0
        self.configs = {}
        config_dir = work_dir / "configs"
        config_dir.mkdir(parents=True)
        for case in workload.cases:
            for job in case.jobs:
                if job.preset:
                    self.configs[job.name] = job.config
                else:
                    path = config_dir / f"{job.name}.ini"
                    path.write_text(job.config, encoding="utf-8")
                    self.configs[job.name] = str(path)

    def _argv(self, job, out_dir: Path, case_dir: Path) -> list:
        argv = [job.command, "--config", self.configs[job.name],
                "--out", str(out_dir), "--seed", str(job.seed)]
        if job.sweep:
            values = ",".join(repr(v) for v in job.sweep)
            argv += ["--sweep", f"drift.sigma_relative={values}"]
        if job.trace_from:
            argv += ["--trace", str(case_dir / job.trace_from / "trace.csv")]
        return argv

    def _fail(self, job, message: str) -> None:
        self.failed += job.n_jobs
        self.failures.append(f"{job.name}: {message}")

    def run_job(self, job, case_dir: Path, traced: bool) -> float | None:
        """Run one invocation; returns its seconds, or None when it failed."""
        out_dir = case_dir / job.name
        argv = self._argv(job, out_dir, case_dir)
        self.attempted += job.n_jobs
        sink = io.StringIO()
        if traced:
            self._next_job += 1
            self.job_ids.setdefault(job.name, []).append(self._next_job)
            ctx = self.tracer.job(self._next_job)
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = perf_counter()
            code = (ctx.run(self.cli.main, argv) if traced
                    else self.cli.main(argv))
            seconds = perf_counter() - t0
        self.refs.append(reference_seconds())
        if code != 0:
            self._fail(job, f"exit {code}: {sink.getvalue().strip()}")
            return None
        if job.name not in self.digests:
            try:
                self.accuracy[job.name] = checks.check_job(
                    job, out_dir, self.trace_cls)
            except checks.GateError as exc:
                self._fail(job, str(exc))
                return None
            self.digests[job.name] = digest(out_dir)
        elif digest(out_dir) != self.digests[job.name]:
            self._fail(job, "artifacts differ from the first run of this job")
            return None
        return seconds

    def run_pass(self, index: int, traced: bool = False) -> dict:
        """Run every case once; job name -> seconds for each job that passed."""
        times = {}
        for case in self.workload.cases:
            case_dir = self.work_dir / f"pass{index}" / case.name
            for job in case.jobs:
                seconds = self.run_job(job, case_dir, traced)
                if seconds is None:
                    break
                times[job.name] = seconds
            shutil.rmtree(case_dir, ignore_errors=True)
        return times

    def run_for(self, seconds: float, first_index: int, traced: bool = False):
        """Whole passes until ``seconds`` of wall time have gone, at least one.

        Returns the passes and the reference-kernel times taken during them.
        """
        passes = []
        first_ref = len(self.refs)
        t0 = perf_counter()
        while not passes or perf_counter() - t0 < seconds:
            passes.append(self.run_pass(first_index + len(passes), traced))
        return passes, self.refs[first_ref:]


def reference_seconds() -> float:
    """Time of a fixed mix of the jobs' kind of work: a vectorized cosine,
    a real FFT and float formatting.

    Other tenants of a shared host slow CPU-bound code by up to about 1.7x
    for stretches of seconds.  Timed between jobs, this kernel is slowed by
    the same factor as the jobs around it, so it measures that factor.
    """
    import numpy as np

    x = np.linspace(0.0, 100.0, 12001)
    t0 = perf_counter()
    np.cos(x * 1.0001)
    np.fft.rfft(x[:12000])
    ",".join(f"{v:.12e}" for v in x[:1500])
    return perf_counter() - t0


def raw_jobs_per_s(workload, passes) -> float:
    """Jobs per second of CLI time, over every job that passed in all passes."""
    jobs = sum(job.n_jobs for times in passes for case in workload.cases
               for job in case.jobs if job.name in times)
    return jobs / sum(sum(times.values()) for times in passes)


def norm_jobs_per_s(workload, passes, refs) -> float:
    """Raw throughput at the reference speed: scaled by the mean time of the
    reference kernel over the same passes against REF_NOMINAL_S."""
    return raw_jobs_per_s(workload, passes) * fmean(refs) / REF_NOMINAL_S


def timed_report(workload, passes) -> dict:
    latency: dict = {}
    presets = {}
    for case in workload.cases:
        for job in case.jobs:
            runs = [times[job.name] for times in passes if job.name in times]
            kind = "sweep" if job.sweep else job.command.replace("-demo", "")
            latency.setdefault(kind, []).extend(runs)
            if case.preset and runs:
                presets[f"{job.name}/{job.command}"] = {
                    "p50": 1e3 * median(runs), "min": 1e3 * min(runs)}
    return {
        "passes": len(passes),
        "latency_ms": {f"{k}_ms": summary(v, 1e3) for k, v in sorted(latency.items())},
        "preset_ms": presets,
    }


def accuracy_report(runner: Runner) -> dict:
    acc = runner.accuracy.values()
    beats = [a for a in acc if "missed" in a]
    errors = [e for a in beats for e in a["errors"]]
    ratios = [a["position_err_ratio"] for a in acc if "position_err_ratio" in a]
    out = {}
    if beats:
        out["detuning_miss_frac"] = {
            "value": sum(a["missed"] for a in beats) / len(beats),
            "jobs": len(beats), "rtol": checks.DETUNING_RTOL}
        out["detuning_err_mhz.p50"] = {
            "value": median(errors) if errors else None, "n": len(errors)}
    if ratios:
        out["position_err_ratio.max"] = {"value": max(ratios), "jobs": len(ratios)}
    return out


def preset_calls(runner: Runner, spans) -> dict:
    """Spans of the preset jobs' last traced run, for cross-checks."""
    selfs = tracing.self_times(spans)
    last = {}
    for case in runner.workload.cases:
        if case.preset:
            for job in case.jobs:
                if job.name in runner.job_ids:
                    last[runner.job_ids[job.name][-1]] = job.name
    out: dict = {}
    for s in spans:
        if s.job in last:
            out.setdefault(last[s.job], []).append(
                {"fn": s.name, "self_ms": 1e3 * selfs[s.id], **s.counts})
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("beat-pipeline", "drift-sweep", "localize-esr"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rabibeat" / "cli.py").is_file():
        print(f"perfbench: no rabibeat sources under {src}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    setup = measure_setup(src)
    sys.path.insert(0, str(src))
    import workloads  # imports numpy, so only after the thread caps

    workload = workloads.build(args.workload, args.seed, nproc)
    work_dir = ROOT / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        runner = Runner(workload, work_dir, tracer)
        runner.run_pass(0)
        if args.trace:
            untraced, untraced_refs = runner.run_for(args.seconds / 2, 1)
            with tracer:
                traced, traced_refs = runner.run_for(
                    args.seconds / 2, 1 + len(untraced), traced=True)
            n_jobs = sum(job.n_jobs for times in traced for case in workload.cases
                         for job in case.jobs if job.name in times)
            layers = tracing.layer_table(tracer.spans, n_jobs)
            layers["trace.overhead_frac"] = (
                norm_jobs_per_s(workload, untraced, untraced_refs)
                / norm_jobs_per_s(workload, traced, traced_refs) - 1.0)
            report = {"traced_passes": len(traced), "traced_jobs": n_jobs,
                      "layers": layers,
                      "preset_calls": preset_calls(runner, tracer.spans)}
            metrics = {name: {"value": layers.get(name, 0.0), "unit": layer_unit(name)}
                       for name in LAYER_METRICS}
        else:
            passes, refs = runner.run_for(args.seconds, 1)
            report = timed_report(workload, passes)
            report["jobs_per_s"] = raw_jobs_per_s(workload, passes)
            report["slowdown"] = fmean(refs) / REF_NOMINAL_S
            metrics = {
                "setup_s": {"value": median(setup), "unit": "s"},
                "norm_jobs_per_s": {"value": norm_jobs_per_s(workload, passes, refs),
                                    "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    report.update({
        "workload": args.workload,
        "env": environment(nproc, args.seed),
        "setup_s": setup,
        "accuracy": accuracy_report(runner),
        "fail_frac": runner.failed / runner.attempted,
        "failures": runner.failures[:20],
    })
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
