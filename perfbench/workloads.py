"""Seeded workload generators for the rabibeat benchmark.

A workload is a list of cases.  A case is one input carried through every
CLI job it needs: a beat case is ``simulate`` then ``analyze`` on its trace,
a drift case is one ``simulate`` or one ``--sweep`` invocation, and a
localization case is an ``imaging-demo`` job followed by an ``esr`` scan.
The benchmark runs the whole list once per pass.

Only the standard library and numpy's generator are used here, so the same
seed gives the same configs on any machine.  Sizes and categories follow a
fixed design that spans each range, so a pass costs nearly the same for
every seed; the seed draws the physics (drive, spacings, decay, drift,
emitter position, ESR lines), jitters every size by up to 2%, which changes
the transform lengths and their factorization, and shuffles the order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("beat-pipeline", "drift-sweep", "localize-esr")

# generated cases per pass: enough to average over the seeded physics, few
# enough for a run to make at least about eight passes on 2 cores
N_BEAT = 24
N_DRIFT = 6
N_LOCALIZE = 12

# sizes of generated inputs move by up to this share around their design value
JITTER = 0.02

# fixed truth of the bundled presets the workloads include
PAPER_FIG3_DETUNINGS = (2.18, 4.36)
PAPER_FIG7_HALF_SPLITTINGS = (2.0, 4.1)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``config`` is a bundled preset name, or INI text the runner writes to a
    file before the first pass.  ``trace_from`` names the job in the same
    case whose ``trace.csv`` an ``analyze`` job reads.  ``truth`` holds what
    the correctness gate compares the artifacts with.
    """

    command: str
    name: str
    config: str
    seed: int
    truth: dict = field(default_factory=dict)
    sweep: tuple = ()
    trace_from: str | None = None

    @property
    def preset(self) -> bool:
        return "\n" not in self.config

    @property
    def n_jobs(self) -> int:
        """Jobs this invocation counts as: one per sweep variant."""
        return len(self.sweep) if self.sweep else 1


@dataclass(frozen=True)
class Case:
    name: str
    jobs: tuple
    preset: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple


def _ini(sections: dict) -> str:
    out = []
    for section, entries in sections.items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {value}" for key, value in entries.items())
        out.append("")
    return "\n".join(out)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _ladder(n: int, lo: float, hi: float, step: int = 1, log: bool = False):
    """Midpoints of ``n`` equal strata of [lo, hi], in a fixed scrambled order
    (index ``step * i mod n``; ``step`` must be coprime with ``n``)."""
    u = (np.arange(n) * step % n + 0.5) / n
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _jittered(rng, sizes) -> np.ndarray:
    """Integer sizes moved by up to +-JITTER, so lengths differ per seed."""
    sizes = np.asarray(sizes, dtype=float)
    return np.round(sizes * (1.0 + JITTER * rng.uniform(-1.0, 1.0, sizes.size))).astype(int)


def _seeds(rng, n: int) -> list:
    return [int(s) for s in rng.integers(0, 2**32, size=n)]


def _beat_pipeline(rng, nproc: int) -> Workload:
    del nproc
    n = N_BEAT
    i = np.arange(n)
    kinds = [("rabi-single", "rabi-vtype")[k % 2] for k in i]
    # 4-manifold ladders stay in: extract_beats misses them today, and the
    # benchmark reports that as detuning_miss_frac rather than hiding it
    counts = [(2, 3, 4)[k % 3] for k in i]
    pads = [(1, 2, 4, 8)[k % 4] for k in i]
    windows = [("hann", "rectangular")[k // 4 % 2] for k in i]
    n_points = _jittered(rng, _ladder(n, 6000, 18000, step=5))
    spacing = rng.uniform(1.5, 2.8, n)
    base = rng.uniform(15.0, 40.0, n)
    t_end = rng.uniform(20.0, 30.0, n)
    t1 = rng.uniform(20.0, 40.0, n)
    seeds = _seeds(rng, 2 * n + 4)

    cases = [
        Case("paper-fig3", (
            Job("simulate", "paper-fig3", "paper-fig3", seeds[-1],
                {"n_points": 6001}),
            Job("analyze", "paper-fig4", "paper-fig4", seeds[-2],
                {"mode": "single", "detunings": PAPER_FIG3_DETUNINGS},
                trace_from="paper-fig3"),
        ), preset=True),
        Case("paper-fig7", (
            Job("simulate", "paper-fig7", "paper-fig7", seeds[-3],
                {"n_points": 12001}),
            Job("analyze", "paper-fig8", "paper-fig8", seeds[-4],
                {"mode": "vtype", "detunings": PAPER_FIG7_HALF_SPLITTINGS},
                trace_from="paper-fig7"),
        ), preset=True),
    ]
    for k in rng.permutation(n):
        ladder = [j * spacing[k] for j in range(counts[k])]
        if kinds[k] == "rabi-single":
            drive = {"omega0_mhz": repr(float(base[k])), "amplitude_mode": "exact"}
            mode = "single"
        else:
            # base frequency 2*sqrt(2)*lambda of the unsplit manifold
            drive = {"lambda_mhz": repr(float(base[k] / (2.0 * math.sqrt(2.0))))}
            mode = "vtype"
        sim = _ini({
            "run": {"kind": kinds[k], "label": f"beat case {k}"},
            "drive": drive,
            "manifolds": {"detunings_mhz": _floats(ladder), "weights": "equal"},
            "grid": {"t_start_us": "0.0", "t_end_us": repr(float(t_end[k])),
                     "n_points": str(n_points[k])},
            "decay": {"kind": "exponential", "t1_rho_us": repr(float(t1[k]))},
        })
        ana = _ini({
            "run": {"kind": "analyze", "label": f"beat analysis {k}"},
            "analyze": {"mode": mode, "window": windows[k],
                        "zero_pad": str(pads[k])},
        })
        name = f"beat{k:02d}"
        cases.append(Case(name, (
            Job("simulate", f"{name}-sim", sim, seeds[2 * k],
                {"n_points": int(n_points[k])}),
            Job("analyze", f"{name}-ana", ana, seeds[2 * k + 1],
                {"mode": mode, "detunings": tuple(ladder[1:])},
                trace_from=f"{name}-sim"),
        )))
    return Workload("beat-pipeline", tuple(cases))


def _drift_config(label, kind, omega0, manifolds, t_end, n_points, n_sweeps,
                  magnitude) -> str:
    drift = {"kind": kind, "n_sweeps": str(n_sweeps)}
    if kind == "gaussian":
        drift["sigma_relative"] = repr(float(magnitude))
    else:
        drift["total_relative_change"] = repr(float(magnitude))
    return _ini({
        "run": {"kind": "drift", "label": label},
        "drive": {"omega0_mhz": repr(float(omega0))},
        "manifolds": {"detunings_mhz": _floats(manifolds)},
        "grid": {"t_start_us": "0.0", "t_end_us": repr(float(t_end)),
                 "n_points": str(n_points)},
        "drift": drift,
    })


def _drift_sweep(rng, nproc: int) -> Workload:
    n = N_DRIFT + 1  # the last design row feeds the --sweep case
    i = np.arange(n)
    counts = [(1, 2, 3)[k % 3] for k in i]
    kinds = [("gaussian", "linear")[k % 2] for k in i]
    kinds[-1] = "gaussian"
    # sweeps * samples * manifolds of 4e6-8e6, with more manifolds on
    # shorter grids, gives 6k-24k-point grids and 170-1300 sweeps
    work = _ladder(n, 4.0e6, 8.0e6, step=3)
    share = _ladder(n, 0.0, 1.0, step=2)
    n_points = _jittered(rng, [6000 + u * (24000 / m - 6000)
                               for u, m in zip(share, counts)])
    sweeps = np.round(work / (n_points * counts)).astype(int)
    omega0 = rng.uniform(15.0, 30.0, n)
    t_end = rng.uniform(30.0, 60.0, n)
    sigma = np.exp(rng.uniform(math.log(2e-4), math.log(2e-3), n))
    ramp = np.exp(rng.uniform(math.log(2e-3), math.log(2e-2), n)) * rng.choice(
        (-1.0, 1.0), n)
    seeds = _seeds(rng, n + 1)

    cases = [Case("drift-demo", (
        Job("simulate", "drift-demo", "drift-demo", seeds[-1],
            {"n_points": 12001}),
    ), preset=True)]
    for k in rng.permutation(n):
        magnitude = sigma[k] if kinds[k] == "gaussian" else ramp[k]
        text = _drift_config(f"drift case {k}", kinds[k], omega0[k],
                             [j * 2.18 for j in range(counts[k])], t_end[k],
                             int(n_points[k]), int(sweeps[k]), magnitude)
        truth = {"n_points": int(n_points[k])}
        if k < N_DRIFT:
            job = Job("simulate", f"drift{k:02d}", text, seeds[k], truth)
        else:
            # no sweep runs more variants than there are cores
            variants = tuple(float(magnitude) * (1 + 0.5 * v)
                             for v in range(max(1, min(nproc, 2))))
            job = Job("simulate", "sweep", text, seeds[k], truth,
                      sweep=variants)
        cases.append(Case(job.name, (job,)))
    return Workload("drift-sweep", tuple(cases))


def _localize_esr(rng, nproc: int) -> Workload:
    del nproc
    n = N_LOCALIZE
    i = np.arange(n)
    branches = [("left", "right")[k % 2] for k in i]
    map_points = _jittered(rng, _ladder(n, 201, 2001, step=5))
    n_points = _jittered(rng, _ladder(n, 6000, 16000, step=7))
    gap = rng.uniform(6.0, 14.0, n)
    scale = rng.uniform(10.0, 20.0, n)
    t1 = rng.uniform(15.0, 40.0, n)
    # distance from the outer edge as a share of the branch: clear of the
    # edge cutoff and of the flat midpoint, where the map is not invertible
    depth = rng.uniform(0.25, 0.8, n)
    t_end = rng.uniform(20.0, 30.0, n)

    m = n - 1  # generated ESR scans; paper-fig5 pairs with the first imaging job
    n_lines = [(1, 2, 3, 4, 5, 6)[k % 6] for k in range(m)]
    esr_points = _jittered(rng, _ladder(m, 1000, 20000, step=4, log=True))
    linewidth = rng.uniform(0.3, 1.5, m)
    seeds = _seeds(rng, n + m + 3)

    imaging = []
    for k in range(n):
        offset = depth[k] * gap[k] / 2.0
        x = offset if branches[k] == "left" else gap[k] - offset
        text = _ini({
            "run": {"kind": "imaging-demo", "label": f"imaging case {k}"},
            "imaging": {
                "gap_um": repr(float(gap[k])),
                "center_width_um": "10.0",
                "edge_cutoff_um": "0.5",
                "drive_scale_mhz": repr(float(scale[k])),
                "t1_rho_us": repr(float(t1[k])),
                "emitter_x_um": repr(float(x)),
                "map_points": str(map_points[k]),
                "branch": branches[k],
            },
            "grid": {"t_start_us": "0.0", "t_end_us": repr(float(t_end[k])),
                     "n_points": str(n_points[k])},
        })
        imaging.append(Job("imaging-demo", f"img{k:02d}", text, seeds[k],
                           {"x_um": float(x), "map_points": int(map_points[k]),
                            "n_points": int(n_points[k])}))
    esr = [Job("esr", "paper-fig5", "paper-fig5", seeds[-3],
               {"n_points": 1601, "f_start": -8.0, "f_stop": 8.0})]
    for k in range(m):
        lines = np.sort(rng.uniform(-6.0, 6.0, size=n_lines[k]))
        contrasts = rng.uniform(0.05, 0.2, size=n_lines[k])
        lo, hi = float(lines[0]) - 3.0, float(lines[-1]) + 3.0
        text = _ini({
            "run": {"kind": "esr", "label": f"esr case {k}"},
            "esr": {
                "transitions_mhz": _floats(lines),
                "contrasts": _floats(contrasts),
                "linewidth_fwhm_mhz": repr(float(linewidth[k])),
                "f_start_mhz": repr(lo),
                "f_stop_mhz": repr(hi),
                "n_points": str(esr_points[k]),
            },
        })
        esr.append(Job("esr", f"esr{k:02d}", text, seeds[n + k],
                       {"n_points": int(esr_points[k]), "f_start": lo,
                        "f_stop": hi}))

    cases = [Case("imaging-default", (
        Job("imaging-demo", "imaging-default", "imaging-default", seeds[-1],
            {"x_um": 3.21, "map_points": 801, "n_points": 12001}),
        Job("esr", "paper-fig2", "paper-fig2", seeds[-2],
            {"n_points": 1051, "f_start": -3.0, "f_stop": 7.5}),
    ), preset=True)]
    order = rng.permutation(n)
    cases.extend(Case(f"loc{k:02d}", (imaging[k], esr[j]))
                 for j, k in enumerate(order))
    return Workload("localize-esr", tuple(cases))


_BUILDERS = {
    "beat-pipeline": _beat_pipeline,
    "drift-sweep": _drift_sweep,
    "localize-esr": _localize_esr,
}


def build(name: str, seed: int, nproc: int) -> Workload:
    """The workload ``name`` for ``seed``; equal arguments give equal cases."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, nproc)
