"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[criterion NN] PASS/FAIL`` line with the
measured numbers (visible under ``pytest -s`` or on failure), then asserts.
Tolerances are fixed here and must not be loosened; a failing criterion is
a real defect.
"""
import numpy as np
import pytest

from rabibeat.analysis import (
    dominant_frequency,
    extract_beats,
    fft_spectrum,
    find_peaks,
    fit_decay_time,
    refine_peak_frequency,
    resolution_estimate,
    synthesize_esr,
)
from rabibeat.cli import main
from rabibeat.evolve import (
    DecayModel,
    DriftModel,
    ManifoldSpec,
    TimeGrid,
    apply_power_drift,
    rabi_trace_incoherent,
    rabi_trace_vtype,
)
from rabibeat.imaging import (
    FieldMap,
    WaveguideGeometry,
    oscillation_count,
    position_from_rabi,
    rabi_at,
    resolution_from_count,
)

from oracles import (
    build_rot_frame_h,
    drift_relation,
    propagate,
    two_level_hamiltonian,
    vtype_eigenfrequency,
)


def _verdict(num, desc, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def test_criterion_01_two_level_closed_form():
    """The single-mode trace kernel matches exact propagation of the
    detuned two-level Hamiltonian."""
    grid = TimeGrid(0.0, 25.0, 2001)
    worst = 0.0
    for omega0 in (1.0, 5.0, 10.0, 22.2, 40.0):
        for delta in (0.0, 1.0, 2.18, 5.0, 10.0):
            trace = rabi_trace_incoherent(omega0, ManifoldSpec.single(delta), grid)
            h = two_level_hamiltonian(omega0, delta)
            pops = propagate(h, np.array([1.0, 0.0]), grid)
            worst = max(worst, float(np.max(np.abs(trace.values - pops[:, 1]))))
    _verdict(1, f"5x5 (omega0, delta) grid, worst abs dev {worst:.2e} <= 1e-9",
             worst <= 1e-9)


def test_criterion_02_vtype_closed_form_and_eigenvalues():
    """The V-type trace kernel matches exact three-level propagation;
    eigenvalues are {0, +/- sqrt(2 c^2 + d^2)}."""
    grid = TimeGrid(0.0, 10.0, 4001)
    worst_pop = 0.0
    worst_eig = 0.0
    for coupling in (5.0, 15.0, 14.849242404917497):
        for half in (0.0, 2.0, 2.18, 4.36):
            trace = rabi_trace_vtype(coupling, ManifoldSpec.single(half), grid)
            h = build_rot_frame_h(coupling, half)
            pops = propagate(h, np.array([1.0, 0.0, 0.0]), grid)
            worst_pop = max(
                worst_pop, float(np.max(np.abs(trace.values - pops[:, 0])))
            )
            f = vtype_eigenfrequency(coupling, half)
            evals = np.sort(np.linalg.eigvalsh(h))
            worst_eig = max(
                worst_eig,
                abs(evals[0] + f) / f,
                abs(evals[1]) / f,
                abs(evals[2] - f) / f,
            )
    _verdict(
        2,
        f"population dev {worst_pop:.2e} <= 1e-9, "
        f"eigenvalue rel dev {worst_eig:.2e} <= 1e-12",
        worst_pop <= 1e-9 and worst_eig <= 1e-12,
    )


def test_criterion_03_sqrt2_enhancement():
    """Driving both branches speeds the base oscillation by sqrt(2) over a
    single branch at equal coupling, measured from interpolated peaks."""
    lam = 15.0
    grid = TimeGrid(0.0, 200.0, 100001)
    vtype = rabi_trace_vtype(lam, ManifoldSpec.single(0.0), grid)
    single = rabi_trace_incoherent(2.0 * lam, ManifoldSpec.single(0.0), grid)

    freqs = []
    for trace in (vtype, single):
        spec = fft_spectrum(trace, window="hann", zero_pad=2)
        guess = spec.freqs[int(np.argmax(spec.magnitudes))]
        freqs.append(refine_peak_frequency(trace, guess))
    ratio = freqs[0] / freqs[1]
    dev = abs(ratio - np.sqrt(2.0))
    _verdict(3, f"peak ratio {ratio:.9f}, |ratio - sqrt2| {dev:.2e} <= 1e-6",
             dev <= 1e-6)


def test_criterion_04_hyperfine_beat_regime():
    """Three detuned manifolds at 22.2 MHz drive: recovered splittings land
    in the target windows and the spectral peaks sit on the shifted
    Rabi lines within one interpolated bin."""
    grid = TimeGrid(0.0, 30.0, 6001)
    trace = rabi_trace_incoherent(
        22.2,
        ManifoldSpec((0.0, 2.18, 4.36)),
        grid,
        decay=DecayModel("exponential", 25.0),
    )
    report = extract_beats(trace, mode="single")
    d1, d2 = report.recovered_detunings
    windows_ok = 2.0 <= d1 <= 2.3 and 4.1 <= d2 <= 4.5

    spec = fft_spectrum(trace, window="rectangular", zero_pad=4)
    peaks = [
        p
        for p in find_peaks(spec, min_height_rel=0.25, min_separation=0.06)
        if 21.5 <= p.frequency <= 23.5
    ]
    targets = (22.2, 22.31, 22.63)
    peaks_ok = len(peaks) == 3 and all(
        abs(p.frequency - t) <= spec.bin_width for p, t in zip(peaks, targets)
    )
    devs = (
        [f"{abs(p.frequency - t):.4f}" for p, t in zip(peaks, targets)]
        if len(peaks) == 3
        else ["n/a"]
    )
    _verdict(
        4,
        f"detunings ({d1:.3f}, {d2:.3f}) in [2.0,2.3]x[4.1,4.5]; "
        f"peak devs {devs} <= bin {spec.bin_width:.4f}",
        windows_ok and peaks_ok,
    )


def test_criterion_05_split_vtype_regime():
    """Split V-configuration at base 42 MHz: beats and inverted splittings
    in the target windows, plus a sub-harmonic component at half the
    base with magnitude above 10% of the base peak.

    The target beat values 0.19/0.80 MHz correspond to half-splittings
    2.0/4.1 MHz (the bundled preset); the nominal splittings 2.18/4.36 MHz
    produce beats 0.2257/0.8957 MHz instead, so that variant is checked
    against its own exact beat values and the shared detuning windows.
    """
    lam = 14.849242404917497
    grid = TimeGrid(0.0, 30.0, 12001)
    decay = DecayModel("exponential", 25.0)

    trace = rabi_trace_vtype(lam, ManifoldSpec((0.0, 2.0, 4.1)), grid, decay=decay)
    report = extract_beats(trace, mode="vtype")
    b1, b2 = report.beat_frequencies
    d1, d2 = report.recovered_detunings
    beats_ok = abs(b1 - 0.19) <= 0.019 and abs(b2 - 0.80) <= 0.080
    detunings_ok = 1.8 <= d1 <= 2.3 and 3.8 <= d2 <= 4.4

    spec = fft_spectrum(trace, window="hann", zero_pad=4)
    base = report.base_frequency
    half_band = (spec.freqs > 0.4 * base) & (spec.freqs < 0.6 * base)
    base_band = (spec.freqs > 0.9 * base) & (spec.freqs < 1.1 * base)
    sub_ratio = spec.magnitudes[half_band].max() / spec.magnitudes[base_band].max()
    sub_ok = sub_ratio > 0.10

    nominal = rabi_trace_vtype(
        lam, ManifoldSpec((0.0, 2.18, 4.36)), grid, decay=decay
    )
    nom_report = extract_beats(nominal, mode="vtype")
    nb1, nb2 = nom_report.beat_frequencies
    nd1, nd2 = nom_report.recovered_detunings
    exact1 = 2.0 * vtype_eigenfrequency(lam, 2.18) - 2.0 * np.sqrt(2.0) * lam
    exact2 = 2.0 * vtype_eigenfrequency(lam, 4.36) - 2.0 * np.sqrt(2.0) * lam
    nominal_ok = (
        abs(nb1 - exact1) <= 0.02 * exact1
        and abs(nb2 - exact2) <= 0.02 * exact2
        and 1.8 <= nd1 <= 2.3
        and 3.8 <= nd2 <= 4.4
    )
    _verdict(
        5,
        f"beats ({b1:.4f}, {b2:.4f}) vs 0.19/0.80 +-10%; detunings "
        f"({d1:.3f}, {d2:.3f}); sub-harmonic ratio {sub_ratio:.3f} > 0.10; "
        f"nominal-splitting variant beats ({nb1:.4f}, {nb2:.4f}) vs exact "
        f"({exact1:.4f}, {exact2:.4f}), detunings ({nd1:.3f}, {nd2:.3f})",
        beats_ok and detunings_ok and sub_ok and nominal_ok,
    )


def test_criterion_06_degenerate_esr_center_depth():
    """Five-dip scan with a doubly degenerate center: central dip is twice
    the outer dip depth within 10%."""
    f = np.linspace(-8.0, 8.0, 1601)
    shape = synthesize_esr(
        [-4.36, -2.18, 0.0, 0.0, 2.18, 4.36],
        [0.08] * 6,
        0.8,
        f,
    )
    depth = 1.0 - shape.values

    def dip_depth(center):
        sel = np.abs(f - center) <= 0.5
        return float(depth[sel].max())

    center_depth = dip_depth(0.0)
    outer_depths = [dip_depth(c) for c in (-4.36, -2.18, 2.18, 4.36)]
    ratio = center_depth / np.mean(outer_depths)
    _verdict(6, f"center/outer dip ratio {ratio:.3f} in [1.8, 2.2]",
             1.8 <= ratio <= 2.2)


def test_criterion_07_power_drift_law_and_washout():
    """Fractional period shift is -1/2 the fractional power change; a
    Monte-Carlo drifted average decays on the tuned effective time scale."""
    x = np.linspace(-1e-2, 1e-2, 41)
    slope = np.polyfit(x, drift_relation(x), 1)[0]
    slope_ok = abs(slope + 0.5) <= 1e-6

    # sigma chosen so the sweep-average washout mimics a 25 us decay
    sigma = np.sqrt(2.0) / (np.pi * 22.2 * 25.0)
    grid = TimeGrid(0.0, 60.0, 12001)
    trace = apply_power_drift(
        22.2,
        ManifoldSpec.single(0.0),
        grid,
        DriftModel("gaussian", sigma_relative=sigma),
        n_sweeps=1200,
        seed=7,
    )
    fitted = fit_decay_time(trace)
    decay_ok = 0.7 * 25.0 <= fitted <= 1.3 * 25.0
    _verdict(
        7,
        f"slope {slope:.9f} within 1e-6 of -0.5; MC washout decay "
        f"{fitted:.2f} us within +-30% of 25 us (sigma {sigma:.3e})",
        slope_ok and decay_ok,
    )


def test_criterion_08_resolution_conventions():
    """Cyclic and angular resolvable-splitting conventions agree with the
    algebraic identity and with the reference operating point."""
    worst = 0.0
    for f_rabi in (0.5, 5.0, 22.2, 300.0):
        for t1 in (1.0, 25.0, 1000.0):
            n = oscillation_count(f_rabi, t1)
            angular = resolution_estimate(f_rabi, n).delta_angular
            period = 1.0 / f_rabi
            identity = 2.0 * np.pi / np.sqrt(period * t1)
            worst = max(worst, abs(angular - identity) / identity)
    identity_ok = worst <= 1e-12

    res = resolution_estimate(22.2, 555.0)
    values_ok = abs(res.delta_cyclic - 0.94) <= 0.005 and abs(
        res.delta_angular - 5.92
    ) <= 0.05
    labels_ok = hasattr(res, "delta_cyclic") and hasattr(res, "delta_angular")
    _verdict(
        8,
        f"identity rel dev {worst:.2e} <= 1e-12; reference point "
        f"({res.delta_cyclic:.4f} MHz, {res.delta_angular:.4f} rad/us) "
        "matches (0.94, 5.92)",
        identity_ok and values_ok and labels_ok,
    )


def test_criterion_09_imaging_round_trip():
    """Noiseless emitters across the interior 80% of the monotone branch
    reconstruct within the gap/N budget; the budget reproduces the
    reference numbers."""
    geom = WaveguideGeometry(gap=10.0, drive_scale=20.0)
    fmap = FieldMap.from_model(geom, n_points=801, branch="left")
    t1 = 25.0
    grid = TimeGrid(0.0, 40.0, 12001)

    worst_ratio = 0.0
    for x_true in np.linspace(0.5, 4.5, 9):
        true_rabi = float(rabi_at(geom, x_true))
        trace = rabi_trace_incoherent(
            true_rabi,
            ManifoldSpec.single(0.0),
            grid,
            decay=DecayModel("exponential", t1),
        )
        measured = dominant_frequency(trace)
        loc = position_from_rabi(measured, fmap)
        bound_um = resolution_from_count(
            geom.gap, oscillation_count(measured, t1)
        ) / 1000.0
        worst_ratio = max(worst_ratio, abs(loc.position - x_true) / bound_um)

    budget_n6 = resolution_from_count(10.0, 1.0e6)
    budget_hf = resolution_from_count(10.0, 2880.0 * 1000.0)
    budget_ok = abs(budget_n6 - 0.01) <= 1e-12 and abs(budget_hf - 0.00347) <= 5e-5
    _verdict(
        9,
        f"worst error/bound {worst_ratio:.2e} <= 1 over 9 emitters; "
        f"N=1e6 budget {budget_n6:.4f} nm; high-field budget {budget_hf:.5f} nm",
        worst_ratio <= 1.0 and budget_ok,
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Identical config and seed yield byte-identical artifacts, including
    the stochastic drift pipeline."""
    runs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    "drift-demo",
                    "--out",
                    str(out),
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        runs.append(out)
    names = sorted(p.name for p in runs[0].iterdir())
    identical = all(
        (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        for name in names
    )
    _verdict(
        10,
        f"files {names} byte-identical across two seeded runs",
        identical and names == ["plot.gp", "trace.csv", "trace.meta.json"],
    )
