import numpy as np
import pytest
from hypothesis import given, strategies as st

from rabibeat import evolve
from rabibeat.evolve import (
    DecayModel,
    DriftModel,
    ManifoldSpec,
    TimeGrid,
    apply_power_drift,
    drift_relation,
    propagate,
    rabi_trace_incoherent,
    rabi_trace_vtype,
    two_level_hamiltonian,
    two_level_population,
)
from rabibeat.spinmodel import DriveParams, build_rot_frame_h, vtype_population

finite = dict(allow_nan=False, allow_infinity=False)


def test_time_grid_basics():
    grid = TimeGrid(0.0, 10.0, 11)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 10.0
    assert grid.times.size == 11
    with pytest.raises(ValueError):
        TimeGrid(5.0, 5.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10.0, 1)


def test_manifold_spec_defaults_to_equal_weights():
    spec = ManifoldSpec((0.0, 2.18, 4.36))
    pairs = list(spec)
    assert [d for d, _ in pairs] == [0.0, 2.18, 4.36]
    assert all(w == pytest.approx(1 / 3) for _, w in pairs)


def test_manifold_spec_rejects_bad_weights():
    with pytest.raises(ValueError):
        ManifoldSpec((0.0, 1.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        ManifoldSpec((0.0, 1.0), (0.5,))


def test_decay_model_envelopes():
    t = np.linspace(0.0, 10.0, 5)
    assert np.all(DecayModel().envelope(t) == 1.0)
    env = DecayModel("exponential", 25.0).envelope(t)
    assert np.allclose(env, np.exp(-t / 25.0))
    with pytest.raises(ValueError):
        DecayModel("exponential")
    with pytest.raises(ValueError):
        DecayModel("sideways")


@st.composite
def hermitian_3x3(draw):
    elems = st.floats(-5.0, 5.0, **finite)
    a = np.array([[draw(elems) for _ in range(3)] for _ in range(3)])
    b = np.array([[draw(elems) for _ in range(3)] for _ in range(3)])
    m = a + 1j * b
    return (m + m.conj().T) / 2


@given(h=hermitian_3x3())
def test_propagate_conserves_norm(h):
    grid = TimeGrid(0.0, 5.0, 64)
    pops = propagate(h, np.array([1.0, 0.0, 0.0]), grid)
    assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(pops >= -1e-12)


def test_propagate_matches_two_level_closed_form():
    grid = TimeGrid(0.0, 25.0, 801)
    for omega0 in (1.0, 10.0, 22.2):
        for delta in (0.0, 2.18, 7.0):
            h = two_level_hamiltonian(omega0, delta)
            pops = propagate(h, np.array([1.0, 0.0]), grid)
            expected = two_level_population(omega0, delta, grid.times)
            assert np.max(np.abs(pops[:, 1] - expected)) < 1e-12


def test_propagate_matches_vtype_closed_form():
    grid = TimeGrid(0.0, 5.0, 801)
    h = build_rot_frame_h(DriveParams(coupling=15.0, half_splitting=2.0))
    pops = propagate(h, np.array([1.0, 0.0, 0.0]), grid)
    expected = vtype_population(15.0, 2.0, grid.times)
    assert np.max(np.abs(pops[:, 0] - expected)) < 1e-12


def test_resonant_trace_is_sin_squared():
    grid = TimeGrid(0.0, 2.0, 501)
    trace = rabi_trace_incoherent(22.2, ManifoldSpec.single(), grid)
    expected = np.sin(np.pi * 22.2 * grid.times) ** 2
    assert np.allclose(trace.values, expected, atol=1e-12)


def test_decay_scales_oscillation_about_its_mean():
    grid = TimeGrid(0.0, 10.0, 2001)
    plain = rabi_trace_incoherent(10.0, ManifoldSpec.single(), grid)
    decayed = rabi_trace_incoherent(
        10.0, ManifoldSpec.single(), grid, decay=DecayModel("exponential", 5.0)
    )
    env = np.exp(-grid.times / 5.0)
    assert np.allclose(decayed.values - 0.5, (plain.values - 0.5) * env, atol=1e-12)


def test_trace_meta_records_drive_and_decay():
    grid = TimeGrid(0.0, 1.0, 64)
    trace = rabi_trace_incoherent(
        22.2,
        ManifoldSpec((0.0, 2.18)),
        grid,
        decay=DecayModel("exponential", 25.0),
    )
    assert trace.meta["units"]["time"] == "us"
    assert trace.meta["drive"]["omega0_MHz"] == 22.2
    assert trace.meta["decay"]["kind"] == "exponential"


def test_vtype_trace_single_manifold_matches_population():
    grid = TimeGrid(0.0, 2.0, 801)
    trace = rabi_trace_vtype(15.0, ManifoldSpec.single(2.0), grid)
    assert np.allclose(trace.values, vtype_population(15.0, 2.0, grid.times), atol=1e-12)


def test_amplitude_mode_changes_weighting():
    grid = TimeGrid(0.0, 2.0, 501)
    exact = rabi_trace_incoherent(22.2, ManifoldSpec((0.0, 4.36)), grid)
    equal = rabi_trace_incoherent(
        22.2, ManifoldSpec((0.0, 4.36)), grid, amplitude_mode="equal_cosine"
    )
    assert not np.allclose(exact.values, equal.values)
    with pytest.raises(ValueError):
        rabi_trace_incoherent(
            22.2, ManifoldSpec.single(), grid, amplitude_mode="loud"
        )


def test_drift_model_factors():
    flat = DriftModel().power_factors(5)
    assert np.all(flat == 1.0)
    ramp = DriftModel("linear", total_relative_change=0.01).power_factors(5)
    assert ramp[0] == pytest.approx(1.0)
    assert ramp[-1] == pytest.approx(1.01)
    with pytest.raises(ValueError):
        DriftModel("gaussian", sigma_relative=1e-3).power_factors(5)


def test_constant_drift_reproduces_undrifted_trace():
    grid = TimeGrid(0.0, 10.0, 1001)
    plain = rabi_trace_incoherent(22.2, ManifoldSpec.single(), grid)
    drifted = apply_power_drift(
        22.2, ManifoldSpec.single(), grid, DriftModel(), n_sweeps=16
    )
    assert np.array_equal(plain.values, drifted.values)


def per_sweep_reference(omega0, manifolds, times, decay, amplitude_mode, factors):
    """The drift average as a per-sweep loop: one full-length cos per sweep
    and manifold, accumulated in sweep order."""
    env = decay.envelope(times)
    acc = np.zeros_like(times)
    for p in factors:
        drive = omega0 * float(np.sqrt(p))
        for det, weight in manifolds:
            om = np.hypot(drive, det)
            amp = (drive / om) ** 2 if amplitude_mode == "exact" else 1.0
            osc = np.cos(2.0 * np.pi * om * times)
            acc += weight * (amp / 2.0) * (1.0 - osc * env)
    return acc / len(factors)


@pytest.mark.parametrize("drift", [
    DriftModel("linear", total_relative_change=0.02),
    DriftModel("gaussian", sigma_relative=2e-3),
])
@pytest.mark.parametrize("detunings", [(0.0,), (0.0, 2.18), (0.0, 2.18, 4.36)])
@pytest.mark.parametrize("decay", [DecayModel(), DecayModel("exponential", 25.0)])
@pytest.mark.parametrize("amplitude_mode", ["exact", "equal_cosine"])
def test_drift_kernel_matches_per_sweep_loop(drift, detunings, decay, amplitude_mode):
    grid = TimeGrid(0.0, 20.0, 2001)  # not a whole number of blocks
    assert grid.n_points % evolve._BLOCK
    n_sweeps = 600
    assert n_sweeps * len(detunings) > evolve._CHUNK
    manifolds = ManifoldSpec(detunings)
    trace = apply_power_drift(22.2, manifolds, grid, drift, n_sweeps, decay,
                              amplitude_mode, seed=3)
    factors = drift.power_factors(n_sweeps, np.random.default_rng(3))
    expected = per_sweep_reference(22.2, manifolds, grid.times, decay,
                                   amplitude_mode, factors)
    assert np.max(np.abs(trace.values - expected)) <= 1e-12


def test_kernel_needs_an_evenly_spaced_grid():
    grid = TimeGrid(0.0, 10.0, 1001)
    times = grid.times
    explicit = rabi_trace_incoherent(22.2, ManifoldSpec.single(), times)
    gridded = rabi_trace_incoherent(22.2, ManifoldSpec.single(), grid)
    assert np.array_equal(explicit.values, gridded.values)
    times[500] += 1e-3
    with pytest.raises(ValueError, match="evenly spaced"):
        rabi_trace_incoherent(22.2, ManifoldSpec.single(), times)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_kernel_rejects_a_non_positive_drive(bad):
    grid = TimeGrid(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="omega0 must be positive"):
        rabi_trace_incoherent(np.array([22.2, bad, 22.3]), ManifoldSpec.single(), grid)


def test_gaussian_drift_is_seed_reproducible():
    grid = TimeGrid(0.0, 20.0, 1001)
    drift = DriftModel("gaussian", sigma_relative=1e-3)
    kwargs = dict(n_sweeps=50, seed=11)
    a = apply_power_drift(22.2, ManifoldSpec.single(), grid, drift, **kwargs)
    b = apply_power_drift(22.2, ManifoldSpec.single(), grid, drift, **kwargs)
    c = apply_power_drift(
        22.2, ManifoldSpec.single(), grid, drift, n_sweeps=50, seed=12
    )
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ValueError):
        apply_power_drift(22.2, ManifoldSpec.single(), grid, drift, n_sweeps=50)


def test_gaussian_drift_washes_out_late_oscillations():
    grid = TimeGrid(0.0, 60.0, 6001)
    drift = DriftModel("gaussian", sigma_relative=3e-3)
    trace = apply_power_drift(
        22.2, ManifoldSpec.single(), grid, drift, n_sweeps=400, seed=5
    )
    early = trace.values[grid.times < 5.0]
    late = trace.values[grid.times > 55.0]
    assert np.ptp(early) > 0.9
    assert np.ptp(late) < 0.3 * np.ptp(early)


def test_drift_relation_slope():
    x = np.linspace(-1e-2, 1e-2, 21)
    slope = np.polyfit(x, drift_relation(x), 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-12)


@given(x=st.floats(-0.5, 0.9, **finite))
def test_drift_relation_exact_near_linear(x):
    # exact 1/sqrt(1+x) - 1 deviates from -x/2 at second order
    exact = 1.0 / np.sqrt(1.0 + x) - 1.0
    assert abs(exact - drift_relation(x)) <= x**2 + 1e-15
