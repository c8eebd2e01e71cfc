import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabibeat import evolve
from rabibeat.evolve import (
    DecayModel,
    DriftModel,
    ManifoldSpec,
    TimeGrid,
    apply_power_drift,
    rabi_trace_incoherent,
    rabi_trace_vtype,
)
from rabibeat.spinmodel import vtype_population

from oracles import (
    build_rot_frame_h,
    drift_relation,
    propagate,
    two_level_hamiltonian,
)

finite = dict(allow_nan=False, allow_infinity=False)


def test_time_grid_basics():
    grid = TimeGrid(0.0, 10.0, 11)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 10.0
    assert grid.times.size == 11
    assert grid.step == 1.0
    with pytest.raises(ValueError):
        TimeGrid(5.0, 5.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10.0, 1)


def test_manifold_spec_defaults_to_equal_weights():
    spec = ManifoldSpec((0.0, 2.18, 4.36))
    pairs = list(zip(spec.detunings, spec.weights))
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
            om = np.hypot(omega0, delta)
            expected = (omega0 / om) ** 2 * np.sin(np.pi * om * grid.times) ** 2
            assert np.max(np.abs(pops[:, 1] - expected)) < 1e-12


def test_propagate_matches_vtype_closed_form():
    grid = TimeGrid(0.0, 5.0, 801)
    h = build_rot_frame_h(15.0, 2.0)
    pops = propagate(h, np.array([1.0, 0.0, 0.0]), grid)
    expected = vtype_population(15.0, 2.0, grid.times)
    assert np.max(np.abs(pops[:, 0] - expected)) < 1e-12


@settings(max_examples=25)
@given(
    drive=st.floats(0.5, 30.0),
    detunings=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    raw_weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
)
def test_kernels_equal_weighted_propagated_populations(drive, detunings, raw_weights):
    # the incoherent manifold average, which the one-manifold acceptance
    # criteria do not reach; V-type detunings are half-splittings, so >= 0.
    # The kernels take any grid, also one that starts before t = 0.
    weights = np.array(raw_weights[:len(detunings)])
    weights /= weights.sum()
    halves = np.abs(detunings)
    for grid in (TimeGrid(0.0, 10.0, 1001), TimeGrid(-3.0, 3.0, 2001)):
        single = rabi_trace_incoherent(drive, ManifoldSpec(detunings, weights), grid)
        vtype = rabi_trace_vtype(drive, ManifoldSpec(halves, weights), grid)
        expected_single = sum(
            w * propagate(two_level_hamiltonian(drive, d), [1.0, 0.0], grid)[:, 1]
            for d, w in zip(detunings, weights)
        )
        expected_vtype = sum(
            w * propagate(build_rot_frame_h(drive, h), [1.0, 0.0, 0.0], grid)[:, 0]
            for h, w in zip(halves, weights)
        )
        assert np.max(np.abs(single.values - expected_single)) <= 1e-9
        assert np.max(np.abs(vtype.values - expected_vtype)) <= 1e-9


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


@pytest.mark.parametrize("coupling, halves, match", [
    (0.0, (0.0,), "coupling must be positive"),
    (-15.0, (2.0,), "coupling must be positive"),
    (15.0, (2.0, -0.5), "half_splitting must be non-negative"),
])
def test_vtype_trace_rejects_bad_drive(coupling, halves, match):
    with pytest.raises(ValueError, match=match):
        rabi_trace_vtype(coupling, ManifoldSpec(halves), TimeGrid(0.0, 1.0, 101))


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
    gaussian = DriftModel("gaussian", sigma_relative=1e-3)
    assert np.array_equal(gaussian.power_factors(5, seed=3),
                          1.0 + 1e-3 * np.random.default_rng(3).standard_normal(5))
    with pytest.raises(ValueError, match="requires an explicit seed"):
        gaussian.power_factors(5)


def test_constant_drift_reproduces_undrifted_trace():
    grid = TimeGrid(0.0, 10.0, 1001)
    plain = rabi_trace_incoherent(22.2, ManifoldSpec.single(), grid)
    drifted = apply_power_drift(
        22.2, ManifoldSpec.single(), grid, DriftModel(), n_sweeps=16
    )
    assert np.array_equal(plain.values, drifted.values)
    # a gaussian drift of zero width draws unit factors
    still = apply_power_drift(22.2, ManifoldSpec.single(), grid,
                              DriftModel("gaussian"), n_sweeps=16, seed=1)
    assert np.array_equal(plain.values, still.values)


def half_width(freqs):
    """Half-width in rad/us of the widest column of ``freqs`` (MHz)."""
    w = 2.0 * np.pi * np.asarray(freqs)
    return float(np.max(w.max(axis=0) - w.min(axis=0))) / 2


def per_sweep_reference(omega0, manifolds, times, decay, amplitude_mode, factors):
    """The drift average as a per-sweep loop: one full-length cos per sweep
    and manifold, accumulated in sweep order."""
    env = decay.envelope(times)
    acc = np.zeros_like(times)
    for p in factors:
        drive = omega0 * float(np.sqrt(p))
        for det, weight in zip(manifolds.detunings, manifolds.weights):
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
    grid = TimeGrid(0.0, 20.0, 2001)
    n_sweeps = 600
    assert n_sweeps * len(detunings) > evolve._CHUNK
    manifolds = ManifoldSpec(detunings)
    factors = drift.power_factors(n_sweeps, seed=3)
    freqs = evolve._lines("rabi-single", 22.2 * np.sqrt(factors), manifolds)[1]
    size = evolve._moment_plan(half_width(freqs), freqs.shape, grid)[0]
    assert grid.n_points % size  # not a whole number of blocks
    trace = apply_power_drift(22.2, manifolds, grid, drift, n_sweeps, decay,
                              amplitude_mode, seed=3)
    expected = per_sweep_reference(22.2, manifolds, grid.times, decay,
                                   amplitude_mode, factors)
    assert np.max(np.abs(trace.values - expected)) <= 1e-12


def direct_cosines(freqs, coeffs, times):
    """sum_k coeffs[k] cos(2 pi freqs[k] t), 64 lines at a time, and the
    largest phase."""
    w, c = 2.0 * np.pi * np.ravel(freqs), np.ravel(coeffs)
    total = np.zeros_like(times)
    for start in range(0, w.size, 64):
        total += np.cos(np.outer(times, w[start:start + 64])) @ c[start:start + 64]
    return total, np.abs(times).max() * np.abs(w).max()


ULP_BAND = [22.2, float(np.nextafter(22.2, 23.0))]


@settings(max_examples=30)
@given(
    n=st.integers(2, 5000),
    t_start=st.floats(0.0, 150.0),
    duration=st.floats(0.01, 50.0),
    k=st.integers(1, 600),
    clusters=st.integers(1, 3),
    band=st.tuples(st.floats(0.1, 60.0), st.floats(0.1, 60.0)).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, t_start=0.0, duration=1.0, k=1, clusters=1, band=[0.1, 0.1], seed=0)
@example(n=63, t_start=150.0, duration=0.5, k=256, clusters=1, band=[0.1, 60.0], seed=1)
@example(n=4097, t_start=33.3, duration=50.0, k=257, clusters=1, band=[22.2, 22.3], seed=2)
@example(n=5000, t_start=150.0, duration=50.0, k=600, clusters=1, band=[59.9, 60.0], seed=3)
# drift-demo's shape: 1200 lines within 0.06 MHz of 22.2 MHz over 60 us
@example(n=12001, t_start=0.0, duration=60.0, k=1200, clusters=1, band=[22.2, 22.26], seed=4)
# lines 1 ulp apart
@example(n=6001, t_start=0.0, duration=30.0, k=300, clusters=1, band=ULP_BAND, seed=5)
# three manifolds' clusters over one band: a 2% power ramp moves a 22.2 MHz
# drive by 1%
@example(n=2001, t_start=0.0, duration=20.0, k=600, clusters=3, band=[22.2, 22.42], seed=6)
# a 40 MHz-wide cluster, whose blocks hold a few samples each
@example(n=4001, t_start=0.0, duration=40.0, k=300, clusters=1, band=[5.0, 45.0], seed=7)
# sixteen columns of one line, as an 8-manifold rabi-vtype trace has
@example(n=9911, t_start=0.0, duration=25.0, k=1, clusters=16, band=[19.8, 60.0], seed=8)
# three columns of one line on a 2-point grid
@example(n=2, t_start=150.0, duration=0.01, k=1, clusters=3, band=[0.1, 60.0], seed=9)
def test_cosine_sum_matches_direct_cosines(n, t_start, duration, k, clusters, band, seed):
    # one block or many, up to three oscillator chunks, and one to three
    # clusters; a narrow band of positive coefficients adds the rounding
    # coherently
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(*band, (k, clusters))
    coeffs = rng.uniform(0.0, 1.0, (k, clusters))
    grid = TimeGrid(t_start, t_start + duration, n)
    expected, top = direct_cosines(freqs, coeffs, grid.times)
    # the rounding of the largest phase, and of the unit-size phasor products
    # when every phase is small, carried by every coefficient
    bound = 8 * np.finfo(float).eps * (1.0 + top) * coeffs.sum()
    assert np.max(np.abs(evolve._cosine_sum(freqs, coeffs, grid) - expected)) <= bound


def cluster(k, band):
    """One column of ``k`` lines drawn from ``band`` (MHz)."""
    return np.random.default_rng(0).uniform(*band, (k, 1))


@pytest.mark.parametrize("n, duration, freqs, terms", [
    (12001, 60.0, cluster(1200, [22.2, 22.26]), "many"),  # drift-demo's shape
    (6001, 30.0, cluster(300, ULP_BAND), None),
    (2001, 20.0, cluster(600, [22.2, 22.42]), None),
    (4001, 40.0, cluster(300, [5.0, 45.0]), None),
    (12001, 60.0, cluster(8, [22.2, 22.26]), None),
    (12001, 60.0, cluster(1, [22.2, 22.2]), "one"),
    # an 8-manifold rabi-vtype trace: sixteen columns of one line
    (9911, 25.0, evolve._lines("rabi-vtype", 14.0,
                               ManifoldSpec((0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)))[1],
     "one"),
])
def test_moment_plan_bounds_the_offset_phase(n, duration, freqs, terms):
    # blocks keep the offset phase within 1 and the order covers it; a trace
    # whose columns all hold one line costs one moment per block
    grid = TimeGrid(0.0, duration, n)
    half = half_width(freqs)
    size, order = evolve._moment_plan(half, freqs.shape, grid)
    theta = half * (size - 1) * grid.step / 2
    assert 1 <= size <= n
    assert theta <= min(1.0, evolve._REACH[order - 1])
    if terms is not None:
        assert (order == 1) == (terms == "one")


def test_kernel_scratch_does_not_grow_with_sweeps():
    grid = TimeGrid(0.0, 60.0, 24001)
    manifolds = ManifoldSpec((0.0, 2.18))
    drift = DriftModel("linear", total_relative_change=0.02)

    def peak(n_sweeps):
        tracemalloc.start()
        try:
            apply_power_drift(22.2, manifolds, grid, drift, n_sweeps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= 2 * peak(128)


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
