import numpy as np
import pytest
from hypothesis import given, strategies as st

from rabibeat.spinmodel import (
    DriveParams,
    beat_shift,
    build_rot_frame_h,
    detuning_from_beat,
    rabi_frequency,
    require_hermitian,
    vtype_eigenfrequency,
    vtype_population,
)

finite = dict(allow_nan=False, allow_infinity=False)


@given(
    omega0=st.floats(0.1, 100.0, **finite),
    delta=st.floats(-50.0, 50.0, **finite),
)
def test_rabi_frequency_dominates_components(omega0, delta):
    om = rabi_frequency(omega0, delta)
    assert om >= max(omega0, abs(delta)) - 1e-12
    assert om == pytest.approx(np.hypot(omega0, delta), rel=1e-12)


def test_rabi_frequency_resonant():
    assert rabi_frequency(22.2, 0.0) == 22.2


@given(
    omega0=st.floats(7.0, 60.0, **finite),
    delta=st.floats(-2.0, 2.0, **finite),
)
def test_beat_shift_two_level_matches_expansion(omega0, delta):
    # sqrt(omega0^2 + d^2) - omega0 = d^2/(2 omega0) - d^4/(8 omega0^3) + ...
    # the few ulps of omega0 on top cover a shift formed by subtraction
    shift = beat_shift(omega0, delta, "single")
    leading = delta**2 / (2 * omega0)
    slack = abs(delta) ** 4 / (2 * omega0**3) + 8 * np.finfo(float).eps * omega0
    assert abs(shift - leading) <= slack


def test_beat_shift_two_level_value():
    assert beat_shift(22.2, 2.18) == pytest.approx(np.hypot(22.2, 2.18) - 22.2)


def test_beat_shift_vtype_value():
    base = 2 * vtype_eigenfrequency(14.849242404917497, 0.0)
    assert base == pytest.approx(42.0, rel=1e-12)
    assert beat_shift(base, 2.0, "vtype") == pytest.approx(np.hypot(42.0, 4.0) - 42.0)


# above delta/base ~ 0.1 the reference subtraction loses under 1e-13 relative
ratios = st.floats(0.1, 3.0, **finite)


@given(
    base=st.floats(1.0, 100.0, **finite),
    ratio=ratios,
    sign=st.sampled_from([-1, 1]),
)
def test_beat_shift_single_is_the_rabi_line_shift(base, ratio, sign):
    delta = sign * ratio * base
    expected = rabi_frequency(base, delta) - base
    assert beat_shift(base, delta, "single") == pytest.approx(expected, rel=1e-12)


@given(coupling=st.floats(0.5, 40.0, **finite), ratio=ratios)
def test_beat_shift_vtype_is_the_v_line_shift(coupling, ratio):
    base = 2 * np.sqrt(2) * coupling
    delta = ratio * base
    expected = 2 * vtype_eigenfrequency(coupling, delta) - base
    assert beat_shift(base, delta, "vtype") == pytest.approx(expected, rel=1e-12)


@given(base=st.floats(1.0, 100.0, **finite), ratio=st.floats(1e-9, 1e-3, **finite))
def test_beat_shift_keeps_full_precision_for_small_detunings(base, ratio):
    # here the plain difference hypot(base, delta) - base loses every digit
    delta = ratio * base
    series = delta**2 / (2 * base) * (1 - ratio**2 / 4)
    assert beat_shift(base, delta, "single") == pytest.approx(series, rel=1e-12)


@given(
    base=st.floats(1.0, 100.0, **finite),
    ratio=st.floats(1e-6, 1.0, **finite),
    mode=st.sampled_from(["single", "vtype"]),
)
def test_detuning_from_beat_round_trip_is_exact(base, ratio, mode):
    delta = ratio * base
    beat = beat_shift(base, delta, mode)
    assert detuning_from_beat(beat, base, mode) == pytest.approx(delta, rel=1e-12)


def test_beat_relation_rejects_bad_arguments():
    with pytest.raises(ValueError, match="beat must be non-negative"):
        detuning_from_beat(-0.1, 22.2)
    with pytest.raises(ValueError, match="base must be positive"):
        detuning_from_beat(0.1, 0.0)
    with pytest.raises(ValueError, match="base must be positive"):
        beat_shift(0.0, 1.0)
    for call in (beat_shift, detuning_from_beat):
        with pytest.raises(ValueError, match="mode must be 'single' or 'vtype'"):
            call(0.1, 22.2, "double")


def test_build_rot_frame_h_layout():
    h = build_rot_frame_h(DriveParams(coupling=3.0, detuning=1.0, half_splitting=2.0))
    require_hermitian(h)
    assert h[0, 1] == h[0, 2] == 3.0
    assert h[1, 1] == pytest.approx(-1.0)
    assert h[2, 2] == pytest.approx(3.0)
    assert h[1, 2] == 0.0


@given(
    coupling=st.floats(0.5, 40.0, **finite),
    half=st.floats(0.0, 20.0, **finite),
)
def test_vtype_eigenvalues_closed_form(coupling, half):
    h = build_rot_frame_h(DriveParams(coupling=coupling, half_splitting=half))
    evals = np.sort(np.linalg.eigvalsh(h))
    f = vtype_eigenfrequency(coupling, half)
    assert evals[1] == pytest.approx(0.0, abs=1e-10 * f)
    assert evals[0] == pytest.approx(-f, rel=1e-12)
    assert evals[2] == pytest.approx(f, rel=1e-12)


@given(
    coupling=st.floats(0.5, 40.0, **finite),
    half=st.floats(0.0, 20.0, **finite),
    t=st.floats(0.0, 50.0, **finite),
)
def test_vtype_population_bounded(coupling, half, t):
    p = vtype_population(coupling, half, t)
    assert -1e-12 <= p <= 1 + 1e-12


def test_vtype_population_resonant_cosine():
    # with no splitting the lower state returns as cos^2 at sqrt(2)*coupling
    lam = 10.0
    t = np.linspace(0.0, 2.0, 401)
    expected = np.cos(2 * np.pi * np.sqrt(2) * lam * t) ** 2
    assert np.allclose(vtype_population(lam, 0.0, t), expected, atol=1e-12)


def test_vtype_population_rejects_negative_time():
    with pytest.raises(ValueError):
        vtype_population(10.0, 1.0, -0.5)


def test_require_hermitian_rejects_asymmetric():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(coupling=0.0)
    with pytest.raises(ValueError):
        DriveParams(coupling=1.0, half_splitting=-0.1)
