import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from rabibeat.analysis import (
    WINDOWS,
    Lineshape,
    Spectrum,
    analytic_envelope,
    dominant_frequency,
    extract_beats,
    fft_spectrum,
    find_peaks,
    fit_decay_time,
    refine_peak_frequency,
    resolution_estimate,
    synthesize_esr,
)
from rabibeat.evolve import (
    DecayModel,
    ManifoldSpec,
    TimeGrid,
    rabi_trace_incoherent,
    rabi_trace_vtype,
)
from rabibeat.spinmodel import beat_shift, detuning_from_beat
from rabibeat.traces import SampledTrace

finite = dict(allow_nan=False, allow_infinity=False)


def tone(freq, duration=20.0, n=4001, amp=1.0, decay=None, phase=0.0):
    t = np.linspace(0.0, duration, n)
    x = amp * np.cos(2 * np.pi * freq * t + phase)
    if decay is not None:
        x = x * np.exp(-t / decay)
    return SampledTrace(t, x + 1.0)


def test_fft_spectrum_peak_at_tone():
    trace = tone(5.0)
    spec = fft_spectrum(trace, window="rectangular", zero_pad=4)
    peak = spec.freqs[np.argmax(spec.magnitudes)]
    assert peak == pytest.approx(5.0, abs=spec.bin_width)
    # mean removal keeps the dc bin quiet
    assert spec.magnitudes[0] < 1e-10


def test_fft_spectrum_amplitude_normalization():
    # exact-bin tone with rectangular window reports the tone amplitude
    trace = tone(2.0, duration=10.0, n=2001, amp=0.37)
    spec = fft_spectrum(trace, window="rectangular", zero_pad=1)
    assert spec.magnitudes.max() == pytest.approx(0.37, rel=1e-3)


def test_fft_spectrum_requires_uniform_sampling():
    t = np.array([0.0, 0.1, 0.3, 0.6, 1.0, 1.5, 2.1, 2.8, 3.6])
    with pytest.raises(ValueError):
        fft_spectrum(SampledTrace(t, np.ones_like(t)))


def test_find_peaks_orders_by_frequency_and_interpolates():
    trace = tone(5.043)
    spec = fft_spectrum(trace, window="hann", zero_pad=4)
    peaks = find_peaks(spec, min_height_rel=0.5)
    assert len(peaks) == 1
    assert peaks[0].interpolated
    assert peaks[0].frequency == pytest.approx(5.043, abs=0.2 * spec.bin_width)


@settings(max_examples=20)
@given(freq=st.floats(3.0, 9.0, **finite))
def test_refine_peak_frequency_is_grid_free(freq):
    trace = tone(freq, duration=25.0, n=2501, decay=20.0)
    spec = fft_spectrum(trace, window="hann", zero_pad=2)
    guess = spec.freqs[np.argmax(spec.magnitudes)]
    refined = refine_peak_frequency(trace.times, trace.values, guess, window="hann")
    assert refined == pytest.approx(freq, abs=1e-6)


def test_refine_peak_frequency_reaches_its_tolerance_at_rabi_frequencies():
    # off-bin tones near the paper's ~22 MHz Rabi frequency; a noiseless
    # Hann-windowed tone has its DTFT maximum within ~1e-11 MHz of the tone
    worst = 0.0
    for freq in 21.0 + np.arange(20) * 0.1037 + 0.0131:
        trace = tone(freq, duration=30.0, n=6001)
        spec = fft_spectrum(trace, window="hann", zero_pad=4)
        guess = spec.freqs[np.argmax(spec.magnitudes)]
        refined = refine_peak_frequency(trace.times, trace.values, guess, window="hann")
        worst = max(worst, abs(refined - freq))
    assert worst < 1e-8


def direct_refine(times, values, f_guess, window):
    """Oracle: the DTFT refinement as one direct sum over the samples."""
    x = values - values.mean()
    xw = x * (np.hanning(x.size) if window == "hann" else np.ones(x.size))
    half_width = 1.0 / (times[-1] - times[0])

    def neg_mag(u):
        return -abs(np.sum(xw * np.exp(-2j * np.pi * (f_guess + u) * times)))

    res = scipy.optimize.minimize_scalar(
        neg_mag, bounds=(max(f_guess - half_width, 0.0) - f_guess, half_width),
        method="bounded", options={"xatol": 1e-10},
    )
    h = 1e-3 * half_width
    below, above = neg_mag(res.x - h), neg_mag(res.x + h)
    curvature = below - 2.0 * res.fun + above
    step = 0.5 * h * (below - above) / curvature if curvature > 0 else 0.0
    return float(f_guess + (res.x + step if abs(step) <= h else res.x))


@settings(max_examples=30)
@given(
    n=st.one_of(st.integers(64, 6000), st.integers(1, 90).map(lambda b: 64 * b)),
    duration=st.floats(20.0, 60.0, **finite),
    cycles=st.floats(10.0, 1000.0, **finite),
    phase=st.floats(0.0, 6.3, **finite),
    window=st.sampled_from(WINDOWS),
)
def test_blocked_dtft_refinement_matches_direct_sum(
    tmp_path_factory, n, duration, cycles, phase, window
):
    # records as long as the pipeline's, holding at least ten periods below
    # 0.8 x Nyquist; over a few periods the maximum is so flat that rounding
    # alone moves it by ~1e-9 MHz, in the direct sum as much as in the blocked
    freq = min(cycles, 0.4 * (n - 1)) / duration
    fresh = tone(freq, duration=duration, n=n, decay=25.0, phase=phase)
    path = fresh.to_csv(tmp_path_factory.mktemp("dtft") / "trace.csv")
    for trace in (fresh, SampledTrace.from_csv(path)):
        spec = fft_spectrum(trace, window=window, zero_pad=4)
        guess = spec.freqs[1 + np.argmax(spec.magnitudes[1:])]
        blocked = refine_peak_frequency(trace.times, trace.values, guess, window=window)
        direct = direct_refine(trace.times, trace.values, guess, window)
        assert blocked == pytest.approx(direct, abs=1e-9)


def test_refine_peak_frequency_requires_uniform_sampling():
    t = np.linspace(0.0, 10.0, 1001) ** 1.5
    with pytest.raises(ValueError, match="not uniformly sampled"):
        refine_peak_frequency(t, np.cos(t), 1.0)


def test_analytic_envelope_tracks_decay():
    trace = tone(8.0, duration=30.0, n=6001, decay=10.0)
    times, env = analytic_envelope(trace)
    expected = np.exp(-times / 10.0)
    assert np.max(np.abs(env - expected)) < 0.02


def test_fit_decay_time_crossing_on_clean_exponential():
    trace = tone(8.0, duration=60.0, n=12001, decay=25.0)
    fitted = fit_decay_time(trace)
    assert fitted == pytest.approx(25.0, rel=0.03)


def test_fit_decay_time_inf_when_no_decay():
    trace = tone(8.0, duration=10.0, n=2001)
    assert fit_decay_time(trace) == np.inf


def test_fit_decay_time_trend_ignores_beat_nodes():
    grid = TimeGrid(0.0, 30.0, 6001)
    trace = rabi_trace_incoherent(
        22.2,
        ManifoldSpec((0.0, 2.18, 4.36)),
        grid,
        decay=DecayModel("exponential", 25.0),
    )
    crossing = fit_decay_time(trace, band=(15.0, 30.0))
    trend = extract_beats(trace).decay_time
    # beat modulation drags the 1/e crossing far below the true constant
    assert crossing < 10.0
    assert trend == pytest.approx(25.0, rel=0.15)


def test_extract_beats_two_tone():
    t = np.linspace(0.0, 40.0, 8001)
    x = 0.5 * np.cos(2 * np.pi * 22.2 * t) + 0.4 * np.cos(2 * np.pi * 22.35 * t)
    report = extract_beats(SampledTrace(t, x + 1.0))
    assert report.base_frequency == pytest.approx(22.2, abs=0.02)
    assert len(report.beat_frequencies) == 1
    assert report.beat_frequencies[0] == pytest.approx(0.15, rel=0.05)


def test_extract_beats_three_tone_sum_closure():
    grid = TimeGrid(0.0, 30.0, 6001)
    trace = rabi_trace_incoherent(22.2, ManifoldSpec((0.0, 2.18, 4.36)), grid)
    report = extract_beats(trace, mode="single")
    b1 = beat_shift(22.2, 2.18, "single")
    b2 = beat_shift(22.2, 4.36, "single")
    assert len(report.beat_frequencies) == 2
    assert report.beat_frequencies[0] == pytest.approx(b1, rel=0.05)
    assert report.beat_frequencies[1] == pytest.approx(b2, rel=0.05)
    assert report.recovered_detunings[0] == pytest.approx(2.18, rel=0.05)
    assert report.recovered_detunings[1] == pytest.approx(4.36, rel=0.05)


@pytest.mark.parametrize(
    "mode, simulate, splittings",
    [
        ("single", lambda m, g, d: rabi_trace_incoherent(22.2, m, g, decay=d),
         (2.18, 4.36)),
        ("vtype", lambda m, g, d: rabi_trace_vtype(14.849242404917497, m, g, decay=d),
         (2.0, 4.1)),
    ],
)
def test_extract_beats_inverts_without_leading_order_bias(mode, simulate, splittings):
    # inverting only to leading order in delta/base reads them ~0.5% low
    grid = TimeGrid(0.0, 30.0, 12001)
    trace = simulate(
        ManifoldSpec((0.0,) + splittings), grid, DecayModel("exponential", 25.0)
    )
    report = extract_beats(trace, mode=mode)
    assert report.recovered_detunings == pytest.approx(splittings, rel=2e-3)


def test_extract_beats_single_tone_is_clean():
    trace = tone(22.2, duration=30.0, n=6001)
    report = extract_beats(trace)
    assert report.beat_frequencies == []
    assert report.recovered_detunings == []
    assert any("no envelope modulation" in note for note in report.diagnostics["notes"])


@given(
    base=st.floats(10.0, 60.0, **finite),
    delta=st.floats(0.1, 1.4, **finite),
)
def test_detuning_from_beat_inverts_beat_shift(base, delta):
    single = detuning_from_beat(beat_shift(base, delta, "single"), base, "single")
    vtype = detuning_from_beat(beat_shift(base, delta, "vtype"), base, "vtype")
    assert single == pytest.approx(delta, rel=1e-9)
    assert vtype == pytest.approx(delta, rel=1e-9)


def test_resolution_estimate_units():
    res = resolution_estimate(22.2, 555.0)
    assert res.delta_cyclic == pytest.approx(0.9423375191511796, rel=1e-12)
    assert res.delta_angular == pytest.approx(5.920881254734754, rel=1e-12)
    assert res.delta_angular == pytest.approx(2 * np.pi * res.delta_cyclic)
    with pytest.raises(ValueError):
        resolution_estimate(22.2, 0.0)


def test_synthesize_esr_single_dip_depth():
    f = np.linspace(-5.0, 5.0, 1001)
    shape = synthesize_esr([0.0], [0.3], 0.8, f)
    assert shape.values.min() == pytest.approx(0.7, abs=1e-9)
    # half depth at half width from center
    idx = np.argmin(np.abs(f - 0.4))
    assert shape.values[idx] == pytest.approx(0.85, abs=1e-3)


def test_synthesize_esr_coincident_dips_double():
    f = np.linspace(-5.0, 5.0, 1001)
    shape = synthesize_esr([0.0, 0.0], [0.2, 0.2], 0.8, f)
    assert shape.values.min() == pytest.approx(0.6, abs=1e-9)


def test_synthesize_esr_clips_at_zero():
    f = np.linspace(-1.0, 1.0, 101)
    shape = synthesize_esr([0.0, 0.0], [0.9, 0.9], 2.0, f)
    assert shape.values.min() == 0.0
    assert np.all(shape.values >= 0.0)


def test_synthesize_esr_validation():
    f = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        synthesize_esr([0.0], [1.5], 0.8, f)
    with pytest.raises(ValueError):
        synthesize_esr([0.0], [0.5], -0.8, f)
    with pytest.raises(ValueError):
        synthesize_esr([0.0, 1.0], [0.5], 0.8, f)


def test_dominant_frequency_is_grid_free():
    # 7.31 MHz falls between the 12.5 kHz bins of a 4x zero-padded 20 us trace
    trace = tone(7.31, decay=15.0)
    assert dominant_frequency(trace) == pytest.approx(7.31, abs=1e-4)


def test_spectrum_csv_round_trip(tmp_path):
    trace = tone(5.0)
    spec = fft_spectrum(trace, window="hann", zero_pad=2)
    path = spec.to_csv(tmp_path / "spec.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "# rabibeat-spectrum v1"
    assert lines[1] == "# window: hann"
    assert lines[2] == "freq_MHz,magnitude"
    data = np.loadtxt(path, delimiter=",", skiprows=3)
    assert np.allclose(data[:, 0], spec.freqs, rtol=1e-12)


def test_lineshape_csv_header(tmp_path):
    f = np.linspace(-1.0, 1.0, 11)
    shape = synthesize_esr([0.0], [0.5], 0.8, f)
    path = shape.to_csv(tmp_path / "esr.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "# rabibeat-esr v1"
    assert lines[1] == "freq_MHz,signal"
