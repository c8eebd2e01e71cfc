import math
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.ndimage
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from rabibeat.analysis import (
    _HannRecord,
    _moving_average,
    _newton,
    _next_fast_len,
    _parabolic_refine,
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
from rabibeat.cli import main
from rabibeat.evolve import (
    DecayModel,
    ManifoldSpec,
    TimeGrid,
    rabi_trace_incoherent,
    rabi_trace_vtype,
)
from rabibeat.spinmodel import detuning_from_beat
from rabibeat.traces import SampledTrace

from oracles import (
    band_limited_analytic_signal,
    beat_shift,
    full_fft_envelope,
)

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
    assert peaks[0] == pytest.approx(5.043, abs=0.2 * spec.bin_width)


def test_next_fast_len_is_scipys():
    small = range(1, 200_001)
    assert ([_next_fast_len(n) for n in small]
            == [scipy.fft.next_fast_len(n, real=True) for n in small])
    powers = [p**k + d for p in (2, 3, 5) for k in range(1, 30) for d in (-1, 0, 1)
              if p**k + d <= 10**9]
    sampled = np.random.default_rng(15).integers(200_001, 10**9, 3000).tolist()
    for n in powers + sampled + [10**9]:
        assert _next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


# scipy's distance pruning visits equal heights in np.argsort order, which
# a stable sort changes here: its peaks 9 and 12 tie within 4 bins
TIES = [1, 2, 2, 0, 0, 2, 2, 0, 0, 2, 1, 0, 2, 0, 1, 1, 1, 0, 0, 2, 2, 2, 1, 2,
        0, 1, 2, 0, 0, 0, 1, 2, 0, 1, 1, 2, 0, 1, 0, 0, 2, 0, 0, 1, 1, 0, 2, 2]


# runs of equal levels give plateaus, runs of zeros, equal heights and
# maxima at either end
RUNS = st.lists(st.tuples(st.one_of(st.integers(0, 3).map(float),
                                    st.floats(0.0, 3.0, **finite)),
                          st.integers(1, 4)), min_size=3, max_size=120)


@settings(max_examples=300)
@given(
    runs=RUNS,
    min_height_rel=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                             st.floats(0.0, 1.0, **finite)),
    min_separation=st.floats(0.0, 2.0, **finite),
)
@example(runs=[(float(v), 1) for v in TIES], min_height_rel=0.0, min_separation=1.0)
def test_find_peaks_picks_scipys_indices(runs, min_height_rel, min_separation):
    # 0.25 MHz bins make min_separation up to 8 bins
    levels, counts = zip(*runs)
    mags = np.repeat(levels, counts)
    freqs = 0.25 * np.arange(mags.size)
    peaks = find_peaks(Spectrum(freqs, mags, "hann"), min_height_rel, min_separation)
    if mags.max() <= 0:
        assert peaks == []
        return
    distance = max(1, int(np.ceil(min_separation / 0.25)))
    idx, _ = scipy.signal.find_peaks(mags, height=min_height_rel * mags.max(),
                                     distance=distance)
    assert peaks == sorted(_parabolic_refine(freqs, mags, i) for i in idx)


@settings(max_examples=300)
@given(runs=RUNS, band=st.tuples(st.floats(0.0, 30.0, **finite),
                                 st.floats(0.0, 30.0, **finite)).map(sorted))
def test_find_peaks_of_a_band_masked_spectrum_lie_in_the_band(runs, band):
    # extract_beats zeroes its beat spectrum outside [f_min, f_max] and
    # refines every peak find_peaks returns: at a band edge the zero
    # neighbour turns the parabolic shift inward
    f_min, f_max = band
    levels, counts = zip(*runs)
    mags = np.repeat(levels, counts)
    freqs = 0.25 * np.arange(mags.size)
    masked = np.where((freqs >= f_min) & (freqs <= f_max), mags, 0.0)
    peaks = find_peaks(Spectrum(freqs, masked, "hann"), 0.0)
    assert all(f_min <= f <= f_max for f in peaks)


@settings(max_examples=20)
@given(freq=st.floats(3.0, 9.0, **finite))
def test_refine_peak_frequency_is_grid_free(freq):
    trace = tone(freq, duration=25.0, n=2501, decay=20.0)
    spec = fft_spectrum(trace, window="hann", zero_pad=2)
    guess = spec.freqs[np.argmax(spec.magnitudes)]
    refined = refine_peak_frequency(trace, guess)
    assert refined == pytest.approx(freq, abs=1e-6)


def test_refine_peak_frequency_reaches_its_tolerance_at_rabi_frequencies():
    # off-bin tones near the paper's ~22 MHz Rabi frequency; a noiseless
    # Hann-windowed tone has its DTFT maximum within ~1e-11 MHz of the tone
    worst = 0.0
    for freq in 21.0 + np.arange(20) * 0.1037 + 0.0131:
        trace = tone(freq, duration=30.0, n=6001)
        spec = fft_spectrum(trace, window="hann", zero_pad=4)
        guess = spec.freqs[np.argmax(spec.magnitudes)]
        refined = refine_peak_frequency(trace, guess)
        worst = max(worst, abs(refined - freq))
    assert worst < 1e-8


def direct_refine(times, values, f_guess):
    """Oracle: the refinement's Newton search, with X(f) and its derivatives
    in f as direct sums over the samples instead of blocked products."""
    xw = (values - values.mean()) * np.hanning(values.size)
    t = times - times[0]

    def neg_power(f):
        e = xw * np.exp(-2j * np.pi * f * t)
        x, dx, ddx = e.sum(), (-2j * np.pi * t * e).sum(), (-4 * np.pi**2 * t * t * e).sum()
        g1 = 2 * (np.conj(x) * dx).real
        g2 = 2 * (abs(dx) ** 2 + (np.conj(x) * ddx).real)
        return -g1, -g2

    half_width = 1.0 / (times[-1] - times[0])
    return float(_newton(neg_power, f_guess, max(f_guess - half_width, 0.0),
                         f_guess + half_width, 1e-7 * half_width))


@settings(max_examples=30)
@given(
    n=st.one_of(st.integers(64, 6000), st.integers(1, 90).map(lambda b: 64 * b)),
    duration=st.floats(20.0, 60.0, **finite),
    cycles=st.floats(10.0, 1000.0, **finite),
    phase=st.floats(0.0, 6.3, **finite),
)
def test_blocked_dtft_refinement_matches_direct_sum(
    tmp_path_factory, n, duration, cycles, phase
):
    # records as long as the pipeline's, holding at least ten periods below
    # 0.8 x Nyquist; over a few periods the maximum is so flat that rounding
    # alone moves it by ~1e-9 MHz, in the direct sum as much as in the blocked
    freq = min(cycles, 0.4 * (n - 1)) / duration
    fresh = tone(freq, duration=duration, n=n, decay=25.0, phase=phase)
    path = fresh.to_csv(tmp_path_factory.mktemp("dtft") / "trace.csv")
    for trace in (fresh, SampledTrace.from_csv(path)):
        spec = fft_spectrum(trace, window="hann", zero_pad=4)
        guess = spec.freqs[1 + np.argmax(spec.magnitudes[1:])]
        blocked = refine_peak_frequency(trace, guess)
        direct = direct_refine(trace.times, trace.values, guess)
        assert blocked == pytest.approx(direct, abs=1e-9)


@pytest.fixture(scope="module")
def refined_traces(tmp_path_factory):
    """The paper-fig3 and paper-fig7 traces as analyze reads them, a
    4-manifold V-type trace and a beat-pipeline-shaped single-type one."""
    out = tmp_path_factory.mktemp("presets")
    traces = {}
    for name in ("paper-fig3", "paper-fig7"):
        assert main(["simulate", "--config", name, "--out", str(out / name)]) == 0
        traces[name] = SampledTrace.from_csv(out / name / "trace.csv")
    traces["vtype-4"] = rabi_trace_vtype(
        14.0, ManifoldSpec((0.0, 2.0, 4.0, 6.0)), TimeGrid(0.0, 25.0, 9911),
        decay=DecayModel("exponential", 25.0))
    traces["single-3"] = rabi_trace_incoherent(
        25.0, ManifoldSpec((0.0, 2.0, 4.0)), TimeGrid(0.0, 25.0, 11854),
        decay=DecayModel("exponential", 30.0))
    return traces


def long_double_slope(trace, f):
    """The sign of g'(f) = 2 Re(conj(X) X') of the Hann-windowed record, as
    direct sums in long double."""
    t = trace.times.astype(np.longdouble)
    xw = ((trace.values - trace.values.mean()) * np.hanning(trace.n)).astype(np.longdouble)
    phase = 2 * np.pi * np.longdouble(f) * t
    cos, sin = np.cos(phase), np.sin(phase)
    # X = sum xw (cos - i sin) and X' / (2 pi) = -sum t xw (sin + i cos)
    re, im = np.sum(xw * cos), -np.sum(xw * sin)
    d_re, d_im = -np.sum(t * xw * sin), -np.sum(t * xw * cos)
    return np.sign(re * d_re + im * d_im)


def test_dominant_frequency_is_a_maximum_to_1e_12(refined_traces, monkeypatch):
    # g' changes sign across f (1 -/+ 1e-12) on every trace, and Newton
    # steps get there in a few DTFT evaluations per refinement
    evaluations = []

    def counted(fun, *args):
        fun, points = recorded(fun)
        evaluations.append(points)
        return _newton(fun, *args)

    monkeypatch.setattr("rabibeat.analysis._newton", counted)
    for name, trace in refined_traces.items():
        f = dominant_frequency(trace)
        assert long_double_slope(trace, f * (1 - 1e-12)) == 1, name
        assert long_double_slope(trace, f * (1 + 1e-12)) == -1, name
    assert len(evaluations) == 4 and max(map(len, evaluations)) <= 12


@pytest.mark.parametrize("offset", [0.9, -0.9])
def test_refinement_bisects_where_the_power_is_convex(offset):
    # 0.9 / duration off the peak g'' >= 0, where a Newton step heads away
    # from the peak; the search still ends where a good seed's does
    trace = tone(5.3137, duration=20.0, n=4001)
    peak = refine_peak_frequency(trace, 5.3137)
    seed = peak + offset / trace.duration
    assert _HannRecord.of(trace).neg_power(seed)[1] <= 0
    refined = refine_peak_frequency(trace, seed)
    assert refined == pytest.approx(peak, rel=1e-12)
    assert abs(refined - seed) <= 1.0 / trace.duration


def recorded(fun):
    """``fun``, and the list of the points it is evaluated at."""
    points = []

    def wrapped(x):
        points.append(x)
        return fun(x)

    return wrapped, points


def test_newton_ends_at_a_zero_slope():
    # the Newton step from 0.5 lands exactly on the minimum of (x - 1)^2;
    # (x - 1)^4 has no curvature there either, so only the slope ends it
    fun, points = recorded(lambda x: (2 * (x - 1), 2.0))
    assert _newton(fun, 0.5, 0.0, 2.0, 1e-9) == 1.0
    assert points == [0.5, 1.0]
    fun, points = recorded(lambda x: (4 * (x - 1) ** 3, 12 * (x - 1) ** 2))
    assert _newton(fun, 1.0, 0.0, 2.0, 1e-9) == 1.0
    assert points == [1.0]


def test_newton_ends_when_the_bracket_is_xtol_wide():
    # |x - 0.3| has no curvature, so [0, 0.9] halves from its second
    # evaluation on: ten halvings take it to 0.9 / 2**10 <= 1e-3 < 0.9 / 2**9
    fun, points = recorded(lambda x: (math.copysign(1.0, x - 0.3), 0.0))
    x = _newton(fun, 0.9, 0.0, 1.0, 1e-3)
    assert len(points) == 12
    assert x == points[-1] and abs(x - 0.3) <= 1e-3


def test_newton_does_not_evaluate_its_last_step():
    # exp(x) - 2x has its minimum at ln 2; the step of at most xtol is taken
    # from the last evaluated point and not evaluated
    def fun(x):
        return math.exp(x) - 2, math.exp(x)

    counted, points = recorded(fun)
    x = _newton(counted, 2.0, 0.0, 3.0, 1e-6)
    slope, curvature = fun(points[-1])
    assert 0 < abs(slope / curvature) <= 1e-6
    assert x == points[-1] - slope / curvature != points[-1]
    assert x == pytest.approx(math.log(2), abs=1e-12)


@pytest.mark.parametrize("center, bound", [(5.0, 1.0), (-5.0, 0.0)])
def test_newton_returns_the_bound_beyond_which_the_minimum_lies(center, bound):
    # the Newton step leaves [0, 1], so the search goes to the unevaluated
    # bound, whose slope closes the bracket there
    fun, points = recorded(lambda x: (2 * (x - center), 2.0))
    assert _newton(fun, 0.5, 0.0, 1.0, 1e-9) == bound
    assert points == [0.5, bound]


def test_newton_only_bisects_without_positive_curvature():
    # sqrt|x - c| is concave on each side of its minimum: after the far
    # bound, every evaluation is at the midpoint of the bracket so far
    c = 0.3

    def fun(x):
        r = abs(x - c)
        return math.copysign(0.5 / math.sqrt(r), x - c), -0.25 * r**-1.5

    counted, points = recorded(fun)
    x = _newton(counted, 0.9, 0.0, 1.0, 1e-6)
    assert points[:2] == [0.9, 0.0] and len(points) > 10
    lo, hi = 0.0, 0.9
    for point in points[2:]:
        assert point == 0.5 * (lo + hi)
        lo, hi = (point, hi) if point < c else (lo, point)
    assert x == points[-1] and hi - lo <= 1e-6


def test_newton_stops_after_100_evaluations():
    # -log x has positive curvature and a Newton step of x, so each step
    # doubles x and none reaches the bound or the tolerance
    fun, points = recorded(lambda x: (-1 / x, x**-2))
    assert _newton(fun, 1.0, 1.0, 1e300, 1e-9) == 2.0**100
    assert points == [2.0**k for k in range(100)]


@pytest.mark.parametrize("seed_bins", [0.6, 0.9])
def test_refinement_below_one_bin_searches_from_zero(seed_bins):
    # a line 1.5 bins above zero, seeded below one bin: the search window
    # [0, seed + 1 / duration] holds its peak
    trace = tone(1.5 / 20.0, duration=20.0, n=4001, phase=0.3)
    peak = refine_peak_frequency(trace, 1.5 / 20.0)
    refined = refine_peak_frequency(trace, seed_bins / trace.duration)
    assert refined == pytest.approx(peak, rel=1e-12)
    assert 0.0 <= refined <= (seed_bins + 1.0) / trace.duration


@pytest.mark.parametrize("side", [1, -1])
def test_refinement_returns_the_window_edge_nearest_a_peak_beyond_it(side):
    trace = tone(5.3137, duration=20.0, n=4001)
    peak = refine_peak_frequency(trace, 5.3137)
    seed = peak - side * 1.5 / trace.duration
    assert refine_peak_frequency(trace, seed) == seed + side * (1.0 / trace.duration)


def test_refine_peak_frequency_requires_uniform_sampling():
    t = np.linspace(0.0, 10.0, 1001) ** 1.5
    with pytest.raises(ValueError, match="not uniformly sampled"):
        refine_peak_frequency(SampledTrace(t, np.cos(t)), 1.0)


def test_analytic_envelope_tracks_decay():
    trace = tone(8.0, duration=30.0, n=6001, decay=10.0)
    times, env = analytic_envelope(trace)
    expected = np.exp(-times / 10.0)
    assert np.max(np.abs(env - expected)) < 0.02


def _fig3_trace(n, t_end=30.0, t1_rho=25.0):
    # paper-fig3 physics: three equal manifolds, the lowest one resonant
    return rabi_trace_incoherent(
        22.2, ManifoldSpec((0.0, 2.18, 4.36)), TimeGrid(0.0, t_end, n),
        decay=DecayModel("exponential", t1_rho),
    )


@pytest.mark.parametrize("band", [(500.0, 600.0), (30.0, 20.0), (20.0, 20.0)],
                         ids=["above-nyquist", "reversed", "empty"])
@pytest.mark.parametrize("fn", [analytic_envelope])
def test_envelope_rejects_a_band_it_cannot_use(fn, band):
    trace = _fig3_trace(6001)
    with pytest.raises(ValueError, match=rf"band \({band[0]}, {band[1]}\)"):
        fn(trace, band=band)


@pytest.mark.parametrize("n", [1600, 1601])
@pytest.mark.parametrize(
    "simulate",
    [lambda g: rabi_trace_incoherent(22.2, ManifoldSpec((0.0, 2.18, 4.36)), g,
                                     decay=DecayModel("exponential", 25.0)),
     lambda g: rabi_trace_vtype(14.849242404917497, ManifoldSpec((0.0, 2.0, 4.1)),
                                g, decay=DecayModel("exponential", 25.0))],
    ids=["single", "vtype"],
)
def test_coarse_envelope_is_the_band_limited_analytic_signal(simulate, n):
    trace = simulate(TimeGrid(0.0, 8.0, n))
    base, nyquist = dominant_frequency(trace), 0.5 / trace.dt
    for band in [(0.7 * base, 1.3 * base), (0.8 * nyquist, 1.2 * nyquist), None]:
        times, env = analytic_envelope(trace, band=band)
        assert times[0] >= trace.times[0] and times[-1] <= trace.times[-1]
        assert SampledTrace(times, env).is_uniform()
        if band is not None:
            # a band narrower than half the spectrum needs fewer points
            assert times.size < 0.6 * trace.n
        exact = np.abs(band_limited_analytic_signal(trace, band, times))
        assert np.max(np.abs(env - exact)) <= 1e-10 * exact.max(), band
    # with no band: the full complex-FFT construction, at the trace's times
    full_times, full_env = full_fft_envelope(trace)
    np.testing.assert_allclose(times, full_times, rtol=0, atol=1e-12 * trace.duration)
    assert np.max(np.abs(env - full_env)) <= 1e-10 * full_env.max()


def test_envelope_cost_is_set_by_the_band():
    short, long = _fig3_trace(6001), _fig3_trace(24001)
    band = (0.7 * 22.2, 1.3 * 22.2)
    assert analytic_envelope(long, band=band)[0].size <= (
        analytic_envelope(short, band=band)[0].size)
    a, b = extract_beats(short), extract_beats(long)
    assert a.beat_frequencies == pytest.approx(b.beat_frequencies, abs=1e-4)
    assert a.recovered_detunings == pytest.approx(b.recovered_detunings, abs=1e-4)


def test_extract_beats_in_the_papers_regime_of_many_oscillations():
    # T1rho = 25 ms over 3 ms: about 66 600 base oscillations
    trace = _fig3_trace(600_001, t_end=3000.0, t1_rho=25_000.0)
    report = extract_beats(trace)
    assert report.recovered_detunings == pytest.approx([2.18, 4.36], abs=1e-3)
    assert report.diagnostics["unexplained_lines"] == []


def test_moving_average_is_scipys_uniform_filter():
    # fit_decay_time's smoothing, with scipy as the oracle; odd and even
    # widths, and widths past the envelope, which hold its end values
    rng = np.random.default_rng(3)
    for n in (1, 2, 50, 1001, 100_000):
        env = np.exp(-np.linspace(0.0, 3.0, n)) * (1.0 + 0.1 * rng.random(n))
        for width in (1, 2, 3, 4, max(3, n // 20), n + 1, 2 * n + 4):
            expected = scipy.ndimage.uniform_filter1d(env, size=width, mode="nearest")
            np.testing.assert_allclose(_moving_average(env, width), expected,
                                       rtol=1e-10, atol=0, err_msg=f"{n=} {width=}")


def test_fit_decay_time_crossing_on_clean_exponential():
    trace = tone(8.0, duration=60.0, n=12001, decay=25.0)
    fitted = fit_decay_time(trace)
    assert fitted == pytest.approx(25.0, rel=0.03)


def test_fit_decay_time_inf_when_no_decay():
    trace = tone(8.0, duration=10.0, n=2001)
    assert fit_decay_time(trace) == np.inf


@pytest.mark.parametrize("level, n", [(0.3, 2001), (0.3, 1001), (0.3, 6001),
                                      (0.0, 2001), (0.1, 2001), (0.7, 2001),
                                      (1e6, 2001)])
def test_fit_decay_time_inf_for_a_constant_trace(level, n):
    # the envelope of a constant trace is the rounding of its mean, whose
    # 1/e crossing is no decay time
    times = np.linspace(0.0, 10.0, n)
    assert fit_decay_time(SampledTrace(times, np.full(n, level))) == np.inf


def test_fit_decay_time_trend_ignores_beat_nodes():
    grid = TimeGrid(0.0, 30.0, 6001)
    trace = rabi_trace_incoherent(
        22.2,
        ManifoldSpec((0.0, 2.18, 4.36)),
        grid,
        decay=DecayModel("exponential", 25.0),
    )
    crossing = fit_decay_time(trace)
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


def test_extract_beats_names_envelope_lines_its_beats_do_not_explain():
    # four manifolds make six envelope lines; the sum closure keeps two
    # beats, whose differences explain only three of them
    grid = TimeGrid(0.0, 30.0, 6001)
    trace = rabi_trace_incoherent(
        22.2, ManifoldSpec((0.0, 2.18, 4.36, 6.54)), grid,
        decay=DecayModel("exponential", 25.0),
    )
    report = extract_beats(trace)
    assert report.recovered_detunings == pytest.approx([2.18, 6.538], abs=2e-3)
    unexplained = report.diagnostics["unexplained_lines"]
    assert unexplained
    assert set(unexplained) <= set(report.diagnostics["envelope_beats"])
    named = [n for n in report.diagnostics["notes"] if "miss a tone" in n]
    assert len(named) == 1
    assert all(f"{f:.4g}" in named[0] for f in unexplained)


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


@pytest.mark.parametrize("level", [0.0, 0.1, 0.3, 1e6])
def test_dominant_frequency_rejects_a_constant_trace(level):
    times = np.linspace(0.0, 10.0, 1001)
    with pytest.raises(ValueError, match="no spectral peak"):
        dominant_frequency(SampledTrace(times, np.full(times.size, level)))


def test_spectrum_bin_width_is_the_grid_spacing():
    trace = tone(5.0)
    spec = fft_spectrum(trace, window="hann", zero_pad=3)
    assert spec.bin_width == spec.freqs[1] - spec.freqs[0]
    band = Spectrum(spec.freqs[:2], spec.magnitudes[:2], spec.window)
    assert band.bin_width == spec.bin_width


@pytest.mark.parametrize("bins", [0, 1])
def test_spectrum_rejects_fewer_than_two_bins(bins):
    # bin_width is the spacing of the first two bins; an empty grid has no
    # first bin to start from zero either
    spec = fft_spectrum(tone(5.0), window="hann", zero_pad=1)
    with pytest.raises(ValueError, match=f"at least two bins, got {bins}"):
        Spectrum(spec.freqs[:bins], spec.magnitudes[:bins], spec.window)


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


def test_readme_library_use_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    report = namespace["report"]
    # the values its comments promise
    assert report.base_frequency == pytest.approx(22.2, rel=1e-3)
    assert report.recovered_detunings == pytest.approx([2.18, 4.36], abs=0.01)
    assert report.decay_time == pytest.approx(26.0, abs=1.0)
    assert "ResolutionEstimate" in capsys.readouterr().out
