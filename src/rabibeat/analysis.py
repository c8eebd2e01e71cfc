"""Signal analysis: spectra, peak finding, beat extraction, resolution
estimates, and synthetic resonance lineshapes.  Beats are turned into
detunings by the exact inverse in :mod:`rabibeat.spinmodel`.

Beat extraction works in the time domain on the analytic-signal envelope,
because a slow beat is resolvable from a couple of modulation periods even
when the underlying spectral lines are closer than the FFT resolution.
Interpolated FFT peak spacings serve as a cross-check when they are
resolvable at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.ndimage
import scipy.optimize
import scipy.signal

from .evolve import _BLOCK, _phasors
from .spinmodel import detuning_from_beat
from .traces import SampledTrace, write_columns

__all__ = [
    "Spectrum",
    "Lineshape",
    "SpectralPeak",
    "BeatReport",
    "ResolutionEstimate",
    "fft_spectrum",
    "find_peaks",
    "refine_peak_frequency",
    "dominant_frequency",
    "analytic_envelope",
    "fit_decay_time",
    "extract_beats",
    "resolution_estimate",
    "synthesize_esr",
]

WINDOWS = ("rectangular", "hann")
SPECTRUM_HEADER = "# rabibeat-spectrum v1"
SPECTRUM_COLUMNS = "freq_MHz,magnitude"
LINESHAPE_HEADER = "# rabibeat-esr v1"
LINESHAPE_COLUMNS = "freq_MHz,signal"


@dataclass
class Spectrum:
    """Single-sided magnitude spectrum on a uniform frequency grid.

    ``freqs`` run upward from zero in MHz, to the Nyquist frequency for a
    spectrum from :func:`fft_spectrum`, and ``bin_width`` is their spacing,
    1/(n_fft * dt) for an n_fft-point (possibly zero-padded) transform.
    Magnitudes are normalized so a unit cosine contributes a peak magnitude
    of about one.  ``analyze`` writes only the bins up to twice the base
    frequency to ``spectrum.csv``.
    """

    freqs: np.ndarray
    magnitudes: np.ndarray
    window: str
    bin_width: float

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        if self.freqs.shape != self.magnitudes.shape:
            raise ValueError("freqs and magnitudes must have equal shape")
        if self.freqs[0] != 0.0 or np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must ascend from zero")

    def to_csv(self, path):
        return write_columns(
            path, SPECTRUM_HEADER, SPECTRUM_COLUMNS,
            (self.freqs, self.magnitudes), {"window": self.window},
        )


@dataclass
class Lineshape:
    """Synthetic resonance scan: frequency axis in MHz, normalized signal."""

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.freqs.shape != self.values.shape:
            raise ValueError("freqs and values must have equal shape")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must be strictly increasing")

    def to_csv(self, path):
        return write_columns(
            path, LINESHAPE_HEADER, LINESHAPE_COLUMNS, (self.freqs, self.values)
        )


@dataclass(frozen=True)
class SpectralPeak:
    frequency: float
    magnitude: float
    interpolated: bool


@dataclass
class BeatReport:
    """Result of beat extraction on a population trace.

    ``base_frequency`` is the strongest spectral component in MHz;
    ``beat_frequencies`` are envelope modulation frequencies relative to the
    base, ascending; ``recovered_detunings`` are their inversions through
    the beat-shift relation for the given mode, ascending, in MHz.
    ``decay_time`` (us) is -1/rate of the log-linear trend of the base-band
    envelope, which beat nodes do not drag down; inf when the trend does
    not fall or fewer than three envelope points are above 1e-3 of its peak.
    """

    mode: str
    base_frequency: float
    beat_frequencies: list
    recovered_detunings: list
    decay_time: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ResolutionEstimate:
    """Frequency resolution after n oscillations, in both conventions.

    ``delta_cyclic`` = base / sqrt(n) in MHz; ``delta_angular`` is the same
    quantity times 2*pi, in rad/us.
    """

    delta_cyclic: float
    delta_angular: float


def _window_array(name: str, n: int) -> np.ndarray:
    if name == "rectangular":
        return np.ones(n)
    if name == "hann":
        return np.hanning(n)
    raise ValueError(f"window must be one of {WINDOWS}, got {name!r}")


def _require_uniform(trace: SampledTrace):
    if not trace.is_uniform():
        raise ValueError("trace is not uniformly sampled")


def fft_spectrum(
    trace: SampledTrace, window: str = "hann", zero_pad: int = 4
) -> Spectrum:
    """Magnitude spectrum of a mean-removed, windowed trace.

    Requires a uniform grid and at least 8 samples.  ``zero_pad`` >= 1 is
    a minimum padding factor: above 1 the transform length is
    ``zero_pad * n`` rounded up to a 5-smooth length, where the FFT is
    fast; at 1 it is the record's own length n.  Padding only interpolates
    the spectrum, it adds no information.
    """
    _require_uniform(trace)
    if trace.n < 8:
        raise ValueError(f"need at least 8 samples, got {trace.n}")
    if zero_pad < 1:
        raise ValueError(f"zero_pad must be >= 1, got {zero_pad}")
    x = trace.values - trace.values.mean()
    w = _window_array(window, trace.n)
    n_fft = trace.n
    if zero_pad > 1:
        n_fft = scipy.fft.next_fast_len(int(zero_pad) * trace.n, real=True)
    mags = np.abs(np.fft.rfft(x * w, n=n_fft)) * (2.0 / w.sum())
    freqs = np.fft.rfftfreq(n_fft, d=trace.dt)
    return Spectrum(freqs, mags, window, float(freqs[1] - freqs[0]))


def _parabolic_refine(freqs, mags, i):
    """Quadratic interpolation of a peak position through three bins."""
    if i <= 0 or i >= len(mags) - 1:
        return float(freqs[i]), float(mags[i]), False
    a, b, c = mags[i - 1], mags[i], mags[i + 1]
    denom = a - 2.0 * b + c
    if denom == 0:
        return float(freqs[i]), float(b), False
    shift = 0.5 * (a - c) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    df = freqs[1] - freqs[0]
    return float(freqs[i] + shift * df), float(b - 0.25 * (a - c) * shift), True


def find_peaks(
    spectrum: Spectrum,
    min_height_rel: float = 0.1,
    min_separation: float = 0.0,
    interpolate: bool = True,
) -> list:
    """Local maxima of a spectrum, sorted by frequency.

    ``min_height_rel`` is relative to the largest magnitude.  Peaks closer
    than ``min_separation`` (MHz) are pruned keeping the larger one.
    Positions are refined by parabolic interpolation unless disabled.
    """
    mags = spectrum.magnitudes
    if mags.size < 3 or mags.max() <= 0:
        return []
    distance = 1
    if min_separation > 0:
        distance = max(1, int(math.ceil(min_separation / spectrum.bin_width)))
    idx, _ = scipy.signal.find_peaks(
        mags, height=min_height_rel * mags.max(), distance=distance
    )
    peaks = []
    for i in idx:
        if interpolate:
            f, m, ok = _parabolic_refine(spectrum.freqs, mags, int(i))
            peaks.append(SpectralPeak(f, m, ok))
        else:
            peaks.append(
                SpectralPeak(float(spectrum.freqs[i]), float(mags[i]), False)
            )
    peaks.sort(key=lambda p: p.frequency)
    return peaks


def refine_peak_frequency(
    times: np.ndarray,
    values: np.ndarray,
    f_guess: float,
    half_width: float | None = None,
    window: str = "rectangular",
) -> float:
    """Refine a spectral peak position by maximizing the windowed DTFT
    magnitude near ``f_guess``.

    Grid-free: accuracy is limited by spectral leakage, not bin width.
    ``half_width`` defaults to one raw resolution bandwidth 1/duration.
    The times must be uniform in the sense of
    :meth:`SampledTrace.is_uniform`.  The DTFT sum runs in the blocks of
    the trace kernel (:mod:`rabibeat.evolve`): sample j = b * B + m is
    taken as m mean steps after its block anchor times[b * B], so each
    evaluation is anchor phasors . (blocks @ in-block phasors), not one
    complex exponential per sample.  A bounded Brent search over the offset
    from ``f_guess`` ends with one :func:`_parabola_step`.
    """
    trace = SampledTrace(times, values)
    _require_uniform(trace)
    x = trace.values - trace.values.mean()
    xw = x * _window_array(window, trace.n)
    anchors = trace.times[::_BLOCK]
    offsets = trace.dt * np.arange(_BLOCK)
    blocks = np.zeros(anchors.size * _BLOCK, dtype=complex)
    blocks[: trace.n] = xw
    blocks = blocks.reshape(anchors.size, _BLOCK)
    if half_width is None:
        half_width = 1.0 / trace.duration
    lo = max(f_guess - half_width, 0.0)
    hi = f_guess + half_width

    def neg_mag(u):
        w = -2.0 * np.pi * (f_guess + u)
        return -abs(_phasors(w * anchors) @ (blocks @ _phasors(w * offsets)))

    # bounded Brent stops at sqrt(eps) * |x| + xatol / 3, so it searches the
    # offset from f_guess: near x = f ~ 22 MHz the relative term alone would
    # be ~3e-7 MHz and xatol would have no effect
    res = scipy.optimize.minimize_scalar(
        neg_mag, bounds=(lo - f_guess, hi - f_guess), method="bounded",
        options={"xatol": 1e-10},
    )
    return float(f_guess + _parabola_step(neg_mag, res.x, res.fun,
                                          1e-3 / trace.duration))


def _parabola_step(fun, x, fx, h):
    """Vertex of the parabola through ``fun`` at x - h, x and x + h, when it
    is a minimum within h of x; else x.

    Within ~1e-9 MHz of a DTFT maximum the magnitude is flat to rounding,
    so a bracketing search ends at a point rounding chose.  Over h = 1e-3 /
    duration the magnitude falls ~1e-6 relative, far above rounding, and
    the vertex through those points lands within ~1e-12 MHz of the maximum.
    """
    below, above = fun(x - h), fun(x + h)
    curvature = below - 2.0 * fx + above
    step = 0.5 * h * (below - above) / curvature if curvature > 0 else 0.0
    return x + step if abs(step) <= h else x


def dominant_frequency(trace: SampledTrace) -> float:
    """Frequency in MHz of a trace's strongest spectral line.

    The argmax bin of a Hann-windowed, 4x zero-padded spectrum seeds a
    grid-free :func:`refine_peak_frequency` with the same window.
    """
    spectrum = fft_spectrum(trace, window="hann", zero_pad=4)
    guess = spectrum.freqs[int(np.argmax(spectrum.magnitudes))]
    return refine_peak_frequency(trace.times, trace.values, guess, window="hann")


def analytic_envelope(
    trace: SampledTrace,
    band: tuple | None = None,
    trim_periods: float = 1.5,
):
    """Magnitude of the analytic signal, optionally band-limited.

    ``band = (f_lo, f_hi)`` keeps only that part of the positive-frequency
    spectrum before the envelope is formed, which isolates one oscillation
    cluster (e.g. the base band of a V-configuration trace, excluding its
    sub-harmonic).  Edges are trimmed by ``trim_periods`` carrier periods
    to suppress end artifacts of the analytic-signal construction.

    Returns ``(times, envelope)`` trimmed consistently.
    """
    _require_uniform(trace)
    x = trace.values - trace.values.mean()
    n = trace.n
    spec = np.fft.fft(x)
    freqs = np.fft.fftfreq(n, d=trace.dt)
    mask = np.zeros(n)
    mask[freqs > 0] = 2.0
    if band is not None:
        lo, hi = band
        # cosine-tapered band edges; a hard cut rings at |edge - carrier|
        # and the ripple would read as spurious envelope modulation
        width = 0.1 * (hi - lo)
        taper = np.clip((freqs - lo) / width, 0.0, 1.0) * np.clip(
            (hi - freqs) / width, 0.0, 1.0
        )
        mask = mask * np.sin(0.5 * np.pi * taper) ** 2
    z = np.fft.ifft(spec * mask)
    env = np.abs(z)
    if band is not None:
        f_ref = 0.5 * (band[0] + band[1])
    else:
        pos = freqs > 0
        f_ref = float(freqs[pos][np.argmax(np.abs(spec[pos]))])
    trim = 0
    if f_ref > 0:
        trim = int(math.ceil(trim_periods / (f_ref * trace.dt)))
    trim = min(trim, max((n - 16) // 2, 0))
    sl = slice(trim, n - trim if trim else n)
    return trace.times[sl], env[sl]


def fit_decay_time(trace: SampledTrace, band: tuple | None = None) -> float:
    """Envelope 1/e time in microseconds, or inf when the envelope never
    falls that far.

    Smooths the analytic-signal envelope with a moving average, takes its
    early-time maximum as reference, and locates the 1/e crossing by linear
    interpolation.  For a clean exponential this reproduces the time
    constant; for other monotone envelopes it is the effective 1/e time.
    Beat modulation can pull the envelope below 1/e long before the decay
    itself does; :attr:`BeatReport.decay_time` is robust to that.
    """
    times, env = analytic_envelope(trace, band=band)
    n = env.size
    width = max(3, n // 20)
    smooth = scipy.ndimage.uniform_filter1d(env, size=width, mode="nearest")
    head = max(3, n // 10)
    i0 = int(np.argmax(smooth[:head]))
    ref = smooth[i0]
    if ref <= 0:
        return math.inf
    target = ref / math.e
    below = np.nonzero(smooth[i0:] < target)[0]
    if below.size == 0:
        return math.inf
    j = below[0] + i0
    if j == i0:
        return 0.0
    t_hi, t_lo = times[j], times[j - 1]
    v_hi, v_lo = smooth[j], smooth[j - 1]
    frac = (v_lo - target) / (v_lo - v_hi)
    t_cross = t_lo + frac * (t_hi - t_lo)
    return float(t_cross - times[i0])


def _envelope_beat_spectrum(trace, band, f_min, f_max):
    """Peaks of the squared, detrended envelope's spectrum; beat lines sit
    at the pairwise differences of the underlying tone frequencies.

    Returns ``(envelope trace, peaks, decay time)``, the decay time being
    -1/rate of the log-linear detrending fit, or inf when it does not fall.
    """
    times, env = analytic_envelope(trace, band=band)
    duration = times[-1] - times[0]
    # detrend a decaying envelope; beats average out of the log-linear fit
    flat = env
    decay_time = math.inf
    positive = env > 1e-3 * env.max()
    if np.count_nonzero(positive) > 2:
        rate = np.polyfit(times[positive], np.log(env[positive]), 1)[0]
        if rate < 0:
            flat = env * np.exp(-rate * (times - times[0]))
            decay_time = float(-1.0 / rate)
    # a single tone has a flat envelope up to spectral-leakage ripple of a
    # few percent; without a depth gate that ripple would read as spurious
    # modulation lines.  A secondary tone at 5% relative amplitude already
    # modulates the envelope by ~20% peak-to-peak, so 10% is a safe floor.
    if flat.mean() <= 0 or np.ptp(flat) < 0.1 * flat.mean():
        return None, [], decay_time
    q = flat**2
    q = q - q.mean()
    sub = SampledTrace(times, q)
    spec = fft_spectrum(sub, window="hann", zero_pad=8)
    sel = (spec.freqs >= f_min) & (spec.freqs <= f_max)
    if not np.any(sel):
        return sub, [], decay_time
    masked = Spectrum(
        spec.freqs, np.where(sel, spec.magnitudes, 0.0), spec.window,
        spec.bin_width,
    )
    raw_bin = 1.0 / duration
    peaks = find_peaks(
        masked, min_height_rel=0.15, min_separation=1.5 * raw_bin
    )
    peaks = [p for p in peaks if f_min <= p.frequency <= f_max]
    return sub, peaks, decay_time


def extract_beats(trace: SampledTrace, mode: str = "single") -> BeatReport:
    """Base frequency and beat structure of a multi-component Rabi trace.

    The base is the strongest interpolated FFT peak.  Beats are measured on
    the squared analytic-signal envelope of the base band, where each pair
    of tones produces one modulation line; a slow beat therefore needs only
    a couple of modulation periods, not FFT line resolution.  For the
    three-tone traces this package produces, the modulation lines satisfy a
    sum closure and the two beats relative to the base component are the
    smallest and largest of the triplet.  A trace too short to hold a beat
    period yields an empty beat list and a diagnostic note; a trace with no
    spectral peak at all (a constant one) raises ValueError.

    ``mode`` selects the exact inversion
    :func:`rabibeat.spinmodel.detuning_from_beat` applied to each beat:
    ``"single"`` for detuned two-level beats, ``"vtype"`` for split
    V-configuration beats.
    """
    if mode not in ("single", "vtype"):
        raise ValueError(f"mode must be 'single' or 'vtype', got {mode!r}")
    _require_uniform(trace)
    notes = []
    spec = fft_spectrum(trace, window="hann", zero_pad=4)
    all_peaks = find_peaks(spec, min_height_rel=0.05, min_separation=0.0)
    if not all_peaks:
        raise ValueError("no spectral peak: the trace does not oscillate")
    base_peak = max(all_peaks, key=lambda p: p.magnitude)
    base = refine_peak_frequency(
        trace.times, trace.values, base_peak.frequency, window="hann"
    )
    duration = trace.duration
    f_min = 1.5 / duration
    f_max = 0.45 * base
    band = (0.7 * base, 1.3 * base)
    sub, env_peaks, decay_time = _envelope_beat_spectrum(trace, band, f_min, f_max)
    refined = [
        refine_peak_frequency(
            sub.times, sub.values, p.frequency, window="hann"
        )
        for p in env_peaks
    ]
    # refinement can slide a marginal peak to the edge of its search
    # window; anything now outside the physical beat band is an artifact
    refined = sorted(f for f in refined if f_min <= f <= f_max)
    deduped = []
    for f in refined:
        if not deduped or f - deduped[-1] > 0.5 / duration:
            deduped.append(f)
    refined = deduped

    # FFT cross-check: spacings of resolved carrier-band peaks from the base
    raw_bin = 1.0 / duration
    fft_beats = sorted(
        p.frequency - base_peak.frequency
        for p in all_peaks
        if band[0] <= p.frequency <= band[1]
        and p.frequency - base_peak.frequency > 0.5 * raw_bin
        and p.frequency - base_peak.frequency <= f_max
    )

    if not refined:
        notes.append(
            "no envelope modulation resolvable within the trace duration"
        )
        beats = list(fft_beats)
        if beats:
            notes.append("beats taken from FFT peak spacings only")
    elif len(refined) >= 3:
        largest = refined[-1]
        inner = refined[:-1]
        closure = min(
            abs(inner[i] + inner[j] - largest)
            for i in range(len(inner))
            for j in range(i, len(inner))
        )
        if closure <= 0.1 * largest:
            beats = [refined[0], largest]
            notes.append(
                "modulation-line sum closure detected; beats relative to "
                "the base are the smallest and largest lines"
            )
        else:
            beats = refined
    else:
        beats = refined

    consistency = []
    for b in beats:
        match = any(abs(b - fb) <= 0.15 * max(b, fb) for fb in fft_beats)
        consistency.append(bool(match))
    detunings = sorted(detuning_from_beat(b, base, mode) for b in beats)
    diag = {
        "notes": notes,
        "fft_peaks": [p.frequency for p in all_peaks],
        "fft_beat_spacings": fft_beats,
        "envelope_beats": refined,
        "fft_consistent": consistency,
    }
    return BeatReport(mode, base, list(beats), detunings, decay_time, diag)


def resolution_estimate(base: float, n_oscillations: float) -> ResolutionEstimate:
    """Frequency resolution after observing ``n_oscillations`` periods.

    Cyclic convention: base / sqrt(n) in MHz.  Angular convention: the same
    times 2*pi, in rad/us.  Both are reported because resolution limits are
    quoted in either convention depending on context.
    """
    if not base > 0:
        raise ValueError(f"base must be positive, got {base}")
    if not n_oscillations > 0:
        raise ValueError(
            f"n_oscillations must be positive, got {n_oscillations}"
        )
    cyc = base / math.sqrt(n_oscillations)
    return ResolutionEstimate(cyc, 2.0 * math.pi * cyc)


def synthesize_esr(
    transitions,
    contrasts,
    linewidth_fwhm: float,
    grid,
) -> Lineshape:
    """Continuous-wave resonance scan with unit-peak Lorentzian dips.

    signal(f) = 1 - sum_i c_i * L(f - f_i), with L a Lorentzian of the given
    full width at half maximum.  Overlapping dips add; the total dip is
    clipped at one so the signal stays non-negative.  Coincident transitions
    with equal contrast c produce a dip of depth 2c.
    """
    f = np.asarray(grid, dtype=float)
    trans = np.asarray(transitions, dtype=float)
    cons = np.asarray(contrasts, dtype=float)
    if trans.ndim != 1 or cons.shape != trans.shape:
        raise ValueError("transitions and contrasts must be 1-d, equal length")
    if np.any((cons <= 0) | (cons > 1)):
        raise ValueError("contrasts must lie in (0, 1]")
    if not linewidth_fwhm > 0:
        raise ValueError(f"linewidth_fwhm must be positive, got {linewidth_fwhm}")
    half = linewidth_fwhm / 2.0
    dips = np.zeros_like(f)
    for f0, c in zip(trans, cons):
        dips += c / (1.0 + ((f - f0) / half) ** 2)
    return Lineshape(f, 1.0 - np.minimum(dips, 1.0))
