"""Signal analysis: spectra, peak finding, beat extraction, resolution
estimates, and synthetic resonance lineshapes.  Beats are turned into
detunings by the exact inverse in :mod:`rabibeat.spinmodel`.

Beat extraction works in the time domain on the analytic-signal envelope,
because a slow beat is resolvable from a couple of modulation periods even
when the underlying spectral lines are closer than the FFT resolution.  The
envelope of a band is built on a grid whose rate the band's width sets, not
the trace's sampling, so everything after it runs on a short record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evolve import _phasors
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
# refine_peak_frequency's DTFT takes the trace in blocks of _BLOCK samples
_BLOCK = 64
SPECTRUM_HEADER = "# rabibeat-spectrum v1"
SPECTRUM_COLUMNS = "freq_MHz,magnitude"
LINESHAPE_HEADER = "# rabibeat-esr v1"
LINESHAPE_COLUMNS = "freq_MHz,signal"


@dataclass
class Spectrum:
    """Single-sided magnitude spectrum on a uniform frequency grid.

    ``freqs`` run upward from zero in MHz, to the Nyquist frequency for a
    spectrum from :func:`fft_spectrum`, and :attr:`bin_width` is their
    spacing, 1/(n_fft * dt) for an n_fft-point (possibly zero-padded)
    transform.  Magnitudes are normalized so a unit cosine contributes a
    peak magnitude of about one.  ``analyze`` writes only the bins up to
    twice the base frequency to ``spectrum.csv``.
    """

    freqs: np.ndarray
    magnitudes: np.ndarray
    window: str

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        if self.freqs.shape != self.magnitudes.shape:
            raise ValueError("freqs and magnitudes must have equal shape")
        if self.freqs.size < 2:
            raise ValueError(f"a spectrum needs at least two bins, got "
                             f"{self.freqs.size}: its bin width is their spacing")
        if self.freqs[0] != 0.0 or np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must ascend from zero")

    @property
    def bin_width(self) -> float:
        return float(self.freqs[1] - self.freqs[0])

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
    # a _HannRecord was checked when it was built
    if not isinstance(trace, _HannRecord) and not trace.is_uniform():
        raise ValueError("trace is not uniformly sampled")


def _next_fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, the length
    ``scipy.fft.next_fast_len(n, real=True)`` returns."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two >= ceil(n / p35)
            length = p35 << ((n - 1) // p35).bit_length()
            if length < best:
                best = length
            p35 *= 3
        p5 *= 5
    return best


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
        n_fft = _next_fast_len(int(zero_pad) * trace.n)
    mags = np.abs(np.fft.rfft(x * w, n=n_fft)) * (2.0 / w.sum())
    freqs = np.fft.rfftfreq(n_fft, d=trace.dt)
    return Spectrum(freqs, mags, window)


def _parabolic_refine(freqs, mags, i) -> SpectralPeak:
    """Quadratic interpolation of a peak position through three bins."""
    if i <= 0 or i >= len(mags) - 1:
        return SpectralPeak(float(freqs[i]), float(mags[i]))
    a, b, c = mags[i - 1], mags[i], mags[i + 1]
    denom = a - 2.0 * b + c
    if denom == 0:
        return SpectralPeak(float(freqs[i]), float(b))
    shift = 0.5 * (a - c) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    df = freqs[1] - freqs[0]
    return SpectralPeak(float(freqs[i] + shift * df), float(b - 0.25 * (a - c) * shift))


def _peak_indices(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """The indices ``scipy.signal.find_peaks(x, height=height,
    distance=distance)`` returns.

    A peak is a run of equal values whose neighbouring runs are both lower,
    so never a run that touches an end; its index is the run's middle,
    (first + last) // 2.  Peaks lower than ``height`` go, then the rest are
    visited from the highest down in ``np.argsort`` order, which is how
    scipy breaks ties, and each one still kept drops the peaks closer than
    ``distance`` bins.
    """
    first = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    last = np.append(first[1:] - 1, x.size - 1)
    level = x[first]
    peak = np.zeros(first.size, dtype=bool)
    peak[1:-1] = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peak &= level >= height
    idx = (first[peak] + last[peak]) // 2
    if distance > 1:
        lo = np.searchsorted(idx, idx - distance, side="right")
        hi = np.searchsorted(idx, idx + distance, side="left")
        keep = np.ones(idx.size, dtype=bool)
        for j in np.argsort(x[idx])[::-1].tolist():
            if keep[j]:
                keep[lo[j]:j] = False
                keep[j + 1:hi[j]] = False
        idx = idx[keep]
    return idx


def find_peaks(
    spectrum: Spectrum,
    min_height_rel: float = 0.1,
    min_separation: float = 0.0,
) -> list:
    """Local maxima of a spectrum, sorted by frequency.

    ``min_height_rel`` is relative to the largest magnitude.  Peaks closer
    than ``min_separation`` (MHz) are pruned keeping the larger one.
    Positions are refined by parabolic interpolation.
    """
    mags = spectrum.magnitudes
    if mags.size < 3 or mags.max() <= 0:
        return []
    distance = 1
    if min_separation > 0:
        distance = max(1, int(math.ceil(min_separation / spectrum.bin_width)))
    idx = _peak_indices(mags, min_height_rel * mags.max(), distance)
    peaks = [_parabolic_refine(spectrum.freqs, mags, int(i)) for i in idx]
    peaks.sort(key=lambda p: p.frequency)
    return peaks


class _HannRecord(SampledTrace):
    """A uniform trace, checked once by :meth:`of`, whose Hann-windowed DTFT
    blocks are built at its first refinement and shared by every later one."""

    def __post_init__(self):
        pass  # the trace's arrays were validated when it was built

    @classmethod
    def of(cls, trace: SampledTrace) -> "_HannRecord":
        if isinstance(trace, cls):
            return trace
        _require_uniform(trace)
        return cls(trace.times, trace.values, trace.meta)

    @cached_property
    def _blocks(self):
        """``(anchors, offsets, blocks)``: sample j = b * B + m, B =
        ``_BLOCK``, sits at anchors[b] + offsets[m] after the first sample,
        with anchors[b] its block's first time and offsets[m] m mean steps;
        ``blocks[b, m]`` is its mean-removed, Hann-windowed value, zero
        past the record."""
        anchors = self.times[::_BLOCK] - self.times[0]
        blocks = np.zeros(anchors.size * _BLOCK, dtype=complex)
        blocks[: self.n] = (self.values - self.values.mean()) * np.hanning(self.n)
        return anchors, self.dt * np.arange(_BLOCK), blocks.reshape(-1, _BLOCK)

    def neg_power(self, f: float):
        """-g(f) = -|X(f)|^2 and its first two derivatives in f, for the
        DTFT X(f) = sum_j x_j exp(-2 pi i f t_j) of the windowed record,
        with t_j = anchors[b] + offsets[m].

        Three matrix-vector products S_k = blocks @ (offsets**k * p), p the
        in-block phasors, and three dot products with the anchor phasors e
        give X = e . S_0, Y = e . (a S_0 + S_1) and Z = e . (a**2 S_0 +
        2 a S_1 + S_2), so that X' = -2 pi i Y and X'' = -4 pi**2 Z; then
        g' = 2 Re(conj(X) X') and g'' = 2 (|X'|**2 + Re(conj(X) X'')).
        They are not one matrix product, whose tiling, and so its bytes, can
        change with the BLAS thread count.
        """
        anchors, offsets, blocks = self._blocks
        w = -2.0 * np.pi * f
        p = _phasors(w * offsets)
        s0 = blocks @ p
        s1 = blocks @ (offsets * p)
        s2 = blocks @ (offsets * offsets * p)
        e = _phasors(w * anchors)
        y_terms = anchors * s0 + s1
        x = complex(e @ s0)
        y = complex(e @ y_terms)
        z = complex(e @ (anchors * (y_terms + s1) + s2))
        g = x.real * x.real + x.imag * x.imag
        slope = 4.0 * np.pi * (x.conjugate() * y).imag
        curvature = 8.0 * np.pi**2 * (abs(y) ** 2 - (x.conjugate() * z).real)
        return -g, -slope, -curvature


def refine_peak_frequency(trace: SampledTrace, f_guess: float) -> float:
    """Refine a spectral peak position by maximizing the Hann-windowed DTFT
    power g(f) = |X(f)|^2 within one raw resolution bandwidth 1/duration of
    ``f_guess`` (and above zero).

    Grid-free: accuracy is limited by spectral leakage, not bin width.
    The trace must be uniform in the sense of
    :meth:`SampledTrace.is_uniform`.  Newton steps on the closed-form g'
    and g'' (:meth:`_HannRecord.neg_power`) start at ``f_guess`` and run
    in :func:`_newton`, in plain numpy; each evaluation is a pass over the
    record in blocks of ``_BLOCK`` samples, and the iteration typically
    ends after two to five of them.  A maximum beyond the search window
    returns the window's edge.
    """
    record = _HannRecord.of(trace)
    half_width = 1.0 / record.duration
    x, _ = _newton(record.neg_power, f_guess, max(f_guess - half_width, 0.0),
                   f_guess + half_width, 1e-7 * half_width)
    return float(x)


def _newton(fun, x0, lo, hi, xtol):
    """``(x, nfev)``: the minimizer of ``fun`` over [lo, hi] by safeguarded
    Newton steps from ``x0``, and the number of evaluations of ``fun``,
    which returns the value and its first two derivatives.

    The sign of each slope shrinks the bracket [lo, hi] that holds the
    minimum.  A step where the curvature is not positive, or that would
    leave the bracket, becomes a bisection on the slope's sign: to the
    midpoint of the bracket, or to its far end while that has not been
    evaluated, so that a minimum beyond the bounds returns the bound.  A
    Newton step of at most ``xtol`` is the last one, and its point is not
    evaluated.  The search also ends at a zero slope, at a bracket no
    wider than ``xtol``, and after 100 evaluations.
    """
    seen_lo = seen_hi = False  # whether lo, hi are evaluated points
    x = float(x0)
    for nfev in range(1, 101):
        _, slope, curvature = fun(x)
        if slope < 0:
            lo, seen_lo = x, True
        elif slope > 0:
            hi, seen_hi = x, True
        if slope == 0 or hi - lo <= xtol:
            break
        step = -slope / curvature if curvature > 0 else math.nan
        if abs(step) <= xtol:
            x += step
            break
        if lo < x + step < hi:
            x += step
        elif slope < 0:
            x = 0.5 * (lo + hi) if seen_hi else hi
        else:
            x = 0.5 * (lo + hi) if seen_lo else lo
    return x, nfev


def dominant_frequency(trace: SampledTrace) -> float:
    """Frequency in MHz of a trace's strongest spectral line.

    The strongest bin of a Hann-windowed, 4x zero-padded spectrum seeds a
    grid-free :func:`refine_peak_frequency`, which windows the same way.
    Bins up to 2/duration, the half-width of the Hann main lobe, are skipped:
    when the trace decays within a small part of the record the window
    nearly hides the oscillation, and the lobe of the leftover mean there
    can be the larger.  A trace with no line above the rounding of its
    values (a constant one) raises ValueError.
    """
    trace = _HannRecord.of(trace)
    spectrum = fft_spectrum(trace, window="hann", zero_pad=4)
    above = spectrum.freqs > 2.0 / trace.duration
    freqs, mags = spectrum.freqs[above], spectrum.magnitudes[above]
    i = int(np.argmax(mags))
    # a constant trace leaves only the rounding of its mean, which the
    # window's side lobes spread far below 1e-14 of its values
    if mags[i] <= 1e-14 * np.abs(trace.values).max():
        raise ValueError("no spectral peak: the trace does not oscillate")
    return refine_peak_frequency(trace, freqs[i])


# |z|^2 holds the differences of the kept bins, up to +/-(k_b - k_a) bins,
# i.e. +/-(f_hi - f_lo); four grid points per kept bin put the grid's
# Nyquist at twice that, so |z|^2 does not alias, and the beat search
# reads only lines <= 0.45 x base, inside the 0.6 x base of the base band
_ENVELOPE_OVERSAMPLE = 4


def analytic_envelope(trace: SampledTrace, band: tuple | None = None):
    """Magnitude of the analytic signal, optionally band-limited, on a grid
    whose rate the band sets.

    ``band = (f_lo, f_hi)`` keeps only the positive-frequency bins strictly
    inside it, under cosine-tapered edges, which isolates one oscillation
    cluster (e.g. the base band of a V-configuration trace, excluding its
    sub-harmonic); it needs 0 <= f_lo < f_hi and a bin below Nyquist inside,
    else ValueError.  The kept bins k_a..k_b are shifted down by their
    centre bin and inverse-transformed on m points over the record's
    period, m a 5-smooth length of at least four per kept bin and at most
    the trace's n: the same periodic band-limited signal, at times
    t_0 + i n dt / m, with a coarser step than the trace's when the band is
    narrow.  The shift does not change the magnitude.  ``band=None`` keeps
    every positive bin below Nyquist, on the trace's own step.  Edges are
    trimmed by 1.5 carrier periods to suppress end artifacts of the
    analytic-signal construction.

    Returns ``(times, envelope)``, up to the trace's last time.
    """
    _require_uniform(trace)
    n = trace.n
    spec = np.fft.rfft(trace.values - trace.values.mean())
    # DC and the positive bins below Nyquist
    freqs = np.fft.rfftfreq(n, d=trace.dt)[: (n + 1) // 2]
    if band is None:
        lo, hi = 0.0, math.inf
    else:
        lo, hi = band
        if not 0 <= lo < hi:
            raise ValueError(f"band {band} needs 0 <= f_lo < f_hi")
    kept = np.flatnonzero((freqs > lo) & (freqs < hi))
    if kept.size == 0:
        raise ValueError(
            f"band {band} holds no frequency bin below the Nyquist "
            f"frequency {0.5 / trace.dt:.6g} MHz"
        )
    k_a, k_b = int(kept[0]), int(kept[-1])
    weights = np.full(kept.size, 2.0)
    if band is not None:
        # cosine-tapered band edges; a hard cut rings at |edge - carrier|
        # and the ripple would read as spurious envelope modulation
        f = freqs[k_a:k_b + 1]
        width = 0.1 * (hi - lo)
        taper = np.clip((f - lo) / width, 0.0, 1.0) * np.clip(
            (hi - f) / width, 0.0, 1.0
        )
        weights *= np.sin(0.5 * np.pi * taper) ** 2
    m = min(n, _next_fast_len(_ENVELOPE_OVERSAMPLE * kept.size))
    k0 = (k_a + k_b) // 2 if m < n else 0
    shifted = np.zeros(m, dtype=complex)
    # bins below k0 land at the top of the m-point transform
    shifted[kept - k0] = spec[k_a:k_b + 1] * weights
    env = np.abs(np.fft.ifft(shifted)) * (m / n)
    if band is not None:
        f_ref = 0.5 * (lo + hi)
    else:
        f_ref = float(freqs[k_a + np.argmax(np.abs(spec[k_a:k_b + 1]))])
    # grid points up to the last sample; the rest of the period wraps around
    last = (n - 1) * m // n
    step = trace.dt * (n / m)
    trim = min(int(math.ceil(1.5 / (f_ref * step))), max((last - 15) // 2, 0))
    i = np.arange(trim, last + 1 - trim)
    return trace.times[0] + i * step, env[i]


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Mean of the ``width`` samples around each sample of ``x``, with the
    ends held at their values: ``scipy.ndimage.uniform_filter1d(x, width,
    mode="nearest")``, as a difference of cumulative sums."""
    padded = np.concatenate((np.full(width // 2, x[0]), x,
                             np.full(width - 1 - width // 2, x[-1])))
    sums = np.concatenate(([0.0], np.cumsum(padded)))
    return (sums[width:] - sums[:-width]) / width


def fit_decay_time(trace: SampledTrace) -> float:
    """Envelope 1/e time in microseconds, or inf when the envelope never
    falls that far.

    Smooths the analytic-signal envelope with a moving average, takes its
    early-time maximum as reference, and locates the 1/e crossing by linear
    interpolation.  For a clean exponential this reproduces the time
    constant; for other monotone envelopes it is the effective 1/e time.
    Beat modulation can pull the envelope below 1/e long before the decay
    itself does; :attr:`BeatReport.decay_time` is robust to that.
    """
    times, env = analytic_envelope(trace)
    n = env.size
    smooth = _moving_average(env, max(3, n // 20))
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


def extract_beats(trace: SampledTrace, mode: str = "single") -> BeatReport:
    """Base frequency and beat structure of a multi-component Rabi trace.

    The base is :func:`dominant_frequency`.  Beats are measured on the
    squared analytic-signal envelope of the base band, where each pair of
    tones produces one modulation line; a slow beat therefore needs only a
    couple of modulation periods, not FFT line resolution.  For the
    three-tone traces this package produces, the modulation lines satisfy a
    sum closure and the two beats relative to the base component are the
    smallest and largest of the triplet.  A trace too short to hold a beat
    period yields an empty beat list and a diagnostic note; a trace with no
    spectral peak at all (a constant one) raises ValueError.

    ``diagnostics`` holds ``notes``, the refined ``envelope_beats``,
    ``unexplained_lines``: the envelope lines farther than 1/duration from
    every pairwise difference of zero and the beats, and
    ``analysis_band_MHz``: the base band the envelope keeps (``lines``)
    and the band the beats are searched in (``beats``).  A tone set the
    beats account for explains every line, so any entry in
    ``unexplained_lines`` means a tone the beats miss, and a note names
    them.

    ``mode`` selects the exact inversion
    :func:`rabibeat.spinmodel.detuning_from_beat` applied to each beat:
    ``"single"`` for detuned two-level beats, ``"vtype"`` for split
    V-configuration beats.
    """
    if mode not in ("single", "vtype"):
        raise ValueError(f"mode must be 'single' or 'vtype', got {mode!r}")
    trace = _HannRecord.of(trace)
    base = dominant_frequency(trace)
    duration = trace.duration
    f_min = 1.5 / duration
    f_max = 0.45 * base
    notes = []

    # squared envelope of the base band; beat lines sit at the pairwise
    # differences of the underlying tone frequencies
    band = (0.7 * base, 1.3 * base)
    times, env = analytic_envelope(trace, band=band)
    # detrend a decaying envelope; beats average out of the log-linear fit
    flat = env
    decay_time = math.inf
    positive = env > 1e-3 * env.max()
    if np.count_nonzero(positive) > 2:
        rate = np.polyfit(times[positive], np.log(env[positive]), 1)[0]
        if rate < 0:
            flat = env * np.exp(-rate * (times - times[0]))
            decay_time = float(-1.0 / rate)
    refined = []
    # a single tone has a flat envelope up to spectral-leakage ripple of a
    # few percent; without a depth gate that ripple would read as spurious
    # modulation lines.  A secondary tone at 5% relative amplitude already
    # modulates the envelope by ~20% peak-to-peak, so 10% is a safe floor.
    if flat.mean() > 0 and np.ptp(flat) >= 0.1 * flat.mean():
        q = flat**2
        # one record, so the beat refinements share its DTFT blocks
        sub = _HannRecord.of(SampledTrace(times, q - q.mean()))
        spec = fft_spectrum(sub, window="hann", zero_pad=8)
        sel = (spec.freqs >= f_min) & (spec.freqs <= f_max)
        masked = Spectrum(
            spec.freqs, np.where(sel, spec.magnitudes, 0.0), spec.window
        )
        peaks = find_peaks(
            masked, min_height_rel=0.15, min_separation=1.5 / sub.duration
        )
        refined = [
            refine_peak_frequency(sub, p.frequency)
            for p in peaks
            if f_min <= p.frequency <= f_max
        ]
    # refinement can slide a marginal peak to the edge of its search
    # window; anything now outside the physical beat band is an artifact
    refined = sorted(f for f in refined if f_min <= f <= f_max)
    deduped = []
    for f in refined:
        if not deduped or f - deduped[-1] > 0.5 / duration:
            deduped.append(f)
    refined = deduped

    beats = refined
    if not refined:
        notes.append(
            "no envelope modulation resolvable within the trace duration"
        )
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

    # each pair of tones makes one envelope line; lines f >= 1.5/duration
    # never match the zero differences of a tone with itself
    tones = np.array([0.0] + beats)
    differences = np.abs(np.subtract.outer(tones, tones)).ravel()
    unexplained = [
        f for f in refined if np.min(np.abs(differences - f)) > 1.0 / duration
    ]
    if unexplained:
        lines = ", ".join(f"{f:.4g}" for f in unexplained)
        notes.append(
            f"envelope lines at {lines} MHz are no pairwise difference of 0 "
            "and the beats; the beats miss a tone"
        )
    detunings = sorted(detuning_from_beat(b, base, mode) for b in beats)
    diag = {
        "notes": notes,
        "envelope_beats": refined,
        "unexplained_lines": unexplained,
        "analysis_band_MHz": {"lines": list(band), "beats": [f_min, f_max]},
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
