"""Reference physics that the package is checked against, kept on the
test side so that no test compares the package with itself.

Exact propagation under a time-independent rotating-frame Hamiltonian, the
two Hamiltonians the paper's traces come from, and the closed forms that
the tests compare the pipeline's kernels and inversions with.  Units follow
the package: cyclic MHz and microseconds, with the 2*pi inside the
propagator.  These helpers do not validate their arguments.
"""
import math

import numpy as np


def propagate(h, initial_state, grid) -> np.ndarray:
    """Populations of every level under exp(-i 2 pi H t), shape
    (grid.n_points, dim), from the spectral decomposition of ``h``."""
    psi = np.asarray(initial_state, dtype=complex).ravel()
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi
    phases = np.exp(-2j * np.pi * np.outer(grid.times, evals))
    amplitudes = (phases * coeff) @ evecs.T
    return np.abs(amplitudes) ** 2


def two_level_hamiltonian(omega0: float, delta: float) -> np.ndarray:
    """[[0, omega0/2], [omega0/2, delta]]: level 0 is the driven lower
    state, ``delta`` the drive detuning from the transition."""
    return np.array(
        [[0.0, omega0 / 2.0], [omega0 / 2.0, delta]], dtype=complex
    )


def build_rot_frame_h(
    coupling: float, half_splitting: float, detuning: float = 0.0
) -> np.ndarray:
    """Driven three-level V system in the basis (lower state, lower
    branch, upper branch):

        [[0,        c,          c        ],
         [c,  detuning - h,     0        ],
         [c,        0,    detuning + h   ]]

    with ``c = coupling`` and ``h = half_splitting``; ``detuning`` is the
    offset of the carrier from the midpoint of the two upper levels.
    """
    return np.array(
        [
            [0.0, coupling, coupling],
            [coupling, detuning - half_splitting, 0.0],
            [coupling, 0.0, detuning + half_splitting],
        ],
        dtype=complex,
    )


def vtype_eigenfrequency(coupling: float, half_splitting: float) -> float:
    """sqrt(2 coupling^2 + half_splitting^2): the midpoint-resonant V
    Hamiltonian has eigenvalues {0, +/- this}, and its population signal
    oscillates at twice this value."""
    return float(np.hypot(math.sqrt(2.0) * coupling, half_splitting))


def drift_relation(rel_power_change) -> np.ndarray:
    """First-order fractional period change -x/2 for a relative power
    change x; the period scales as 1/sqrt(power)."""
    return -0.5 * np.asarray(rel_power_change, dtype=float)


def beat_shift(base: float, delta: float, mode: str = "single") -> float:
    """Shift hypot(base, k delta) - base of a detuned line, k = 1 for
    ``"single"`` and 2 for ``"vtype"``, computed as
    (k delta)^2 / (hypot(base, k delta) + base), which does not cancel for
    small delta.  ``detuning_from_beat`` is its exact inverse."""
    kd = {"single": 1, "vtype": 2}[mode] * delta
    return kd * kd / (math.hypot(base, kd) + base)


def band_limited_analytic_signal(trace, band, times) -> np.ndarray:
    """z(t) = (1/n) sum_k 2 X[k] taper(f_k) exp(2 pi i k (t - t_0) / (n dt))
    over the bins 0 < k < n/2 with f_lo < f_k < f_hi, by direct sums: X[k]
    is the DFT of the mean-removed trace and ``taper`` the sin^2 ramp over a
    tenth of the band at each edge.  ``band=None`` keeps every such bin at
    weight 2."""
    n, dt = trace.n, trace.dt
    x = trace.values - trace.values.mean()
    k = np.arange(1, (n + 1) // 2)
    f = k / (n * dt)
    weights = np.full(k.size, 2.0)
    if band is not None:
        lo, hi = band
        width = 0.1 * (hi - lo)
        ramp = np.clip((f - lo) / width, 0, 1) * np.clip((hi - f) / width, 0, 1)
        weights *= np.sin(0.5 * np.pi * ramp) ** 2
        inside = (f > lo) & (f < hi)
        k, weights = k[inside], weights[inside]
    coeff = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n) @ x
    phases = np.exp(2j * np.pi * np.outer(times - trace.times[0], k) / (n * dt))
    return phases @ (weights * coeff) / n


def full_fft_envelope(trace):
    """The envelope as one n-point complex FFT builds it: the positive bins
    doubled, the rest zeroed, inverted at the trace's own times, then
    1.5 periods of the strongest line trimmed from each end, leaving at
    least 16 samples.  Returns ``(times, envelope)``."""
    n = trace.n
    spec = np.fft.fft(trace.values - trace.values.mean())
    freqs = np.fft.fftfreq(n, d=trace.dt)
    env = np.abs(np.fft.ifft(np.where(freqs > 0, 2.0 * spec, 0.0)))
    pos = freqs > 0
    f_ref = freqs[pos][np.argmax(np.abs(spec[pos]))]
    trim = min(math.ceil(1.5 / (f_ref * trace.dt)), max((n - 16) // 2, 0))
    return trace.times[trim:n - trim], env[trim:n - trim]
