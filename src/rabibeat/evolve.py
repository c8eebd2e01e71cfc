"""Time evolution: exact propagation, manifold-averaged Rabi traces,
decay envelopes, and slow drive-power drift.

Propagation uses the spectral decomposition of the (time-independent)
rotating-frame Hamiltonian, so there is no step-size error; unitarity holds
to rounding.  Decoherence enters only as a phenomenological envelope that
multiplies the oscillating part of a signal about its mean, and hyperfine
structure enters as an incoherent average over fixed-detuning manifolds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinmodel import rabi_frequency, require_hermitian, vtype_population
from .traces import SampledTrace

__all__ = [
    "TimeGrid",
    "DecayModel",
    "ManifoldSpec",
    "DriftModel",
    "propagate",
    "two_level_hamiltonian",
    "two_level_population",
    "rabi_trace_incoherent",
    "rabi_trace_vtype",
    "apply_power_drift",
    "drift_relation",
]

AMPLITUDE_MODES = ("exact", "equal_cosine")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sample grid: ``n_points`` times from ``t_start`` to ``t_end``
    inclusive, microseconds."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.n_points < 2:
            raise ValueError(f"n_points must be at least 2, got {self.n_points}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)


def _grid_times(grid) -> np.ndarray:
    """Accept a TimeGrid or an explicit sample-time array."""
    if isinstance(grid, TimeGrid):
        return grid.times
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("explicit time grids need at least two samples")
    if not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be strictly increasing")
    return times


# The trace kernel splits the grid into blocks of _BLOCK samples and feeds
# its oscillators to the matrix product _CHUNK at a time, so the size of its
# scratch matrices depends on the grid length, not on the number of sweeps.
_BLOCK = 64
_CHUNK = 256


def _even_times(grid) -> tuple:
    """Sample times of an evenly spaced grid, and their spacing."""
    times = _grid_times(grid)
    step = (times[-1] - times[0]) / (times.size - 1)
    even = times[0] + step * np.arange(times.size)
    if np.max(np.abs(times - even)) > 8 * np.spacing(np.max(np.abs(times))):
        raise ValueError("time grid must be evenly spaced")
    return times, step


def _cosine_sum(freqs, coeffs, times, step) -> np.ndarray:
    """sum_k coeffs[k] * cos(2 pi freqs[k] t) over an evenly spaced grid.

    Sample j = b * _BLOCK + m lies m steps after its block anchor
    times[b * _BLOCK], so exp(i 2 pi f t) is an anchor phasor times an
    in-block phasor, and the sum over k is the complex product
    (anchor phasors * coeffs) @ (in-block phasors) of shape
    (blocks x K) @ (K x _BLOCK).  Chunks of oscillators are added in a
    fixed order; tests/test_cli.py checks that the bytes do not depend on
    the BLAS thread count.
    """
    anchors = times[::_BLOCK]
    offsets = step * np.arange(_BLOCK)
    total = np.zeros((anchors.size, _BLOCK), dtype=complex)
    for start in range(0, freqs.size, _CHUNK):
        w = 2.0 * np.pi * freqs[start:start + _CHUNK]
        total += (_phasors(np.outer(anchors, w)) * coeffs[start:start + _CHUNK]
                  ) @ _phasors(np.outer(w, offsets))
    return total.real.ravel()[: times.size]


def _phasors(phase: np.ndarray) -> np.ndarray:
    """exp(i phase), built from cos and sin, which is faster than np.exp."""
    out = np.empty(phase.shape, dtype=complex)
    out.real = np.cos(phase)
    out.imag = np.sin(phase)
    return out


@dataclass(frozen=True)
class DecayModel:
    """Envelope applied to the oscillating part of a trace.

    ``kind`` is ``"none"`` or ``"exponential"``; the exponential form is
    exp(-t / t1_rho) with ``t1_rho`` in microseconds.
    """

    kind: str = "none"
    t1_rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("none", "exponential"):
            raise ValueError(f"unknown decay kind {self.kind!r}")
        if self.kind == "exponential":
            if self.t1_rho is None or not self.t1_rho > 0:
                raise ValueError(
                    f"exponential decay needs t1_rho > 0, got {self.t1_rho}"
                )

    def envelope(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if self.kind == "none":
            return np.ones_like(times)
        return np.exp(-times / self.t1_rho)


@dataclass(frozen=True)
class ManifoldSpec:
    """Incoherent mixture of drive detunings with statistical weights.

    ``detunings`` are cyclic MHz.  Weights must be non-negative and sum to
    one; omit them for an equal-weight mixture.
    """

    detunings: tuple
    weights: tuple | None = None

    def __post_init__(self):
        det = tuple(float(d) for d in self.detunings)
        if len(det) == 0:
            raise ValueError("at least one manifold is required")
        object.__setattr__(self, "detunings", det)
        if self.weights is None:
            object.__setattr__(
                self, "weights", tuple([1.0 / len(det)] * len(det))
            )
        else:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(det):
                raise ValueError(
                    f"{len(det)} detunings but {len(w)} weights"
                )
            if any(x < 0 for x in w):
                raise ValueError("weights must be non-negative")
            if abs(sum(w) - 1.0) > 1e-9:
                raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
            object.__setattr__(self, "weights", w)

    @classmethod
    def single(cls, detuning: float = 0.0) -> "ManifoldSpec":
        return cls((detuning,))

    def __iter__(self):
        return iter(zip(self.detunings, self.weights))


@dataclass(frozen=True)
class DriftModel:
    """Relative drive power P/P0 over the course of an acquisition.

    kinds:
      constant  P/P0 = 1 for every sweep
      linear    P/P0 ramps from 1 to 1 + total_relative_change
      gaussian  P/P0 = 1 + sigma_relative * xi, xi ~ N(0, 1) per sweep
    """

    kind: str = "constant"
    total_relative_change: float = 0.0
    sigma_relative: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "gaussian"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "linear" and self.total_relative_change <= -1.0:
            raise ValueError("linear drift would drive the power non-positive")
        if self.kind == "gaussian" and self.sigma_relative < 0:
            raise ValueError("sigma_relative must be non-negative")

    def power_factors(self, n_sweeps: int, rng=None) -> np.ndarray:
        if n_sweeps < 1:
            raise ValueError(f"n_sweeps must be positive, got {n_sweeps}")
        if self.kind == "constant":
            return np.ones(n_sweeps)
        if self.kind == "linear":
            ramp = np.linspace(0.0, 1.0, n_sweeps)
            return 1.0 + self.total_relative_change * ramp
        if rng is None:
            raise ValueError("gaussian drift requires a seeded rng")
        factors = 1.0 + self.sigma_relative * rng.standard_normal(n_sweeps)
        if np.any(factors <= 0):
            raise ValueError(
                "drawn power factors are not all positive; "
                "sigma_relative is too large for this model"
            )
        return factors


def propagate(h: np.ndarray, initial_state, grid) -> np.ndarray:
    """Populations of every level under exp(-i 2 pi H t).

    ``h`` must be Hermitian (checked to 1e-12 relative) with entries in
    cyclic MHz; ``initial_state`` a normalized complex vector; ``grid`` a
    TimeGrid or array of times in microseconds.  Returns an array of shape
    (n_times, dim) whose rows sum to one to rounding accuracy.
    """
    h = require_hermitian(h)
    psi = np.asarray(initial_state, dtype=complex).ravel()
    if psi.size != h.shape[0]:
        raise ValueError(
            f"state dimension {psi.size} does not match matrix {h.shape[0]}"
        )
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state is not normalized: |psi| = {norm!r}")
    times = _grid_times(grid)
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi
    phases = np.exp(-2j * np.pi * np.outer(times, evals))
    amplitudes = (phases * coeff) @ evecs.T
    return np.abs(amplitudes) ** 2


def two_level_hamiltonian(omega0: float, delta: float) -> np.ndarray:
    """Rotating-frame two-level Hamiltonian [[0, omega0/2], [omega0/2, delta]].

    Level 0 is the driven lower state; ``delta`` is the drive detuning from
    the transition, cyclic MHz.  Its propagated excited-state population is
    the detuned Rabi formula implemented by :func:`two_level_population`.
    """
    if not omega0 > 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    return np.array(
        [[0.0, omega0 / 2.0], [omega0 / 2.0, delta]], dtype=complex
    )


def two_level_population(omega0: float, delta: float, t) -> np.ndarray:
    """Excited-state population (omega0^2/omega^2) sin^2(pi omega t).

    ``omega = rabi_frequency(omega0, delta)``.  Times in microseconds.
    """
    t = np.asarray(t, dtype=float)
    om = rabi_frequency(omega0, delta)
    amp = (omega0 / om) ** 2
    return amp * np.sin(np.pi * om * t) ** 2


def _check_amplitude_mode(mode: str):
    if mode not in AMPLITUDE_MODES:
        raise ValueError(
            f"amplitude_mode must be one of {AMPLITUDE_MODES}, got {mode!r}"
        )


def _incoherent_meta(omega0, manifolds, decay, amplitude_mode) -> dict:
    return {
        "units": {"time": "us", "frequency": "MHz"},
        "drive": {
            "kind": "rabi-single",
            "omega0_MHz": omega0,
            "detunings_MHz": list(manifolds.detunings),
            "weights": list(manifolds.weights),
            "amplitude_mode": amplitude_mode,
        },
        "decay": {"kind": decay.kind, "t1_rho_us": decay.t1_rho},
    }


def rabi_trace_incoherent(
    omega0,
    manifolds: ManifoldSpec,
    grid,
    decay: DecayModel = DecayModel(),
    amplitude_mode: str = "exact",
) -> SampledTrace:
    """Weighted incoherent sum of detuned Rabi signals.

    Each manifold contributes its two-level population at detuning d.  In
    ``"exact"`` mode the physical amplitude factor omega0^2/omega^2 is kept;
    ``"equal_cosine"`` substitutes unit-amplitude cosines at the same
    frequencies, which is the conventional fitting model for beat traces.
    The decay envelope multiplies the summed oscillation about its mean, so
    the trace mean is unaffected by decay.

    ``omega0`` is one drive or a 1-D array of drives, one per sweep; the
    trace is then the mean over the sweeps.  Equal drives are merged first,
    so repeating one drive returns its single-drive trace exactly.  ``grid``
    must be evenly spaced.
    """
    _check_amplitude_mode(amplitude_mode)
    if np.ndim(omega0) > 1 or np.size(omega0) == 0:
        raise ValueError("omega0 must be a scalar or a non-empty 1-D array")
    times, step = _even_times(grid)
    drives, counts = np.unique(np.asarray(omega0, dtype=float), return_counts=True)
    drives = drives[:, None]
    om = rabi_frequency(drives, np.asarray(manifolds.detunings))
    amp = (drives / om) ** 2 if amplitude_mode == "exact" else 1.0
    coeffs = (counts / counts.sum())[:, None] * np.asarray(manifolds.weights)
    coeffs = (coeffs * amp / 2.0).ravel()
    osc = _cosine_sum(om.ravel(), coeffs, times, step)
    values = coeffs.sum() - osc * decay.envelope(times)
    return SampledTrace(
        times, values, _incoherent_meta(omega0, manifolds, decay, amplitude_mode)
    )


def rabi_trace_vtype(
    coupling: float,
    manifolds: ManifoldSpec,
    grid,
    decay: DecayModel = DecayModel(),
) -> SampledTrace:
    """Weighted incoherent sum of V-configuration population signals.

    Manifold detunings are interpreted as upper-level half-splittings; the
    drive sits at each manifold midpoint.  Every component oscillates at
    twice its eigenfrequency, with a sub-harmonic line at the
    eigenfrequency itself whenever the half-splitting is nonzero.
    """
    if not coupling > 0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    times = _grid_times(grid)
    env = decay.envelope(times)
    total = np.zeros_like(times)
    for half, weight in manifolds:
        if half < 0:
            raise ValueError(f"half-splittings must be non-negative, got {half}")
        om2 = 2.0 * coupling**2 + half**2
        dc = (half**4 + 2.0 * coupling**4) / om2**2
        osc = vtype_population(coupling, half, times) - dc
        total += weight * (dc + osc * env)
    meta = {
        "units": {"time": "us", "frequency": "MHz"},
        "drive": {
            "kind": "rabi-vtype",
            "coupling_MHz": coupling,
            "half_splittings_MHz": list(manifolds.detunings),
            "weights": list(manifolds.weights),
        },
        "decay": {"kind": decay.kind, "t1_rho_us": decay.t1_rho},
    }
    return SampledTrace(times, total, meta)


def apply_power_drift(
    omega0: float,
    manifolds: ManifoldSpec,
    grid,
    drift: DriftModel,
    n_sweeps: int,
    decay: DecayModel = DecayModel(),
    amplitude_mode: str = "exact",
    seed: int | None = None,
) -> SampledTrace:
    """Average of ``n_sweeps`` Rabi traces whose drive power drifts.

    Each sweep k sees a power factor p_k from the drift model and therefore
    a scaled Rabi frequency omega0 * sqrt(p_k).  All sweeps go to one
    :func:`rabi_trace_incoherent` call, which sums them in a fixed order, so
    the result is independent of any execution parallelism.  With constant
    drift the output equals the undrifted trace exactly.
    ``seed`` is required for gaussian drift.
    """
    rng = None
    if drift.kind == "gaussian" and drift.sigma_relative > 0:
        if seed is None:
            raise ValueError("gaussian drift requires an explicit seed")
        rng = np.random.default_rng(seed)
    factors = drift.power_factors(n_sweeps, rng)
    trace = rabi_trace_incoherent(
        omega0 * np.sqrt(factors), manifolds, grid, decay, amplitude_mode
    )
    trace.meta = _incoherent_meta(omega0, manifolds, decay, amplitude_mode)
    trace.meta["drive"]["power_drift"] = {
        "kind": drift.kind,
        "total_relative_change": drift.total_relative_change,
        "sigma_relative": drift.sigma_relative,
        "n_sweeps": n_sweeps,
        "seed": seed,
    }
    return trace


def drift_relation(rel_power_change) -> np.ndarray:
    """First-order fractional period change -x/2 for a relative power
    change x.  The period scales as 1/sqrt(power)."""
    x = np.asarray(rel_power_change, dtype=float)
    if np.any(np.abs(x) >= 1):
        raise ValueError("relative power change must satisfy |x| < 1")
    return -0.5 * x
