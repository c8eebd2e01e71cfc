"""Ground-state spin model of a driven S=1 defect center.

Closed-form expressions for detuned Rabi oscillations, the beat-shift
relation and its exact inverse, and the rotating-frame Hamiltonian for
simultaneous driving of both upper branches (V configuration).

Unit conventions, used package-wide:

* frequencies, couplings, splittings: cyclic MHz
* times: microseconds

All trigonometric and propagation code converts to angular frequency
(factor 2*pi) internally; public values never carry the 2*pi.  Under this
convention the resonant two-level population signal is sin^2(pi*omega0*t),
so the fitted or FFT-extracted oscillation frequency of a population trace
equals the stated Rabi frequency directly.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DriveParams",
    "rabi_frequency",
    "beat_shift",
    "detuning_from_beat",
    "build_rot_frame_h",
    "vtype_eigenfrequency",
    "vtype_population",
    "require_hermitian",
]

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class DriveParams:
    """Microwave drive applied to the two upper branches.

    Parameters
    ----------
    coupling : float
        Drive matrix element between the lower state and either upper
        branch, in MHz.  Must be positive.  Both branches are assumed to
        couple with equal strength.
    carrier_freq : float
        Microwave carrier frequency in MHz.  Used for rotating-wave
        bookkeeping only; the rotating-frame Hamiltonian depends on the
        offsets, not on the carrier itself.
    detuning : float
        Offset of the carrier from the midpoint of the two upper levels,
        in MHz.
    half_splitting : float
        Half the energy splitting between the two upper levels, in MHz.
        Must be non-negative.
    """

    coupling: float
    carrier_freq: float = 2880.0
    detuning: float = 0.0
    half_splitting: float = 0.0

    def __post_init__(self):
        if not self.coupling > 0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        if not self.carrier_freq > 0:
            raise ValueError(
                f"carrier_freq must be positive, got {self.carrier_freq}"
            )
        if self.half_splitting < 0:
            raise ValueError(
                f"half_splitting must be non-negative, got {self.half_splitting}"
            )
        if self.coupling > 0.1 * self.carrier_freq:
            warnings.warn(
                "coupling exceeds 10% of the carrier frequency; the "
                "rotating-wave approximation is questionable",
                UserWarning,
                stacklevel=2,
            )


def rabi_frequency(omega0, delta):
    """Generalized Rabi frequency sqrt(omega0^2 + delta^2), in MHz.

    ``omega0`` is the resonant Rabi frequency and ``delta`` the drive
    detuning, both cyclic MHz.  Arrays broadcast to an array; scalars give
    a float.
    """
    drive = np.asarray(omega0, dtype=float)
    if not np.all(drive > 0):
        bad = omega0 if drive.ndim == 0 else drive[~(drive > 0)][0]
        raise ValueError(f"omega0 must be positive, got {bad}")
    om = np.hypot(drive, delta)
    return float(om) if om.ndim == 0 else om


def _beat_order(mode: str) -> int:
    """k in the beat relation: 1 for a single-mode line, 2 for a V line."""
    if mode not in ("single", "vtype"):
        raise ValueError(f"mode must be 'single' or 'vtype', got {mode!r}")
    return 1 if mode == "single" else 2


def beat_shift(base: float, delta: float, mode: str = "single") -> float:
    """Shift hypot(base, k*delta) - base of a detuned line, in MHz.

    ``"single"`` (k = 1): ``base`` is the resonant Rabi frequency and
    ``delta`` the drive detuning, so the line is
    ``rabi_frequency(base, delta)``.  ``"vtype"`` (k = 2): ``base`` is the
    unsplit V base frequency 2*sqrt(2)*coupling and ``delta`` the
    half-splitting, so the line is twice ``vtype_eigenfrequency``.  The
    shift is computed as (k delta)^2 / (hypot(base, k delta) + base), which
    does not cancel for small delta.
    """
    k = _beat_order(mode)
    if not base > 0:
        raise ValueError(f"base must be positive, got {base}")
    kd = k * delta
    return kd * kd / (math.hypot(base, kd) + base)


def detuning_from_beat(beat: float, base: float, mode: str = "single") -> float:
    """Exact inverse of :func:`beat_shift`, in MHz.

    delta = sqrt(beat * (beat + 2 base)) / k, with k = 1 for ``"single"``
    and k = 2 for ``"vtype"``.
    """
    if beat < 0:
        raise ValueError(f"beat must be non-negative, got {beat}")
    if not base > 0:
        raise ValueError(f"base must be positive, got {base}")
    return math.sqrt(beat * (beat + 2.0 * base)) / _beat_order(mode)


def build_rot_frame_h(drive: DriveParams) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven three-level V system.

    Basis ordering is (lower state, lower branch, upper branch).  Entries
    are cyclic MHz:

        [[0,        c,          c        ],
         [c,  detuning - h,     0        ],
         [c,        0,    detuning + h   ]]

    with ``c = coupling`` and ``h = half_splitting``.
    """
    lam = drive.coupling
    mid = drive.detuning
    half = drive.half_splitting
    return np.array(
        [
            [0.0, lam, lam],
            [lam, mid - half, 0.0],
            [lam, 0.0, mid + half],
        ],
        dtype=complex,
    )


def vtype_eigenfrequency(coupling: float, half_splitting: float) -> float:
    """Nonzero eigenfrequency sqrt(2*coupling^2 + half_splitting^2), MHz.

    Eigenvalues of the midpoint-resonant V Hamiltonian are {0, +/- this}.
    The population signal oscillates at twice this value.
    """
    if not coupling > 0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    return float(np.hypot(SQRT2 * coupling, half_splitting))


def vtype_population(coupling: float, half_splitting: float, t) -> np.ndarray:
    """Lower-state population of the midpoint-resonant V system.

    Closed form, valid for zero midpoint detuning:

        p0(t) = (d^2 + 2 c^2 cos(2 pi f t))^2 / (2 c^2 + d^2)^2

    with ``c = coupling``, ``d = half_splitting`` and
    ``f = vtype_eigenfrequency(c, d)``.  Times in microseconds; ``t`` may be
    a scalar or array and must be non-negative.

    The dominant spectral line of this signal sits at ``2*f`` and, for
    ``d > 0``, a sub-harmonic line appears at ``f`` itself.  The minimum
    population is ((d^2 - 2c^2) / (d^2 + 2c^2))^2.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    if not coupling > 0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    if half_splitting < 0:
        raise ValueError(
            f"half_splitting must be non-negative, got {half_splitting}"
        )
    two_c2 = 2.0 * coupling**2
    om2 = two_c2 + half_splitting**2
    osc = np.cos(2.0 * np.pi * np.sqrt(om2) * t)
    out = (half_splitting**2 + two_c2 * osc) ** 2 / om2**2
    return out


def require_hermitian(h: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity of a square matrix and return it as complex.

    The largest absolute deviation from the conjugate transpose must not
    exceed ``rtol`` times the largest matrix element magnitude.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(np.abs(h).max(), 1.0)
    dev = np.abs(h - h.conj().T).max()
    if dev > rtol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds "
            f"{rtol:.1e} * {scale:.3e}"
        )
    return h
