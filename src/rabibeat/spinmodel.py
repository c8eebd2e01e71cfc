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

import numpy as np

__all__ = [
    "rabi_frequency",
    "beat_shift",
    "detuning_from_beat",
    "build_rot_frame_h",
    "vtype_eigenfrequency",
    "vtype_population",
    "require_hermitian",
]

SQRT2 = float(np.sqrt(2.0))


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


def build_rot_frame_h(
    coupling: float, half_splitting: float, detuning: float = 0.0
) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven three-level V system.

    ``coupling`` is the drive matrix element between the lower state and
    either upper branch (equal for both, positive), ``half_splitting`` half
    the splitting of the two upper levels (non-negative) and ``detuning``
    the offset of the carrier from their midpoint.  Basis ordering is
    (lower state, lower branch, upper branch).  Entries are cyclic MHz:

        [[0,        c,          c        ],
         [c,  detuning - h,     0        ],
         [c,        0,    detuning + h   ]]

    with ``c = coupling`` and ``h = half_splitting``.
    """
    if not coupling > 0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    if half_splitting < 0:
        raise ValueError(
            f"half_splitting must be non-negative, got {half_splitting}"
        )
    return np.array(
        [
            [0.0, coupling, coupling],
            [coupling, detuning - half_splitting, 0.0],
            [coupling, 0.0, detuning + half_splitting],
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


def require_hermitian(h: np.ndarray) -> np.ndarray:
    """Validate Hermiticity of a square matrix and return it as complex.

    The largest absolute deviation from the conjugate transpose must not
    exceed 1e-12 times the largest matrix element magnitude (at least 1).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(np.abs(h).max(), 1.0)
    dev = np.abs(h - h.conj().T).max()
    if dev > 1e-12 * scale:
        raise ValueError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds "
            f"1.0e-12 * {scale:.3e}"
        )
    return h
