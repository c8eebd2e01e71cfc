"""Ground-state spin model of a driven S=1 defect center.

Closed forms used by the trace kernels and the beat analysis: the
generalized Rabi frequency of a detuned two-level drive and the exact
inverse of the beat-shift relation.  The V-configuration population, which
the V kernel expands into lines, is kept as the tests' reference.

Unit conventions, used package-wide:

* frequencies, couplings, splittings: cyclic MHz
* times: microseconds

All trigonometric code converts to angular frequency (factor 2*pi)
internally; public values never carry the 2*pi.  Under this convention the
resonant two-level population signal is sin^2(pi*omega0*t), so the fitted
or FFT-extracted oscillation frequency of a population trace equals the
stated Rabi frequency directly.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["rabi_frequency", "detuning_from_beat"]


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


def detuning_from_beat(beat: float, base: float, mode: str = "single") -> float:
    """Detuning delta whose line hypot(base, k delta) sits ``beat`` above
    ``base``, in MHz: exactly delta = sqrt(beat * (beat + 2 base)) / k,
    with k = 1 for ``"single"`` and k = 2 for ``"vtype"``.
    """
    if beat < 0:
        raise ValueError(f"beat must be non-negative, got {beat}")
    if not base > 0:
        raise ValueError(f"base must be positive, got {base}")
    return math.sqrt(beat * (beat + 2.0 * base)) / _beat_order(mode)


def vtype_population(coupling: float, half_splitting: float, t) -> np.ndarray:
    """Lower-state population of the midpoint-resonant V system.

    Closed form, valid for zero midpoint detuning:

        p0(t) = (d^2 + 2 c^2 cos(2 pi f t))^2 / (2 c^2 + d^2)^2

    with ``c = coupling``, ``d = half_splitting`` and
    ``f = sqrt(2 c^2 + d^2)``, the nonzero eigenfrequency of the V
    Hamiltonian.  Times in microseconds; ``t`` may be
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

