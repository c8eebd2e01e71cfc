"""Ground-state spin model of a driven S=1 defect center.

Closed-form expressions for detuned Rabi oscillations, beat shifts, and the
rotating-frame Hamiltonian for simultaneous driving of both upper branches
(V configuration).

Unit conventions, used package-wide:

* frequencies, couplings, splittings: cyclic MHz
* times: microseconds
* magnetic field: Gauss

All trigonometric and propagation code converts to angular frequency
(factor 2*pi) internally; public values never carry the 2*pi.  Under this
convention the resonant two-level population signal is sin^2(pi*omega0*t),
so the fitted or FFT-extracted oscillation frequency of a population trace
equals the stated Rabi frequency directly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "NVParams",
    "DriveParams",
    "TransitionPair",
    "transition_frequencies",
    "hyperfine_detunings",
    "vtype_half_splittings",
    "rabi_frequency",
    "beat_shift_two_level",
    "beat_shift_vtype",
    "build_rot_frame_h",
    "vtype_eigenfrequency",
    "vtype_population",
    "require_hermitian",
]

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class NVParams:
    """Static spin Hamiltonian constants of a single defect center.

    Parameters
    ----------
    d_zfs : float
        Axial zero-field splitting in MHz.  Must be positive.
    e_strain : float
        Transverse strain splitting in MHz.  Must be non-negative.  Values
        above one percent of ``d_zfs`` degrade the equal-coupling assumption
        used by the V-configuration drive model and trigger a warning.
    gamma_e : float
        Electronic gyromagnetic ratio in MHz per Gauss.  Must be positive.
    b_axial : float
        DC magnetic field component along the defect axis, in Gauss.
    a_hf : float
        Hyperfine splitting between adjacent nuclear sublevels in MHz.
        Must be non-negative.
    """

    d_zfs: float = 2880.0
    e_strain: float = 0.0
    gamma_e: float = 2.8
    b_axial: float = 0.0
    a_hf: float = 2.18

    def __post_init__(self):
        if not self.d_zfs > 0:
            raise ValueError(f"d_zfs must be positive, got {self.d_zfs}")
        if self.e_strain < 0:
            raise ValueError(f"e_strain must be non-negative, got {self.e_strain}")
        if not self.gamma_e > 0:
            raise ValueError(f"gamma_e must be positive, got {self.gamma_e}")
        if self.a_hf < 0:
            raise ValueError(f"a_hf must be non-negative, got {self.a_hf}")
        if self.e_strain > 0.01 * self.d_zfs:
            warnings.warn(
                "e_strain exceeds 1% of d_zfs; the equal-coupling V-drive "
                "model becomes unreliable in this regime",
                UserWarning,
                stacklevel=2,
            )


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


class TransitionPair(NamedTuple):
    f_minus: float
    f_plus: float


def _spin1_matrices():
    """Spin-1 operators in the (m=+1, 0, -1) basis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx, sy, sz


def transition_frequencies(params: NVParams) -> TransitionPair:
    """Frequencies of the two allowed ground-state transitions.

    With zero strain the pair is ``d_zfs -/+ gamma_e * b_axial`` in closed
    form.  With strain the static Hamiltonian

        d_zfs * (Sz^2 - 2/3) + e_strain * (Sx^2 - Sy^2) + gamma_e*b_axial * Sz

    is diagonalized and the two transition frequencies are taken from the
    lowest eigenstate to the upper two.

    Returns
    -------
    TransitionPair
        ``(f_minus, f_plus)`` with ``f_minus <= f_plus``, in MHz.
    """
    zeeman = params.gamma_e * params.b_axial
    if params.e_strain == 0.0:
        lo, hi = sorted((params.d_zfs - zeeman, params.d_zfs + zeeman))
        return TransitionPair(lo, hi)
    sx, sy, sz = _spin1_matrices()
    ident = np.eye(3, dtype=complex)
    h = (
        params.d_zfs * (sz @ sz - (2.0 / 3.0) * ident)
        + params.e_strain * (sx @ sx - sy @ sy)
        + zeeman * sz
    )
    evals = np.linalg.eigvalsh(h)
    return TransitionPair(float(evals[1] - evals[0]), float(evals[2] - evals[0]))


def hyperfine_detunings(a_hf: float) -> np.ndarray:
    """Drive detunings of the three nuclear manifolds, in MHz.

    The carrier is taken resonant with the lowest hyperfine line, so the
    three manifolds sit at detunings {0, a_hf, 2*a_hf}.

    The same ladder gives the upper-level half-splittings of the V
    configuration (:data:`vtype_half_splittings`).  That reading is valid
    when the axial Zeeman shift matches the hyperfine splitting so the two
    transition triplets overlap at a common center line; driving that
    center line, the manifolds form V systems with half-splittings
    {0, a_hf, 2*a_hf}.
    """
    if a_hf < 0:
        raise ValueError(f"a_hf must be non-negative, got {a_hf}")
    return np.array([0.0, a_hf, 2.0 * a_hf])


vtype_half_splittings = hyperfine_detunings


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


def beat_shift_two_level(omega0: float, delta: float) -> float:
    """Leading-order shift delta^2 / (2*omega0) of a detuned Rabi line.

    Approximates ``rabi_frequency(omega0, delta) - omega0`` with relative
    error below (delta/omega0)^2 / 4.  Warns when delta/omega0 > 0.3.
    """
    if not omega0 > 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    if abs(delta) > 0.3 * omega0:
        warnings.warn(
            "delta/omega0 exceeds 0.3; the quadratic beat-shift expansion "
            "degrades in this regime",
            UserWarning,
            stacklevel=2,
        )
    return delta**2 / (2.0 * omega0)


def beat_shift_vtype(omega0_base: float, delta: float) -> float:
    """Leading-order beat shift 2*delta^2 / omega0_base of a split V drive.

    ``omega0_base`` is the observed base oscillation frequency of the
    unsplit V system (equal to 2*sqrt(2)*coupling) and ``delta`` the
    half-splitting of the two upper levels.  Exact shift is
    sqrt(omega0_base^2 + 4*delta^2) - omega0_base.
    """
    if not omega0_base > 0:
        raise ValueError(f"omega0_base must be positive, got {omega0_base}")
    if 2.0 * abs(delta) > 0.3 * omega0_base:
        warnings.warn(
            "2*delta/omega0_base exceeds 0.3; the quadratic beat-shift "
            "expansion degrades in this regime",
            UserWarning,
            stacklevel=2,
        )
    return 2.0 * delta**2 / omega0_base


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
