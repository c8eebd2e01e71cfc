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
