"""Time evolution: manifold-averaged Rabi traces, decay envelopes, and
slow drive-power drift.

The traces are closed forms: each manifold contributes the detuned
two-level population, or the V-configuration population, that exact
propagation under its time-independent rotating-frame Hamiltonian gives,
so there is no step-size error.  Both are a constant plus cosine lines,
which both kernels take from ``_lines`` and sum with ``_cosine_sum``, one
block-moment sum with no BLAS call.
Decoherence enters only as a phenomenological envelope that multiplies the
oscillating part of a signal about its mean, and hyperfine structure
enters as an incoherent average over fixed-detuning manifolds.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

# vtype_population is unused here; perfbench's tests look it up in this module
from .spinmodel import rabi_frequency, vtype_population
from .traces import SampledTrace

__all__ = [
    "TimeGrid",
    "DecayModel",
    "ManifoldSpec",
    "DriftModel",
    "rabi_trace_incoherent",
    "rabi_trace_vtype",
    "apply_power_drift",
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

    @property
    def step(self) -> float:
        """Spacing of ``times``, which start and end exactly on the ends."""
        return (self.t_end - self.t_start) / (self.n_points - 1)


# _cosine_sum splits the grid into blocks of L samples, with L from
# _moment_plan, and reduces its lines _CHUNK at a time, so the size of its
# scratch matrices depends on the grid length, not on the number of sweeps.
# Block anchors lie on an even grid, so _ladder builds their phasors as
# products of a coarse and a fine set, each about sqrt(count) long, which
# evaluates far fewer cos/sin pairs.
_CHUNK = 256
# _REACH[P - 1] is the largest phase x whose Taylor remainder x^P / P! after
# the P terms p < P of exp(i x) is at most eps / 8; |x| <= 1 needs P <= 19
_REACH = [(np.finfo(float).eps / 8 * math.factorial(p)) ** (1.0 / p)
          for p in range(1, 20)]
_FACTORIALS = np.array([float(math.factorial(p)) for p in range(len(_REACH))])
# i^p for p mod 4, exact
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])
# _moment_plan estimates the sum's time in units of one real multiply-add
# of an np.einsum loop.  Timings on a 2-core Xeon (numpy 2.4) put one
# element of a numpy pass, or the start of one inner loop of an np.einsum,
# at about 10 units and a cos/sin pair at about 50.  The weights steer speed
# only: every block size meets the same error bound.
_PASS, _PHASOR = 10, 50


def _cosine_sum(freqs, coeffs, grid: TimeGrid) -> np.ndarray:
    """sum_k coeffs[k] * cos(2 pi freqs[k] t) over the times of ``grid``,
    by block Taylor moments of each column of lines about its centre.

    ``freqs`` and ``coeffs`` are 2-D with one cluster of lines per column,
    as ``_lines`` gives them.  Column j has centre w_j and half-width
    half_j (rad/us), and sample s = b * L + m lies tau_m = (m - (L - 1) / 2)
    * step from its block centre T_b, so with u_k = (w_k - w_j) / half_j
    and x_m = half_j * tau_m,

        exp(i w_k t_s) = exp(i w_k T_b) exp(i w_j tau_m) exp(i u_k x_m)

    and the last factor is sum_{p < P} i^p u_k^p x_m^p / p! to within
    eps / 8, so truncation adds at most eps / 8 sum_k |coeffs[k]| to a
    sample.  Each block then needs only the moments
    M[b, p, j] = i^p sum_k coeffs[k] u_k^p exp(i w_k T_b) over column j's
    lines, and each sample is Re sum_{p, j} M[b, p, j] E[p, j, m] with
    E[p, j, m] = x_m^p / p! exp(i w_j tau_m): about (blocks K + columns n) P
    multiply-adds instead of n K.  A column of one line has half-width 0,
    and for it P = 1 leaves anchor phasor times in-block phasor.  The
    powers are real and |u|, |x| <= 1, and multiplying by i^p is exact.
    Both reductions are np.einsum loops, not BLAS products, and the lines
    enter about _CHUNK at a time, whole rows in a fixed order, so the result
    does not depend on the number of BLAS threads.  It is within the rounding
    of its largest phase, about eps (1 + max |2 pi f t|) per unit of
    sum_k |coeffs[k]|, of the exact sum.
    """
    w = 2.0 * np.pi * freqs
    n, h = grid.n_points, grid.step
    lo, hi = w.min(axis=0), w.max(axis=0)
    centre = lo + (hi - lo) / 2
    half = np.maximum(hi - centre, centre - lo)
    size, order = _moment_plan(float(half.max()), w.shape, grid)
    # a column of equal lines has u = 0
    u = (w - centre) / np.where(half > 0, half, 1.0)
    blocks = -(-n // size)
    mid = (size - 1) / 2
    rows = max(1, _CHUNK // w.shape[1])
    moments = None
    for start in range(0, w.shape[0], rows):
        # column by column, so that each reduction runs over contiguous lines
        part_u = u[start:start + rows].T
        anchors = _ladder(w[start:start + rows].T.ravel(), grid.t_start + mid * h,
                          size * h, blocks, coeffs[start:start + rows].T.ravel())
        parts = np.empty((blocks, 2, anchors.shape[1]))
        parts[:, 0], parts[:, 1] = anchors.real, anchors.imag
        part = np.einsum("brjk,pjk->brpj", parts.reshape(blocks, 2, *part_u.shape),
                         _powers(part_u.ravel(), order).reshape(order, *part_u.shape),
                         optimize=False)
        if moments is None:
            moments = part
        else:
            moments += part
    # times i^p, exactly; Re(M E) = Re M Re E - Im M Im E
    moments = ((moments[:, 0] + 1j * moments[:, 1])
               * _I_POWERS[np.arange(order) % 4, None])
    moments = np.concatenate((moments.real, -moments.imag), axis=1)
    # offsets are exact multiples of the step
    tau = (np.arange(size) - mid) * h
    phase = centre[:, None] * tau
    carrier = np.stack((np.cos(phase), np.sin(phase)))
    expansion = ((_powers((half[:, None] * tau).ravel(), order)
                  / _FACTORIALS[:order, None]).reshape(order, -1, size)
                 * carrier[:, None])
    return np.einsum("bq,qm->bm", moments.reshape(blocks, -1),
                     expansion.reshape(-1, size), optimize=False).ravel()[:n]


def _moment_plan(half: float, shape, grid: TimeGrid):
    """(L, P) for ``_cosine_sum`` of a grid of lines of ``shape`` (rows,
    columns) on ``grid`` whose widest column has half-width ``half``
    (rad/us).

    Blocks of L samples keep the offset phase theta = half (L - 1) h / 2
    within 1, where h is the step, so that no Taylor term exceeds 1, and P
    is the smallest order whose remainder theta^P / P! is at most eps / 8;
    a grid of one-line columns has half = 0 and takes P = 1.  L is the
    cheapest of the longest such block and its halvings, costed from the
    multiply-adds, numpy passes, np.einsum inner loops and cos/sin pairs
    the sum makes.
    """
    n, h = grid.n_points, grid.step
    columns = shape[1]
    k = shape[0] * columns
    size = n if half * h * (n - 1) <= 2.0 else int(1.0 + 2.0 / (half * h))
    best = None
    while size:
        terms = bisect.bisect_left(_REACH, half * (size - 1) * h / 2) + 1
        blocks = -(-n // size)
        cost = (2 * terms * (columns * n + blocks * k)        # moments, expansion
                + _PHASOR * (k * 2 * math.sqrt(blocks) + columns * size)  # anchors, carriers
                + _PASS * (blocks * k + 2 * terms * columns * size    # anchor entries, E
                           + 4 * terms * columns * blocks))  # einsum inner loops
        if best is None or cost < best[0]:
            best = cost, size, terms
        size >>= 1
    return best[1:]


def _ladder(w, start, h, count, weights=1.0) -> np.ndarray:
    """weights * exp(i w (start + h j)) for j < count, shape (count, w.size).

    Row j = c * fine + r is the coarse phasor weights * exp(i w (start +
    h fine c)) times the fine phasor exp(i w h r), with fine =
    ceil(sqrt(count)), so only fine + ceil(count / fine) cos/sin pairs are
    evaluated per frequency.  The product is written in place.
    """
    fine = math.isqrt(count - 1) + 1
    coarse = -(-count // fine)
    steps = np.concatenate((np.arange(fine) * h,
                            np.arange(coarse) * (h * fine) + start))
    phasors = _phasors(steps[:, None] * w)
    out = np.empty((coarse, fine, w.size), dtype=complex)
    np.multiply((phasors[fine:] * weights)[:, None], phasors[:fine], out=out)
    return out.reshape(coarse * fine, w.size)[:count]


def _powers(x, order: int) -> np.ndarray:
    """Rows x^p for p < ``order``, each block of rows by doubling: rows
    [have, 2 have) are rows [0, have) times x^have."""
    out = np.empty((order, x.size))
    out[0] = 1.0
    have = 1
    while have < order:
        top = min(2 * have, order)
        np.multiply(out[:top - have], out[have - 1] * x, out=out[have:top])
        have = top
    return out


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

    def power_factors(self, n_sweeps: int, seed: int | None = None) -> np.ndarray:
        """P/P0 of each of ``n_sweeps`` sweeps.  A gaussian drift draws them
        from ``np.random.default_rng(seed)``, so it needs the seed; the CLI
        draws each run's factors before any run writes."""
        if n_sweeps < 1:
            raise ValueError(f"n_sweeps must be positive, got {n_sweeps}")
        if self.kind == "constant":
            return np.ones(n_sweeps)
        if self.kind == "linear":
            ramp = np.linspace(0.0, 1.0, n_sweeps)
            return 1.0 + self.total_relative_change * ramp
        if seed is None:
            raise ValueError("gaussian drift requires an explicit seed")
        draws = np.random.default_rng(seed).standard_normal(n_sweeps)
        factors = 1.0 + self.sigma_relative * draws
        if np.any(factors <= 0):
            raise ValueError(
                "drawn power factors are not all positive; "
                "sigma_relative is too large for this model"
            )
        return factors


def _lines(kind: str, drive, manifolds: ManifoldSpec, amplitude_mode: str = "exact"):
    """(dc, freqs, amps) of a ``kind`` trace without decay,
    dc + sum_k amps[k] cos(2 pi freqs[k] t).  ``freqs`` and ``amps`` are
    2-D, one cluster of lines per column (see ``_cosine_sum``).

    A V-type manifold with coupling c = ``drive`` and half-splitting d has
    p0 = [d^4 + 2c^4 + 4c^2 d^2 cos theta + 2c^4 cos 2 theta] / (2c^2 + d^2)^2,
    theta = 2 pi sqrt(2c^2 + d^2) t.  Otherwise ``drive`` is one omega0 or
    one per sweep; equal drives are merged, and each manifold at detuning d
    has the line hypot(omega0, d), one row per drive and one column per
    manifold.  A V-type trace has one line per column.
    """
    det, weights = np.asarray(manifolds.detunings), np.asarray(manifolds.weights)
    if kind == "rabi-vtype":
        if not drive > 0:
            raise ValueError(f"coupling must be positive, got {drive}")
        if np.any(det < 0):
            raise ValueError(f"half_splitting must be non-negative, got {det.min()}")
        c2, d2 = drive**2, det**2
        om2 = 2.0 * c2 + d2
        eigen, scale = np.sqrt(om2), weights / om2**2
        return (np.sum(scale * (d2 * d2 + 2.0 * c2 * c2)),
                np.concatenate((eigen, 2.0 * eigen))[None],
                np.concatenate((scale * 4.0 * c2 * d2, scale * 2.0 * c2 * c2))[None])
    if amplitude_mode not in AMPLITUDE_MODES:
        raise ValueError(f"amplitude_mode must be one of {AMPLITUDE_MODES}, "
                         f"got {amplitude_mode!r}")
    if np.ndim(drive) > 1 or np.size(drive) == 0:
        raise ValueError("omega0 must be a scalar or a non-empty 1-D array")
    drives, counts = np.unique(np.asarray(drive, dtype=float), return_counts=True)
    om = rabi_frequency(drives[:, None], det)
    amp = (drives[:, None] / om) ** 2 if amplitude_mode == "exact" else 1.0
    coeffs = (counts / counts.sum())[:, None] * weights * amp / 2.0
    return coeffs.sum(), om, -coeffs


def _trace(kind: str, drive, fields: dict, manifolds: ManifoldSpec, grid: TimeGrid,
           decay: DecayModel, amplitude_mode: str = "exact") -> SampledTrace:
    """The ``kind`` trace on ``grid``, its lines' sum scaled by the decay
    envelope, and its sidecar: the drive's ``fields``, manifolds and decay."""
    dc, freqs, amps = _lines(kind, drive, manifolds, amplitude_mode)
    times = grid.times
    values = dc + _cosine_sum(freqs, amps, grid) * decay.envelope(times)
    lines = "half_splittings_MHz" if kind == "rabi-vtype" else "detunings_MHz"
    return SampledTrace(times, values, {
        "units": {"time": "us", "frequency": "MHz"},
        "drive": {"kind": kind, **fields, lines: list(manifolds.detunings),
                  "weights": list(manifolds.weights)},
        "decay": {"kind": decay.kind, "t1_rho_us": decay.t1_rho},
    })


def rabi_trace_incoherent(
    omega0,
    manifolds: ManifoldSpec,
    grid: TimeGrid,
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
    so repeating one drive returns its single-drive trace exactly.
    """
    return _trace("rabi-single", omega0,
                  {"omega0_MHz": omega0, "amplitude_mode": amplitude_mode},
                  manifolds, grid, decay, amplitude_mode)


def rabi_trace_vtype(
    coupling: float,
    manifolds: ManifoldSpec,
    grid: TimeGrid,
    decay: DecayModel = DecayModel(),
) -> SampledTrace:
    """Weighted incoherent sum of V-configuration population signals.

    Manifold detunings are interpreted as upper-level half-splittings; the
    drive sits at each manifold midpoint.  Every component oscillates at
    twice its eigenfrequency, with a sub-harmonic line at the
    eigenfrequency itself whenever the half-splitting is nonzero.
    """
    return _trace("rabi-vtype", coupling, {"coupling_MHz": coupling},
                  manifolds, grid, decay)


def apply_power_drift(
    omega0: float,
    manifolds: ManifoldSpec,
    grid: TimeGrid,
    drift: DriftModel,
    n_sweeps: int,
    decay: DecayModel = DecayModel(),
    amplitude_mode: str = "exact",
    seed: int | None = None,
) -> SampledTrace:
    """Average of ``n_sweeps`` Rabi traces whose drive power drifts.

    Each sweep k sees a power factor p_k from the drift model and therefore
    a scaled Rabi frequency omega0 * sqrt(p_k).  All sweeps go to one
    :func:`rabi_trace_incoherent` call.  The lines of one manifold across
    the sweeps lie close together, and the kernel sums each such cluster by
    block Taylor moments, as it sums every trace, without BLAS and in a
    fixed order, so the bytes do not depend on the BLAS thread count.
    With constant drift the output equals the undrifted trace exactly.
    ``seed`` is required for gaussian drift.
    """
    factors = drift.power_factors(n_sweeps, seed)
    trace = rabi_trace_incoherent(
        omega0 * np.sqrt(factors), manifolds, grid, decay, amplitude_mode
    )
    # the sidecar names the undrifted drive, not the per-sweep drives
    trace.meta["drive"]["omega0_MHz"] = omega0
    trace.meta["drive"]["power_drift"] = {
        "kind": drift.kind,
        "total_relative_change": drift.total_relative_change,
        "sigma_relative": drift.sigma_relative,
        "n_sweeps": n_sweeps,
        "seed": seed,
    }
    return trace

