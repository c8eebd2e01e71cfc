"""Drive-gradient imaging: waveguide field profile, tabulated field maps,
resolution budgets, and position reconstruction from a measured Rabi
frequency.

The position of an emitter inside a waveguide gap maps one-to-one onto its
local Rabi frequency on either monotone half of the gap.  The attainable
position resolution is the gap divided by the number of coherent Rabi
oscillations, delta_x = gap / N with N = base_rabi * t1_rho (cyclic MHz
times microseconds, so no 2*pi appears).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .traces import write_columns

__all__ = [
    "WaveguideGeometry",
    "FieldMap",
    "LocalizationResult",
    "ResolutionBudget",
    "field_profile",
    "rabi_at",
    "oscillation_count",
    "resolution_from_count",
    "resolution_budget",
    "position_from_rabi",
]

FIELDMAP_HEADER = "# rabibeat-fieldmap v1"
FIELDMAP_COLUMNS = "position_um,rabi_MHz"


@dataclass(frozen=True)
class WaveguideGeometry:
    """Tapered-strip waveguide gap hosting the emitters.

    ``gap`` is the distance between the conductor edges in micrometers;
    positions run from 0 at one edge to ``gap`` at the other.
    ``drive_scale`` is the Rabi frequency in MHz an emitter would see at
    the gap midpoint.  ``edge_cutoff`` (um) softens the
    inverse-square-root divergence at the conductor edges on the scale of
    the conductor thickness.
    """

    gap: float
    drive_scale: float = 22.2
    edge_cutoff: float = 0.5

    def __post_init__(self):
        for name in ("gap", "drive_scale", "edge_cutoff"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )


def field_profile(geometry: WaveguideGeometry, x) -> np.ndarray:
    """Relative transverse drive amplitude across the gap, midpoint = 1.

    Between two coplanar conductor edges the microwave field follows
    1/sqrt(u (1-u)) with u = x/gap; a finite ``edge_cutoff`` c regularizes
    the edges:

        B(x) = (gap/2 + c) / sqrt((x + c) (gap - x + c))

    Mirror symmetric about the midpoint, where it attains its minimum.
    Positions outside [0, gap] are not modeled and raise.
    """
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > geometry.gap)):
        raise ValueError(
            f"position outside the modeled gap [0, {geometry.gap}] um"
        )
    c = geometry.edge_cutoff
    prod = (x + c) * (geometry.gap - x + c)
    return (geometry.gap / 2.0 + c) / np.sqrt(prod)


def rabi_at(geometry: WaveguideGeometry, x) -> np.ndarray:
    """Rabi frequency in MHz at position ``x`` (um) inside the gap."""
    return geometry.drive_scale * field_profile(geometry, x)


@dataclass
class FieldMap:
    """Tabulated position -> Rabi frequency map on one monotone branch.

    ``positions`` in micrometers, strictly increasing; ``rabi`` in MHz,
    strictly monotone and positive over the tabulated range.  ``meta``
    names the generating model, or ``"measured"`` for experimental maps.
    """

    positions: np.ndarray
    rabi: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.rabi = np.asarray(self.rabi, dtype=float)
        if self.positions.ndim != 1 or self.positions.size < 2:
            raise ValueError("a field map needs at least two samples")
        if self.positions.shape != self.rabi.shape:
            raise ValueError("positions and rabi must have equal length")
        if not np.all(np.diff(self.positions) > 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(self.rabi <= 0):
            raise ValueError("rabi values must be positive")
        steps = np.diff(self.rabi)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError(
                "rabi values must be strictly monotone over the map"
            )

    @property
    def increasing(self) -> bool:
        return bool(self.rabi[-1] > self.rabi[0])

    @classmethod
    def from_model(
        cls,
        geometry: WaveguideGeometry,
        n_points: int = 501,
        branch: str = "left",
    ) -> "FieldMap":
        """Tabulate the waveguide model on one half of the gap.

        ``branch="left"`` covers [0, gap/2] (Rabi decreasing), ``"right"``
        covers [gap/2, gap] (increasing).
        """
        if branch not in ("left", "right"):
            raise ValueError(f"branch must be 'left' or 'right', got {branch!r}")
        if n_points < 2:
            raise ValueError("n_points must be at least 2")
        half = geometry.gap / 2.0
        if branch == "left":
            pos = np.linspace(0.0, half, n_points)
        else:
            pos = np.linspace(half, geometry.gap, n_points)
        return cls(
            pos,
            rabi_at(geometry, pos),
            {
                "model": "edge-cutoff waveguide profile",
                "branch": branch,
                "gap_um": geometry.gap,
                "edge_cutoff_um": geometry.edge_cutoff,
                "drive_scale_MHz": geometry.drive_scale,
            },
        )

    def to_csv(self, path):
        return write_columns(
            path, FIELDMAP_HEADER, FIELDMAP_COLUMNS, (self.positions, self.rabi),
            {"model": self.meta.get("model", "measured")},
        )


def oscillation_count(base_rabi: float, t1_rho: float) -> float:
    """Coherent oscillation count N = base_rabi * t1_rho.

    With the base Rabi frequency in cyclic MHz and the decay time in
    microseconds the product is dimensionless directly.
    """
    if not base_rabi > 0:
        raise ValueError(f"base_rabi must be positive, got {base_rabi}")
    if not t1_rho > 0:
        raise ValueError(f"t1_rho must be positive, got {t1_rho}")
    return base_rabi * t1_rho


def resolution_from_count(gap_um: float, n_oscillations: float) -> float:
    """Position resolution gap / N, returned in nanometers."""
    if not gap_um > 0:
        raise ValueError(f"gap_um must be positive, got {gap_um}")
    if not n_oscillations > 0:
        raise ValueError(
            f"n_oscillations must be positive, got {n_oscillations}"
        )
    return 1000.0 * gap_um / n_oscillations


@dataclass(frozen=True)
class ResolutionBudget:
    """Everything that limits localization for one operating point."""

    t1_rho: float
    base_rabi: float
    n_oscillations: float
    delta_x_nm: float
    stability_required: float


def resolution_budget(
    gap_um: float, base_rabi: float, t1_rho: float
) -> ResolutionBudget:
    """Resolution budget at one operating point.

    ``stability_required`` is the fractional drive-power stability 1/N the
    acquisition must hold for the beat picture to stay coherent.
    """
    n = oscillation_count(base_rabi, t1_rho)
    return ResolutionBudget(
        t1_rho=t1_rho,
        base_rabi=base_rabi,
        n_oscillations=n,
        delta_x_nm=resolution_from_count(gap_um, n),
        stability_required=1.0 / n,
    )


@dataclass(frozen=True)
class LocalizationResult:
    position: float
    uncertainty: float | None


def position_from_rabi(
    measured: float,
    fmap: FieldMap,
    resolvable_mhz: float | None = None,
) -> LocalizationResult:
    """Invert a measured Rabi frequency to a position on the map branch.

    Linear inverse interpolation on the tabulated monotone branch.  When
    ``resolvable_mhz`` (the smallest resolvable frequency difference, e.g.
    from :func:`rabibeat.analysis.resolution_estimate`) is given, the
    position uncertainty is resolvable / |d rabi / dx| at the recovered
    position.  A measured value outside the map range raises.
    """
    lo = float(min(fmap.rabi[0], fmap.rabi[-1]))
    hi = float(max(fmap.rabi[0], fmap.rabi[-1]))
    if not lo <= measured <= hi:
        raise ValueError(
            f"measured Rabi frequency {measured} MHz outside the map range "
            f"[{lo}, {hi}] MHz"
        )
    if fmap.increasing:
        rabi_asc, pos_asc = fmap.rabi, fmap.positions
    else:
        rabi_asc, pos_asc = fmap.rabi[::-1], fmap.positions[::-1]
    x = float(np.interp(measured, rabi_asc, pos_asc))
    uncertainty = None
    if resolvable_mhz is not None:
        if resolvable_mhz < 0:
            raise ValueError("resolvable_mhz must be non-negative")
        grad = np.gradient(fmap.rabi, fmap.positions)
        local = float(np.interp(x, fmap.positions, np.abs(grad)))
        if local == 0:
            raise ValueError("field map gradient vanishes at the recovered position")
        uncertainty = resolvable_mhz / local
    return LocalizationResult(x, uncertainty)
