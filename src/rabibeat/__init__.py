"""rabibeat: simulation and analysis of Rabi-beat spectroscopy and
drive-gradient imaging with spin-1 defect centers.

Conventions: frequencies in cyclic MHz, times in microseconds.  Factors of
2*pi live inside propagation and trig code only.
"""
from .spinmodel import (
    rabi_frequency,
    detuning_from_beat,
)
from .evolve import (
    TimeGrid,
    DecayModel,
    ManifoldSpec,
    DriftModel,
    rabi_trace_incoherent,
    rabi_trace_vtype,
    apply_power_drift,
)
from .traces import SampledTrace
from .analysis import (
    Spectrum,
    Lineshape,
    BeatReport,
    ResolutionEstimate,
    fft_spectrum,
    find_peaks,
    refine_peak_frequency,
    dominant_frequency,
    analytic_envelope,
    fit_decay_time,
    extract_beats,
    resolution_estimate,
    synthesize_esr,
)
from .imaging import (
    WaveguideGeometry,
    FieldMap,
    LocalizationResult,
    ResolutionBudget,
    field_profile,
    rabi_at,
    oscillation_count,
    resolution_from_count,
    resolution_budget,
    position_from_rabi,
)
from .config import ConfigError, RunConfig, load_config, preset_names

__version__ = "0.1.0"
