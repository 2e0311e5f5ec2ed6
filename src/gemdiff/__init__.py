"""Diffusion effects in gradient echo optical memories.

Far-detuned Lambda atoms holding a signal pulse as a spin wave lose
efficiency to atomic motion; this package carries the closed-form decay
budget (per-phase factors, total efficiency, beam width and control-phase
profiles), a split-step 1D solver for the longitudinal dynamics, the
quasi-1D and real-space transverse solvers, and the ``gem`` experiment
runner that reproduces the figure-style results from a config file.
"""

from .model import (
    DerivedGroups,
    GuardBandError,
    ParameterError,
    PhysicalParams,
    StorageProtocol,
    containment_margin,
    derive_groups,
    echo_leakage,
    optimal_write_lead,
    stark_residual,
)
from .pulses import ControlProfile, SignalSpec, control_rabi, sample_temporal, sample_transverse
from .analytic import (
    DecayFactors,
    EffTotals,
    eff_hold,
    eff_total,
    eff_write_approx,
    eff_write_exact,
    hg_efficiency,
    hg_ratio,
    kernel_amplitude,
    kspace_write_solution,
    output_field,
    output_width,
    phase_factor,
    phase_theta,
)
from .solver1d import (
    CycleRecord,
    Grid1D,
    efficiency_1d,
    run_cycle,
    spinwave_spectrum,
    spectrum_centroid,
    to_physical_frame,
)
from .transverse import (
    BeamProfile,
    ModeGrid,
    PhaseMap,
    Quasi1DRecord,
    RealspaceRecord,
    TransverseGrid,
    extract_phase,
    fit_effective_diffusion,
    intensity_and_width,
    run_cycle_quasi1d,
    run_cycle_realspace,
)
from .config import RunConfig, build_config, config_digest, load_config
from .harness import ExperimentSpec, RuntimeGuardError, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BeamProfile",
    "ControlProfile",
    "CycleRecord",
    "DecayFactors",
    "DerivedGroups",
    "EffTotals",
    "ExperimentSpec",
    "Grid1D",
    "GuardBandError",
    "ModeGrid",
    "ParameterError",
    "PhaseMap",
    "PhysicalParams",
    "Quasi1DRecord",
    "RealspaceRecord",
    "RunConfig",
    "RuntimeGuardError",
    "SignalSpec",
    "StorageProtocol",
    "TransverseGrid",
    "build_config",
    "config_digest",
    "containment_margin",
    "control_rabi",
    "derive_groups",
    "echo_leakage",
    "eff_hold",
    "eff_total",
    "eff_write_approx",
    "eff_write_exact",
    "efficiency_1d",
    "extract_phase",
    "fit_effective_diffusion",
    "hg_efficiency",
    "hg_ratio",
    "intensity_and_width",
    "kernel_amplitude",
    "kspace_write_solution",
    "load_config",
    "optimal_write_lead",
    "output_field",
    "output_width",
    "phase_factor",
    "phase_theta",
    "run_cycle",
    "run_cycle_quasi1d",
    "run_cycle_realspace",
    "run_experiment",
    "sample_temporal",
    "sample_transverse",
    "spectrum_centroid",
    "spinwave_spectrum",
    "stark_residual",
    "to_physical_frame",
]
