"""Driven dissipative three-level transmon: steady-state Lindblad solver,
Autler-Townes spectroscopy sweeps, Lorentzian doublet fitting, and
dark-state fidelity analysis."""

from .analysis import (
    DarkStateOverlap,
    LorentzianModel,
    PeakFit,
    dark_state_fidelity,
    fit_peaks,
)
from .errors import (
    ConfigError,
    DegenerateData,
    NoConvergence,
    NonPhysicalResult,
    SingularLiouvillian,
)
from .experiments import (
    Grid1D,
    Observable,
    SweepResult,
    at_map,
    at_slice,
    coupler_spectroscopy,
    default_map_grid,
    default_slice_grid,
    eit_regime_scan,
    fidelity_vs_coupler,
    probe_spectroscopy,
    rabi_trace,
    readout_signal,
)
from .model import (
    DecoherenceRates,
    DeviceSpec,
    DriveParams,
    ThreeLevelModel,
    basis_ket,
    build_hamiltonian,
    check_density_matrix,
    collapse_operators,
    ket_bra,
    rates_from_coherence_times,
    validate_three_level,
)
from .solver import (
    Trajectory,
    build_liouvillian,
    evolve,
    max_cyclic_frequency,
    steady_state,
    unvectorize,
    vectorize,
)

__version__ = "0.1.0"
