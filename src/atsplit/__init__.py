"""Driven dissipative three-level transmon: steady-state Lindblad solver,
Autler-Townes spectroscopy sweeps, Lorentzian doublet fitting, and
dark-state fidelity analysis.

The exports are imported on first use (PEP 562), so that importing a
submodule loads only what it needs: ``atsplit validate`` loads no numpy.
"""

__version__ = "0.1.0"


def _bind_exports() -> None:
    """Import the package's exports into its namespace."""
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
        Observable,
        SweepResult,
        at_map,
        at_slice,
        coupler_spectroscopy,
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
        Grid1D,
        ThreeLevelModel,
        auto_grid,
        rates_from_coherence_times,
        validate_three_level,
    )
    from .solver import (
        Trajectory,
        build_hamiltonian,
        build_liouvillian,
        check_density_matrix,
        collapse_operators,
        evolve,
        ket_bra,
        max_cyclic_frequency,
        steady_state,
        unvectorize,
        vectorize,
    )
    globals().update(locals())


def __getattr__(name: str):
    if name not in _bind_exports.__code__.co_varnames:  # the names it imports
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_exports()
    return globals()[name]
