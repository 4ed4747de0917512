"""Dissipative quantum battery-charger simulation toolkit.

Models a two-level battery coupled to a two-level charger through a
cyclically switched exchange interaction, with each subsystem damped by
its own two-dimensional lattice bath.  Provides the closed lossless
solution, Markovian envelopes, exact single-excitation dynamics (direct
propagation and memory-kernel integro-differential routes), stroboscopic
spectral analysis with bound-state detection, and analytic perturbative
results for the equal-segment protocol.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    MemoryCapError,
    NotAnEigenpairError,
    NumericalError,
    QbsimError,
    ResonantDenominatorError,
)
from .model import (
    BasisIndex,
    ProtocolSchedule,
    SystemParams,
    evaluate_protocol,
    optimal_schedule,
)
from .ideal import (
    TwoLevelAmplitudes,
    ideal_energy,
    ideal_evolve,
    ideal_peak_energy,
    ideal_propagator,
)
from .environment import (
    LatticeEnvironment,
    memory_kernel_continuum,
    memory_kernel_discrete,
    spectral_density,
)
from .markovian import MarkovRates, markov_energy, markov_rates
from .dynamics import (
    EnergyTrace,
    ExcitationState,
    SegmentPropagators,
    build_hamiltonian,
    build_sector_hamiltonian,
    default_time_step,
    propagate_exact,
    solve_volterra,
    solve_volterra_pm,
)
from .floquet import (
    BandSupport,
    EnergyDecomposition,
    FloquetMode,
    QuasienergySpectrum,
    asymptotic_energy,
    circular_distance,
    compute_spectrum,
    decompose_energy_terms,
    fbs_floquet_modes,
    floquet_mode,
    fold_quasienergy,
    identify_fbs,
    one_period_operator,
)
from .perturbation import (
    NonresonantPair,
    SecondOrderResult,
    asymptotic_energy_closed_form,
    nonresonant_zeroth_order,
    phase_fourier_coeff,
    phase_profile,
    second_order_corrections,
    splitting_large_coupling,
    splitting_main_sum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QbsimError", "ConfigError", "NumericalError",
    "ConvergenceError", "MemoryCapError", "ResonantDenominatorError",
    "NotAnEigenpairError",
    # model
    "SystemParams", "ProtocolSchedule", "BasisIndex",
    "evaluate_protocol", "optimal_schedule",
    # ideal
    "TwoLevelAmplitudes", "ideal_propagator", "ideal_evolve",
    "ideal_energy", "ideal_peak_energy",
    # environment
    "LatticeEnvironment", "spectral_density",
    "memory_kernel_discrete", "memory_kernel_continuum",
    # markovian
    "MarkovRates", "markov_rates", "markov_energy",
    # dynamics
    "ExcitationState", "EnergyTrace", "SegmentPropagators",
    "build_hamiltonian", "build_sector_hamiltonian", "default_time_step",
    "propagate_exact", "solve_volterra", "solve_volterra_pm",
    # floquet
    "BandSupport", "QuasienergySpectrum", "FloquetMode",
    "EnergyDecomposition", "fold_quasienergy", "circular_distance",
    "one_period_operator", "compute_spectrum", "identify_fbs",
    "floquet_mode", "fbs_floquet_modes", "asymptotic_energy",
    "decompose_energy_terms",
    # perturbation
    "phase_profile", "phase_fourier_coeff",
    "SecondOrderResult", "second_order_corrections", "splitting_main_sum",
    "splitting_large_coupling", "asymptotic_energy_closed_form",
    "NonresonantPair", "nonresonant_zeroth_order",
]
