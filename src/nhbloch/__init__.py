"""Two-level depolarization toolkit.

Closed-form and numerically integrated Bloch trajectories for a spin-1/2
driven toward a low-purity mixed state by a state-dependent non-Hermitian
generator, plus the NMR mapping and least-squares estimation of the decay
parameters from magnetization records.
"""

from .analytic import (
    CoherentField,
    DecayModel,
    coherent_bloch,
    damped_bloch,
    damping_provider,
    decay_f,
    g_root,
    gamma_coefficients,
    purity_closed_form,
    trajectory,
)
from .core import (
    Trajectory,
    bloch_to_density,
    density_to_bloch,
    fidelity,
    purity,
)
from .dynamics import (
    DeviationReport,
    GammaOperator,
    effective_hamiltonian,
    fidelity_trace,
    field_matrix,
    integrate_bloch,
    integrate_density,
    max_deviation,
)
from .fit import (
    DegenerateJacobianError,
    FitRangeError,
    FitResult,
    check_guess,
    check_record,
    check_resonance,
    default_initial_guess,
    fit_decay_model,
    residual_magnetization_stats,
    residuals,
)
from .nmr import (
    HBAR,
    KB,
    P31_SAMPLES,
    ROOM_TEMPERATURE_K,
    deviation_matrix,
    drive_field,
    p31_sample,
    partition_function,
    polarization_factor,
    pseudo_pure_decompose,
    rotation_pulse,
    thermal_argument,
    thermal_state,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentField",
    "DecayModel",
    "DegenerateJacobianError",
    "DeviationReport",
    "FitRangeError",
    "FitResult",
    "GammaOperator",
    "HBAR",
    "KB",
    "P31_SAMPLES",
    "ROOM_TEMPERATURE_K",
    "Trajectory",
    "bloch_to_density",
    "check_guess",
    "check_record",
    "check_resonance",
    "coherent_bloch",
    "damped_bloch",
    "damping_provider",
    "decay_f",
    "default_initial_guess",
    "density_to_bloch",
    "deviation_matrix",
    "drive_field",
    "effective_hamiltonian",
    "fidelity",
    "fidelity_trace",
    "field_matrix",
    "fit_decay_model",
    "g_root",
    "gamma_coefficients",
    "integrate_bloch",
    "integrate_density",
    "max_deviation",
    "p31_sample",
    "partition_function",
    "polarization_factor",
    "pseudo_pure_decompose",
    "purity",
    "purity_closed_form",
    "residual_magnetization_stats",
    "residuals",
    "rotation_pulse",
    "thermal_argument",
    "thermal_state",
    "trajectory",
]
