"""Mapping between the abstract two-level model and a spin-1/2 NMR experiment.

Covers the thermal equilibrium state and the polarization factor, both
functions of the Larmor frequency and the temperature only, the pseudo-pure
decomposition used at high temperature, the deviation matrix, the
rotating-frame drive field, the rotation pulse, and the phosphorus-31
working points of the benchmark samples.

Sign conventions: the drive field entering the Bloch dynamics is

    (w_x, w_y, w_z) = (w1 cos(phi + pi), w1 sin(phi + pi), -(w_L - w_rf)),

so an on-resonance pulse with phi = 3*pi/2 drives about +y and tips the
north pole toward +x. :func:`drive_field` is the one place this formula is
written; the CLI calls it with ``--detuning-hz`` as (w_L - w_rf) / 2 pi. The pulse
unitary is U = exp(i w1 t_r IY); evolving a state in the convention that
matches this field reads rho -> U^dag rho U.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import CoherentField, DecayModel
from .core import I0, IZ

__all__ = [
    "HBAR", "KB", "P31_SAMPLES", "ROOM_TEMPERATURE_K", "deviation_matrix", "drive_field",
    "p31_sample", "partition_function", "polarization_factor", "pseudo_pure_decompose",
    "rotation_pulse", "thermal_argument", "thermal_state",
]

# CODATA 2018 exact values.
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

# Lab temperature of 24 C.
ROOM_TEMPERATURE_K = 297.15

# Phosphorus-31 benchmark samples, tri-phenyl phosphate and di-sodium
# phosphate: (nominal rabi Hz, drive scale, mu / nominal omega1, nu).
P31_SAMPLES = {
    "tpp": (21186.0, 1.05, 3.95e-3, 6.53e-2),
    "dsp": (18657.0, 1.07, 3.79e-3, 5.82e-2),
}


def thermal_argument(omega_larmor: float, temperature: float) -> float:
    """hbar w_L / 2 kB T for w_L in rad/s and T in K; inf where 2 kB T underflows to 0.

    This is also the high-temperature polarization factor, the first Taylor
    term of :func:`polarization_factor`, which overestimates the exact value
    by a relative (hbar w_L / 2 kB T)^2 / 3 at most.
    """
    if not (omega_larmor > 0.0 and temperature > 0.0):
        raise ValueError("larmor frequency and temperature must be positive")
    two_kt = 2.0 * KB * temperature
    return HBAR * omega_larmor / two_kt if two_kt else math.inf


def polarization_factor(omega_larmor: float, temperature: float) -> float:
    """Thermal population imbalance epsilon = tanh(hbar w_L / 2 kB T)."""
    return math.tanh(thermal_argument(omega_larmor, temperature))


def partition_function(omega_larmor: float, temperature: float) -> float:
    """Canonical partition function 2 cosh(hbar w_L / 2 kB T)."""
    return 2.0 * math.cosh(thermal_argument(omega_larmor, temperature))


def thermal_state(omega_larmor: float, temperature: float) -> np.ndarray:
    """Equilibrium state exp(-H / kB T) / Z for H = -hbar w_L IZ: I0 + epsilon(T) IZ, eigenvalues (1 +/- eps)/2."""
    return I0 + polarization_factor(omega_larmor, temperature) * IZ


def pseudo_pure_decompose(rho_eq, epsilon: float) -> tuple[float, np.ndarray]:
    """Split a thermal state into (1 - eps) * I0 + eps * (north-pole state).

    Returns the identity weight 1 - eps and the pure part, which is the
    north-pole projector by convention (also for eps = 0, where the split is
    degenerate). Rejects inputs that are not of the form I0 + eps*IZ.
    """
    rho_eq = np.asarray(rho_eq, dtype=complex)
    expected = I0 + epsilon * IZ
    defect = np.max(np.abs(rho_eq - expected))
    if defect > 1e-10:
        raise ValueError(f"input is not a thermal state for eps={epsilon} (defect {defect:.3e})")
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return 1.0 - epsilon, rho0


def deviation_matrix(rho_eq, epsilon: float) -> np.ndarray:
    """Traceless observed part (rho_eq - I0) / epsilon; equals IZ at equilibrium."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    rho_eq = np.asarray(rho_eq, dtype=complex)
    return (rho_eq - I0) / epsilon


def rotation_pulse(omega1: float, t_r: float) -> np.ndarray:
    """Pulse unitary exp(i omega1 t_r IY); real rotation matrix in spin space.

    Has spinor periodicity 4*pi/omega1: a 2*pi rotation angle returns minus
    the identity.
    """
    if t_r < 0.0:
        raise ValueError("pulse duration must be non-negative")
    half = 0.5 * omega1 * t_r
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, s], [-s, c]], dtype=complex)


def drive_field(omega1: float, phi: float, detuning: float) -> CoherentField:
    """Field (w1 cos(phi + pi), w1 sin(phi + pi), -detuning) of the module convention.

    ``omega1`` and ``detuning`` (larmor minus drive frequency) in rad/s,
    ``phi`` in radians.
    """
    return CoherentField(
        omega1 * math.cos(phi + math.pi), omega1 * math.sin(phi + math.pi), -detuning
    )


def p31_sample(name: str) -> tuple[CoherentField, DecayModel]:
    """Resonant field and decay model of the :data:`P31_SAMPLES` entry ``name``.

    With w = 2 pi * nominal rabi, the field is (0, scale * w, 0) and the decay
    rates are mu = (mu / nominal omega1) * w and delta = 11.5 mu.
    """
    nominal_hz, scale, mu_ratio, nu = P31_SAMPLES[name]
    w_nominal = 2.0 * math.pi * nominal_hz
    mu = mu_ratio * w_nominal
    return CoherentField(0.0, scale * w_nominal, 0.0), DecayModel(11.5 * mu, mu, nu)
