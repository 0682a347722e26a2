"""Mapping between the abstract two-level model and a spin-1/2 NMR experiment.

Covers the thermal equilibrium state, the polarization factor, the
pseudo-pure decomposition used at high temperature, the deviation matrix,
the rotating-frame drive field, the rotation pulse, and the phosphorus-31
working points of the benchmark samples.

Sign conventions: the drive field entering the Bloch dynamics is

    (w_x, w_y, w_z) = (w1 cos(phi + pi), w1 sin(phi + pi), -(w_L - w_rf)),

so an on-resonance pulse with phi = 3*pi/2 drives about +y and tips the
north pole toward +x. :func:`drive_field` is the one place this formula is
written; the CLI and :func:`rotating_frame_field` both call it. The pulse
unitary is U = exp(i w1 t_r IY); evolving a state in the convention that
matches this field reads rho -> U^dag rho U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import CoherentField, DecayModel
from .core import I0, IZ

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


@dataclass(frozen=True)
class NmrContext:
    """Spectrometer working point: frequencies in rad/s, temperature in K."""

    omega_larmor: float
    omega_rf: float
    omega1: float
    phi: float
    temperature: float

    def __post_init__(self):
        if self.omega_larmor <= 0.0 or self.omega1 <= 0.0:
            raise ValueError("larmor and drive strengths must be positive")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def _thermal_argument(ctx: NmrContext) -> float:
    return HBAR * ctx.omega_larmor / (2.0 * KB * ctx.temperature)


def polarization_factor(ctx: NmrContext, mode: str = "exact") -> float:
    """Thermal population imbalance epsilon(T).

    ``exact`` evaluates tanh(hbar w_L / 2 kB T); ``high_t`` keeps the first
    Taylor term, which overestimates the exact value by a relative
    (hbar w_L / 2 kB T)^2 / 3 at most.
    """
    x = _thermal_argument(ctx)
    if mode == "exact":
        return math.tanh(x)
    if mode == "high_t":
        return x
    raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'high_t'")


def partition_function(ctx: NmrContext) -> float:
    """Canonical partition function 2 cosh(hbar w_L / 2 kB T)."""
    return 2.0 * math.cosh(_thermal_argument(ctx))


def thermal_state(ctx: NmrContext) -> np.ndarray:
    """Equilibrium state I0 + epsilon(T) IZ with eigenvalues (1 +/- eps)/2."""
    return (I0 + polarization_factor(ctx, "exact") * IZ).copy()


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


def rotating_frame_field(ctx: NmrContext) -> CoherentField:
    """Drive field seen by the Bloch dynamics in the rotating frame.

    On resonance with phi = 3*pi/2 this is (0, omega1, 0).
    """
    return drive_field(ctx.omega1, ctx.phi, ctx.omega_larmor - ctx.omega_rf)


def p31_sample(name: str) -> tuple[CoherentField, DecayModel]:
    """Resonant field and decay model of the :data:`P31_SAMPLES` entry ``name``.

    With w = 2 pi * nominal rabi, the field is (0, scale * w, 0) and the decay
    rates are mu = (mu / nominal omega1) * w and delta = 11.5 mu.
    """
    nominal_hz, scale, mu_ratio, nu = P31_SAMPLES[name]
    w_nominal = 2.0 * math.pi * nominal_hz
    mu = mu_ratio * w_nominal
    return CoherentField(0.0, scale * w_nominal, 0.0), DecayModel(11.5 * mu, mu, nu)
