"""Two-level state algebra: Bloch vectors, density matrices, purity and overlap.

A state is carried either as a Bloch triple (r_x, r_y, r_z) of floats, or
(N, 3) rows of them in bulk, or as the 2x2 density matrix

    rho = I0 + r_x*IX + r_y*IY + r_z*IZ,

where I0 is half the identity and IX, IY, IZ are the Pauli halves. The Bloch
triple is the canonical representation; density matrices are derived views.
Functions taking a state accept any length-3 real sequence.
"""

from __future__ import annotations

import math

import numpy as np

# Basis operators: half identity and the three Pauli halves.
I0 = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
IX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
IY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
IZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)

for _op in (I0, IX, IY, IZ):
    _op.setflags(write=False)

# Slack on |r|^2 <= 1 membership; integrators may overshoot by float noise.
BALL_TOL = 1e-9

# Slack on Tr[rho] = 1 in density_to_bloch; a larger defect is a corrupt state.
_TRACE_TOL = 1e-9


def _as_components(r) -> tuple[float, float, float]:
    x, y, z = np.asarray(r, dtype=float)
    return float(x), float(y), float(z)


def bloch_to_density(r) -> np.ndarray:
    """Assemble the density matrix I0 + r_x*IX + r_y*IY + r_z*IZ.

    Unit trace holds by construction; physicality (|r| <= 1) is not checked
    here.
    """
    x, y, z = _as_components(r)
    return np.array(
        [
            [0.5 * (1.0 + z), 0.5 * (x - 1j * y)],
            [0.5 * (x + 1j * y), 0.5 * (1.0 - z)],
        ]
    )


def density_to_bloch(rho) -> tuple[float, float, float]:
    """Extract the triple r_k = 2 Tr[I_k rho] from a unit-trace density matrix.

    Raises ValueError if the trace deviates from one by more than 1e-9 (a
    corrupt-state signal, not float noise).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    trace = rho[0, 0] + rho[1, 1]
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {trace} is not 1 within {_TRACE_TOL}")
    return (
        float(2.0 * rho[1, 0].real),
        float(2.0 * rho[1, 0].imag),
        float((rho[0, 0] - rho[1, 1]).real),
    )


def purity(r) -> float:
    """Purity (1 + |r|^2) / 2 of the state with Bloch vector ``r``.

    Accepts |r| marginally above one (within BALL_TOL) and clamps it to one;
    anything further outside the ball is rejected.
    """
    x, y, z = _as_components(r)
    n2 = x * x + y * y + z * z
    if n2 > 1.0 + BALL_TOL:
        raise ValueError(f"|r|^2 = {n2!r} lies outside the Bloch ball")
    return 0.5 * (1.0 + min(n2, 1.0))


def fidelity(rho_a, rho_b) -> float:
    """Normalized overlap Tr[a b] / sqrt(Tr[a^2] Tr[b^2]) of two states.

    Symmetric in its arguments and equal to one iff the matrices are
    proportional. Lies in [0, 1] for positive semidefinite inputs and in
    [-1, 1] for general Hermitian ones (positivity is not enforced, so
    mildly unphysical measured states can still be scored).
    """
    a = np.asarray(rho_a, dtype=complex)
    b = np.asarray(rho_b, dtype=complex)
    norm_a = np.trace(a @ a).real
    norm_b = np.trace(b @ b).real
    if norm_a < 1e-15 or norm_b < 1e-15:
        raise ValueError("fidelity undefined for (near-)zero matrices")
    return float(np.trace(a @ b).real / math.sqrt(norm_a * norm_b))
