"""Two-level state algebra and the one time-series record type.

A state is carried either as a Bloch triple (r_x, r_y, r_z) of floats, or
(N, 3) rows of them in bulk, or as the 2x2 density matrix

    rho = I0 + r_x*IX + r_y*IY + r_z*IZ,

where I0 is half the identity and IX, IY, IZ are the Pauli halves. The Bloch
triple is the canonical representation; density matrices are derived views.
Functions taking a state accept any length-3 real sequence.

A time series of states, model output and measured magnetization record
alike, is a :class:`Trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Trace / Hermiticity slack accepted for the matrices a Trajectory stores.
_MATRIX_TOL = 1e-10


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


@dataclass(frozen=True)
class Trajectory:
    """Time series of states: times (s), Bloch rows (N, 3), optional rho (N, 2, 2).

    Times must be strictly increasing and all samples finite; stored density
    matrices must be Hermitian with unit trace to 1e-10. Arrays are frozen
    after construction so a trajectory can be shared freely. The columns of
    ``bloch`` are (m_x, m_y, m_z) when the series is a magnetization record.
    """

    times: np.ndarray
    bloch: np.ndarray
    rho: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        bloch = np.asarray(self.bloch, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if bloch.shape != (len(times), 3):
            raise ValueError(f"bloch shape {bloch.shape} does not match {len(times)} times")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(bloch)):
            raise ValueError("trajectory contains non-finite entries")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        rho = self.rho
        if rho is not None:
            rho = np.asarray(rho, dtype=complex)
            if rho.shape != (len(times), 2, 2):
                raise ValueError(f"rho shape {rho.shape} does not match {len(times)} times")
            herm = np.max(np.abs(rho - np.conj(np.swapaxes(rho, 1, 2))))
            if herm > _MATRIX_TOL:
                raise ValueError(f"stored matrices not Hermitian (defect {herm:.3e})")
            traces = np.einsum("nii->n", rho).real
            worst = np.max(np.abs(traces - 1.0))
            if worst > _MATRIX_TOL:
                raise ValueError(f"stored matrices not unit trace (defect {worst:.3e})")
            rho.setflags(write=False)
        times.setflags(write=False)
        bloch.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bloch", bloch)
        object.__setattr__(self, "rho", rho)

    def __len__(self) -> int:
        return len(self.times)
