import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from nhbloch.analytic import CoherentField, DecayModel
from nhbloch.core import bloch_to_density, fidelity


@dataclass(frozen=True)
class Benchmark:
    """One drive/decay working point for the phosphorus-31 benchmarks."""

    field: CoherentField
    decay: DecayModel
    omega1: float  # drive strength actually used in the field, rad/s
    rabi_hz: float  # the same, in Hz


def _benchmark(nominal_hz: float, scale: float, mu_over_w1: float, nu: float) -> Benchmark:
    w_nominal = 2.0 * math.pi * nominal_hz
    omega1 = scale * w_nominal
    mu = mu_over_w1 * w_nominal
    return Benchmark(
        field=CoherentField(0.0, omega1, 0.0),
        decay=DecayModel(11.5 * mu, mu, nu),
        omega1=omega1,
        rabi_hz=scale * nominal_hz,
    )


@pytest.fixture(scope="session")
def tpp() -> Benchmark:
    # Tri-phenyl phosphate benchmark set.
    return _benchmark(21186.0, 1.05, 3.95e-3, 6.53e-2)


@pytest.fixture(scope="session")
def dsp() -> Benchmark:
    # Di-sodium phosphate benchmark set.
    return _benchmark(18657.0, 1.07, 3.79e-3, 5.82e-2)


@pytest.fixture(scope="session")
def grid_251() -> np.ndarray:
    return np.linspace(1e-9, 500e-6, 251)


def _matrix_fidelity_trace(theory, measured) -> np.ndarray:
    """Per-sample fidelity through 2x2 density matrices, stored rho preferred."""
    values = np.empty(len(theory))
    for i in range(len(theory)):
        rho_a = theory.rho[i] if theory.rho is not None else bloch_to_density(theory.bloch[i])
        rho_b = measured.rho[i] if measured.rho is not None else bloch_to_density(measured.bloch[i])
        values[i] = fidelity(rho_a, rho_b)
    return values


@pytest.fixture(scope="session")
def matrix_fidelity_trace():
    """Reference for the row-wise fidelity: the density-matrix path."""
    return _matrix_fidelity_trace


def pytest_configure(config):
    config._suite_start = time.monotonic()


@pytest.fixture
def suite_start(request) -> float:
    return request.config._suite_start


def pytest_collection_modifyitems(config, items):
    # The acceptance module asserts on whole-suite wall clock; run it last.
    items[:] = sorted(items, key=lambda item: item.module.__name__ == "test_acceptance")
