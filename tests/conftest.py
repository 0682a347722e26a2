import time
from dataclasses import dataclass

import numpy as np
import pytest

from nhbloch.analytic import CoherentField, DecayModel
from nhbloch.core import bloch_to_density, fidelity
from nhbloch.nmr import P31_SAMPLES, p31_sample


@dataclass(frozen=True)
class Benchmark:
    """One drive/decay working point for the phosphorus-31 benchmarks."""

    field: CoherentField
    decay: DecayModel
    omega1: float  # drive strength actually used in the field, rad/s
    rabi_hz: float  # the same, in Hz


def _benchmark(name: str) -> Benchmark:
    nominal_hz, scale, _, _ = P31_SAMPLES[name]
    field, decay = p31_sample(name)
    return Benchmark(field=field, decay=decay, omega1=field.wy, rabi_hz=scale * nominal_hz)


@pytest.fixture(scope="session")
def tpp() -> Benchmark:
    # Tri-phenyl phosphate benchmark set.
    return _benchmark("tpp")


@pytest.fixture(scope="session")
def dsp() -> Benchmark:
    # Di-sodium phosphate benchmark set.
    return _benchmark("dsp")


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
