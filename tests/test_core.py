import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhbloch.core import (
    I0,
    IZ,
    Trajectory,
    bloch_to_density,
    density_to_bloch,
    fidelity,
    purity,
)

ball_points = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda r: r[0] ** 2 + r[1] ** 2 + r[2] ** 2 <= 1.0)


def test_bloch_to_density_north_pole():
    np.testing.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=0)


def test_bloch_to_density_maximally_mixed():
    np.testing.assert_allclose(bloch_to_density((0, 0, 0)), np.diag([0.5, 0.5]), atol=0)


def test_bloch_to_density_x_state():
    np.testing.assert_allclose(bloch_to_density((1, 0, 0)), np.full((2, 2), 0.5), atol=0)


def test_density_to_bloch_trivial_states():
    assert density_to_bloch(np.diag([1.0, 0.0])) == (0.0, 0.0, 1.0)
    assert density_to_bloch(np.diag([0.5, 0.5])) == (0.0, 0.0, 0.0)
    rho_y = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    np.testing.assert_allclose(density_to_bloch(rho_y), [0, 1, 0], atol=1e-15)


def test_density_to_bloch_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        density_to_bloch(np.diag([1.0, 0.5]))


def test_density_to_bloch_of_a_stack_is_bit_identical_to_per_matrix_calls():
    rng = np.random.default_rng(5)
    r = rng.uniform(-0.6, 0.6, (64, 3))
    r[:4] = [(-0.0, 0.0, -0.0), (0.0, -0.0, 1.0), (1e-300, -5e-324, -1.0), (0.0, 0.0, 0.0)]
    stack = np.array([bloch_to_density(v) for v in r])
    stack[4:] += 1e-12 * rng.standard_normal(stack[4:].shape)  # traces off 1 by float noise
    rows = density_to_bloch(stack)
    assert rows.shape == (64, 3)
    want = np.array([density_to_bloch(rho) for rho in stack])
    assert rows.tobytes() == want.tobytes()
    assert density_to_bloch(stack[:0]).shape == (0, 3)


def test_density_to_bloch_of_a_stack_names_the_first_bad_trace():
    stack = np.array([np.diag([1.0, 0.0]), np.diag([1.0, 0.5]), np.diag([0.5, 0.25])])
    with pytest.raises(ValueError) as info:
        density_to_bloch(stack)
    with pytest.raises(ValueError) as single:
        density_to_bloch(stack[1])
    assert str(info.value) == str(single.value) == "density matrix trace (1.5+0j) is not 1 within 1e-09"


@given(ball_points)
def test_round_trip_is_identity(r):
    back = density_to_bloch(bloch_to_density(r))
    assert max(abs(b - a) for a, b in zip(r, back)) <= 1e-12


def test_purity_bounds():
    assert purity((0, 0, 1)) == 1.0
    assert purity((0, 0, 0)) == 0.5


def test_purity_residual_radius():
    # |r| = 0.0653 -> 1/2 + 0.0653^2 / 2
    assert purity((0.0653, 0.0, 0.0)) == pytest.approx(0.502132045, abs=1e-9)


def test_purity_clamps_marginal_overshoot():
    r = 1.0 + 4e-10  # |r|^2 within the ball tolerance
    assert purity((r * math.sqrt(0.5), r * math.sqrt(0.5), 0.0)) == 1.0


def test_purity_takes_the_integrators_ball_rule():
    # |r| > 1 + BALL_TOL is refused, on |r| itself as the ODE output check
    # compares it: |r| = 1 + 8e-10 lies inside, though |r|^2 = 1 + 1.6e-9.
    assert purity((1.0 + 8e-10, 0.0, 0.0)) == 1.0
    with pytest.raises(ValueError, match="outside the Bloch ball"):
        purity((1.0 + 1.2e-9, 0.0, 0.0))


def test_purity_rejects_unphysical():
    with pytest.raises(ValueError, match="Bloch ball"):
        purity((1.1, 0.0, 0.0))


def test_purity_matches_density_trace_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
        rho = bloch_to_density(r)
        assert abs(purity(r) - np.trace(rho @ rho).real) <= 1e-12


def test_purity_of_rows_is_one_call_per_row():
    # The CLI's purity column: (N, 3) rows give the per-row values bit for
    # bit, the clamp included, and the rule refuses the worst row by its |r|.
    rng = np.random.default_rng(29)
    rows = rng.normal(size=(500, 3))
    rows *= rng.uniform(0.0, 1.0 + 5e-10, (500, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
    got = purity(rows)
    assert got.shape == (500,)
    assert got.tobytes() == np.array([purity(r) for r in rows]).tobytes()
    rows[[7, 300]] = [(1.0 + 2e-9, 0.0, 0.0), (0.0, 0.0, -1.0 - 3e-9)]
    with pytest.raises(ValueError) as info:
        purity(rows)
    assert str(info.value) == f"|r| = {1.0 + 3e-9!r} lies outside the Bloch ball"


@pytest.mark.parametrize("shape", [(2,), (4,), (5, 2), (2, 5, 3)])
def test_purity_refuses_a_shape_that_is_not_a_triple_or_rows(shape):
    with pytest.raises(ValueError) as info:
        purity(np.zeros(shape))
    assert str(info.value) == f"expected a Bloch triple or (N, 3) rows, got shape {shape}"


def test_fidelity_self_is_one():
    rho = bloch_to_density((0.3, -0.2, 0.4))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_orthogonal_pure_states():
    assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0


def test_fidelity_mixed_vs_pure():
    got = fidelity(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
    assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_fidelity_rejects_zero_matrix():
    with pytest.raises(ValueError, match="zero"):
        fidelity(np.zeros((2, 2)), np.diag([1.0, 0.0]))


@settings(max_examples=50)
@given(ball_points, ball_points)
def test_fidelity_symmetric_and_bounded(ra, rb):
    rho_a, rho_b = bloch_to_density(ra), bloch_to_density(rb)
    fab = fidelity(rho_a, rho_b)
    assert fab == pytest.approx(fidelity(rho_b, rho_a), abs=1e-13)
    assert -1e-12 <= fab <= 1.0 + 1e-12


def test_fidelity_below_one_for_distinct_states():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ra = rng.normal(size=3) * 0.4
        rb = rng.normal(size=3) * 0.4
        if np.linalg.norm(ra - rb) < 1e-3:
            continue
        assert fidelity(bloch_to_density(ra), bloch_to_density(rb)) < 1.0 - 1e-12


def test_bloch_vector_helpers():
    # A state is a float triple: density_to_bloch returns one, and the
    # helpers taking a state accept any length-3 sequence.
    r = density_to_bloch(bloch_to_density([0.6, 0.0, 0.8]))
    assert type(r) is tuple and all(type(c) is float for c in r)
    assert r == pytest.approx((0.6, 0.0, 0.8), abs=1e-15)
    assert purity(np.array(r)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="outside the Bloch ball"):
        purity((1.2, 0.0, 0.0))
    assert I0[0, 0] == 0.5 and IZ[1, 1] == -0.5


def test_density_to_bloch_rejects_other_shapes():
    with pytest.raises(ValueError) as info:
        density_to_bloch(np.eye(3) / 3.0)
    assert str(info.value) == "expected a 2x2 matrix, got shape (3, 3)"


class TestTrajectoryChecks:
    """Each refusal of Trajectory's arrays, by its own message."""

    @pytest.mark.parametrize("times", [[], [[0.0, 1.0]]], ids=["empty", "two-d"])
    def test_times_must_be_a_non_empty_1d_array(self, times):
        with pytest.raises(ValueError) as info:
            Trajectory(np.array(times), np.zeros((2, 3)))
        assert str(info.value) == "times must be a non-empty 1-d array"

    def test_rho_shape(self):
        rho = np.tile(bloch_to_density((0.0, 0.0, 1.0)), (3, 1, 1))
        with pytest.raises(ValueError) as info:
            Trajectory(np.array([0.0, 1.0]), np.tile([0.0, 0.0, 1.0], (2, 1)), rho)
        assert str(info.value) == "rho shape (3, 2, 2) does not match 2 times"

    def test_rho_must_be_hermitian(self):
        rho = np.tile(bloch_to_density((0.0, 0.0, 1.0)), (2, 1, 1))
        rho[1, 0, 1] = 0.25j  # rho[1, 1, 0] stays 0
        with pytest.raises(ValueError) as info:
            Trajectory(np.array([0.0, 1.0]), np.tile([0.0, 0.0, 1.0], (2, 1)), rho)
        assert str(info.value) == "stored matrices not Hermitian (defect 2.500e-01)"
