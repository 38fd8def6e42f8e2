import warnings

import numpy as np
import pytest

from loopcool import get_preset, kernels
from loopcool.errors import BlowUp, DimensionOverflow, ShapeMismatch
from loopcool.model import build_drift


def test_integrate_scalar_fixed_point():
    # x' = -2x + 2 -> x(inf) = 1
    a = -np.eye(1)
    x = kernels.rk4_lyapunov_flow(a, 2 * np.eye(1), np.zeros((1, 1)), 50.0, 0.01)
    assert x[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_integrate_decay():
    a = -np.eye(3)
    x0 = np.ones((3, 3), complex)
    x = kernels.rk4_lyapunov_flow(a, np.zeros((3, 3)), x0, 40.0, 0.01)
    assert np.abs(x).max() < 1e-12


def test_integrate_blowup():
    a = np.eye(2)
    with pytest.raises(BlowUp):
        kernels.rk4_lyapunov_flow(a, np.eye(2), np.eye(2), 60.0, 0.01)


def test_integrate_blowup_long_time_no_overflow():
    # 1e8 steps: the powered step map must trip the limit before it overflows; and
    # dt A = 1e200: the generator itself is refused, before a product overflows
    for a, t_end in ((np.eye(2), 1e6), (1e202 * np.eye(2), 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUp):
                kernels.rk4_lyapunov_flow(a, np.eye(2), np.eye(2), t_end, 0.01)


@pytest.mark.parametrize("t_end", [0.0, 1.0])
def test_integrate_real_inputs_give_their_complex_copies_bits(t_end):
    a, q, x0 = -np.eye(3) + 0.1 * np.tri(3), np.eye(3), np.ones((3, 3))
    x = kernels.rk4_lyapunov_flow(a, q, x0, t_end, 0.01)
    ref = kernels.rk4_lyapunov_flow(a.astype(complex), q.astype(complex), x0.astype(complex),
                                    t_end, 0.01)
    assert x.dtype == ref.dtype == np.complex128 and np.array_equal(x, ref)


def test_integrate_lift_cap():
    a = -np.eye(70)
    with pytest.raises(DimensionOverflow):
        kernels.rk4_lyapunov_flow(a, np.eye(70), np.zeros((70, 70)), 1.0, 0.01)


def test_integrate_input_checks():
    a, q, x0 = -np.eye(3), np.eye(3), np.zeros((3, 3))
    bad = [(a, np.eye(2), x0, 0.01), (a, q, np.zeros((3, 2)), 0.01),
           (np.ones((3, 2)), np.ones((3, 2)), np.zeros((3, 2)), 0.01),
           (a, np.diag([1.0, np.nan, 1.0]), x0, 0.01),
           (np.diag([-1.0, -np.inf, -1.0]), q, x0, 0.01),
           (a, q, np.full((3, 3), np.inf), 0.01),
           (a, q + np.triu(np.full((3, 3), 1e-300), 1), x0, 0.01),
           (a, q, x0, 0.0), (a, q, x0, -0.01)]
    for a_, q_, x0_, dt in bad:
        with pytest.raises(ShapeMismatch):
            kernels.rk4_lyapunov_flow(a_, q_, x0_, 1.0, dt)
    with pytest.raises(ShapeMismatch, match="^expected a 2-D array, got ndim=1$"):
        kernels.rk4_lyapunov_flow(-np.ones(3), q, x0, 1.0, 0.01)


def _rk4_per_step(a, q, x, n_steps, dt):
    """Reference: classical RK4 on dX/dt = A X + X A^T + Q, one step at a time."""
    at = a.T
    for _ in range(n_steps):
        k1 = a @ x + x @ at + q
        y = x + (0.5 * dt) * k1
        k2 = a @ y + y @ at + q
        y = x + (0.5 * dt) * k2
        k3 = a @ y + y @ at + q
        y = x + dt * k3
        k4 = a @ y + y @ at + q
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return x


def _cnormal(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _stable_drift(n, seed):
    rng = np.random.default_rng(seed)
    a = _cnormal(rng, n) - 4 * np.eye(n)
    assert np.linalg.eigvals(a).real.max() < 0
    return a, rng


def _close_to_per_step(a, q, x0, n_steps, dt=0.01):
    ref = _rk4_per_step(a, q, x0, n_steps, dt)
    x = kernels.rk4_lyapunov_flow(a, q, x0, n_steps * dt, dt)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    return x


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 7, 1000, 1023, 1024])
def test_integrate_matches_per_step_rk4(n_steps):
    a, rng = _stable_drift(6, 7)
    q, x0 = _cnormal(rng, 6), _cnormal(rng, 6)
    q, x0 = q + q.T, x0 + x0.T
    x = _close_to_per_step(a, q, x0, n_steps)
    if n_steps == 0:
        assert np.array_equal(x, x0)
        # t_end below half a step also rounds to no step, and so does a negative one
        for t_end in (0.004, -1.0):
            assert np.array_equal(kernels.rk4_lyapunov_flow(a, q, x0, t_end, 0.01), x0)


def test_determinism():
    rng = np.random.default_rng(5)
    a = _cnormal(rng, 5) - 2 * np.eye(5)
    q = np.eye(5, dtype=complex)
    x1 = kernels.rk4_lyapunov_flow(a, q, np.zeros((5, 5)), 5.0, 0.01)
    x2 = kernels.rk4_lyapunov_flow(a, q, np.zeros((5, 5)), 5.0, 0.01)
    assert np.array_equal(x1, x2)


@pytest.mark.parametrize("n_steps", [3, 1023, 1024])
def test_integrate_symmetric_inputs_give_symmetric_state(n_steps):
    # the state is read back from one triangle
    a, rng = _stable_drift(6, 11)
    q, x0 = _cnormal(rng, 6), _cnormal(rng, 6)
    x = _close_to_per_step(a, q + q.T, x0 + x0.T, n_steps)
    assert np.array_equal(x, x.T)


# The flow runs on the lower triangle alone, so a q or x0 that is not symmetric
# is refused at any step count, zero steps included, rather than read in part.

@pytest.mark.parametrize("n_steps", [0, 3, 1023, 1024])
def test_integrate_symmetric_forcing_antisymmetric_start(n_steps):
    a, rng = _stable_drift(5, 12)
    q, x0 = _cnormal(rng, 5), _cnormal(rng, 5)
    with pytest.raises(ShapeMismatch, match="symmetric"):
        kernels.rk4_lyapunov_flow(a, q + q.T, x0 - x0.T, n_steps * 0.001, 0.001)


@pytest.mark.parametrize("n_steps", [0, 3, 1023, 1024])
def test_integrate_antisymmetric_forcing_only(n_steps):
    a, rng = _stable_drift(4, 13)
    q = _cnormal(rng, 4)
    with pytest.raises(ShapeMismatch, match="symmetric"):
        kernels.rk4_lyapunov_flow(a, q - q.T, np.zeros((4, 4)), n_steps * 0.01, 0.01)


def test_integrate_unstable_drift_without_forcing_or_start():
    # the state stays exactly zero; the powers of the step map must still trip
    a = np.diag([0.5, -1.0, -2.0]).astype(complex)
    with pytest.raises(BlowUp):
        kernels.rk4_lyapunov_flow(a, np.zeros((3, 3)), np.zeros((3, 3)), 200.0, 0.01)


def test_integrate_fig2_matches_per_step_rk4():
    d = build_drift(get_preset("fig2"))
    q = d.q.astype(complex)
    x = _close_to_per_step(d.a, q, np.zeros_like(d.a), 2000, dt=0.02)
    assert np.array_equal(x, x.T)
