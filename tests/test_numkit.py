import warnings

import numpy as np
import pytest

from loopcool import numkit
from loopcool.errors import BlowUp, DimensionOverflow, ShapeMismatch, SingularMatrix


def test_solve_identity():
    b = np.arange(6, dtype=complex).reshape(3, 2)
    x = numkit.solve_linear(np.eye(3), b)
    assert np.allclose(x, b)


def test_solve_diagonal():
    a = np.diag([2.0, 4.0j])
    b = np.array([2.0, 4.0j])
    x = numkit.solve_linear(a, b)
    assert np.allclose(x, [1.0, 1.0])


def test_solve_residual_random():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) + 3 * np.eye(6)
    b = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    x = numkit.solve_linear(a, b)
    resid = numkit.norm_inf(a @ x - b)
    assert resid <= 1e-10 * (1 + numkit.norm_inf(b))


def test_solve_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        numkit.solve_linear(a, np.ones(2))


def test_solve_shape_checks():
    with pytest.raises(ShapeMismatch):
        numkit.solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ShapeMismatch):
        numkit.solve_linear(np.eye(2), np.ones(3))


def test_eigenvalues_diagonal():
    res = numkit.eigenvalues(np.diag([-1.0, -2.0 + 3.0j]))
    assert res.convergence_flag
    assert sorted(res.values, key=lambda z: z.real) == pytest.approx([-2 + 3j, -1])


def test_eigenvalues_symmetric():
    res = numkit.eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sorted(res.values.real) == pytest.approx([-1.0, 1.0])
    assert np.allclose(res.values.imag, 0.0)


def test_eigenvalues_companion():
    # companion matrix of (l^2+1)(l^2+4) = l^4 + 5 l^2 + 4
    comp = np.zeros((4, 4), complex)
    comp[1:, :3] = np.eye(3)
    comp[:, 3] = [-4.0, 0.0, -5.0, 0.0]
    vals = numkit.eigenvalues(comp).values
    expect = np.array([1j, -1j, 2j, -2j])
    got = sorted(vals, key=lambda z: (round(z.imag, 6), round(z.real, 6)))
    want = sorted(expect, key=lambda z: (round(z.imag, 6), round(z.real, 6)))
    assert np.allclose(got, want, atol=1e-8)


def test_eigenvalues_trace_and_residual_random():
    rng = np.random.default_rng(11)
    for n in range(2, 13):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        res = numkit.eigenvalues(a)
        assert abs(res.values.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
        scale = numkit.norm_inf(a) ** n
        for lam in res.values:
            assert abs(np.linalg.det(a - lam * np.eye(n))) <= 1e-8 * scale


def test_kron_block_identity():
    b = np.arange(4, dtype=complex).reshape(2, 2)
    k = numkit.kron(np.eye(2), b)
    assert np.allclose(k[:2, :2], b) and np.allclose(k[2:, 2:], b)
    assert np.allclose(k[:2, 2:], 0)


def test_kron_diag():
    k = numkit.kron(np.diag([2.0, 3.0]), np.eye(2))
    assert np.allclose(np.diag(k), [2, 2, 3, 3])


def test_kron_vec_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = (b @ x @ a.T).flatten("F")
    rhs = numkit.kron(a, b) @ x.flatten("F")
    assert np.allclose(lhs, rhs)


def test_kron_cap():
    big = np.eye(70)
    with pytest.raises(DimensionOverflow):
        numkit.kron(big, big)


def test_integrate_scalar_fixed_point():
    # x' = -2x + 2 -> x(inf) = 1
    a = -np.eye(1)
    x = numkit.integrate_linear_ode(a, 2 * np.eye(1), np.zeros((1, 1)), 50.0, 0.01)
    assert x[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_integrate_decay():
    a = -np.eye(3)
    x0 = np.ones((3, 3), complex)
    x = numkit.integrate_linear_ode(a, np.zeros((3, 3)), x0, 40.0, 0.01)
    assert np.abs(x).max() < 1e-12


def test_integrate_blowup():
    a = np.eye(2)
    with pytest.raises(BlowUp):
        numkit.integrate_linear_ode(a, np.eye(2), np.eye(2), 60.0, 0.01)


def test_integrate_blowup_long_time_no_overflow():
    # 1e8 steps: the powered step map must trip the limit before it overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUp):
            numkit.integrate_linear_ode(np.eye(2), np.eye(2), np.eye(2), 1e6, 0.01)


def test_integrate_lift_cap():
    a = -np.eye(70)
    with pytest.raises(DimensionOverflow):
        numkit.integrate_linear_ode(a, np.eye(70), np.zeros((70, 70)), 1.0, 0.01)


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


@pytest.mark.parametrize("n_steps", [0, 1, 2, 7, 1000])
def test_integrate_matches_per_step_rk4(n_steps):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) - 4 * np.eye(6)
    assert np.linalg.eigvals(a).real.max() < 0
    q = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x0 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    dt = 0.01
    ref = _rk4_per_step(a, q, x0, n_steps, dt)
    x = numkit.integrate_linear_ode(a, q, x0, n_steps * dt, dt)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    if n_steps == 0:
        assert np.array_equal(x, x0)
        # t_end below half a step also rounds to no step
        assert np.array_equal(numkit.integrate_linear_ode(a, q, x0, 0.4 * dt, dt), x0)


def test_determinism():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) - 2 * np.eye(5)
    q = np.eye(5, dtype=complex)
    x1 = numkit.integrate_linear_ode(a, q, np.zeros((5, 5)), 5.0, 0.01)
    x2 = numkit.integrate_linear_ode(a, q, np.zeros((5, 5)), 5.0, 0.01)
    assert np.array_equal(x1, x2)
