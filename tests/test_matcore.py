import numpy as np
import pytest

from weylsym import matcore
from weylsym.errors import CayleySingular, NotPositiveReal, SingularMatrix


def test_frame_matrices():
    for n in (1, 2, 3):
        j = matcore.matrix_J(n)
        assert np.allclose(j @ j, -np.eye(2 * n))
        assert np.allclose(j.T, -j)
        u = matcore.matrix_U(n)
        # U carries (x, y) to (x + iy, x - iy)
        v = np.arange(1.0, 2 * n + 1)
        zc = u @ v
        assert np.allclose(zc[:n], v[:n] + 1j * v[n:])
        assert np.allclose(zc[n:], v[:n] - 1j * v[n:])


def test_cayley_involution_and_rotation():
    theta = 0.8
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    c = matcore.cayley(r)
    # exp(theta J1) has Cayley transform tan(theta/2) J1
    j1 = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(c, np.tan(theta / 2) * j1, atol=1e-12)


def test_cayley_singular():
    with pytest.raises(CayleySingular):
        matcore.cayley(-np.eye(2))


def test_matrix_functions_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = 0.4 * rng.standard_normal((3, 3))
        ch, sh = matcore.mat_cosh(x)
        assert np.allclose(ch @ ch - sh @ sh, np.eye(3), atol=1e-12)
        # tanh as cosh^{-1} sinh (w1_exp_symbol) and sinh cosh^{-1} (star_exp_quadratic_symbol)
        assert np.allclose(matcore.solve(ch, sh), sh @ np.linalg.inv(ch), atol=1e-12)
        assert np.allclose(matcore.mat_exp(x), ch + sh, atol=1e-12)


def test_principal_branches():
    assert matcore.principal_sqrt(-1 + 0j) == pytest.approx(1j)
    assert matcore.principal_sqrt(4.0) == pytest.approx(2.0)
    # principal powers agree with principal sqrt at exponent 1/2
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert matcore.principal_power(c, 0.5) == pytest.approx(matcore.principal_sqrt(c))
        assert matcore.principal_power(c, -0.5) == pytest.approx(1 / matcore.principal_sqrt(c))


def test_principal_power_at_zero():
    assert matcore.principal_power(0, 0.0) == 1
    assert matcore.principal_power(0j, 0) == 1
    assert matcore.principal_power(0, 0.5) == 0
    for expo in (-0.5, -2):
        with pytest.raises(SingularMatrix):
            matcore.principal_power(0j, expo)


def test_det_powhalf_posreal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = w @ w.conj().T + 3 * np.eye(3)  # Hermitian positive definite
        s = 0.1 * (w + w.T)
        m = h + 1j * (s + s.conj().T) / 2
        val = matcore.det_powhalf_posreal(m)
        assert val**2 == pytest.approx(matcore.det(m), rel=1e-10)
        assert val.real > 0


def test_det_powhalf_rejects_indefinite():
    with pytest.raises(NotPositiveReal):
        matcore.det_powhalf_posreal(np.diag([1.0, -1.0]))


def test_solve_and_inv_singular():
    with pytest.raises(SingularMatrix):
        matcore.solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularMatrix):
        matcore.inv(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_posdef_hermitian_part():
    assert matcore.is_posdef_hermitian_part(np.eye(2) + 1j * np.array([[0, 5], [5, 0]]))
    assert not matcore.is_posdef_hermitian_part(np.diag([1.0, -0.1]))
