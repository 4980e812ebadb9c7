import numpy as np
import pytest

from weylsym.gaussint import GaussianKernel
from weylsym.heisenberg import (
    HeisElt,
    bargmann_apply,
    berezin_double_symbol,
    coherent_eval,
    heis_inv,
    heis_mul,
    omega0_apply,
    omega1_apply,
    rho_fock_apply,
    rho_schrod_apply,
    symplectic_form,
)
from weylsym.quadrature import quadrature_cn
from weylsym.suites import run_suite
from weylsym.sympgroup import rng_for


def _cpx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _random_h(n, seed, scale=0.5):
    rng = rng_for(seed, "heis")
    return HeisElt(n, _cpx(rng, n, scale), float(rng.uniform(-1, 1)))


def test_group_law():
    for n in (1, 2):
        h1, h2, h3 = (_random_h(n, s) for s in (1, 2, 3))
        left = heis_mul(heis_mul(h1, h2), h3)
        right = heis_mul(h1, heis_mul(h2, h3))
        assert np.allclose(left.z0, right.z0, atol=1e-12)
        assert left.c == pytest.approx(right.c, abs=1e-12)
        e = heis_mul(h1, heis_inv(h1))
        assert np.allclose(e.z0, 0, atol=1e-12)
        assert e.c == pytest.approx(0.0, abs=1e-12)


def test_symplectic_form_antisymmetry():
    rng = rng_for(4, "omega")
    z, w = _cpx(rng, 2), _cpx(rng, 2)
    zp, wp = _cpx(rng, 2), _cpx(rng, 2)
    assert symplectic_form(z, w, zp, wp) == pytest.approx(-symplectic_form(zp, wp, z, w))


def test_rho_fock_is_projective_representation():
    # rho(h1) rho(h2) = rho(h1 h2) exactly (the cocycle is absorbed in c)
    lam = 1.7
    n = 1
    h1, h2 = _random_h(n, 5), _random_h(n, 6)
    rng = rng_for(7, "pts")
    z = _cpx(rng, n, 0.5)

    def f(w):
        return np.exp(0.3 * w[0] + 0.1 * w[0] ** 2)

    two = rho_fock_apply(h1, lambda w: rho_fock_apply(h2, f, w, lam), z, lam)
    one = rho_fock_apply(heis_mul(h1, h2), f, z, lam)
    assert two == pytest.approx(one, rel=1e-12)


def test_rho_schrod_is_representation():
    lam = 1.3
    n = 1
    h1, h2 = _random_h(n, 8), _random_h(n, 9)
    x = np.array([0.4])

    def phi(t):
        return np.exp(-0.5 * t[0] ** 2 + 0.2 * t[0])

    two = rho_schrod_apply(h1, lambda t: rho_schrod_apply(h2, phi, t, lam), x, lam)
    one = rho_schrod_apply(heis_mul(h1, h2), phi, x, lam)
    assert two == pytest.approx(one, rel=1e-12)


def test_coherent_reproducing_property():
    # <f, e_z> = f(z), checked with quadrature for polynomial f
    for lam in (1.0, 2.0):
        for n in (1, 2):
            rng = rng_for(10, f"repro-{n}")
            z = _cpx(rng, n, 0.5)

            def f(w):
                return w[..., 0] ** 2 + 0.5 * w[..., 0] + (w[..., -1] if n > 1 else 0.0)

            inner = quadrature_cn(
                lambda w: f(w) * np.exp(lam / 2 * (w.conj() @ z)),
                lam,
                n,
                nodes_per_axis=60 if n == 1 else 40,
            )
            assert abs(inner - f(z[None, :])[0]) < 1e-7


def test_coherent_overlap_convention():
    rng = rng_for(11, "overlap")
    z, w = _cpx(rng, 1), _cpx(rng, 1)
    lam = 1.5
    # <e_w, e_z> = e_w(z) = exp(λ wbar z / 2)
    assert coherent_eval(w, z, lam) == pytest.approx(np.exp(lam / 2 * (w.conj() @ z)))
    # Hermitian symmetry <e_w, e_z> = conj(<e_z, e_w>)
    assert coherent_eval(w, z, lam) == pytest.approx(np.conj(coherent_eval(z, w, lam)))


def test_bargmann_of_ground_state():
    # the lambda-ground-state phi(x) = exp(-lam x^2 / 2) maps to a constant:
    # the exp(lam z^2/4) from the x-integral cancels the exp(-lam z^2/4) prefactor
    for lam in (1.0, 2.0):
        z = np.array([0.3 + 0.2j])
        val = bargmann_apply(lambda x: np.exp(-lam / 2 * np.sum(x**2, axis=-1)), z, lam)
        expect = (lam / np.pi) ** 0.25 * np.sqrt(np.pi / lam)
        assert val == pytest.approx(expect, rel=1e-10)


def test_bargmann_intertwines_heisenberg():
    lam = 1.0
    n = 1
    for seed in range(3):
        h = _random_h(n, 20 + seed, scale=0.4)
        rng = rng_for(20 + seed, "pts")
        z = _cpx(rng, n, 0.5)

        def phi(x):
            x = np.atleast_2d(x)
            return x[:, 0] ** seed * np.exp(-0.5 * np.sum(x**2, axis=-1))

        lhs = bargmann_apply(lambda x: rho_schrod_apply(h, phi, x, lam), z, lam)
        rhs = rho_fock_apply(h, lambda w: bargmann_apply(phi, w, lam), z, lam)
        assert abs(lhs - rhs) / (1 + abs(rhs)) < 1e-6


def test_bargmann_suite_runs_at_n_3():
    # the Bargmann transform integrates over R^n: 40^3 nodes at n = 3
    report = run_suite("bargmann", n=3, trials=1)
    assert report.failures == 0 and report.max_residual > 0


def test_omega0_is_twisted_parity():
    lam = 1.0
    n = 1

    def f(w):
        return 1.3 + 0.4 * w[0]

    w = np.array([0.5 - 0.1j])
    assert omega0_apply(np.zeros(1), f, w, lam) == pytest.approx(2 * f(-w))
    # Omega0(z)^2 = 4^n id
    zc = np.array([0.3 + 0.1j])
    twice = omega0_apply(zc, lambda u: omega0_apply(zc, f, u, lam), w, lam)
    assert twice == pytest.approx(4 * f(w), rel=1e-12)


def test_omega1_is_twisted_parity():
    lam = 1.3

    def phi(t):
        return np.exp(-0.5 * t[0] ** 2) * (1 + t[0])

    a, b = np.array([0.3]), np.array([-0.2])
    x = np.array([0.7])
    twice = omega1_apply(a, b, lambda t: omega1_apply(a, b, phi, t, lam), x, lam)
    assert twice == pytest.approx(4 * phi(x), rel=1e-12)


def test_berezin_double_symbol_of_identity():
    lam = 2.0
    k = GaussianKernel.identity(1, lam)
    rng = rng_for(30, "double")
    z, w = _cpx(rng, 1), _cpx(rng, 1)
    assert berezin_double_symbol(k, z, w, lam) == pytest.approx(1.0)


def test_berezin_double_symbol_of_sigma():
    """On the diagonal the double symbol of σ(k) is its Berezin symbol, which
    also matches the formula in P^{-1} that the σ kernel's data replaced."""
    from weylsym.matcore import principal_sqrt
    from weylsym.metaplectic import berezin_sigma_symbol, sigma_kernel
    from weylsym.sympgroup import random_su

    lam = 0.8
    for n in (1, 2, 3):
        rng = rng_for(n, "double-sigma")
        for seed in range(4):
            k = random_su(n, 40 + seed, 1.5)
            z = _cpx(rng, n, 0.5)
            sym = berezin_sigma_symbol(k, lam).eval_z(z)
            pinv = np.linalg.inv(k.P)
            zb = z.conj()
            expo = z @ (k.Q.conj() @ pinv @ z) + 2 * zb @ ((pinv - np.eye(n)) @ z) - zb @ (pinv @ k.Q @ zb)
            ref = np.exp(lam / 4 * expo) / principal_sqrt(np.linalg.det(k.P))
            assert abs(sym - ref) < 1e-13 * abs(ref)
            double = berezin_double_symbol(sigma_kernel(k, lam), z, z, lam)
            assert abs(sym - double) < 1e-13 * abs(double)
