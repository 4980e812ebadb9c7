import numpy as np
import pytest

from weylsym.errors import NotInS
from weylsym.gaussint import GaussianKernel, compose_kernels
from weylsym.metaplectic import (
    alpha_from_dets,
    berezin_sigma_symbol,
    berezin_symbol_dsigma,
    dsigma_apply,
    dsigma_kernel,
    sigma_adjoint_check,
    sigma_cocycle_scalar,
    sigma_cocycle_sign,
    sigma_kernel,
    verify_intertwining,
)
from weylsym.polys import Poly
from weylsym.quadrature import quadrature_cn
from weylsym.sympgroup import (
    SuBlocks,
    random_sp_lie,
    random_su,
    rng_for,
    su_exp,
    su_inv,
    su_lie_from_sp_lie,
)


def _cpx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_identity_kernel():
    for lam in (1.0, 2.5):
        k = sigma_kernel(SuBlocks.identity(2), lam)
        ident = GaussianKernel.identity(2, lam)
        assert np.allclose(k.alpha, ident.alpha)
        assert np.allclose(k.beta, ident.beta)
        assert np.allclose(k.gamma, ident.gamma)
        assert k.c == pytest.approx(1.0)


def test_sigma_kernel_rejects_bad_blocks():
    with pytest.raises(NotInS):
        sigma_kernel(SuBlocks(1, np.array([[2.0]]), np.array([[0.0]])), 1.0)


def test_intertwining_random():
    for n in (1, 2):
        for seed in range(25):
            k = random_su(n, 100 + seed)
            rng = rng_for(100 + seed, "intertwine-pts")
            z0, z, w = (_cpx(rng, n, 0.7) for _ in range(3))
            assert verify_intertwining(k, z0, z, w, 1.0) < 1e-10


def test_cocycle_sign_and_alpha():
    for n in (1, 2):
        for seed in range(20):
            k1 = random_su(n, 200 + seed)
            k2 = random_su(n, 300 + seed)
            s = sigma_cocycle_scalar(k1, k2, 1.0)
            sign = sigma_cocycle_sign(k1, k2, 1.0)
            assert sign in (1, -1)
            assert abs(s - sign) < 1e-9
            # the determinant lemma gives the same scalar: s * alpha = 1
            assert s * alpha_from_dets(k1, k2) == pytest.approx(1.0, abs=1e-9)


def test_unitarity_composition():
    lam = 1.0
    for seed in range(10):
        k = random_su(1, 400 + seed)
        comp = compose_kernels(sigma_kernel(k, lam), sigma_kernel(su_inv(k), lam))
        ident = GaussianKernel.identity(1, lam)
        assert np.allclose(comp.alpha, ident.alpha, atol=1e-9)
        assert np.allclose(comp.beta, ident.beta, atol=1e-9)
        assert np.allclose(comp.gamma, ident.gamma, atol=1e-9)
        assert comp.c == pytest.approx(1.0, abs=1e-9)


def test_adjoint_identity_swapped_arguments():
    # b_{k^{-1}}(z, w) = conj(b_k(w, z)); the unswapped variant fails generically
    rng = rng_for(17, "adjoint")
    hits = 0
    for seed in range(10):
        k = random_su(1, 500 + seed)
        z, w = _cpx(rng, 1, 0.6), _cpx(rng, 1, 0.6)
        assert sigma_adjoint_check(k, z, w, 1.0, swapped=True) < 1e-10
        if sigma_adjoint_check(k, z, w, 1.0, swapped=False) > 1e-6:
            hits += 1
    assert hits > 0


def test_dsigma_kernel_is_derivative_of_sigma_kernel():
    # b_X = d/dt b_{exp(tX)} at t = 0 (Richardson-extrapolated central difference)
    lam = 1.0
    for seed in range(5):
        x_sp = random_sp_lie(1, 600 + seed, scale=0.6)
        x = su_lie_from_sp_lie(x_sp)
        rng = rng_for(600 + seed, "dsigma-pts")
        z, w = _cpx(rng, 1, 0.5), _cpx(rng, 1, 0.5)
        b_x = dsigma_kernel(x, lam).eval(z, w)

        def kernel_at(t):
            xt = su_lie_from_sp_lie(
                type(x_sp)(x_sp.n, t * x_sp.A, t * x_sp.B, t * x_sp.C)
            )
            return complex(sigma_kernel(su_exp(xt), lam).eval(z, w))

        h = 1e-3
        d1 = (kernel_at(h) - kernel_at(-h)) / (2 * h)
        d2 = (kernel_at(h / 2) - kernel_at(-h / 2)) / h
        richardson = (4 * d2 - d1) / 3
        assert abs(richardson - b_x) < 1e-8 * (1 + abs(b_x))


def test_dsigma_apply_matches_kernel_integral():
    # (dsigma(X) f)(z) = int b_X(z, w) f(w) e^{-lam|w|^2/2} dmu(w) for polynomials
    lam = 1.5
    x = su_lie_from_sp_lie(random_sp_lie(1, 21, scale=0.5))
    f = Poly(1, {(0,): 0.7, (1,): 0.3 - 0.2j, (2,): 0.4j})
    out = dsigma_apply(x, f, lam)
    rng = rng_for(22, "dsigma-apply")
    for _ in range(3):
        z = _cpx(rng, 1, 0.5)
        dk = dsigma_kernel(x, lam)
        quad = quadrature_cn(
            lambda w: np.array([dk.eval(z, wi) * f.eval(wi) for wi in w]),
            lam,
            1,
            nodes_per_axis=60,
        )
        assert abs(quad - out.eval(z)) < 1e-8 * (1 + abs(quad))


def test_berezin_symbols():
    # S_lam(sigma(k))(z) equals the normalized kernel diagonal
    lam = 1.0
    for seed in range(10):
        k = random_su(2, 700 + seed)
        rng = rng_for(700 + seed, "berezin-pts")
        z = _cpx(rng, 2, 0.5)
        direct = sigma_kernel(k, lam).eval(z, z) / np.exp(lam / 2 * (z @ z.conj()))
        assert berezin_sigma_symbol(k, lam).eval_z(z) == pytest.approx(complex(direct), rel=1e-10)


def test_berezin_dsigma_is_derivative_of_berezin_sigma():
    lam = 1.0
    for seed in range(5):
        x_sp = random_sp_lie(1, 800 + seed, scale=0.6)
        x = su_lie_from_sp_lie(x_sp)
        rng = rng_for(800 + seed, "bds-pts")
        z = _cpx(rng, 1, 0.5)
        target = berezin_symbol_dsigma(x, z, lam)

        def symbol_at(t):
            xt = su_lie_from_sp_lie(
                type(x_sp)(x_sp.n, t * x_sp.A, t * x_sp.B, t * x_sp.C)
            )
            return berezin_sigma_symbol(su_exp(xt), lam).eval_z(z)

        h = 1e-3
        d1 = (symbol_at(h) - symbol_at(-h)) / (2 * h)
        d2 = (symbol_at(h / 2) - symbol_at(-h / 2)) / h
        assert abs((4 * d2 - d1) / 3 - target) < 1e-8 * (1 + abs(target))


def test_dsigma_apply_validates_variable_count():
    from weylsym.errors import NotInLie

    x = su_lie_from_sp_lie(random_sp_lie(2, 33))
    with pytest.raises(NotInLie):
        dsigma_apply(x, Poly.var(1, 0), 1.0)


def test_sigma_kernel_constant_from_its_own_lu():
    """sigma_kernel takes Det P from the LU that inverts P; its constant is
    still the principal (Det P)^{-1/2} of numpy's determinant, and never on
    the other sheet, far from the identity too."""
    from weylsym.matcore import principal_sqrt

    for n in (1, 2, 3):
        for seed in range(40):
            k = random_su(n, 900 + seed, 3.0)
            ref = 1 / principal_sqrt(np.linalg.det(k.P))
            assert abs(sigma_kernel(k, 1.0).c - ref) < 1e-14 * abs(ref)
