import numpy as np
import pytest

from weylsym import matcore
from weylsym.errors import DivergentIntegral
from weylsym.gaussint import (
    GaussianIntegrand,
    GaussianKernel,
    block_inverse_identity_residual,
    cayley_block_identity_residual,
    compose_kernels,
    det_identity_residual,
    gaussian_integral_closed,
    gaussian_law,
    quadrature_scale,
)
from weylsym.quadrature import GaussianExponent, lebesgue_cn, quadrature_cn
from weylsym.sympgroup import random_sp, random_su, rng_for, su_from_sp


def _cpx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


from weylsym.suites import random_gaussian_integrand, run_suite


def test_pure_gaussian_value():
    # A = D = 0, B = I/2: integrand exp(-|w|^2 + w + wbar), integral pi * e
    gi = GaussianIntegrand(1, [[0.0]], [[0.5]], [[0.0]], [1.0], [1.0])
    closed = gaussian_integral_closed(gi)
    quad = lebesgue_cn(gi.eval, 1, nodes_per_axis=80)
    assert closed == pytest.approx(np.pi * np.e, rel=1e-12)
    assert closed == pytest.approx(quad, rel=1e-10)


def test_closed_form_matches_quadrature():
    for n, nodes, trials in ((1, 80, 40), (2, 40, 10)):
        for trial in range(trials):
            rng = rng_for(900 + trial, f"gaussint-test-{n}")
            gi = random_gaussian_integrand(rng, n)
            closed = gaussian_integral_closed(gi)
            quad = lebesgue_cn(GaussianExponent(gi.exponent), n, nodes_per_axis=nodes, scale=quadrature_scale(gi))
            assert abs(closed - quad) / abs(closed) < 1e-8


def test_suite_resolves_large_linear_terms():
    # suite seeds whose n = 2 draws the default 40 nodes missed (worst 4.9e-4)
    # while the grid sat at the origin with axis scale max(1, λ_min^{-1/2})
    for seed in (1185148834, 603779526, 651204975, 127500470, 46318034, 1924864901):
        assert run_suite("gaussint", n=2, trials=1, seed=seed).failures == 0


def test_divergent_integrand_rejected():
    gi = GaussianIntegrand(1, [[0.0]], [[-0.5]], [[0.0]], [0.0], [0.0])
    with pytest.raises(DivergentIntegral):
        gaussian_integral_closed(gi)


def test_identity_kernel_reproduces():
    # composing with the reproducing kernel changes nothing
    lam = 1.3
    rng = rng_for(5, "kernel-compose")
    alpha = 0.2 * np.array([[0.3 + 0.1j]])
    gamma = 0.2 * np.array([[-0.2 + 0.2j]])
    beta = np.array([[0.9 + 0.05j]])
    k = GaussianKernel(1, lam, 1.7 - 0.3j, alpha, beta, gamma)
    ident = GaussianKernel.identity(1, lam)
    for other, label in ((compose_kernels(k, ident), "right"), (compose_kernels(ident, k), "left")):
        assert np.allclose(other.alpha, k.alpha, atol=1e-12), label
        assert np.allclose(other.beta, k.beta, atol=1e-12), label
        assert np.allclose(other.gamma, k.gamma, atol=1e-12), label
        assert other.c == pytest.approx(k.c, rel=1e-12)


def test_compose_matches_quadrature():
    # closed-form composition against a direct numerical u-integral
    lam = 1.0
    rng = rng_for(6, "kernel-compose-quad")
    ks = []
    for _ in range(2):
        k = random_su(1, int(rng.integers(1 << 30)))
        from weylsym.metaplectic import sigma_kernel

        ks.append(sigma_kernel(k, lam))
    comp = compose_kernels(ks[0], ks[1])
    z = np.array([0.4 - 0.1j])
    w = np.array([-0.2 + 0.3j])
    direct = quadrature_cn(lambda u: ks[0].eval(z, u) * ks[1].eval(u, w), lam, 1)
    assert comp.eval(z, w) == pytest.approx(direct, rel=1e-10)


def test_gaussian_law_polarises():
    # with a matrix of linear terms the form q is the polarisation of the
    # vector law: ξ^t q ξ is the law at the one linear term rξ
    for n in (1, 2, 3):
        rng = rng_for(n, "gaussian-law-polar")
        m = random_gaussian_integrand(rng, n).M
        r = _cpx(rng, (2 * n, 3), 0.5)
        root, q = gaussian_law(m, r)
        assert q.shape == (3, 3)
        for _ in range(5):
            xi = _cpx(rng, 3)
            root_v, q_v = gaussian_law(m, r @ xi)
            assert root_v == root
            assert abs(xi @ q @ xi - q_v) < 1e-13 * (1 + abs(q_v))


def _compose_by_hand(k1, k2):
    """The composition with N, M^{-1} and its blocks built out explicitly."""
    n, lam = k1.n, k1.lam
    b = (lam / 4) * np.eye(n)
    m = np.block([[-(lam / 4) * k2.alpha, b.T], [b, -(lam / 4) * k1.gamma]])
    u = matcore.matrix_U(n)
    n_mat = u.T @ m @ u
    minv = np.linalg.inv(m)
    m11, m12, m22 = minv[:n, :n], minv[:n, n:], minv[n:, n:]
    alpha = k1.alpha + (lam / 4) * (k1.beta @ m22 @ k1.beta.T)
    gamma = k2.gamma + (lam / 4) * (k2.beta.T @ m11 @ k2.beta)
    beta = (lam / 4) * (k1.beta @ m12.T @ k2.beta)
    root = np.prod(np.sqrt(np.linalg.eigvals(n_mat)))
    return k1.c * k2.c * (lam / 2) ** n / root, alpha, beta, gamma


def test_compose_matches_hand_built_formula():
    from weylsym.metaplectic import sigma_kernel

    for n in (1, 2, 3):
        for seed in range(6):
            scale = 1.5 if seed % 2 else 0.5
            k1, k2 = (su_from_sp(random_sp(n, 300 + 2 * seed + i, scale)) for i in range(2))
            for lam in (0.7, 1.0):
                ks = sigma_kernel(k1, lam), sigma_kernel(k2, lam)
                comp = compose_kernels(*ks)
                got = (comp.c, comp.alpha, comp.beta, comp.gamma)
                for g, ref in zip(got, _compose_by_hand(*ks)):
                    assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_block_identities_random_su():
    for n in (1, 2, 3):
        for seed in range(10):
            k = random_su(n, 50 + seed)
            pinv = np.linalg.inv(k.P)
            a, d, p = k.Q.conj() @ pinv, pinv @ k.Q, pinv
            assert block_inverse_identity_residual(a, d, p) < 1e-10
            assert cayley_block_identity_residual(k) < 1e-10
            assert det_identity_residual(k) < 1e-10


def test_quadrature_cn_normalisation():
    for n in (1, 2):
        val = quadrature_cn(lambda w: np.ones(w.shape[0]), 2.0, n, nodes_per_axis=40)
        assert val == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# stacked quadratic forms against the per-block einsum formulas they replace


def _ref_integrand_eval(gi, w):
    w = np.asarray(w, dtype=complex)
    wb = w.conj()
    quad = (
        np.einsum("...i,ij,...j->...", w, gi.A, w)
        + np.einsum("...i,ij,...j->...", wb, gi.D, wb)
        + 2 * np.einsum("...i,ij,...j->...", wb, gi.B, w)
    )
    return np.exp(-quad + w @ gi.u + wb @ gi.v)


def _ref_kernel_exponent(k, z, w):
    z = np.asarray(z, dtype=complex)
    wb = np.asarray(w, dtype=complex).conj()
    expo = (
        np.einsum("...i,ij,...j->...", z, k.alpha, z)
        + 2 * np.einsum("...i,ij,...j->...", z, k.beta, wb)
        + np.einsum("...i,ij,...j->...", wb, k.gamma, wb)
    )
    return k.lam / 4 * expo


def _ref_kernel_eval(k, z, w):
    return k.c * np.exp(_ref_kernel_exponent(k, z, w))


def _random_kernel(rng, n):
    sym = lambda a: (a + a.T) / 2  # noqa: E731
    return GaussianKernel(
        n, 1.3, _cpx(rng, ()), sym(_cpx(rng, (n, n), 0.3)), _cpx(rng, (n, n), 0.5), sym(_cpx(rng, (n, n), 0.3))
    )


def _assert_rel(got, ref):
    assert np.shape(got) == np.shape(ref)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


def test_stacked_forms_match_einsum_reference():
    from weylsym.metaplectic import sigma_kernel

    for n in (1, 2, 3):
        rng = rng_for(n, "stacked-forms")
        gi = random_gaussian_integrand(rng, n)
        kernels = (_random_kernel(rng, n), sigma_kernel(random_su(n, 70 + n), 0.9))
        # one point, a batch, a 2-d batch, and the transposed axis-major
        # view that the quadrature layer hands over
        points = [
            _cpx(rng, n, 0.5),
            _cpx(rng, (7, n), 0.5),
            _cpx(rng, (3, 4, n), 0.5),
            np.ascontiguousarray(_cpx(rng, (n, 9), 0.5)).T,
        ]
        for w in points:
            _assert_rel(gi.eval(w), _ref_integrand_eval(gi, w))
            z = _cpx(rng, w.shape, 0.5)
            for k in kernels:
                _assert_rel(k.eval(z, w), _ref_kernel_eval(k, z, w))
        # broadcast pairs: one z against a batch of w, and the reverse
        z, w = _cpx(rng, n, 0.5), _cpx(rng, (5, n), 0.5)
        for k in kernels:
            _assert_rel(k.eval(z, w), _ref_kernel_eval(k, z, w))
            _assert_rel(k.eval(w, z), _ref_kernel_eval(k, w, z))
            expo, ref = k.exponent(z, w), _ref_kernel_exponent(k, z, w)
            assert expo.shape == ref.shape
            assert np.max(np.abs(expo - ref)) < 1e-13 * (1 + np.max(np.abs(ref)))


def test_symbol_form_matches_einsum_reference():
    """GaussianSymbol evaluates v^t S v through the same stacked form as the
    kernel and the integrand; the per-point einsum it replaced is kept here."""
    from weylsym.weylsymbols import GaussianSymbol

    for n in (1, 2, 3):
        rng = rng_for(n, "symbol-form")
        s = _cpx(rng, (2 * n, 2 * n), 0.3)
        sym = GaussianSymbol(n, _cpx(rng, ()), s + s.T)
        for v in (
            rng.standard_normal(2 * n),
            rng.standard_normal((64, 2 * n)),
            rng.standard_normal((3, 4, 2 * n)),
            np.ascontiguousarray(rng.standard_normal((2 * n, 9))).T,
        ):
            got = sym.eval(v)
            ref = sym.gamma * np.exp(np.einsum("...i,ij,...j->...", v, sym.S, v))
            _assert_rel(got, ref)
            assert isinstance(got, complex) == (v.ndim == 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_point_value_is_the_matmul_expression_bit_for_bit(n):
    """At one point, `quad_form` takes v^t Q v as two `ndarray.dot` products on
    v cast to Q's dtype, and `GaussianSymbol` exponentiates with `cmath.exp`:
    the same bits as ``v @ (m @ v)`` and ``complex(γ * np.exp(e))``, which are
    computed here, for real and complex v.  One point and a batch sum E in
    another order, so they agree to 4ε relative on the scale 1 + |v|^t|Q||v|
    of the exponent's terms."""
    from weylsym.weylsymbols import GaussianSymbol

    rng = rng_for(n, "one-point-bits")
    for _ in range(60):
        s = _cpx(rng, (2 * n, 2 * n), 0.3)
        sym = GaussianSymbol(n, _cpx(rng, ()), s + s.T)
        m = sym.Q
        batch = rng.uniform(-1.5, 1.5, (8, 2 * n))
        for v in (batch[0], _cpx(rng, 2 * n, 0.7)):
            e = v @ (m @ v)
            assert matcore.quad_form(m, v.astype(complex)) == e
            assert sym.eval(v) == complex(sym.gamma * np.exp(e))
        values = sym.eval(batch)
        zs = batch[:, :n] + 1j * batch[:, n:]
        for i, v in enumerate(batch):
            tol = 4 * np.finfo(float).eps * (1 + np.abs(v) @ np.abs(m) @ np.abs(v))
            for one, many in ((sym.eval(v), values[i]), (sym.eval_z(zs[i]), sym.eval_z(zs)[i])):
                assert abs(one - many) <= tol * abs(many)
