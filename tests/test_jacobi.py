import numpy as np
import pytest

from weylsym.errors import NoDecomposition, ShapeError, SingularMatrix
from weylsym.jacobi import (
    CharParams,
    JacobiGroupElt,
    JacobiGroupEltC,
    JacobiPoint,
    bk_via_jacobi,
    complexify,
    j_chi,
    jacobi_action,
    jacobi_inv,
    jacobi_mul,
    jc_mul,
    pkp_decompose,
    pkp_recompose,
)
from weylsym.metaplectic import sigma_kernel
from weylsym.sympgroup import SuBlocks, random_su, rng_for


def _cpx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _random_elt(n, seed, z_scale=0.5):
    rng = rng_for(seed, "jacobi-elt")
    return JacobiGroupElt(n, _cpx(rng, n, z_scale), float(rng.uniform(-1, 1)), random_su(n, seed))


def test_group_law_associative_and_inverse():
    for n in (1, 2):
        g1, g2, g3 = (_random_elt(n, s) for s in (1, 2, 3))
        left = jacobi_mul(jacobi_mul(g1, g2), g3)
        right = jacobi_mul(g1, jacobi_mul(g2, g3))
        assert np.allclose(left.z0, right.z0, atol=1e-12)
        assert left.c == pytest.approx(right.c, abs=1e-12)
        assert np.allclose(left.k.full, right.k.full, atol=1e-12)
        e = jacobi_mul(g1, jacobi_inv(g1))
        assert np.allclose(e.z0, 0, atol=1e-12)
        assert e.c == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(e.k.full, np.eye(2 * n), atol=1e-12)


def test_pkp_round_trip():
    for n in (1, 2):
        for seed in range(8):
            gc = complexify(_random_elt(n, 30 + seed))
            y, big_y, c, p, v, big_v = pkp_decompose(gc)
            back = pkp_recompose(y, big_y, c, p, v, big_v)
            assert np.allclose(back.mat, gc.mat, atol=1e-10)
            assert np.allclose(back.z0, gc.z0, atol=1e-10)
            assert np.allclose(back.w0, gc.w0, atol=1e-10)
            assert back.c == pytest.approx(gc.c, abs=1e-10)


def test_singular_blocks_refused():
    # the element with matrix J has D = 0: no P+ Kc P- factorisation, and
    # CY + D = 0 at the origin
    g = JacobiGroupEltC.from_mat(np.zeros(1), np.zeros(1), 0.0, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(NoDecomposition):
        pkp_decompose(g)
    with pytest.raises(SingularMatrix):
        jacobi_action(g, JacobiPoint.origin(1))


def test_action_is_a_group_action():
    n = 1
    g1, g2 = complexify(_random_elt(n, 5, 0.3)), complexify(_random_elt(n, 6, 0.3))
    rng = rng_for(7, "jacobi-pt")
    z = JacobiPoint(n, _cpx(rng, n, 0.3), 0.3 * np.eye(n) * rng.uniform(0.1, 0.9))
    one_step = jacobi_action(jc_mul(g1, g2), z)
    two_step = jacobi_action(g1, jacobi_action(g2, z))
    assert np.allclose(one_step.y, two_step.y, atol=1e-10)
    assert np.allclose(one_step.Y, two_step.Y, atol=1e-10)


def test_domain_membership():
    assert JacobiPoint(1, np.zeros(1), 0.5 * np.eye(1)).in_domain()
    assert not JacobiPoint(1, np.zeros(1), 1.5 * np.eye(1)).in_domain()


def test_j_chi_cocycle():
    # J_chi(g1 g2, Z) = J_chi(g1, g2 · Z) J_chi(g2, Z) for small elements
    chi = CharParams(1.0, -0.5)
    n = 1
    g1, g2 = _random_elt(n, 11, 0.2), _random_elt(n, 12, 0.2)
    rng = rng_for(13, "jacobi-pt")
    z = JacobiPoint(n, _cpx(rng, n, 0.2), 0.2 * np.eye(n))
    lhs = j_chi(jacobi_mul(g1, g2), z, chi)
    rhs = j_chi(g1, jacobi_action(complexify(g2), z), chi) * j_chi(g2, z, chi)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_bk_via_jacobi_matches_sigma_kernel():
    chi1 = CharParams(1.0, -0.5)
    chi2 = CharParams(2.0, -0.5)
    for n in (1, 2):
        for seed in range(15):
            k = random_su(n, 70 + seed)
            rng = rng_for(70 + seed, "bk-pts")
            y = _cpx(rng, n, 0.6)
            v = _cpx(rng, n, 0.6)
            for chi in (chi1, chi2):
                direct = sigma_kernel(k, chi.lam).eval(y, v)
                dual = bk_via_jacobi(k, y, v, chi)
                assert abs(direct - dual) / abs(direct) < 1e-9


def test_char_params_validation():
    with pytest.raises(Exception):
        CharParams(-1.0, -0.5)
    with pytest.raises(Exception):
        CharParams(1.0, -0.3)  # m must be a half-integer
    # λ in (0, ∞) and a finite m, where NaN gave a nan kernel or an untyped error
    for lam, m in ((0.0, -0.5), (np.nan, -0.5), (np.inf, -0.5), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ShapeError):
            CharParams(lam, m)
