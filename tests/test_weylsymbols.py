import numpy as np
import pytest

from weylsym import matcore
from weylsym.errors import (
    AmbiguousPhase,
    BadConfig,
    CayleySingular,
    HeatFlowSingular,
    NonConvergent,
    ShapeError,
    SingularMatrix,
)
from weylsym.metaplectic import berezin_sigma_symbol, sigma_kernel
from weylsym.moyal import star_exp_quadratic_closed, star_exp_symbol
from weylsym.quadrature import CHUNK, quadrature_cn
from weylsym.suites import random_su_negdet
from weylsym.sympgroup import (
    SpLieReal,
    SpReal,
    SuBlocks,
    random_sp,
    random_sp_lie,
    random_su,
    rng_for,
    su_from_sp,
)
from weylsym.weylsymbols import (
    GaussianSymbol,
    QuadForm2n,
    adjudicate_phase,
    berezin_transform_gaussian,
    berezin_transform_quadrature,
    classical_weyl_kernel,
    heat_flow_gaussian,
    metaplectic_phase_c,
    polar_relation_residual,
    w0_dsigma_closed,
    w0_integral,
    w0_sigma_closed,
    w0_sigma_symbol,
    w1_dsigma_closed,
    w1_exp_symbol,
    w1_of_classical_weyl,
    w1_sigma_closed,
    w1_sigma_symbol,
)


def _cpx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _rotation(theta):
    return SpReal(
        1, np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    )


# ---------------------------------------------------------------------------
# W0


def test_w0_of_identity_is_one():
    for n in (1, 2):
        k = SuBlocks.identity(n)
        assert metaplectic_phase_c(k) == pytest.approx(1.0)
        z = 0.3 * np.ones(n) + 0.2j * np.ones(n)
        assert w0_sigma_closed(k, z, 1.0) == pytest.approx(1.0)
        nodes = 80 if n == 1 else 18
        assert w0_integral(sigma_kernel(k, 1.0), z, 1.0, nodes=nodes) == pytest.approx(
            1.0, abs=1e-6
        )


def test_phase_constant_rotation():
    for theta in (0.4, 1.2, 2.0):
        k = su_from_sp(_rotation(theta))
        # det(I + k) = 4 cos^2(theta/2) > 0
        assert metaplectic_phase_c(k) == pytest.approx(1 / np.cos(theta / 2), rel=1e-12)
    # near the singular set: I + k = diag(1 + P, 1 + Pbar) is small but well
    # conditioned, and Det(I+k) = |1 + P|^2 > 0 gives c = 2 / |1 + P|
    p = np.exp(1j * (np.pi - 1e-6))
    k = SuBlocks(1, [[p]], [[0.0]])
    assert metaplectic_phase_c(k) == pytest.approx(2 / abs(1 + p), rel=1e-9)


def test_phase_constant_negative_determinant_cases():
    for seed in range(6):
        k = random_su_negdet(seed)
        d = np.linalg.det(k.full + np.eye(2)).real
        assert d < 0
        c = metaplectic_phase_c(k)
        # modulus is 2^n |det|^{-1/2} and the value is purely imaginary
        assert abs(c) == pytest.approx(2 / np.sqrt(abs(d)), rel=1e-12)
        assert abs(c.real) < 1e-12
        # quadrature adjudication agrees with the case analysis
        assert adjudicate_phase(k, 1.0) == pytest.approx(c, rel=1e-4)


# (a, b): g = -diag(a, 1/a), and at n = 2 g = -diag(a, 1/a) ⊕ diag(b, 1/b), so
# Det(I+g) < 0 with Det P real: the cut of (Det P)^{-1/2}
_CUT = [(1.5, None), (2.0, None), (3.0, None), (2.0, 1.5), (3.0, 2.0)]


def _cut_element(a, b):
    return SpReal(1, -np.diag([a, 1 / a])) if b is None else SpReal(2, np.diag([-a, b, -1 / a, 1 / b]))


@pytest.mark.parametrize("a, b", _CUT)
def test_phase_at_the_cut_is_the_gaussian_law(a, b):
    g = _cut_element(a, b)
    k = su_from_sp(g)
    n = k.n
    d = np.linalg.det(np.eye(2 * n) + g.g)
    assert d < 0 and abs(np.linalg.det(k.P).imag) == 0
    c = metaplectic_phase_c(k)
    assert c.real == 0 and c.imag == pytest.approx(-(2**n) / np.sqrt(-d), rel=1e-14)
    # the snapped Gaussian law is the snapped quadrature, bit for bit
    assert c == adjudicate_phase(k, 1.0, nodes=80 if n == 1 else 40)
    # W0 and W1 take it at every λ, and the W0 integral agrees off z = 0
    z = np.array([0.1 + 0.2j, -0.05 + 0.1j][:n])
    for lam in (1.0, 1.3):
        w0 = w0_sigma_closed(k, z, lam)
        assert w1_sigma_closed(g, z.real, z.imag, lam) == pytest.approx(w0, rel=1e-14)
        quad = w0_integral(sigma_kernel(k, lam), z, lam, nodes=80 if n == 1 else 30)
        assert quad == pytest.approx(w0, rel=1e-6)


def test_adjudicated_phase_is_an_allowed_value():
    # near the identity the quadrature's phase snaps onto the case analysis
    for seed in range(3):
        k = random_su(1, seed)
        assert abs(adjudicate_phase(k, 1.0, nodes=80) - metaplectic_phase_c(k)) <= 1e-15
    # n = 2 at the CLI's default of 80 nodes, 41M grid points each
    for seed in (5, 11):
        k = random_su(2, seed)
        assert abs(adjudicate_phase(k, 1.0, nodes=80) - metaplectic_phase_c(k)) <= 1e-15
    # Det(I+k) = 0.0088 > 0: at 40 nodes the quadrature gives -36.69+21.68i,
    # 30.6° from -|c|, which is not clearly one of ±|c|
    with pytest.raises(NonConvergent):
        adjudicate_phase(su_from_sp(random_sp(2, 183, 3.0)), 1.0, nodes=40)


def test_phase_singular_when_det_vanishes():
    k = su_from_sp(_rotation(np.pi))
    with pytest.raises((CayleySingular, AmbiguousPhase)):
        metaplectic_phase_c(k)


def test_w0_closed_vs_quadrature_both_integral_forms():
    lam = 1.0
    for seed in range(8):
        k = random_su(1, 40 + seed)
        rng = rng_for(40 + seed, "w0-pts")
        z = _cpx(rng, 1, 0.4)
        closed = w0_sigma_closed(k, z, lam)
        sym = w0_integral(sigma_kernel(k, lam), z, lam)
        nonsym = w0_integral(sigma_kernel(k, lam), z, lam, symmetric=False)
        assert abs(closed - sym) / abs(sym) < 1e-6
        assert abs(sym - nonsym) / abs(sym) < 1e-6


def _ref_w0_integral(kernel, z, lam, nodes, symmetric):
    # the two-exp integrands: the kernel value times the exponentiated W0 phase
    n = z.shape[0]
    zz = float(np.sum(np.abs(z) ** 2))

    def f(w):
        if symmetric:
            expo = lam / 2 * (-zz + w.conj() @ z - w @ z.conj())
            return 2**n * kernel.c * np.exp(_ref_kernel_exponent(kernel, z + w, z - w)) * np.exp(expo)
        expo = lam * (-zz + w.conj() @ z)
        return 2**n * kernel.c * np.exp(_ref_kernel_exponent(kernel, w, 2 * z - w)) * np.exp(expo)

    return quadrature_cn(f, lam, n, nodes_per_axis=nodes)


def _ref_kernel_exponent(k, z, w):
    wb = w.conj()
    return k.lam / 4 * (
        np.einsum("...i,ij,...j->...", z, k.alpha, z)
        + 2 * np.einsum("...i,ij,...j->...", z, k.beta, wb)
        + np.einsum("...i,ij,...j->...", wb, k.gamma, wb)
    )


def test_w0_integral_matches_two_exp_integrand(set_chunk):
    # (n, nodes, CHUNK, draws): one chunk at (1, 80); 3, 2 and 1 trailing axes
    # of the factorised sum at (2, 12), (2, 40) and (2, 12) with CHUNK = 32
    for n, nodes, chunk, draws in ((1, 80, CHUNK, 3), (2, 12, CHUNK, 3), (2, 40, CHUNK, 1), (2, 12, 32, 2)):
        set_chunk(chunk)
        for seed in range(draws):
            lam = 0.8 + 0.2 * seed
            kernel = sigma_kernel(random_su(n, 60 + seed), lam)
            z = _cpx(rng_for(seed, "w0-one-exp"), n, 0.4)
            for symmetric in (True, False):
                got = w0_integral(kernel, z, lam, nodes=nodes, symmetric=symmetric)
                ref = _ref_w0_integral(kernel, z, lam, nodes, symmetric)
                assert abs(got - ref) / abs(ref) < 1e-13


def test_w0_dsigma_closed_special_case():
    # A = i, B = 0, n = 1: W0(dsigma(X))(z) = -(i/2)|z|^2 at lam = 1
    from weylsym.sympgroup import SuLie

    x = SuLie(1, np.array([[1j]]), np.array([[0.0]]))
    z = np.array([0.7 - 0.4j])
    val = w0_dsigma_closed(x, z, 1.0)
    assert val == pytest.approx(-0.5j * abs(z[0]) ** 2, rel=1e-12)


def test_w0_dsigma_is_derivative_of_w0_sigma():
    from weylsym.sympgroup import su_exp, su_lie_from_sp_lie

    lam = 1.0
    for seed in range(5):
        x_sp = random_sp_lie(1, 50 + seed, scale=0.5)
        x = su_lie_from_sp_lie(x_sp)
        rng = rng_for(50 + seed, "w0d-pts")
        z = _cpx(rng, 1, 0.5)
        target = w0_dsigma_closed(x, z, lam)

        def w0_at(t):
            xt = su_lie_from_sp_lie(SpLieReal(1, t * x_sp.A, t * x_sp.B, t * x_sp.C))
            return w0_sigma_closed(su_exp(xt), z, lam)

        h = 1e-3
        d1 = (w0_at(h) - w0_at(-h)) / (2 * h)
        d2 = (w0_at(h / 2) - w0_at(-h / 2)) / h
        assert abs((4 * d2 - d1) / 3 - target) < 1e-6


# ---------------------------------------------------------------------------
# W1


def test_w1_of_identity():
    assert w1_sigma_closed(SpReal.identity(1), [0.0], [0.0]) == pytest.approx(1.0)
    x0 = SpLieReal(1, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    assert w1_exp_symbol(x0).eval([0.3, 0.2]) == pytest.approx(1.0)
    assert w1_dsigma_closed(x0, [0.3], [0.2]) == pytest.approx(0.0)


def test_w1_equals_w0_through_frame_change():
    for seed in range(20):
        g = random_sp(1, 60 + seed)
        rng = rng_for(60 + seed, "w1-pts")
        x = rng.uniform(-1, 1, 1)
        y = rng.uniform(-1, 1, 1)
        a = w1_sigma_closed(g, x, y)
        b = w0_sigma_closed(su_from_sp(g), x + 1j * y, 1.0)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_cayley_image_is_j_symmetric():
    for seed in range(20):
        g = random_sp(2, 70 + seed)
        jk = matcore.matrix_J(2) @ matcore.cayley(g.g)[0]
        assert matcore.norm(jk - jk.T) < 1e-10


def test_w1_exp_harmonic_oscillator():
    # X = theta J: cosh(X/2) = cos(theta/2) I, tanh(X/2) = tan(theta/2) J,
    # and v J tanh(X/2) v = -tan(theta/2) |v|^2, so the exponent collapses
    theta = 0.9
    j = matcore.matrix_J(1).real
    x = SpLieReal(1, np.zeros((1, 1)), theta * j[:1, 1:], theta * j[1:, :1])
    val = w1_exp_symbol(x).eval([0.7, -0.4])
    r2 = 0.49 + 0.16
    expect = (1 / np.cos(theta / 2)) * np.exp(1j * np.tan(theta / 2) * r2)
    assert val == pytest.approx(expect, rel=1e-12)
    # consistent with W1 of the corresponding group element
    import scipy.linalg as sla

    g = SpReal(1, sla.expm(theta * j))
    assert w1_sigma_closed(g, [0.7], [-0.4]) == pytest.approx(val, rel=1e-12)


def test_w1_dsigma_both_forms_and_example():
    # X = J (A=0, B=I, C=-I), n=1: both quoted forms give -(i/2)(x J X)-type value
    x = SpLieReal(1, np.zeros((1, 1)), np.eye(1), -np.eye(1))
    val = w1_dsigma_closed(x, [0.5], [0.3])
    assert val == pytest.approx(0.5j * (0.25 + 0.09), rel=1e-12)
    for n in (1, 2):
        for seed in range(20):
            xr = random_sp_lie(n, 80 + seed)
            rng = rng_for(80 + seed, "w1d-pts")
            x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            v = np.concatenate([x, y])
            # the second quoted form, -(i/2)(x y) J X (x y)^t
            form1 = w1_dsigma_closed(xr, x, y)
            form2 = -0.5j * (v @ ((matcore.matrix_J(n) @ xr.full) @ v))
            assert abs(form1 - form2) <= 1e-12 * (1 + abs(form1))


def test_w1_dsigma_is_derivative_of_w1_exp():
    for seed in range(5):
        x = random_sp_lie(1, 90 + seed, scale=0.5)
        rng = rng_for(90 + seed, "w1fd-pts")
        px = rng.uniform(-1, 1, 1)
        py = rng.uniform(-1, 1, 1)
        target = w1_dsigma_closed(x, px, py)

        def w1_at(t):
            xt = SpLieReal(1, t * x.A, t * x.B, t * x.C)
            return w1_exp_symbol(xt).eval(np.concatenate([px, py]))

        h = 1e-3
        d1 = (w1_at(h) - w1_at(-h)) / (2 * h)
        d2 = (w1_at(h / 2) - w1_at(-h / 2)) / h
        assert abs((4 * d2 - d1) / 3 - target) < 1e-6


def test_closed_forms_refuse_singular_cosh():
    # cosh(X/2), cos(JM) and cosh(JM) come out as cos(pi/2) I ≈ 6e-17 I:
    # well conditioned, but only roundoff of operands of size 1
    with pytest.raises(SingularMatrix):
        w1_exp_symbol(SpLieReal(1, [[0.0]], [[np.pi]], [[-np.pi]]))
    with pytest.raises(SingularMatrix):
        star_exp_symbol(QuadForm2n(1, np.pi / 2 * np.diag([1.0, -1.0])), 1)
    with pytest.raises(SingularMatrix):
        star_exp_symbol(QuadForm2n(1, np.pi / 2 * np.eye(2)), -1j)


def test_w1_exp_of_a_full_turn_is_minus_one():
    # exp X = I, and the metaplectic lift of a full turn is -I
    sym = w1_exp_symbol(SpLieReal(1, [[0.0]], [[2 * np.pi]], [[-2 * np.pi]]))
    assert sym.gamma == pytest.approx(-1.0, abs=1e-12)
    assert np.abs(sym.S).max() < 1e-12


def _conjugated_lie(n, seed, a, b, c, scale=0.5):
    """S X S^{-1} for X = [[A, B], [C, -A^t]] and S = random_sp(n, seed, scale)."""
    s = random_sp(n, seed, scale).g.real
    x = s @ np.block([[a, b], [c, -a.T]]) @ np.linalg.inv(s)
    return SpLieReal(n, x[:n, :n], x[:n, n:], x[n:, :n])


@pytest.mark.parametrize("omegas", [(1.0, 4.0), (4.0, 0.5, 2.0), (7.0, 2 * np.pi - 0.3, 3.5)])
def test_cosh_law_constants_past_the_pole(omegas):
    """X = S R S^{-1}, R a direct sum of rotation generators ω_j: W1(exp X)
    and exp_*(-i q_M) at M = JX/2 have constant Π 1/cos(ω_j/2).  With boosts
    a_j in place of the rotations, Hörmander's symbol at M = JX/2 has
    Π 1/cos(a_j/2)."""
    n, w = len(omegas), np.diag(omegas)
    zero = np.zeros((n, n))
    want = np.prod(1 / np.cos(np.array(omegas) / 2))
    for seed in range(3):
        x = _conjugated_lie(n, seed, zero, w, -w)
        m = QuadForm2n(n, np.real(matcore.matrix_J(n) @ x.full) / 2)
        assert w1_exp_symbol(x).gamma == pytest.approx(want, rel=1e-9)
        assert star_exp_symbol(m, -1j).gamma == pytest.approx(want, rel=1e-9)
        boost = _conjugated_lie(n, seed, w, zero, zero)
        m = QuadForm2n(n, np.real(matcore.matrix_J(n) @ boost.full) / 2)
        assert star_exp_symbol(m, 1).gamma == pytest.approx(want, rel=1e-9)


def test_cosh_law_constant_within_its_error_bar_near_a_pole():
    """X = S R S^{-1} with rotation angles π - δ, 1, 1, S = random_sp(3, 2, 1.0):
    at δ = 1e-12, cosh(X/2) has cond₁ ≈ 8.5e12 and Π cosh(μ)² misses Det cosh
    by 2%, which the certificate's max(1e-3, 16·ε·cond₁) admits; the constant
    1/(sin(δ/2) cos²(1/2)) is then met within that bar.  At δ = 1e-13 the
    guard refuses cosh(X/2) as singular."""
    zero = np.zeros((3, 3))
    for delta in (1e-12, 1e-13):
        w = np.diag([np.pi - delta, 1.0, 1.0])
        x = _conjugated_lie(3, 2, zero, w, -w, scale=1.0)
        if delta == 1e-13:
            with pytest.raises(SingularMatrix):
                w1_exp_symbol(x)
            continue
        ch = matcore.mat_cosh(x.full / 2)[0]
        bar = 16 * np.finfo(float).eps * np.linalg.cond(ch, 1)
        assert 1e-3 < bar < 0.1
        want = 1 / (np.sin(delta / 2) * np.cos(0.5) ** 2)
        assert abs(w1_exp_symbol(x).gamma - want) <= bar * want


def test_star_exp_constant_changes_sign_only_at_poles():
    """Along t ↦ γ(tM), t ∈ [0, 1], the constant of exp_*(-i q_{tM}) is
    Π 1/cos(tω_j) up to a positive factor, over the elliptic pairs ±iω_j of
    JM: its sign flips only where some tω_j crosses π/2 + kπ.  40 draws of
    spectral norm 3 for each n from one stream; those with a pole on the
    path (9, 4 and 5) are walked on an 800-point grid."""
    rng = np.random.default_rng(5)
    t = np.linspace(0, 1, 800)
    walked = []
    for n in (1, 2, 3):
        walked.append(0)
        for _ in range(40):
            a = rng.standard_normal((2 * n, 2 * n))
            m = a + a.T
            m *= 3 / np.linalg.norm(m, 2)
            mu = np.linalg.eigvals(matcore.matrix_J(n) @ m)
            omega = mu.imag[(abs(mu.real) < 1e-9) & (mu.imag > 0)]
            if not omega.size or omega.max() <= np.pi / 2:
                continue
            walked[-1] += 1
            gamma = np.array([star_exp_symbol(QuadForm2n(n, tt * m), -1j).gamma for tt in t])
            want = np.sign(np.prod(np.cos(np.outer(t, omega)), axis=1))
            assert np.array_equal(np.sign(gamma.real), want)
            assert np.all(abs(gamma.imag) <= 1e-10 * abs(gamma))
    assert walked == [9, 4, 5]


def _hormander_by_cos_tan(m):
    """Hörmander's formula written out with cos(JM) and tan(JM); the root of
    Det cos(JM) as per-eigenvalue principal roots, which is its branch away
    from the poles."""
    jm = matcore.matrix_J(m.n) @ m.M
    cos, sinh_ijm = matcore.mat_cosh(1j * jm)
    tan = -1j * sinh_ijm @ np.linalg.inv(cos)
    root = np.prod(np.sqrt(np.linalg.eigvals(cos)))
    return 1 / root, -(matcore.matrix_J(m.n) @ tan)


def test_star_exp_symbol_at_time_1_is_hormanders_cos_tan_formula():
    for n in (1, 2, 3):
        for seed in range(5):
            rng = rng_for(seed, f"hormander-cos-tan-{n}")
            a = 0.4 * rng.standard_normal((2 * n, 2 * n))
            m = QuadForm2n(n, (a + a.T) / 2)
            gamma, s = _hormander_by_cos_tan(m)
            sym = star_exp_symbol(m, 1)
            assert sym.gamma == pytest.approx(gamma, rel=1e-13, abs=0)
            assert np.array_equal(sym.S, (s + s.T) / 2)


def test_star_exp_symbol_at_time_1_small_m():
    assert star_exp_symbol(QuadForm2n(1, np.zeros((2, 2))), 1).eval([0.4, 0.1]) == pytest.approx(1.0)
    # M = tI (n=1): (iJM)^2 = t^2 I, so cos(JM) = cosh(t) I and
    # v J tan(JM) v = -i tanh(t) |v|^2; the symbol is cosh(t)^{-1}
    # exp(tanh(t) |v|^2)
    t = 0.12
    r2 = 0.25 + 0.04
    v = star_exp_symbol(QuadForm2n(1, t * np.eye(2)), 1).eval([0.5, -0.2])
    assert v == pytest.approx(np.exp(np.tanh(t) * r2) / np.cosh(t), rel=1e-10)


# ---------------------------------------------------------------------------
# heat flow / Berezin transform / polar relation


def _random_symbol(rng, n, scale=0.25):
    s = _cpx(rng, (2 * n, 2 * n), scale / 2)
    return GaussianSymbol(n, complex(1 + 0.3 * rng.standard_normal(), 0.2), (s + s.T) / 2)


def test_heat_flow_identity_and_semigroup():
    rng = rng_for(1, "heat")
    f = _random_symbol(rng, 1)
    f0 = heat_flow_gaussian(f, 0.0)
    assert f0.gamma == pytest.approx(f.gamma)
    assert np.allclose(f0.S, f.S)
    a = heat_flow_gaussian(heat_flow_gaussian(f, 0.1), 0.15)
    b = heat_flow_gaussian(f, 0.25)
    assert a.gamma == pytest.approx(b.gamma, rel=1e-10)
    assert np.allclose(a.S, b.S, atol=1e-10)


def test_heat_flow_matches_convolution_quadrature():
    # real negative-definite S: compare with the Gaussian convolution B_lam
    lam = 2.0
    f = GaussianSymbol(1, 1.0, np.diag([-0.3, -0.2]))
    bt = berezin_transform_gaussian(f, lam)
    rng = rng_for(2, "heat-pts")
    for _ in range(3):
        z = _cpx(rng, 1, 0.5)
        assert bt.eval_z(z) == pytest.approx(
            berezin_transform_quadrature(f, z, lam), rel=1e-8
        )


def test_berezin_transform_of_constant():
    f = GaussianSymbol(1, 1.0, np.zeros((2, 2)))
    bt = berezin_transform_gaussian(f, 1.0)
    assert bt.gamma == pytest.approx(1.0)
    assert np.allclose(bt.S, 0)


def test_berezin_semigroup():
    lam = 1.0
    rng = rng_for(3, "semigroup")
    f = _random_symbol(rng, 1, scale=0.2)
    twice = berezin_transform_gaussian(berezin_transform_gaussian(f, lam), lam)
    direct = heat_flow_gaussian(f, 1.0 / lam)
    assert twice.gamma == pytest.approx(direct.gamma, rel=1e-10)
    assert np.allclose(twice.S, direct.S, atol=1e-10)


def test_heat_flow_singular():
    f = GaussianSymbol(1, 1.0, np.diag([0.5, 0.5]))
    with pytest.raises(HeatFlowSingular):
        heat_flow_gaussian(f, 0.5)  # I - 4tS = 0


def test_heat_flow_past_blow_up_is_singular():
    # Re(I - 4tS) = -I: the flow blew up at t = 1/4 and has no value at 1/2
    with pytest.raises(HeatFlowSingular):
        heat_flow_gaussian(GaussianSymbol(1, 1, np.eye(2)), 0.5)


def test_polar_relation():
    assert polar_relation_residual(SuBlocks.identity(1), 1.0) == pytest.approx(0.0, abs=1e-12)
    for theta in (0.4, 1.2):
        assert polar_relation_residual(su_from_sp(_rotation(theta)), 1.0) < 1e-9
    for n in (1, 2):
        for seed in range(10):
            assert polar_relation_residual(random_su(n, seed), 1.0) < 1e-8


def test_w0_symbol_object_matches_pointwise_formula():
    k = random_su(1, 123)
    sym = w0_sigma_symbol(k, 1.0)
    rng = rng_for(123, "sym-pts")
    for _ in range(5):
        z = _cpx(rng, 1, 0.6)
        assert sym.eval_z(z) == pytest.approx(w0_sigma_closed(k, z, 1.0), rel=1e-12)


def _symbol_and_wrapper(kind, n, seed):
    """A closed-form GaussianSymbol and its value at one real point v = (x, y)
    of R^{2n}: the pointwise wrapper the benchmark binds, or else the call
    that `weylsym eval` makes."""
    if kind in ("w0-sigma", "berezin-sigma"):
        k = random_su(n, seed)
        if kind == "w0-sigma":
            return w0_sigma_symbol(k, 1.3), lambda v: w0_sigma_closed(k, v[:n] + 1j * v[n:], 1.3)
        return berezin_sigma_symbol(k, 0.9), lambda v: berezin_sigma_symbol(k, 0.9).eval_z(v[:n] + 1j * v[n:])
    if kind == "w1-sigma":
        g = random_sp(n, seed)
        return w1_sigma_symbol(g, 0.7), lambda v: w1_sigma_closed(g, v[:n], v[n:], 0.7)
    if kind == "w1-exp":
        x = random_sp_lie(n, seed, scale=0.4)
        return w1_exp_symbol(x, 1.1), lambda v: w1_exp_symbol(x, 1.1).eval(v)
    r = rng_for(seed, "batch-M").uniform(-1, 1, (2 * n, 2 * n))
    q = QuadForm2n(n, 0.2 * (r + r.T) / np.linalg.norm(r + r.T, 2))
    if kind == "star-exp":
        return star_exp_symbol(q, -1j), lambda v: star_exp_quadratic_closed(q, v)
    return star_exp_symbol(q, 1), lambda v: star_exp_symbol(q, 1).eval(v)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("kind", ("w0-sigma", "w1-sigma", "w1-exp", "star-exp", "hormander", "berezin-sigma"))
def test_batched_symbol_matches_pointwise_wrapper(kind, n):
    seed = 300 + n
    sym, pointwise = _symbol_and_wrapper(kind, n, seed)
    v = rng_for(seed, "batch-pts").uniform(-1, 1, (64, 2 * n))
    batch = sym.eval(v)
    assert batch.shape == (64,)
    expect = np.array([pointwise(p) for p in v])
    assert np.all(np.abs(batch - expect) <= 1e-14 * np.abs(expect))
    assert np.array_equal(sym.eval_z(v[:, :n] + 1j * v[:, n:]), batch)
    assert isinstance(pointwise(v[0]), complex)
    # the public constructor still validates what the closed forms skip
    s = sym.S.copy()
    s[0, 1] += 1.0
    with pytest.raises(ShapeError):
        GaussianSymbol(n, sym.gamma, s)


# ---------------------------------------------------------------------------
# classical Weyl quantization of test symbols


def test_classical_weyl_kernel_gaussian():
    # f(x,t) = e^{-x^2 - t^2}: the t-integral gives sqrt(pi) e^{-xi^2/4}
    x = np.array([0.3, -0.1])
    y = np.array([0.2, 0.4])
    vals = classical_weyl_kernel(lambda u, t: np.exp(-(u**2) - t**2), x, y)
    mid, diff = (x + y) / 2, x - y
    expect = (2 * np.pi) ** (-1.0) * np.exp(-(mid**2)) * np.sqrt(np.pi) * np.exp(-(diff**2) / 4)
    assert np.allclose(vals, expect, atol=1e-12)


@pytest.mark.parametrize("nodes", [0, 2.5])
def test_classical_weyl_kernel_refuses_a_bad_node_count(nodes):
    # the quadratures' own refusals, made before the symbol is sampled
    sampled = []
    with pytest.raises(BadConfig):
        classical_weyl_kernel(lambda u, t: sampled.append(1), 0.1, 0.2, nodes=nodes)
    assert sampled == []


def test_w1_of_classical_weyl_recovers_symbol():
    def f_gauss(x, t):
        return np.exp(-(x**2) - t**2)

    def f_poly(x, t):
        return x * np.exp(-(x**2) - t**2)

    assert w1_of_classical_weyl(f_gauss, 0.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-5)
    assert w1_of_classical_weyl(f_gauss, 0.3, -0.2, 2.0) == pytest.approx(
        f_gauss(0.3, -0.4), rel=1e-5
    )
    assert w1_of_classical_weyl(f_poly, 0.5, 0.1, 1.0) == pytest.approx(
        f_poly(0.5, 0.1), rel=1e-5
    )


def test_one_factorisation_of_identity_plus_k(monkeypatch, validator_calls):
    # W0 and W1 each factor I+k (or g+I) once, with no membership check
    g = random_sp(2, 5)
    k = su_from_sp(g)
    factorisations = []
    real = matcore.require_invertible
    monkeypatch.setattr(matcore, "require_invertible", lambda *a, **kw: factorisations.append(1) or real(*a, **kw))
    w0_sigma_closed(k, [0.1 + 0.2j, -0.3j], 1.0)
    assert len(factorisations) == 1
    w1_sigma_closed(g, [0.1, 0.2], [0.3, -0.1])
    assert len(factorisations) == 2
    sigma_kernel(k, 1.0)
    berezin_sigma_symbol(k, 1.0)
    assert validator_calls == []
