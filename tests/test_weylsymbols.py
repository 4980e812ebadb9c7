import numpy as np
import pytest

from weylsym import matcore
from weylsym.errors import AmbiguousPhase, CayleySingular, HeatFlowSingular, ShapeError
from weylsym.metaplectic import berezin_sigma_symbol, berezin_symbol_sigma, sigma_kernel
from weylsym.moyal import star_exp_quadratic_closed, star_exp_quadratic_symbol
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
    hormander_exp_symbol,
    hormander_symbol,
    metaplectic_phase_c,
    polar_relation_residual,
    w0_dsigma_closed,
    w0_integral,
    w0_sigma_closed,
    w0_sigma_symbol,
    w1_dsigma_closed,
    w1_exp_closed,
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


def test_phase_constant_negative_determinant_cases():
    for seed in range(6):
        k = random_su_negdet(seed)
        d = matcore.det(k.full + np.eye(2)).real
        assert d < 0
        c = metaplectic_phase_c(k)
        # modulus is 2^n |det|^{-1/2} and the value is purely imaginary
        assert abs(c) == pytest.approx(2 / np.sqrt(abs(d)), rel=1e-12)
        assert abs(c.real) < 1e-12
        # quadrature adjudication agrees with the case analysis
        assert adjudicate_phase(k, 1.0) == pytest.approx(c, rel=1e-4)


def test_phase_ambiguous_when_det_p_real():
    # g = -diag(a, 1/a) has det(I+g) < 0 with P real: outside the case analysis
    g = SpReal(1, -np.diag([2.0, 0.5]))
    k = su_from_sp(g)
    with pytest.raises(AmbiguousPhase):
        metaplectic_phase_c(k)
    # quadrature still resolves it
    c = adjudicate_phase(k, 1.0)
    assert abs(c) == pytest.approx(2 / np.sqrt(abs(np.linalg.det(np.eye(2) + g.g))), rel=1e-6)


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
    assert w1_exp_closed(x0, [0.3], [0.2]) == pytest.approx(1.0)
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
        jk = matcore.matrix_J(2) @ matcore.cayley(g.g)
        assert matcore.norm(jk - jk.T) < 1e-10


def test_w1_exp_harmonic_oscillator():
    # X = theta J: cosh(X/2) = cos(theta/2) I, tanh(X/2) = tan(theta/2) J,
    # and v J tanh(X/2) v = -tan(theta/2) |v|^2, so the exponent collapses
    theta = 0.9
    j = matcore.matrix_J(1).real
    x = SpLieReal(1, np.zeros((1, 1)), theta * j[:1, 1:], theta * j[1:, :1])
    val = w1_exp_closed(x, [0.7], [-0.4])
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
    for seed in range(20):
        xr = random_sp_lie(1, 80 + seed)
        rng = rng_for(80 + seed, "w1d-pts")
        # w1_dsigma_closed asserts internally that both quoted forms agree
        w1_dsigma_closed(xr, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))


def test_w1_dsigma_is_derivative_of_w1_exp():
    for seed in range(5):
        x = random_sp_lie(1, 90 + seed, scale=0.5)
        rng = rng_for(90 + seed, "w1fd-pts")
        px = rng.uniform(-1, 1, 1)
        py = rng.uniform(-1, 1, 1)
        target = w1_dsigma_closed(x, px, py)

        def w1_at(t):
            xt = SpLieReal(1, t * x.A, t * x.B, t * x.C)
            return w1_exp_closed(xt, px, py)

        h = 1e-3
        d1 = (w1_at(h) - w1_at(-h)) / (2 * h)
        d2 = (w1_at(h / 2) - w1_at(-h / 2)) / h
        assert abs((4 * d2 - d1) / 3 - target) < 1e-6


def test_hormander_symbol_small_m():
    assert hormander_exp_symbol(QuadForm2n(1, np.zeros((2, 2))), [0.4], [0.1]) == pytest.approx(1.0)
    # M = tI (n=1): (iJM)^2 = t^2 I, so cos(JM) = cosh(t) I and
    # v J tan(JM) v = -i tanh(t) |v|^2; the symbol is cosh(t)^{-1}
    # exp(tanh(t) |v|^2)
    t = 0.12
    r2 = 0.25 + 0.04
    v = hormander_exp_symbol(QuadForm2n(1, t * np.eye(2)), [0.5], [-0.2])
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
    """A closed-form GaussianSymbol and its pointwise wrapper, which takes a
    real point v = (x, y) of R^{2n}."""
    if kind in ("w0-sigma", "berezin-sigma"):
        k = random_su(n, seed)
        if kind == "w0-sigma":
            return w0_sigma_symbol(k, 1.3), lambda v: w0_sigma_closed(k, v[:n] + 1j * v[n:], 1.3)
        return berezin_sigma_symbol(k, 0.9), lambda v: berezin_symbol_sigma(k, v[:n] + 1j * v[n:], 0.9)
    if kind == "w1-sigma":
        g = random_sp(n, seed)
        return w1_sigma_symbol(g, 0.7), lambda v: w1_sigma_closed(g, v[:n], v[n:], 0.7)
    if kind == "w1-exp":
        x = random_sp_lie(n, seed, scale=0.4)
        return w1_exp_symbol(x, 1.1), lambda v: w1_exp_closed(x, v[:n], v[n:], 1.1)
    r = rng_for(seed, "batch-M").uniform(-1, 1, (2 * n, 2 * n))
    q = QuadForm2n(n, 0.2 * (r + r.T) / np.linalg.norm(r + r.T, 2))
    if kind == "star-exp":
        return star_exp_quadratic_symbol(q), lambda v: star_exp_quadratic_closed(q, v)
    return hormander_symbol(q), lambda v: hormander_exp_symbol(q, v[:n], v[n:])


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
