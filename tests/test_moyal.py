import itertools
import math
import time

import numpy as np
import pytest

from weylsym import moyal
from weylsym.errors import BadConfig, NonConvergent, ShapeError
from weylsym.matcore import matrix_J
from weylsym.moyal import (
    diffop_apply,
    diffop_compose,
    homomorphism_residual,
    moyal_mul,
    phase_poly_from_quadform,
    poisson_power,
    star_exp_bridge_residual,
    star_exp_quadratic_closed,
    star_exp_series,
    star_exp_symbol,
    weyl_quantize_poly,
)
from weylsym.polys import Poly
from weylsym.suites import run_suite
from weylsym.sympgroup import SpLieReal, random_sp_lie, rng_for
from weylsym.weylsymbols import QuadForm2n


def _p(n, k):
    return Poly.var(2 * n, k)


def _q(n, k):
    return Poly.var(2 * n, n + k)


def _random_poly(rng, nvars, deg, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = tuple(int(t) for t in rng.integers(0, deg + 1, nvars))
        if sum(e) > deg:
            continue
        terms[e] = complex(rng.standard_normal(), rng.standard_normal())
    return Poly(nvars, terms or {(0,) * nvars: 1.0})


# ---------------------------------------------------------------------------
# Poisson powers


def test_p1_is_poisson_bracket():
    n = 1
    u, v = _p(n, 0), _q(n, 0)
    assert poisson_power(u, v, 1).terms == Poly.const(2, 1.0).terms
    assert poisson_power(v, u, 1).terms == Poly.const(2, -1.0).terms
    # {p^2, q} = 2p
    br = poisson_power(u * u, v, 1)
    assert br.max_coeff_diff(2.0 * u) < 1e-14


def test_p2_symmetry_and_vanishing():
    rng = rng_for(1, "moyal-p2")
    u = _random_poly(rng, 2, 3)
    v = _random_poly(rng, 2, 3)
    # P^2 is symmetric, odd powers antisymmetric
    assert poisson_power(u, v, 2).max_coeff_diff(poisson_power(v, u, 2)) < 1e-12
    assert poisson_power(u, v, 1).max_coeff_diff(-1.0 * poisson_power(v, u, 1)) < 1e-12
    # P^l kills polynomials of lower degree
    assert not poisson_power(_p(1, 0), v, 2).terms
    assert not poisson_power(u, _q(1, 0) * _q(1, 0), 3).terms


def test_canonical_commutation():
    for n in (1, 2):
        for j in range(n):
            for k in range(n):
                comm = moyal_mul(_p(n, j), _q(n, k)) - moyal_mul(_q(n, k), _p(n, j))
                expect = Poly.const(2 * n, -1j if j == k else 0.0)
                assert comm.max_coeff_diff(expect) < 1e-15


def test_unit_and_hbar_grading():
    rng = rng_for(2, "moyal-unit")
    u = _random_poly(rng, 2, 3)
    one = Poly.const(2, 1.0)
    assert moyal_mul(one, u).max_coeff_diff(u) < 1e-14
    assert moyal_mul(u, one).max_coeff_diff(u) < 1e-14
    # the l = 0 term of u * v is the pointwise product
    v = _random_poly(rng, 2, 3)
    sym_part = 0.5 * (moyal_mul(u, v) + moyal_mul(v, u))
    classical = u * v + (-0.5j) ** 2 / 2 * poisson_power(u, v, 2)
    # degree <= 3 operands: P^l with l even contributes to the symmetric part
    diff = sym_part - classical
    tail = sum(abs(c) for e, c in diff.terms.items() if sum(e) >= 0)
    assert tail < 1e-10 or diff.degree <= max(u.degree + v.degree - 6, 0)


def test_associativity_random():
    rng = rng_for(3, "moyal-assoc")
    for _ in range(6):
        u = _random_poly(rng, 2, 3, nterms=4)
        v = _random_poly(rng, 2, 3, nterms=4)
        w = _random_poly(rng, 2, 3, nterms=4)
        left = moyal_mul(moyal_mul(u, v), w)
        right = moyal_mul(u, moyal_mul(v, w))
        assert left.max_coeff_diff(right) < 1e-12


def _poisson_power_paths(u, v, l):
    """P^l(u, v) summed over all (2n)^l Λ-paths, one Λ factor at a time."""
    n = u.nvars // 2
    total = Poly.zero(u.nvars)
    for choice in itertools.product(range(n), repeat=l):
        for signs in itertools.product((0, 1), repeat=l):
            du, dv, sgn = u, v, 1
            for k, flip in zip(choice, signs):
                du = du.diff(n + k if flip else k)
                dv = dv.diff(k if flip else n + k)
                sgn = -sgn if flip else sgn
            total = total + sgn * (du * dv)
    return total


def test_poisson_power_matches_path_sum():
    rng = rng_for(8, "moyal-paths")
    for n in (1, 2):
        for _ in range(4):
            u = _random_poly(rng, 2 * n, 4)
            v = _random_poly(rng, 2 * n, 4)
            for l in range(5):
                ref = _poisson_power_paths(u, v, l)
                scale = max((abs(c) for c in ref.terms.values()), default=1.0)
                assert poisson_power(u, v, l).max_coeff_diff(ref) <= 1e-14 * scale


def test_shape_validation():
    with pytest.raises(ShapeError):
        poisson_power(Poly.var(3, 0), Poly.var(3, 1), 1)
    with pytest.raises(ShapeError):
        moyal_mul(Poly.var(2, 0), Poly.var(4, 0))


# ---------------------------------------------------------------------------
# Weyl quantization


def test_quantize_generators():
    # an operator Σ c p^m ∂^b is the Poly in (p, q) with exponent (m, b):
    # W(p) = p and W(q) = i∂
    n = 1
    wp = weyl_quantize_poly(_p(n, 0))
    assert set(wp.terms) == {(1, 0)}
    assert wp.max_coeff_diff(Poly.var(2, 0)) < 1e-15
    wq = weyl_quantize_poly(_q(n, 0))
    assert set(wq.terms) == {(0, 1)}
    assert wq.max_coeff_diff(1j * Poly.var(2, 1)) < 1e-15


def test_quantize_pq_is_symmetrized():
    # W(pq) = i(p d/dp + 1/2)
    d = weyl_quantize_poly(_p(1, 0) * _q(1, 0))
    assert set(d.terms) == {(1, 1), (0, 0)}
    assert d.max_coeff_diff(Poly(2, {(1, 1): 1j, (0, 0): 0.5j})) < 1e-15


def test_diffop_apply_and_commutator():
    # [W(p), W(q)] phi = -i phi, matching p * q - q * p = -i
    wp, wq = weyl_quantize_poly(_p(1, 0)), weyl_quantize_poly(_q(1, 0))
    phi = Poly(1, {(0,): 1.0, (1,): 2.0, (3,): -0.5})
    comm = diffop_apply(wp, diffop_apply(wq, phi)) - diffop_apply(wq, diffop_apply(wp, phi))
    assert comm.max_coeff_diff(-1j * phi) < 1e-14


def test_diffop_compose_matches_apply():
    rng = rng_for(4, "moyal-compose")
    d1 = weyl_quantize_poly(_random_poly(rng, 2, 3))
    d2 = weyl_quantize_poly(_random_poly(rng, 2, 3))
    phi = _random_poly(rng, 1, 4)
    via_compose = diffop_apply(diffop_compose(d1, d2), phi)
    direct = diffop_apply(d1, diffop_apply(d2, phi))
    assert via_compose.max_coeff_diff(direct) < 1e-12


def test_homomorphism():
    rng = rng_for(5, "moyal-hom")
    for _ in range(10):
        f1 = _random_poly(rng, 2, 3)
        f2 = _random_poly(rng, 2, 3)
        assert homomorphism_residual(f1, f2) < 1e-12


def test_leibniz_memo_is_read_only_and_bounded():
    # every entry is a tuple of triples, the same as the unmemoised rule gives
    got = moyal._leibniz((2, 1), (1, 3), 0.5)
    assert isinstance(got, tuple)
    assert got == moyal._leibniz.__wrapped__((2, 1), (1, 3), 0.5)
    assert got[0] == (1, (1, 3), (2, 1))
    for n in (1, 2, 3, 4):
        assert run_suite("quantize-hom", n=n).failures == 0
    info = moyal._leibniz.cache_info()
    assert info.maxsize is not None
    assert 0 < info.currsize <= info.maxsize
    assert info.hits > 0


def test_diffop_compose_is_associative_with_identity():
    rng = rng_for(11, "moyal-compose-assoc")
    for n in (1, 2):
        one = Poly.const(2 * n, 1.0)
        for _ in range(4):
            a, b, c = (weyl_quantize_poly(_random_poly(rng, 2 * n, 3, nterms=4)) for _ in range(3))
            left = diffop_compose(diffop_compose(a, b), c)
            right = diffop_compose(a, diffop_compose(b, c))
            scale = max(abs(x) for x in left.terms.values())
            assert left.max_coeff_diff(right) <= 1e-13 * scale
            assert diffop_compose(one, a) == a == diffop_compose(a, one)


# ---------------------------------------------------------------------------
# star exponentials


def test_star_exp_harmonic_oscillator():
    # M = tI (n = 1): exp_*(-i q_M) = (cos t)^{-1} exp(-i tan(t) (x^2 + y^2))
    t = 0.15
    q = QuadForm2n(1, t * np.eye(2))
    point = [0.8, -0.3]
    r2 = 0.64 + 0.09
    closed = star_exp_quadratic_closed(q, point)
    assert closed == pytest.approx(np.exp(-1j * np.tan(t) * r2) / np.cos(t), rel=1e-12)
    series, last = star_exp_series(q, -1j, 40, point)
    assert abs(series - closed) / abs(closed) < 1e-10
    assert last < 1e-10 * abs(series)


@pytest.mark.parametrize("s", [-1j, 1, 0.9 * np.exp(0.7j)], ids=["-i", "1", "0.9e^0.7i"])
@pytest.mark.parametrize("n", [1, 2])
def test_star_exp_symbol_is_the_series_at_every_time(n, s):
    """One closed form for every complex time s: the cosh law at A = i s JM
    against the series, on draws with ‖M‖₂ = 0.2."""
    rng = rng_for(n, "star-exp-time")
    for _ in range(5):
        r = rng.uniform(-1, 1, (2 * n, 2 * n))
        q = QuadForm2n(n, 0.2 * (r + r.T) / np.linalg.norm(r + r.T, 2))
        point = rng.uniform(-0.8, 0.8, 2 * n)
        closed = star_exp_symbol(q, s).eval(point)
        series, _ = star_exp_series(q, s, 40, point)
        assert abs(series - closed) <= 1e-14 * abs(closed)


def test_star_exp_series_truncation_monotone():
    rng = rng_for(6, "moyal-trunc")
    m = rng.standard_normal((2, 2))
    m = 0.2 * (m + m.T) / (2 * np.linalg.norm(m, 2))
    q = QuadForm2n(1, m)
    v30, _ = star_exp_series(q, -1j, 30, [0.5, 0.2])
    v40, _ = star_exp_series(q, -1j, 40, [0.5, 0.2])
    closed = star_exp_quadratic_closed(q, [0.5, 0.2])
    assert abs(v40 - closed) <= abs(v30 - closed) + 1e-12
    assert abs(v40 - closed) < 1e-9


def _random_quadratic(rng, n):
    s = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    s = (s + s.T) / 2
    f = Poly(2 * n, {})
    for a in range(2 * n):
        for b in range(2 * n):
            f = f + s[a, b] * (Poly.var(2 * n, a) * Poly.var(2 * n, b))
    return s, f


def test_packed_step_matches_moyal_mul():
    # the centred step against moyal_mul over the degrees it keeps, for
    # f = c0 + ℓ·w + wᵗSw and outputs two degrees up, level and two down
    rng = rng_for(9, "moyal-packed")
    for n in (1, 2):
        k = 2 * n
        tab = moyal._graded_table(k, 8)
        index = {tuple(int(e) for e in col): i for i, col in enumerate(tab.exps.T)}
        weights = tab.exps[:, : moyal._prefix(tab, 7)] + 1.0
        for _ in range(5):
            u = _random_poly(rng, k, 6, nterms=10)
            s, f = _random_quadratic(rng, n)
            c0 = complex(rng.standard_normal(), rng.standard_normal())
            ell = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            f = f + Poly.const(k, c0) + sum((ell[a] * Poly.var(k, a) for a in range(k)), Poly.zero(k))
            c = np.zeros(moyal._prefix(tab, u.degree), complex)
            for e, coeff in u.terms.items():
                c[index[e]] = coeff
            mix = moyal._star_mix(c0, ell, s, matrix_J(n).real)
            ref = moyal_mul(u, f)
            scale = max(abs(x) for x in ref.terms.values())
            for keep in (u.degree + 2, u.degree, max(u.degree - 2, 0)):
                packed = moyal._centred_step(tab, weights, mix, c, u.degree, keep)
                assert packed.size == moyal._prefix(tab, keep)
                got = Poly(k, {tuple(int(x) for x in tab.exps[:, i]): packed[i] for i in range(packed.size)})
                kept = Poly(k, {e: x for e, x in ref.terms.items() if sum(e) <= keep})
                assert got.max_coeff_diff(kept) <= 1e-13 * scale


def test_star_at_origin_matches_moyal_mul():
    # the pairing Σ g_γ u[γ] v[σγ] against moyal_mul evaluated at the
    # origin, with either operand the shorter
    rng = rng_for(11, "moyal-pairing")
    for n, degrees in ((1, (6, 5)), (1, (3, 7)), (2, (4, 3)), (2, (2, 4))):
        k = 2 * n
        tab = moyal._graded_table(k, 8)
        packed = [
            rng.standard_normal(moyal._prefix(tab, d)) + 1j * rng.standard_normal(moyal._prefix(tab, d))
            for d in degrees
        ]
        u, v = (Poly(k, {tuple(int(e) for e in tab.exps[:, i]): c[i] for i in range(c.size)}) for c in packed)
        ref = moyal_mul(u, v).eval(np.zeros(k))
        assert abs(moyal._star_at_origin(tab, *packed) - ref) <= 1e-13 * abs(ref)


def test_star_exp_series_matches_reference_loop():
    # moyal_mul powers of s q_M evaluated at off-origin points, at even and
    # odd orders (an odd order builds one power past half the order)
    rng = rng_for(10, "moyal-series-ref")
    cases = [(1, 12, 0.15, 0.8)] * 3 + [(2, 6, 0.04, 0.4)] * 2
    cases += [(1, 7, 0.05, 0.5), (1, 13, 0.15, 0.8), (2, 5, 0.02, 0.3)]
    for n, order, m_norm, radius in cases:
        m = rng.standard_normal((2 * n, 2 * n))
        m = m_norm * (m + m.T) / np.linalg.norm(m + m.T, 2)
        q = QuadForm2n(n, m)
        point = rng.uniform(-radius, radius, 2 * n)
        f = -1j * phase_poly_from_quadform(q)
        power, ref = Poly.const(2 * n, 1.0), 0.0
        for l in range(order + 1):
            ref += power.eval(point) / math.factorial(l)
            power = moyal_mul(power, f)
        value, _ = star_exp_series(q, -1j, order, point)
        assert abs(value - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("order", [12, 13, 40])
def test_star_exp_series_steps_only_to_half_the_order(monkeypatch, n, order):
    # u_0 … u_h, h = ⌈L/2⌉, are stepped; every later term is a pairing
    calls = []
    step = moyal._centred_step
    monkeypatch.setattr(moyal, "_centred_step", lambda *args: calls.append(args) or step(*args))
    star_exp_series(QuadForm2n(n, 0.02 * np.eye(2 * n)), -1j, order, [0.1] * (2 * n))
    assert len(calls) == (order + 1) // 2


def test_star_exp_series_keeps_only_reachable_degrees():
    # u_l is kept through degree min(2l, 2(L - l)) ≤ L, not 2L: at n = 2,
    # order 40 the table holds C(44, 4) monomials, not C(84, 4) = 1.9M
    q = QuadForm2n(2, 0.05 * np.eye(4))
    star_exp_series(q, -1j, 40, [0.3, -0.2, 0.1, 0.4])
    assert moyal._TABLES[4].exps.shape[1] <= math.comb(41 + 4, 4)


def test_star_exp_suite_n2():
    # the star-exp suite at n = 2 (order 40) at its own tolerance
    report = run_suite("star-exp", n=2, trials=2)
    assert report.failures == 0 and report.tol == 1e-6
    assert report.max_residual <= 1e-12


def test_star_exp_series_size_guard():
    q = QuadForm2n(3, 0.05 * np.eye(6))
    table = moyal._TABLES.get(6)
    t0 = time.perf_counter()
    with pytest.raises(BadConfig):
        star_exp_series(q, -1j, 40, [0.1] * 6)
    assert time.perf_counter() - t0 < 1.0
    assert moyal._TABLES.get(6) is table  # refused before any table was built or grown


def test_star_exp_envelope_rejections():
    q_big = QuadForm2n(1, 0.5 * np.eye(2))
    with pytest.raises(NonConvergent):
        star_exp_series(q_big, -1j, 40, [0.1, 0.1])
    q = QuadForm2n(1, 0.1 * np.eye(2))
    with pytest.raises(NonConvergent):
        star_exp_series(q, -1j, 40, [2.0, 0.0])
    with pytest.raises(NonConvergent):
        star_exp_series(q, -1j, 80, [0.1, 0.1])
    with pytest.raises(NonConvergent):
        star_exp_series(q, -1j, 2, [1.0, 1.0])  # last term not negligible
    for s in (np.nan, complex(0.0, np.inf)):
        with pytest.raises(ShapeError):
            star_exp_series(q, s, 12, [0.1, 0.1])


def test_star_exp_envelope_is_the_spectral_norm():
    # |s|·max|eig M| decides as ‖sM‖₂ does, a hair inside and outside the envelope
    rng = np.random.default_rng(12)
    for n in (1, 2):
        a = rng.standard_normal((2 * n, 2 * n))
        q = QuadForm2n(n, a + a.T)
        for s in (-1j, np.exp(0.7j), -2.0):
            scale = 0.25 / np.linalg.norm(s * q.M, 2)
            # inside, an order-2 series may still fail its certificate, but not the envelope
            try:
                star_exp_series(q, s * scale * (1 - 1e-10), 2, [0.0] * (2 * n))
            except NonConvergent as err:
                assert "envelope" not in str(err)
            with pytest.raises(NonConvergent, match="envelope"):
                star_exp_series(q, s * scale * (1 + 1e-10), 2, [0.0] * (2 * n))


def test_star_exp_bridge_to_w1():
    rng = rng_for(7, "moyal-bridge")
    for seed in range(10):
        x = random_sp_lie(1, 900 + seed, scale=0.4)
        point = rng.uniform(-1, 1, 2)
        assert star_exp_bridge_residual(x, point) < 1e-10
    # the rotation generator, past the first pole of the constant at ω = π
    for omega in (1.0, 4.0, 7.0):
        x = SpLieReal(1, [[0.0]], [[omega]], [[-omega]])
        assert star_exp_bridge_residual(x, [0.1, 0.2]) < 1e-12


def test_phase_poly_from_quadform():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    poly = phase_poly_from_quadform(QuadForm2n(1, m))
    v = np.array([0.7, -0.4])
    assert poly.eval(v) == pytest.approx(v @ m @ v)


def test_diffop_validation():
    # a derivative index of the wrong length, operators on different spaces,
    # an odd variable count, and a φ whose variable count is not half the
    # operator's
    with pytest.raises(ShapeError):
        Poly(2, {(0, 1, 0): 1.0})
    with pytest.raises(ShapeError):
        diffop_compose(Poly.const(2, 1.0), Poly.const(4, 1.0))
    with pytest.raises(ShapeError):
        diffop_compose(Poly.var(3, 0), Poly.var(3, 1))
    for phi in (Poly.var(1, 0), Poly.var(4, 0), Poly.const(3, 1.0), 2.0):
        with pytest.raises(ShapeError):
            diffop_apply(weyl_quantize_poly(_q(2, 0)), phi)
    assert diffop_apply(weyl_quantize_poly(_q(2, 0)), Poly.var(2, 0)) == Poly.const(2, 1j)


@pytest.mark.parametrize("order", [2.5, 12.0, "12", True, -1, None])
def test_star_exp_series_refuses_a_non_integral_order(order):
    with pytest.raises(BadConfig):
        star_exp_series(QuadForm2n(1, 0.1 * np.eye(2)), -1j, order, [0.1, 0.1])


def test_moyal_operands_are_refused_with_shape_error():
    u = _p(1, 0) * _q(1, 0)
    for l in (1.5, 2.0, True, -1, "2"):
        with pytest.raises(ShapeError):
            poisson_power(u, u, l)
    assert poisson_power(u, u, np.int64(2)) == poisson_power(u, u, 2)
    for bad in (2.0, None, [1.0]):
        for call in (
            lambda: moyal_mul(u, bad),
            lambda: moyal_mul(bad, u),
            lambda: poisson_power(u, bad, 1),
            lambda: poisson_power(bad, u, 1),
            lambda: weyl_quantize_poly(bad),
        ):
            with pytest.raises(ShapeError):
                call()
