"""The streaming Gauss–Hermite layer against a materialised reference grid."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from weylsym import quadrature
from weylsym.errors import BadConfig, NonConvergent
from weylsym.gaussint import quadrature_scale
from weylsym.quadrature import CHUNK, GaussianExponent, gh_nodes, lebesgue_cn, lebesgue_rn, quadrature_cn
from weylsym.suites import random_gaussian_integrand
from weylsym.sympgroup import rng_for


def _one(pts):
    return np.ones(len(pts))


# reference: the whole tensor grid in memory, as the layer used to build it


def _grid(dim, nodes):
    s, w = gh_nodes(nodes)
    idx = np.array(list(itertools.product(range(nodes), repeat=dim)))
    return s[idx], np.prod(w[idx], axis=1)


def _ref_quadrature_cn(f, lam, n, nodes):
    pts, wts = _grid(2 * n, nodes)
    w = math.sqrt(2.0 / lam) * (pts[:, :n] + 1j * pts[:, n:])
    return complex(np.pi ** (-n) * np.sum(wts * f(w)))


def _ref_lebesgue_cn(f, n, nodes, scale):
    pts, wts = _grid(2 * n, nodes)
    corr = np.exp(np.sum(pts**2, axis=1))
    return complex(scale ** (2 * n) * np.sum(wts * corr * f(scale * (pts[:, :n] + 1j * pts[:, n:]))))


def _ref_lebesgue_rn(f, n, nodes, scale, center):
    pts, wts = _grid(n, nodes)
    corr = np.exp(np.sum(pts**2, axis=1))
    return complex(scale**n * np.sum(wts * corr * f(center + scale * pts)))


class _Recorder:
    """Wraps an integrand and keeps the number of points of every call."""

    def __init__(self, f):
        self.f, self.sizes = f, []

    def __call__(self, pts):
        self.sizes.append(pts.shape[0])
        return self.f(pts)


@pytest.fixture
def small_chunk(set_chunk):
    """CHUNK = 32, so that small grids stream over several leading axes."""
    set_chunk(32)
    return 32


def _check_streamed(rec, stream, ref, points, chunk):
    assert stream == pytest.approx(ref, rel=1e-13, abs=0)
    assert sum(rec.sizes) == points
    assert max(rec.sizes) <= chunk


@pytest.mark.parametrize("n, nodes", [(1, 80), (2, 12)])
def test_complex_quadratures_match_materialised_grid(n, nodes):
    gi = random_gaussian_integrand(rng_for(3, f"stream-{n}"), n)
    scale = quadrature_scale(gi)
    rec = _Recorder(gi.eval)
    _check_streamed(rec, lebesgue_cn(rec, n, nodes, scale=scale), _ref_lebesgue_cn(gi.eval, n, nodes, scale),
                    nodes ** (2 * n), CHUNK)
    rec = _Recorder(gi.eval)
    _check_streamed(rec, quadrature_cn(rec, 1.3, n, nodes), _ref_quadrature_cn(gi.eval, 1.3, n, nodes),
                    nodes ** (2 * n), CHUNK)


# (n, nodes, CHUNK) -> (trailing axes t, lead points L) of the 2n-axis grid:
# (1, 80) is one chunk; (2, 12) has t = 3 and 12 chunks, t = 1 at CHUNK 32;
# (2, 40) has t = 2; (1, 12) at CHUNK 8 has no trailing axis
LAYOUTS = [(1, 80, CHUNK, 2, 1), (2, 12, CHUNK, 3, 12), (2, 40, CHUNK, 2, 1600), (2, 12, 32, 1, 1728),
           (1, 12, 8, 0, 144)]


@pytest.mark.parametrize("n, nodes, chunk, t, lead", LAYOUTS)
def test_factorised_sum_matches_per_chunk_sum(set_chunk, n, nodes, chunk, t, lead):
    set_chunk(chunk)
    plan = quadrature._plan(2 * n, nodes)
    assert (plan.trailing, plan.lead.shape[1]) == (t, lead)
    # one draw on the 2.56M-point grid, whose per-chunk sums take a second
    for seed in range(1 if nodes**(2 * n) > 20736 else 2):
        gi = random_gaussian_integrand(rng_for(seed, f"factorised-{n}"), n)
        scale = 1.25 * quadrature_scale(gi)
        for quad, args in ((lebesgue_cn, (n, nodes, scale)), (quadrature_cn, (1.3, n, nodes))):
            got = quad(GaussianExponent(gi.exponent), *args)
            assert got == pytest.approx(quad(gi.eval, *args), rel=1e-13, abs=0)
        if nodes**(2 * n) <= 20736:
            assert got == pytest.approx(_ref_quadrature_cn(gi.eval, 1.3, n, nodes), rel=1e-13, abs=0)


def test_factorised_real_sum_matches_materialised_grid():
    # odd node counts have a middle row that is its own mirror in the
    # centrosymmetric pair matrices; 120 nodes on 2 axes: t = 1, 120 lead points
    center = np.array([0.3, -0.2])

    def expo(x):
        return -np.sum((x - 0.1) ** 2, axis=1) + 0.4j * x[:, 0] * x[:, 1] - 0.3 * x[:, 0]

    for nodes in (7, 8, 80, 81, 120):
        got = lebesgue_rn(GaussianExponent(expo), 2, nodes, scale=0.9, center=center)
        ref = _ref_lebesgue_rn(lambda x: np.exp(expo(x)), 2, nodes, 0.9, center)
        assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("nodes", [1, 7, 8, 80, 81])
def test_pair_matrices_are_the_full_exponentials(nodes):
    # bit for bit, as the nodes are exactly antisymmetric; at 80 nodes the
    # 10 pairs of dim 5 are exponentiated in three batches
    s, _ = gh_nodes(nodes)
    assert np.array_equal(s[::-1], -s)
    rng = np.random.default_rng(nodes)
    for dim in (3, 5):
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = h + h.T
        got = quadrature._pair_matrices(h, quadrature._plan(dim, nodes))
        assert sorted(got) == list(itertools.combinations(range(dim), 2))
        for (p, q), m in got.items():
            ref = np.exp(h[p, q] * np.outer(s, s) - abs(h[p, q].real) * ((s[:, None] ** 2 + s**2) / 2))
            assert np.array_equal(m.view(float), ref.view(float))


def _real_exponent(n):
    """A quadratic exponent on R^n with every pair of axes coupled."""
    rng = np.random.default_rng(n)
    a = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    b = 0.3 * rng.standard_normal(n) + 0.4j * rng.standard_normal(n)
    q = (a + a.T) / 2 + 0.3j * np.ones((n, n))
    return lambda x: -np.sum((x @ q) * x, axis=1) + x @ b


# dim 1 sums one factor, dim 3 contracts in one chunk, and dim 6 (C^3 at 6
# nodes) in two, of 113 and 103 points of the grid of its first three axes
@pytest.mark.parametrize("dim", [1, 3, 6])
def test_factorised_sum_matches_materialised_grid_in_more_dims(dim):
    if dim == 6:
        gi = random_gaussian_integrand(rng_for(6, "factorised-dim6"), 3)
        got = quadrature_cn(GaussianExponent(gi.exponent), 0.9, 3, 6)
        ref = _ref_quadrature_cn(gi.eval, 0.9, 3, 6)
    else:
        expo, center = _real_exponent(dim), np.linspace(0.2, -0.1, dim)
        got = lebesgue_rn(GaussianExponent(expo), dim, 30, scale=0.8, center=center)
        ref = _ref_lebesgue_rn(lambda x: np.exp(expo(x)), dim, 30, 0.8, center)
    assert got == pytest.approx(ref, rel=1e-13, abs=0)


# dim 3 contracts in one slab; at dims 4, 5 and 6 the 12, 49 and 216 head
# rows go in slabs of 1 or 5, the last of 5 ragged
@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("dim, nodes", [(3, 30), (4, 12), (5, 7), (6, 6)])
def test_slabs_match_materialised_grid(monkeypatch, rows, dim, nodes):
    monkeypatch.setattr(quadrature, "SLAB", rows * nodes * nodes)
    expo, center = _real_exponent(dim), np.linspace(0.2, -0.1, dim)
    got = lebesgue_rn(GaussianExponent(expo), dim, nodes, scale=0.8, center=center)
    ref = _ref_lebesgue_rn(lambda x: np.exp(expo(x)), dim, nodes, 0.8, center)
    assert got == pytest.approx(ref, rel=1e-13, abs=0)
    if dim % 2 == 0:
        gi = random_gaussian_integrand(rng_for(dim, "slabs"), dim // 2)
        got = quadrature_cn(GaussianExponent(gi.exponent), 0.9, dim // 2, nodes)
        assert got == pytest.approx(_ref_quadrature_cn(gi.eval, 0.9, dim // 2, nodes), rel=1e-13, abs=0)


def test_contraction_temporaries_stay_within_the_slab_budget():
    # at 80 nodes a slab is one head row of 6400 entries (100 KiB): the sum
    # holds K, P_a, the product and numpy's buffer for a broadcast multiply,
    # about 410 KiB; a slab of two head rows, or a P_b built beside the
    # product, takes about 600 KiB
    dim, nodes = 4, 80
    rng = np.random.default_rng(nodes)
    v = np.exp(0.3 * rng.standard_normal((dim, nodes)) + 1j * rng.standard_normal((dim, nodes)))
    m = {}
    for pq in itertools.combinations(range(dim), 2):
        x = 0.1 * rng.standard_normal((nodes, nodes)) + 1j * rng.standard_normal((nodes, nodes))
        m[pq] = np.exp(x + x.T)
    tracemalloc.start()
    try:
        total = quadrature._contract(v, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(total)
    # four temporaries, each under glibc's 128 KiB mmap threshold
    assert quadrature.SLAB * 16 < 2**17
    assert peak < 4 * 2**17


def test_exponent_that_is_not_quadratic_is_refused():
    def cubic(w):
        return -np.sum(np.abs(w) ** 2, axis=1) + 0.05 * w[:, 0] ** 2 * w[:, 1].conj()

    with pytest.raises(NonConvergent):
        quadrature_cn(GaussianExponent(cubic), 1.0, 2, nodes_per_axis=12)
    with pytest.raises(NonConvergent):
        lebesgue_rn(GaussianExponent(lambda x: -np.sum(x**2, axis=1) + 0.1 * x[:, 0] ** 2 * x[:, 1]), 2, 120)
    # dim 6: a term of three axes of C^3, zero at every probe point off the corners
    with pytest.raises(NonConvergent, match="not a finite quadratic"):
        quadrature_cn(GaussianExponent(lambda w: -np.sum(np.abs(w) ** 2, axis=1) + 0.05 * w.prod(axis=1)), 1.0, 3, 6)


@pytest.mark.parametrize("n, nodes", [(1, 80), (2, 40), (3, 6)])
def test_exponent_runs_once_per_quadrature(n, nodes):
    # the origin, 2n unit points, their pairwise sums, 2n axes of nodes and 2^(2n) corners
    gi = random_gaussian_integrand(rng_for(8, f"probe-{n}"), n)
    rec = _Recorder(gi.exponent)
    got = quadrature_cn(GaussianExponent(rec), 1.1, n, nodes)
    dim = 2 * n
    assert rec.sizes == [1 + dim + dim * (dim - 1) // 2 + dim * nodes + 2**dim]
    if n < 3:
        assert got == pytest.approx(quadrature_cn(gi.eval, 1.1, n, nodes), rel=1e-13, abs=0)


def test_corners_past_the_first_chunk_are_certified(set_chunk):
    # at CHUNK = 8 the 64 corners of C^3 take the probe call and 7 more
    gi = random_gaussian_integrand(rng_for(6, "factorised-dim6"), 3)
    want = quadrature_cn(GaussianExponent(gi.exponent), 0.9, 3, 6)
    set_chunk(8)
    rec = _Recorder(gi.exponent)
    assert quadrature_cn(GaussianExponent(rec), 0.9, 3, 6) == pytest.approx(want, rel=1e-13, abs=0)
    assert rec.sizes == [1 + 6 + 15 + 36 + 8] + [8] * 7
    with pytest.raises(NonConvergent, match="not a finite quadratic"):
        quadrature_cn(GaussianExponent(lambda w: -np.sum(np.abs(w) ** 2, axis=1) + 0.05 * w.prod(axis=1)), 1.0, 3, 6)


@pytest.mark.parametrize("n, nodes", [(1, 80), (2, 12)])
def test_overflowing_exponent_is_non_convergent(n, nodes):
    def growing(w):
        return 1e3 * np.sum(np.abs(w) ** 2, axis=1)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent):
            quadrature_cn(GaussianExponent(growing), 1.0, n, nodes_per_axis=nodes)
        with pytest.raises(NonConvergent):
            quadrature_cn(GaussianExponent(lambda w: growing(w) - 2e4), 1.0, n, nodes_per_axis=nodes)


def test_factorised_sum_is_stable_where_the_integrand_is():
    # the integrand stays below e^600, with Re w0 and Im w0 coupled; a split
    # that bounds each axis' factor apart from the coupling bounds the terms
    # by up to e^(600+420), which overflows, where the shifted pair factors
    # bound them by the integrand's own maximum
    def expo(w):
        return 600 - np.sum(np.abs(w) ** 2, axis=1) + 1.6 * w[:, 0].real * w[:, 0].imag

    got = lebesgue_cn(GaussianExponent(expo), 2, 40, scale=2.0)
    assert got == pytest.approx(lebesgue_cn(lambda w: np.exp(expo(w)), 2, 40, scale=2.0), rel=1e-12)


def test_underflowing_contraction_is_non_convergent():
    # E = -|x|^2 - 50 u^2 + 100 u with u = x0 - x1: its factor on x0 peaks at
    # the last node and on x1 at the first, so the shifts bound the terms by
    # about e^1080 while E stays below e^50, and every term underflows
    def expo(x):
        u = x[:, 0] - x[:, 1]
        return -np.sum(x**2, axis=1) - 50 * u**2 + 100 * u

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent):
            lebesgue_rn(GaussianExponent(expo), 2, 20)


def _shifted_gaussian(center):
    def f(x):
        return np.exp(-np.sum((x - center) ** 2, axis=-1)) * (1 + x[:, 0] - 0.5j * x[:, -1] ** 2)

    return f


@pytest.mark.parametrize("n, nodes", [(2, 80), (3, 40), (4, 12)])
def test_real_quadrature_matches_materialised_grid(n, nodes):
    center = np.linspace(-0.4, 0.3, n)
    f = _shifted_gaussian(center + 0.1)
    rec = _Recorder(f)
    _check_streamed(rec, lebesgue_rn(rec, n, nodes, scale=0.8, center=center),
                    _ref_lebesgue_rn(f, n, nodes, 0.8, center), nodes**n, CHUNK)


def test_many_leading_axes_match_materialised_grid(small_chunk):
    # 6 nodes with CHUNK = 32: a 6-point block and 3 or 5 leading axes
    gi = random_gaussian_integrand(rng_for(4, "stream-lead"), 2)
    rec = _Recorder(gi.eval)
    _check_streamed(rec, quadrature_cn(rec, 0.7, 2, 6), _ref_quadrature_cn(gi.eval, 0.7, 2, 6), 6**4, small_chunk)
    center = np.linspace(-0.2, 0.2, 6)
    f = _shifted_gaussian(center)
    rec = _Recorder(f)
    _check_streamed(rec, lebesgue_rn(rec, 6, 6, scale=0.9, center=center),
                    _ref_lebesgue_rn(f, 6, 6, 0.9, center), 6**6, small_chunk)


def test_streaming_memory_is_bounded():
    gi = random_gaussian_integrand(rng_for(5, "factorised-memory"), 2)
    quadrature._plan.cache_clear()
    tracemalloc.start()
    try:
        val = quadrature_cn(_one, 1.0, 2, nodes_per_axis=40)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        factorised = lebesgue_cn(GaussianExponent(gi.exponent), 2, nodes_per_axis=40, scale=quadrature_scale(gi))
        _, factorised_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fine = lebesgue_cn(GaussianExponent(gi.exponent), 2, nodes_per_axis=80, scale=quadrature_scale(gi))
        _, fine_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert val == pytest.approx(1.0, rel=1e-12)
    assert np.isfinite(factorised) and np.isfinite(fine)
    # the materialised 40^4 grid took 353 MB
    assert max(peak, factorised_peak) < 16 * 2**20
    # the 80^4-point sum holds six 80 x 80 pair matrices and a few
    # temporaries of one chunk, about 2 MB
    assert fine_peak < 4 * 2**20


def test_cached_arrays_are_read_only():
    s, w = gh_nodes(40)
    plan = quadrature._plan(4, 40)
    for arr in (s, w, plan.s, plan.block, plan.lead, *plan.block_w, *plan.lead_w, *plan.axis_w, *plan.pairs,
                plan.probe, plan.corners, plan.bits, *plan.log_w, plan.s2, plan.ss, plan.sq, plan.orbit):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        s[0] = 0.0


def test_refusals_come_before_evaluation():
    rec = _Recorder(_one)
    for nodes in (0, -3, 400, 2.5, True):
        with pytest.raises(BadConfig):
            quadrature_cn(rec, 1.0, 1, nodes_per_axis=nodes)
    with pytest.raises(BadConfig):
        lebesgue_rn(rec, 1, nodes_per_axis=0)
    # 80^6 points at n = 3
    with pytest.raises(BadConfig):
        lebesgue_cn(rec, 3, nodes_per_axis=80)
    # an axis count that is no integer, below 1, or past MAX_DIM real axes,
    # checked before the complex quadratures double it (2 * True is 2)
    assert quadrature.MAX_DIM == 16
    for n in (0, -1, 1.5, True, np.float64(2.0), 17, 70):
        with pytest.raises(BadConfig, match="n must be an integer"):
            lebesgue_rn(rec, n, nodes_per_axis=1)
        with pytest.raises(BadConfig, match="n must be an integer"):
            lebesgue_rn(GaussianExponent(rec), n, nodes_per_axis=1)
    for n in (0, -1, 1.5, True, 9, 35):
        for quad in (lambda f: quadrature_cn(f, 1.0, n, nodes_per_axis=1), lambda f: lebesgue_cn(f, n, 1)):
            for f in (rec, GaussianExponent(rec)):
                with pytest.raises(BadConfig, match="n must be an integer"):
                    quad(f)
    assert rec.sizes == []
    # 80^4, the CLI default at n = 2, is within the cap
    assert 80**4 <= quadrature.MAX_POINTS


def test_largest_axis_count_certifies_every_corner():
    # 16 real axes at 1 node: the probe call carries the first CHUNK of the
    # 65,536 corners and seven more calls the rest
    rec = _Recorder(lambda x: -np.sum(x**2, axis=1))
    got = lebesgue_rn(GaussianExponent(rec), 16, nodes_per_axis=1)
    assert got == pytest.approx(np.sqrt(np.pi) ** 16, rel=1e-12)
    assert rec.sizes == [1 + 16 + 120 + 16 + CHUNK] + [CHUNK] * 7


def test_non_finite_sum_is_non_convergent():
    def nan_in_last_chunk(w):
        out = np.ones(len(w), dtype=complex)
        out[w[:, 0].real > 3.0] = np.nan
        return out

    with pytest.raises(NonConvergent):
        quadrature_cn(nan_in_last_chunk, 1.0, 2, nodes_per_axis=12)
    with pytest.raises(NonConvergent):
        lebesgue_rn(lambda x: np.full(len(x), np.inf), 1, nodes_per_axis=20)
