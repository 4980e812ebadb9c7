"""Tensor-product Gauss–Hermite quadrature over R^n and C^n.

Gauss–Hermite gives nodes/weights for ∫ e^{-s^2} g(s) ds ≈ Σ w_i g(s_i).
Three wrappers are provided:

* ``quadrature_cn``: ∫_{C^n} f(w) e^{-λ|w|^2/2} dμ_λ(w) with the measure
  dμ_λ = (2π)^{-n} λ^n dm normalised so that f ≡ 1 integrates to 1.
* ``lebesgue_cn``: plain ∫_{C^n} f dm for Gaussian-decaying f (the weight is
  un-absorbed by folding e^{+s^2} into the per-axis weights).
* ``lebesgue_rn``: plain ∫_{R^n} f dx, optionally recentred/rescaled.

The tensor grid is never materialised.  Its trailing axes form a cached
block of at most ``CHUNK`` points, and the grid is streamed one block at a
time, each shifted by one point of the grid of the leading axes; the
weighted sum is taken chunk by chunk.

Integrands must be vectorised: they receive an array of points of shape
(m, n) with m ≤ ``CHUNK`` (complex for C^n, real for R^n) and return an (m,)
array.  The array is the transpose of a C-contiguous (n, m) buffer that the
next chunk overwrites, so an integrand works row by row and must not keep
it.

An integrand wrapped as ``GaussianExponent(fn)`` is exp(fn(x)), where fn
returns the exponent and is a quadratic polynomial in the real coordinates
of x.  fn never runs on the grid itself: it runs once on probe points,
along each axis and at unit points, which fix the quadratic, and at the
grid's corners, which certify it (a further call per `CHUNK` corners past
the first `CHUNK`).  The sum contracts one factor per axis with one matrix
per pair of axes (see `_stream_exponent`).  Every array that depends only
on the grid, the probe points and corners included, is built once on the
cached plan of the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import BadConfig, NonConvergent
from .matcore import _is_int, _is_real, as_vector, quad_form, require_lambda

__all__ = [
    "GaussianExponent",
    "quadrature_cn",
    "lebesgue_cn",
    "lebesgue_rn",
    "gh_nodes",
    "CHUNK",
    "MAX_NODES",
    "MAX_POINTS",
    "MAX_DIM",
]

# most points handed to one integrand call: on chunks of a few thousand
# points the integrands' temporaries stay in cache (the n = 2 checks ran up
# to 1.7x slower on chunks of 2^16 points)
CHUNK = 2**13
# most complex entries in one temporary of the factorised contraction: 4 KiB
# under glibc's 128 KiB mmap threshold, so that a slab stays on the heap
SLAB = (2**17 - 2**12) // 16
# largest tensor grid accepted; admits 80 nodes on the 4 real axes of C^2
MAX_POINTS = 2**26
# most real axes of a grid: a GaussianExponent certifies its fit at all 2^dim
# corners of the grid, 65,536 here, in 8 calls of fn at the default CHUNK
MAX_DIM = 16
# hermgauss builds a dense nodes x nodes matrix; numpy's weights stop being
# finite well below this (about 370 nodes)
MAX_NODES = 512


@dataclass(frozen=True)
class GaussianExponent:
    """The integrand exp(fn(x)), for a vectorised fn that returns the
    exponent and is a quadratic polynomial in the real coordinates of x.
    The quadratures sum it in factorised form, and raise NonConvergent when
    fn does not fit a quadratic at the grid's corners or the sum underflows."""

    fn: Callable


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def gh_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the `nodes`-point Gauss–Hermite rule."""
    with np.errstate(all="ignore"):
        s, w = hermgauss(nodes)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(w))):
        raise BadConfig(f"Gauss-Hermite weights are not finite at {nodes} nodes")
    return _frozen(s), _frozen(w)


class _Plan(NamedTuple):
    """How the grid over `dim` axes of `nodes` nodes is streamed.

    Every grid point is one column of ``block`` (dim, m), the grid of the
    trailing axes with zero rows for the leading ones, plus one column of
    ``lead`` (dim, L), the grid of the leading axes with zero rows for the
    trailing ones; each column of ``lead`` makes one chunk.  The weights
    are indexed by ``lebesgue``: plain Gauss–Hermite, or with the e^{s^2}
    correction folded in.  The block spans the last ``trailing`` axes;
    ``s`` and ``axis_w`` hold the nodes and weights of one axis.

    The rest serves `_stream_exponent`.  ``probe`` holds, as columns, the
    origin, the unit points, the sums of two unit points for the axis pairs
    ``pairs`` (j < l), the nodes along each axis, and last the first
    ``corners`` of the grid, whose end nodes ``bits`` picks (0 the first,
    1 the last).  ``log_w`` holds the logs of ``axis_w``, ``s2`` the
    squared nodes, ``ss`` and ``sq`` the node products s_i s_j and
    (s_i² + s_j²)/2 at the node pairs that `_pair_entries` keeps, and
    ``orbit`` (nodes, nodes) the index among them of each node pair.
    """

    block: np.ndarray
    lead: np.ndarray
    block_w: tuple
    lead_w: tuple
    trailing: int
    s: np.ndarray
    axis_w: tuple
    pairs: tuple
    probe: np.ndarray
    corners: np.ndarray
    bits: np.ndarray
    log_w: tuple
    s2: np.ndarray
    ss: np.ndarray
    sq: np.ndarray
    orbit: np.ndarray


def _tensor(s, weights, dim: int, lo: int, hi: int):
    """The grid over axes lo..hi-1 of `dim`, in itertools.product order:
    points (dim, N), zero on the other axes, and the product weights for
    each weight vector in `weights`."""
    idx = np.indices((len(s),) * (hi - lo)).reshape(hi - lo, len(s) ** (hi - lo))
    pts = np.zeros((dim, idx.shape[1]))
    pts[lo:hi] = s[idx]
    return pts, tuple(_frozen(np.prod(w[idx], axis=0)) for w in weights)


def _corner_bits(dim: int, lo: int, hi: int) -> np.ndarray:
    """(dim, hi - lo): bit j of each corner index lo..hi-1, the end node of
    axis j at that corner."""
    return (np.arange(lo, hi) >> np.arange(dim)[:, None]) & 1


@functools.lru_cache(maxsize=16)
def _plan(dim: int, nodes: int) -> _Plan:
    s, w = gh_nodes(nodes)
    with np.errstate(all="ignore"):
        wl = w * np.exp(s**2)
    if not np.all(np.isfinite(wl)):
        raise BadConfig(f"Gauss-Hermite weights overflow e^(s^2) at {nodes} nodes")
    trailing = 0
    while trailing < dim and nodes ** (trailing + 1) <= CHUNK:
        trailing += 1
    block, block_w = _tensor(s, (w, wl), dim, dim - trailing, dim)
    lead, lead_w = _tensor(s, (w, wl), dim, 0, dim - trailing)
    eye = np.eye(dim)
    j, l = np.triu_indices(dim, 1)
    bits = _corner_bits(dim, 0, min(2**dim, CHUNK))
    along = (eye[:, :, None] * s).reshape(dim, dim * nodes)
    probe = _frozen(np.hstack([np.zeros((dim, 1)), eye, eye[:, j] + eye[:, l], along, s[[0, -1]][bits]]))
    # a zero weight has log -inf
    with np.errstate(divide="ignore"):
        log_w = (_frozen(np.log(w)), _frozen(np.log(wl)))
    return _Plan(_frozen(block), _frozen(lead), block_w, lead_w, trailing, s, (w, _frozen(wl)),
                 (_frozen(j), _frozen(l)), probe, probe[:, -bits.shape[1] :], _frozen(bits), log_w,
                 _frozen(s**2), *map(_frozen, _pair_entries(s)))


def _pair_entries(s: np.ndarray) -> tuple:
    """s_i s_j and (s_i² + s_j²)/2 at the node pairs i ≤ j, i + j < N, and
    the (N, N) array of the pair whose values each (i, j) takes.

    Both are symmetric in (i, j), and unchanged by (i, j) ↦ (N-1-i, N-1-j)
    as hermgauss returns exactly antisymmetric nodes (s[::-1] == -s), so
    the pair matrices of `_pair_matrices` are exact copies of their entries
    at these about N²/4 pairs.
    """
    nodes = len(s)
    i, j = np.triu_indices(nodes)
    keep = i + j < nodes
    i, j = i[keep], j[keep]
    rank = np.zeros((nodes, nodes), dtype=np.intp)
    rank[i, j] = np.arange(len(i))
    # fold each (i, j) onto i <= j, then onto i + j < nodes
    k = np.arange(nodes)
    lo, hi = np.minimum.outer(k, k), np.maximum.outer(k, k)
    far = lo + hi >= nodes
    lo[far], hi[far] = nodes - 1 - hi[far], nodes - 1 - lo[far]
    return s[i] * s[j], (s[i] ** 2 + s[j] ** 2) / 2, rank[lo, hi]


def _checked_plan(n: int, nodes: int, axes_per_n: int = 1) -> _Plan:
    """The plan of a grid over axes_per_n·n real axes, after the refusals
    shared by every entry point, made before any evaluation: n is checked
    before it is multiplied, since 2 * True is 2."""
    if not (_is_int(n) and 1 <= n <= MAX_DIM // axes_per_n):
        raise BadConfig(f"n must be an integer in [1, {MAX_DIM // axes_per_n}], got {n!r}")
    dim = axes_per_n * int(n)
    if not _is_int(nodes):
        raise BadConfig(f"nodes_per_axis must be an integer, got {nodes!r}")
    nodes = int(nodes)
    if not 1 <= nodes <= MAX_NODES:
        raise BadConfig(f"nodes_per_axis must be in [1, {MAX_NODES}], got {nodes}")
    if nodes**dim > MAX_POINTS:
        raise BadConfig(f"{nodes}^{dim} quadrature points exceed the cap of {MAX_POINTS}")
    return _plan(dim, nodes)


def _stream(f, plan: _Plan, to_x, lin, lebesgue: bool) -> complex:
    """Σ_i w_i f(x_i) over the grid, x = to_x(grid point).

    `to_x` maps real axis-major grid points (dim, k) to integrand
    coordinates and `lin` is its linear part: the block maps through
    `to_x` and the leading grid through `lin`.  A `GaussianExponent` is
    summed in factorised form, any other callable chunk by chunk.
    """
    if isinstance(f, GaussianExponent):
        # an overflow shows as a sum that is not finite; a zero weight has log -inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total = _stream_exponent(f.fn, plan, to_x, lebesgue)
    else:
        bw, lw = plan.block_w[lebesgue], plan.lead_w[lebesgue]
        total = _stream_chunks(f, to_x(plan.block), lin(plan.lead), bw, lw)
    total = complex(total)
    if not (np.isfinite(total.real) and np.isfinite(total.imag)):
        raise NonConvergent(f"quadrature sum is not finite ({total})")
    return total


def _stream_chunks(f, base: np.ndarray, offsets: np.ndarray, bw, lw):
    """One integrand call per chunk: the block `base` shifted by each column
    of `offsets`."""
    if offsets.shape[1] == 1:
        # one chunk: the offset is zero, so hand the block over as it is
        return np.dot(f(base.T), bw) * lw[0]
    sums = np.empty(offsets.shape[1], dtype=complex)
    buf = np.empty(base.shape, dtype=np.result_type(base, offsets))
    for j in range(offsets.shape[1]):
        np.add(base, offsets[:, j, None], out=buf)
        sums[j] = np.dot(f(buf.T), bw)
    return sums @ lw


def _stream_exponent(fn, plan: _Plan, to_x, lebesgue: bool):
    """Σ w exp(E(s)) over the grid for a quadratic exponent E(s) = fn(to_x(s)).

    E = e0 + Σ_j d_j(s_j) + Σ_{j<l} h_jl s_j s_l exactly: d_j is fn along axis
    j at the nodes, and h comes by polarisation at unit points.  The sum is
    exp(e0) Σ Π_j v_j Π_{j<l} M_jl (`_contract`), with v_j = w exp(d_j + ρ_j s²),
    ρ_j = Σ_l |Re h_jl|/2, and M_jl = exp(h_jl s s' - |Re h_jl|(s² + s'²)/2) at
    most 1 in modulus (AM–GM).  Dividing each v_j by its largest modulus bounds
    every term by 1: tightly where the decay of E dominates its coupling between
    axes, and loosely, by up to the ρ_j s², where the coupling dominates.
    fn runs once on the plan's probe points, which end with the first CHUNK
    corners, and once more per CHUNK later corners.
    NonConvergent when fn misses the split at one of the 2^dim corners of the
    grid by more than 1e-8·(1 + |fn|), or the contraction is 0 or not finite.
    """
    s = plan.s
    dim, nodes = plan.block.shape[0], len(s)
    j, l = plan.pairs
    e = fn(to_x(plan.probe).T)
    e0, unit = e[0], e[1 : dim + 1]
    h = np.zeros((dim, dim), dtype=complex)
    h[j, l] = h[l, j] = e[dim + 1 : dim + 1 + len(j)] - unit[j] - unit[l] + e0
    split = dim + 1 + len(j) + dim * nodes
    d = e[dim + 1 + len(j) : split].reshape(dim, nodes) - e0
    ends = d[:, [0, -1]]
    _certify(e[split:], e0, ends, h, plan.bits, plan.corners)
    for lo in range(CHUNK, 2**dim, CHUNK):
        bits = _corner_bits(dim, lo, min(2**dim, lo + CHUNK))
        corners = s[[0, -1]][bits]
        _certify(fn(to_x(corners).T), e0, ends, h, bits, corners)
    hr = np.abs(h.real)
    a = d + (hr.sum(axis=1) / 2)[:, None] * plan.s2 + plan.log_w[lebesgue]
    shift = np.max(a.real, axis=1)
    v = np.exp(a - shift[:, None])
    total = _contract(v, _pair_matrices(h, plan))
    if not (total != 0 and np.isfinite(total)):
        raise NonConvergent(f"the factorised quadrature sum underflows or is not finite ({total})")
    return np.exp(e0 + shift.sum()) * total


def _certify(got, e0, ends, h, bits, corners) -> None:
    """NonConvergent unless fn's values `got` at the grid corners `corners`
    match the split e0 + Σ_j d_j + s h s/2 to 1e-8·(1 + |got|); `ends` holds
    each d_j at the end nodes that `bits` picks."""
    fit = e0 + ends[np.arange(len(ends))[:, None], bits].sum(axis=0) + quad_form(h, corners) / 2
    if not np.all(np.abs(got - fit) <= 1e-8 * (1 + np.abs(got))):
        raise NonConvergent("integrand exponent is not a finite quadratic polynomial of the grid coordinates")


def _pair_matrices(h: np.ndarray, plan: _Plan) -> dict:
    """{(p, q): exp(h_pq s_i s_j - |Re h_pq| (s_i² + s_j²)/2)} over the nodes
    s, for the pairs p < q.

    Each matrix is symmetric and centrosymmetric (`_pair_entries`), so only
    its entries at about N²/4 node pairs are exponentiated, and
    ``plan.orbit`` gathers the matrix from them.  The entries of all pairs
    are exponentiated in one call, or in batches of fewer than CHUNK
    entries (128 KiB at the default, glibc's mmap threshold), so that no
    temporary reaches that threshold unless one matrix does.
    """
    j, l = plan.pairs
    group = max(1, (CHUNK - 1) // len(plan.ss))
    out = {}
    for lo in range(0, len(j), group):
        hp = h[j[lo : lo + group], l[lo : lo + group], None]
        vals = hp * plan.ss
        vals -= np.abs(hp.real) * plan.sq
        np.exp(vals, out=vals)
        for k, pq in enumerate(zip(j[lo : lo + group].tolist(), l[lo : lo + group].tolist())):
            out[pq] = vals[k][plan.orbit]
    return out


def _contract(v: np.ndarray, m: dict):
    """Σ over the grid of Π_j v[j, i_j] Π_{j<l} m[j, l][i_j, i_l], dim = len(v).

    With F the grid of all axes but the last two (a, b), r its rows,
    A[r] = Π_{j∈F} v_j Π_{j<l∈F} m_jl, P_c[r, i] = Π_{j∈F} m_jc[r_j, i] and
    K = v_a m_ab v_b, the sum is Σ_r A[r] rowsum((P_a @ K) ⊙ P_b): one matmul
    per slab of rows.  A slab spans F's last axis whole and holds at most
    SLAB entries, or one nodes x nodes matrix, in each of its two
    temporaries, P_a and the product, which every slab reuses.  P_b is never
    built: m_fb and the product of its other factors, one (rows, nodes)
    array, multiply the matmul's product in place, and the row sums are one
    matvec.
    """
    dim, nodes = v.shape
    if dim == 1:
        return v[0].sum()
    a, b, f = dim - 2, dim - 1, dim - 3
    kern = v[a][:, None] * m[a, b]
    kern *= v[b]
    if dim == 2:
        return kern.sum()
    # F's last axis f is broadcast; its leading axes take `step` points a slab
    heads, step = nodes**f, max(1, SLAB // (nodes * nodes))
    # the two temporaries, which every slab reuses
    pa_buf = np.empty((min(heads, step), nodes, nodes), dtype=complex)
    prod_buf = np.empty((min(heads, step) * nodes, nodes), dtype=complex)
    ones = np.ones(nodes, dtype=complex)
    total = 0j
    for lo in range(0, heads, step):
        r = np.arange(lo, min(heads, lo + step))
        idx = [r // nodes ** (f - 1 - p) % nodes for p in range(f)]
        lead, pa = v[f], m[f, a]
        if f:
            # complex from the start: v may be real, the pair factors are not
            head = v[0][idx[0]].astype(complex)
            for p in range(1, f):
                head *= v[p][idx[p]]
            for p in range(f):
                for q in range(p + 1, f):
                    head *= m[p, q][idx[p], idx[q]]
            # qa, qb (rows, nodes): the factors of P_a, P_b that vary with the head row
            lead, qa, qb = v[f] * m[0, f][idx[0]], m[0, a][idx[0]], m[0, b][idx[0]]
            for p in range(1, f):
                lead *= m[p, f][idx[p]]
                qa *= m[p, a][idx[p]]
                qb *= m[p, b][idx[p]]
            lead *= head[:, None]
            pa = np.multiply(pa, qa[:, None], out=pa_buf[: len(r)])
        prod = np.matmul(pa.reshape(-1, nodes), kern, out=prod_buf[: len(r) * nodes])
        pb = prod.reshape(-1, nodes, nodes)
        pb *= m[f, b]
        if f:
            pb *= qb[:, None]
        total += (prod @ ones) @ lead.ravel()
    return total


def _to_cn(v: np.ndarray, scale: float) -> np.ndarray:
    """Real axis-major points (2n, m) as complex points scale·(x + iy), (n, m)."""
    n = v.shape[0] // 2
    return scale * (v[:n] + 1j * v[n:])


def quadrature_cn(f, lam: float, n: int, nodes_per_axis: int = 80) -> complex:
    """∫_{C^n} f(w) e^{-λ|w|^2/2} dμ_λ(w) by tensor Gauss–Hermite.

    Substituting x_j = sqrt(2/λ) s_j on each of the 2n real axes absorbs the
    weight and the measure normalisation: the prefactor collapses to π^{-n}.
    """
    require_lambda(lam)
    plan = _checked_plan(n, nodes_per_axis, 2)
    to_x = functools.partial(_to_cn, scale=math.sqrt(2.0 / lam))
    return complex(np.pi ** (-n) * _stream(f, plan, to_x, to_x, False))


def _require_scale(scale) -> None:
    """BadConfig unless the grid scale is a finite real > 0: a negative one
    flipped the sign of the Jacobian at odd dimension."""
    if not (_is_real(scale) and 0 < scale < math.inf):
        raise BadConfig(f"scale must be a finite real > 0, got {scale!r}")


def lebesgue_cn(f, n: int, nodes_per_axis: int = 80, scale: float = 1.0) -> complex:
    """∫_{C^n} f(w) dm(w) for integrands decaying like a Gaussian of width
    about `scale` on each real axis (see `gaussint.quadrature_scale`).
    BadConfig, before any call of f, unless `scale` is a finite real > 0."""
    plan = _checked_plan(n, nodes_per_axis, 2)
    _require_scale(scale)
    to_x = functools.partial(_to_cn, scale=scale)
    # scale^{2n} is the Jacobian
    return complex(scale ** (2 * n) * _stream(f, plan, to_x, to_x, True))


def lebesgue_rn(f, n: int, nodes_per_axis: int = 80, scale: float = 1.0, center=0.0) -> complex:
    """∫_{R^n} f(x) dx for integrands decaying like a Gaussian around `center`,
    a finite real scalar or a vector of n reals, with width about `scale`.
    Before any call of f: BadConfig unless `scale` is a finite real > 0, and
    ShapeError for any other `center` (`matcore.as_vector`)."""
    plan = _checked_plan(n, nodes_per_axis)
    _require_scale(scale)
    center = as_vector(center, None if np.isscalar(center) else n, float)[:, None]
    to_x = lambda v: center + scale * v  # noqa: E731
    return complex(scale**n * _stream(f, plan, to_x, lambda v: scale * v, True))
