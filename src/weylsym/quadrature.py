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
of x.  fn never runs on the grid itself: it is evaluated along each axis
and at unit points, which fixes the quadratic, and the sum contracts one
factor per axis with one matrix per pair of axes (see `_stream_exponent`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import BadConfig, NonConvergent
from .matcore import quad_form, require_lambda
from .polys import _is_int

__all__ = [
    "GaussianExponent",
    "quadrature_cn",
    "lebesgue_cn",
    "lebesgue_rn",
    "gh_nodes",
    "CHUNK",
    "MAX_NODES",
    "MAX_POINTS",
]

# most points handed to one integrand call: on chunks of a few thousand
# points the integrands' temporaries stay in cache (the n = 2 checks ran up
# to 1.7x slower on chunks of 2^16 points)
CHUNK = 2**13
# largest tensor grid accepted; admits 80 nodes on the 4 real axes of C^2
MAX_POINTS = 2**26
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
    """

    block: np.ndarray
    lead: np.ndarray
    block_w: tuple
    lead_w: tuple
    trailing: int
    s: np.ndarray
    axis_w: tuple


def _tensor(s, weights, dim: int, lo: int, hi: int):
    """The grid over axes lo..hi-1 of `dim`, in itertools.product order:
    points (dim, N), zero on the other axes, and the product weights for
    each weight vector in `weights`."""
    idx = np.indices((len(s),) * (hi - lo)).reshape(hi - lo, len(s) ** (hi - lo))
    pts = np.zeros((dim, idx.shape[1]))
    pts[lo:hi] = s[idx]
    return pts, tuple(_frozen(np.prod(w[idx], axis=0)) for w in weights)


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
    return _Plan(_frozen(block), _frozen(lead), block_w, lead_w, trailing, s, (w, _frozen(wl)))


def _checked_plan(dim: int, nodes: int) -> _Plan:
    """The refusals shared by every entry point, made before any evaluation."""
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
    NonConvergent when fn misses the split at one of the 2^dim corners of the
    grid by more than 1e-8·(1 + |fn|), or the contraction is 0 or not finite.
    """
    s, w = plan.s, plan.axis_w[lebesgue]
    dim, nodes = plan.block.shape[0], len(s)
    eye = np.eye(dim)
    j, l = np.triu_indices(dim, 1)
    along = (eye[:, :, None] * s).reshape(dim, dim * nodes)
    e = fn(to_x(np.hstack([np.zeros((dim, 1)), eye, eye[:, j] + eye[:, l], along])).T)
    e0, unit = e[0], e[1 : dim + 1]
    h = np.zeros((dim, dim), dtype=complex)
    h[j, l] = h[l, j] = e[dim + 1 : dim + 1 + len(j)] - unit[j] - unit[l] + e0
    d = e[dim + 1 + len(j) :].reshape(dim, nodes) - e0
    ends, axes = s[[0, -1]], np.arange(dim)[:, None]
    for lo in range(0, 2**dim, CHUNK):
        bits = (np.arange(lo, min(2**dim, lo + CHUNK)) >> axes) & 1
        got = fn(to_x(ends[bits]).T)
        fit = e0 + d[:, [0, -1]][axes, bits].sum(axis=0) + quad_form(h, ends[bits]) / 2
        if not np.all(np.abs(got - fit) <= 1e-8 * (1 + np.abs(got))):
            raise NonConvergent("integrand exponent is not a finite quadratic polynomial of the grid coordinates")
    hr = np.abs(h.real)
    a = d + (hr.sum(axis=1) / 2)[:, None] * s**2 + np.log(w)
    shift = np.max(a.real, axis=1)
    v = np.exp(a - shift[:, None])
    total = _contract(v, _pair_matrices(h, s))
    if not (total != 0 and np.isfinite(total)):
        raise NonConvergent(f"the factorised quadrature sum underflows or is not finite ({total})")
    return np.exp(e0 + shift.sum()) * total


def _pair_matrices(h: np.ndarray, s: np.ndarray) -> dict:
    """{(p, q): exp(h_pq s_i s_j - |Re h_pq| (s_i² + s_j²)/2)} over the nodes
    s, for the pairs p < q.

    hermgauss returns exactly antisymmetric nodes (s[::-1] == -s), so each
    matrix is centrosymmetric: only its first ⌈N/2⌉ rows are exponentiated,
    and the others are those rows reversed in both axes.
    """
    nodes, half = len(s), (len(s) + 1) // 2
    ss, sq = np.outer(s[:half], s), (s[:half, None] ** 2 + s**2) / 2
    out = {}
    for p, q in zip(*np.triu_indices(len(h), 1)):
        m = out[p, q] = np.empty((nodes, nodes), complex)
        np.exp(h[p, q] * ss - abs(h[p, q].real) * sq, out=m[:half])
        m[half:] = m[: nodes // 2][::-1, ::-1]
    return out


def _contract(v: np.ndarray, m: dict):
    """Σ over the grid of Π_j v[j, i_j] Π_{j<l} m[j, l][i_j, i_l], dim = len(v).

    With F the grid of all axes but the last two (a, b), r its rows,
    A[r] = Π_{j∈F} v_j Π_{j<l∈F} m_jl, P_c[r, i] = Π_{j∈F} m_jc[r_j, i] and
    K = v_a m_ab v_b, the sum is Σ_r A[r] rowsum((P_a @ K) ⊙ P_b): one matmul
    per chunk of rows.  A chunk spans F's last axis whole, so that no
    temporary exceeds about CHUNK/2 entries or one nodes x nodes matrix.
    """
    dim, nodes = v.shape
    if dim == 1:
        return v[0].sum()
    a, b, f = dim - 2, dim - 1, dim - 3
    kern = v[a][:, None] * m[a, b] * v[b]
    if dim == 2:
        return kern.sum()
    # F's last axis f is broadcast; its leading axes take `step` points a chunk
    heads, step = nodes**f, max(1, CHUNK // (2 * nodes * nodes))
    total = 0j
    for lo in range(0, heads, step):
        r = np.arange(lo, min(heads, lo + step))
        idx = [r // nodes ** (f - 1 - p) % nodes for p in range(f)]
        head = math.prod((v[p][idx[p]] for p in range(f)), start=np.ones(len(r)))
        head = math.prod((m[p, q][idx[p], idx[q]] for p in range(f) for q in range(p + 1, f)), start=head)
        lead = math.prod((m[p, f][idx[p]] for p in range(f)), start=v[f])
        pa, pb = (math.prod((m[p, c][idx[p]][:, None] for p in range(f)), start=m[f, c]).reshape(-1, nodes)
                  for c in (a, b))
        total += ((pa @ kern) * pb).sum(axis=1) @ (head[:, None] * lead).ravel()
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
    plan = _checked_plan(2 * n, nodes_per_axis)
    to_x = functools.partial(_to_cn, scale=math.sqrt(2.0 / lam))
    return complex(np.pi ** (-n) * _stream(f, plan, to_x, to_x, False))


def lebesgue_cn(f, n: int, nodes_per_axis: int = 80, scale: float = 1.0) -> complex:
    """∫_{C^n} f(w) dm(w) for integrands decaying like a Gaussian of width
    about `scale` on each real axis (see `gaussint.quadrature_scale`)."""
    plan = _checked_plan(2 * n, nodes_per_axis)
    to_x = functools.partial(_to_cn, scale=scale)
    # scale^{2n} is the Jacobian
    return complex(scale ** (2 * n) * _stream(f, plan, to_x, to_x, True))


def lebesgue_rn(f, n: int, nodes_per_axis: int = 80, scale: float = 1.0, center=0.0) -> complex:
    """∫_{R^n} f(x) dx for integrands decaying like a Gaussian around `center`."""
    plan = _checked_plan(n, nodes_per_axis)
    center = np.reshape(center, (-1, 1))
    to_x = lambda v: center + scale * v  # noqa: E731
    return complex(scale**n * _stream(f, plan, to_x, lambda v: scale * v, True))
