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
of x.  Its sum is taken in factorised form: fn is evaluated on the block
and on the leading grid once each, and the cross term between the two
splits into one factor per trailing axis (see `_stream_exponent`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import BadConfig, NonConvergent
from .matcore import require_lambda

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
    fn does not fit a quadratic at the corners of the grid."""

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
    if not isinstance(nodes, (int, np.integer)):
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
        # an overflow shows as a sum that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
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
    """Σ w exp(E) for a quadratic exponent E = fn(to_x(s)) of the grid point s.

    Write s = b + o, b on the t trailing axes (a block point) and o on the
    leading ones.  Then E(b + o) = E(o) + E(b) - E(0) + Σ_j b_j c_j(o) with
    c = C o, where C = E(e_j + e_l) - E(e_j) - E(e_l) + E(0) is the
    trailing-by-leading block of the Hessian, read off by polarisation.
    Each lead point's block sum is then one table over the block, of
    exp(E(b) - E(0)), contracted with t factor vectors w(s_i) exp(s_i c_j(o)),
    one per trailing axis: a matmul and t - 1 reductions.  The exponents of
    the table and of each factor vector are shifted by their largest real
    part, and the shifts go into the lead point's factor.
    """
    lw = plan.lead_w[lebesgue]
    e_block = fn(to_x(plan.block).T)
    lead = plan.lead
    if lead.shape[1] == 1:
        # one chunk: E was evaluated at every grid point
        return np.dot(np.exp(e_block), plan.block_w[lebesgue]) * lw[0]
    t, s = plan.trailing, plan.s
    dim, nodes = lead.shape[0], len(s)
    k = dim - t
    eye = np.eye(dim)
    pairs = (eye[:, k:, None] + eye[:, None, :k]).reshape(dim, t * k)
    ends = [0, 0, -1, -1], [0, -1, 0, -1]
    corners = plan.block[:, ends[0]] + lead[:, ends[1]]
    e = fn(to_x(np.hstack([np.zeros((dim, 1)), eye, pairs, lead[:, [0, -1]], corners])).T)
    e0, e_unit = e[0], e[1 : dim + 1]
    cross = e[dim + 1 : dim + 1 + t * k].reshape(t, k) - e_unit[k:, None] - e_unit[None, :k] + e0
    # certificate: the factorised exponent against fn at the four corners of the grid
    fit = e_block[ends[0]] + e[-6:-4][[0, 1, 0, 1]] - e0
    fit = fit + np.sum(plan.block[k:, ends[0]] * (cross @ lead[:k, ends[1]]), axis=0)
    if not np.all(np.abs(e[-4:] - fit) <= 1e-8 * (1 + np.abs(e[-4:]))):
        raise NonConvergent("integrand exponent is not a finite quadratic polynomial of the grid coordinates")
    aw = plan.axis_w[lebesgue][:, None]
    # lead points per batch, so that no temporary exceeds about CHUNK entries
    step = max(1, CHUNK // max(1, nodes**t // nodes, t * nodes))

    def block_sums(d):
        """The sum with d_j(s_i) moved from the table into factor j."""
        rest = e_block.reshape((nodes,) * t) - e0
        for j in range(t):
            rest = rest - d[j].reshape([-1 if a == j else 1 for a in range(t)])
        f0 = np.max(rest.real)
        table = np.exp(rest - f0).reshape(-1, nodes if t else 1)
        total = 0j
        for lo in range(0, lead.shape[1], CHUNK):
            o = lead[:, lo : lo + CHUNK]
            h = fn(to_x(o).T) + f0
            ow = lw[lo : lo + CHUNK]
            c = cross @ o[:k]
            for a in range(0, o.shape[1], step):
                r = s[:, None] * c[:, None, a : a + step] + d[:, :, None]
                shift = np.max(r.real, axis=1)
                g = np.exp(r - shift[:, None]) * aw
                x = table @ g[-1] if t else table
                for gj in g[-2::-1]:
                    x = (x.reshape(-1, nodes, x.shape[1]) * gj).sum(axis=1)
                total += np.sum(ow[a : a + step] * np.exp(h[a : a + step] + shift.sum(axis=0)) * x[0])
        return total

    total = block_sums(np.zeros((t, nodes)))
    if not np.isfinite(total):
        # The shifts bound the largest term loosely when the table's and the
        # factors' maxima lie apart: E(b) may peak where b_j c_j(o) does not.
        # Moving each axis' own part d_j(s) = E(s e_j) - E(0) into its factor
        # makes the bound tight when the block has no cross terms between
        # trailing axes, at the price of roundoff from the subtraction.
        along = (eye[:, k:, None] * s).reshape(dim, t * nodes)
        total = block_sums(fn(to_x(along).T).reshape(t, nodes) - e0)
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
