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
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import BadConfig, NonConvergent

__all__ = [
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
    correction folded in.
    """

    block: np.ndarray
    lead: np.ndarray
    block_w: tuple
    lead_w: tuple


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
    return _Plan(_frozen(block), _frozen(lead), block_w, lead_w)


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


def _stream(f, plan: _Plan, base: np.ndarray, offsets: np.ndarray, lebesgue: bool) -> complex:
    """Σ_i w_i f(x_i) over the grid x = base column + offsets column.

    `base` (k, m) is the block mapped to integrand coordinates and
    `offsets` (k, L) the leading grid through the linear part of that map.
    """
    bw, lw = plan.block_w[lebesgue], plan.lead_w[lebesgue]
    if offsets.shape[1] == 1:
        # one chunk: the offset is zero, so hand the block over as it is
        total = np.dot(f(base.T), bw) * lw[0]
    else:
        sums = np.empty(offsets.shape[1], dtype=complex)
        buf = np.empty(base.shape, dtype=np.result_type(base, offsets))
        for j in range(offsets.shape[1]):
            np.add(base, offsets[:, j, None], out=buf)
            sums[j] = np.dot(f(buf.T), bw)
        total = sums @ lw
    total = complex(total)
    if not (np.isfinite(total.real) and np.isfinite(total.imag)):
        raise NonConvergent(f"quadrature sum is not finite ({total})")
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
    plan = _checked_plan(2 * n, nodes_per_axis)
    scale = math.sqrt(2.0 / lam)
    base, offsets = _to_cn(plan.block, scale), _to_cn(plan.lead, scale)
    return complex(np.pi ** (-n) * _stream(f, plan, base, offsets, False))


def lebesgue_cn(f, n: int, nodes_per_axis: int = 80, scale: float = 1.0) -> complex:
    """∫_{C^n} f(w) dm(w) for integrands decaying at least like e^{-|w|^2/scale^2}."""
    plan = _checked_plan(2 * n, nodes_per_axis)
    base, offsets = _to_cn(plan.block, scale), _to_cn(plan.lead, scale)
    # scale^{2n} is the Jacobian
    return complex(scale ** (2 * n) * _stream(f, plan, base, offsets, True))


def lebesgue_rn(f, n: int, nodes_per_axis: int = 80, scale: float = 1.0, center=0.0) -> complex:
    """∫_{R^n} f(x) dx for integrands decaying like a Gaussian around `center`."""
    plan = _checked_plan(n, nodes_per_axis)
    base = np.reshape(center, (-1, 1)) + scale * plan.block
    return complex(scale**n * _stream(f, plan, base, scale * plan.lead, True))
