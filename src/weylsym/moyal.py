"""Exact Moyal star product on phase-space polynomials and Weyl quantization.

The bidifferential operators are

    P^l(u, v) = Σ Λ^{i1 j1} ... Λ^{il jl} (∂_{i1...il} u)(∂_{j1...jl} v)

with Λ pairing p_k to q_k (+1, and -1 for the transpose), so that P^1 is the
Poisson bracket Σ_k (∂u/∂p_k ∂v/∂q_k - ∂u/∂q_k ∂v/∂p_k).  The star product
is u ∗ v = Σ_l t^l P^l(u, v)/l! specialised at t = -i/2, which makes Weyl
quantization a homomorphism: W(f1 ∗ f2) = W(f1) W(f2).

Phase-space polynomials are `Poly` instances in 2n variables ordered
(p_1..p_n, q_1..q_n); quantized operators are differential operators
Σ_β c_β(p) ∂_p^β with polynomial coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import BadConfig, NonConvergent, ShapeError, SingularMatrix
from .polys import Poly
from .weylsymbols import GaussianSymbol, QuadForm2n

__all__ = [
    "DiffOp",
    "phase_poly_from_quadform",
    "poisson_power",
    "moyal_mul",
    "star_exp_series",
    "star_exp_quadratic_closed",
    "star_exp_quadratic_symbol",
    "weyl_quantize_poly",
    "diffop_compose",
    "diffop_apply",
    "homomorphism_residual",
    "star_exp_bridge_residual",
]

_T = -0.5j  # the deformation parameter, fixed at construction


def phase_poly_from_quadform(q: QuadForm2n) -> Poly:
    """q_M(v) = v^t M v as a polynomial in (p_1..p_n, q_1..q_n) = v."""
    dim = 2 * q.n
    out: dict = {}
    for i in range(dim):
        for j in range(dim):
            if q.M[i, j] != 0:
                e = [0] * dim
                e[i] += 1
                e[j] += 1
                key = tuple(e)
                out[key] = out.get(key, 0.0) + q.M[i, j]
    return Poly(dim, out)


def _check_phase(u: Poly) -> int:
    if u.nvars % 2 != 0:
        raise ShapeError("phase-space polynomials need an even variable count")
    return u.nvars // 2


def _partials(u: Poly, l: int) -> dict:
    """{γ: ∂^γ u} over the multi-indices γ with |γ| = l whose derivative is
    nonzero; each γ is reached once, by raising its last nonzero slot."""
    level = {(0,) * u.nvars: u}
    for _ in range(l):
        nxt = {}
        for gamma, d in level.items():
            last = max((i for i, e in enumerate(gamma) if e), default=0)
            for i in range(last, u.nvars):
                di = d.diff(i)
                if di.terms:
                    nxt[gamma[:i] + (gamma[i] + 1,) + gamma[i + 1 :]] = di
        level = nxt
    return level


def poisson_power(u: Poly, v: Poly, l: int) -> Poly:
    """P^l(u, v) in multinomial form; P^0(u, v) = uv.

    Expanding the l Λ factors, a term with α_k factors (p_k, q_k) and β_k
    factors (q_k, p_k) occurs l!/(α! β!) times with sign (-1)^{|β|}:

        P^l(u, v) = Σ_{|α|+|β|=l} (-1)^{|β|} l!/(α! β!)
                    (∂_p^α ∂_q^β u)(∂_q^α ∂_p^β v).
    """
    n = _check_phase(u)
    if v.nvars != u.nvars:
        raise ShapeError("operands live on different phase spaces")
    if l < 0:
        raise ShapeError("order must be nonnegative")
    if l == 0:
        return u * v
    du = _partials(u, l)
    dv = _partials(v, l)
    total = Poly.zero(u.nvars)
    for gamma, ug in du.items():
        alpha, beta = gamma[:n], gamma[n:]
        vg = dv.get(beta + alpha)
        if vg is None:
            continue
        weight = math.factorial(l) // math.prod(math.factorial(e) for e in gamma)
        total = total + (-weight if sum(beta) % 2 else weight) * (ug * vg)
    return total


def moyal_mul(u: Poly, v: Poly) -> Poly:
    """u ∗ v = Σ_l t^l P^l(u, v)/l! at t = -i/2 (finite sum for polynomials)."""
    lmax = min(u.degree, v.degree)
    out = Poly.zero(u.nvars)
    for l in range(lmax + 1):
        out = out + (_T**l / math.factorial(l)) * poisson_power(u, v, l)
    return out


# Largest monomial count star_exp_series allocates, C(2·order + 2n, 2n): the
# power (s q_M)^{∗order} has total degree 2·order.  n = 2 at order 40 (the
# star-exp suite) needs 1.93M; n = 3 at order 40 would need 4.7·10^8.
_MAX_MONOMIALS = 2**21


@dataclass
class _GradedTable:
    """The monomials in k variables of total degree ≤ `degree`, in graded
    order, so that the degree ≤ d monomials are a prefix for every d ≤ degree.

    exps[a, i] is the exponent of variable a in monomial i; up[a, i] is the
    index of v_a times monomial i, for the monomials of degree < `degree`;
    ends[d] is the number of monomials of degree ≤ d.
    """

    degree: int
    exps: np.ndarray
    up: np.ndarray
    ends: list


def _prefix(tab: _GradedTable, d: int) -> int:
    """Number of monomials of degree ≤ d (0 for d < 0)."""
    return tab.ends[d] if d >= 0 else 0


# one table per variable count, grown in place to the largest degree asked
# for; the graded order lets it serve every lower degree unchanged
_TABLES: dict = {}


def _graded_table(k: int, degree: int) -> _GradedTable:
    """The cached table for k variables, grown to at least `degree`.

    Within a degree-d shell, monomial e has the stars-and-bars rank
    Σ_{j=1}^{k-1} C(s_j + k-1-j, k-j), s_j = e_j + ... + e_{k-1}, a bijection
    onto [0, C(d+k-1, k-1)).  Each new shell is the set of shell-(d-1)
    monomials raised in one slot, which also gives those monomials' up rows.
    """
    tab = _TABLES.get(k)
    if tab is None:
        tab = _TABLES[k] = _GradedTable(0, np.zeros((k, 1), np.int16), np.zeros((k, 0), np.intp), [1])
    if degree <= tab.degree:
        return tab
    binom = np.array([[math.comb(p, r) for r in range(k + 1)] for p in range(degree + k)], np.int64)
    eye = np.eye(k, dtype=np.int64)
    ends = list(tab.ends)
    exps = np.empty((k, math.comb(degree + k, k)), np.int16)
    up = np.empty((k, math.comb(degree - 1 + k, k)), np.intp)
    exps[:, : ends[-1]] = tab.exps
    up[:, : tab.up.shape[1]] = tab.up
    for d in range(tab.degree + 1, degree + 1):
        lo, hi = ends[d - 2] if d >= 2 else 0, ends[d - 1]
        cand = exps[:, lo:hi].T.astype(np.int64)[None] + eye[:, None, :]  # (raised slot, monomial, variable)
        suffix = np.cumsum(cand[..., ::-1], axis=-1)[..., ::-1]
        up[:, lo:hi] = hi + sum(binom[suffix[..., j] + k - 1 - j, k - j] for j in range(1, k))
        exps[:, up[:, lo:hi].ravel()] = cand.reshape(-1, k).T
        ends.append(hi + math.comb(d + k - 1, k - 1))
    tab.exps, tab.up, tab.ends, tab.degree = exps, up, ends, degree
    return tab


def _star_step(tab: _GradedTable, c: np.ndarray, deg: int, s_mat: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Packed coefficients of u ∗ f for f = vᵗ S v, u of degree ≤ deg packed
    as c over the first _prefix(tab, deg) monomials of tab.

    Only P^0, P^1 and P^2 survive against a quadratic, so

        u ∗ f = f·u + t Σ_i g_i ∂_i u + (t²/2) Σ_ab H_ab ∂_a ∂_b u,

    g = 2ΛS v, H = 2ΛSΛᵗ, with lam the Poisson pairing Λ (J in (p, q) order).
    Multiplying by v_a scatters through up[a]; ∂_a gathers through up[a]
    with weight e_a + 1.  The f·u and g terms are collected as Σ_a v_a z_a;
    they run one after the other so that at most k full-length work arrays
    are alive at once.
    """
    k = s_mat.shape[0]
    grad = 2.0 * lam @ s_mat
    hess = grad @ lam.T
    n0, n1, n2 = _prefix(tab, deg), _prefix(tab, deg + 1), _prefix(tab, deg + 2)
    m1, m2 = _prefix(tab, deg - 1), _prefix(tab, deg - 2)
    up, exps = tab.up, tab.exps
    out = np.zeros(n2, complex)
    # f·u = Σ_a v_a Σ_b S_ab v_b u
    vu = np.zeros((k, n1), complex)
    for b in range(k):
        vu[b, up[b, :n0]] = c
    for a in range(k):
        out[up[a, :n1]] += s_mat[a] @ vu
    del vu
    # t Σ_a v_a Σ_i (2ΛS)_ia ∂_i u  and  (t²/2) Σ_a ∂_a Σ_b H_ab ∂_b u
    du = np.empty((k, m1), complex)
    for i in range(k):
        du[i] = (exps[i, :m1] + 1) * c[up[i, :m1]]
    for a in range(k):
        out[up[a, :m1]] += _T * (grad[:, a] @ du)
        h = hess[a] @ du
        out[:m2] += (_T**2 / 2) * (exps[a, :m2] + 1) * h[up[a, :m2]]
    return out


def star_exp_series(q: QuadForm2n, s: complex, order: int, point) -> tuple[complex, float]:
    """exp_*(s q_M)(point) = Σ_{l≤L} (s q_M)^{∗l}(point)/l! by repeated
    star multiplication.  Returns (value, last-term magnitude).

    Refuses outside the convergence envelope ‖sM‖ ≤ 0.25, |point| ≤ 1.5,
    L ≤ 60, and raises NonConvergent if the certificate fails.  Raises
    BadConfig when the packed powers would need more than 2^21 monomials
    (n = 3 or more at order 40).

    Each power is a dense coefficient array over the monomials of degree
    ≤ 2l in graded order (see `_star_step`), evaluated by one dot product
    with the monomial values at the point.
    """
    point = np.asarray(point, dtype=float).reshape(2 * q.n)
    if np.linalg.norm(complex(s) * q.M, 2) > 0.25 + 1e-12:
        raise NonConvergent("‖s M‖ exceeds the convergence envelope (0.25)")
    if np.linalg.norm(point) > 1.5 + 1e-12:
        raise NonConvergent("|point| exceeds the convergence envelope (1.5)")
    if order > 60:
        raise NonConvergent("truncation order exceeds 60")
    k = 2 * q.n
    top = 2 * max(order, 0)
    if math.comb(top + k, k) > _MAX_MONOMIALS:
        raise BadConfig(
            f"order {order} at n = {q.n} needs {math.comb(top + k, k)} monomials "
            f"(limit {_MAX_MONOMIALS})"
        )
    tab = _graded_table(k, top)
    s_mat = complex(s) * (q.M + q.M.T) / 2
    lam = matcore.matrix_J(q.n).real
    powers = point[:, None] ** np.arange(top + 1)
    values = np.ones(_prefix(tab, top))
    for a in range(k):
        values *= powers[a, tab.exps[a, : values.size]]
    coeffs = np.ones(1, complex)
    total = 0.0 + 0.0j
    last = 0.0
    for l in range(order + 1):
        term = (coeffs @ values[: coeffs.size]) / math.factorial(l)
        last = abs(term)
        total += term
        if l < order:
            coeffs = _star_step(tab, coeffs, 2 * l, s_mat, lam)
    if last > 1e-10 * max(abs(total), 1e-30):
        raise NonConvergent(f"last term {last:.3g} is not negligible")
    return complex(total), last


def star_exp_quadratic_closed(q: QuadForm2n, point) -> complex:
    """exp_*(-i q_M)(x, y); see `star_exp_quadratic_symbol`."""
    return star_exp_quadratic_symbol(q).eval(np.asarray(point, dtype=float).reshape(2 * q.n))


def star_exp_quadratic_symbol(q: QuadForm2n) -> GaussianSymbol:
    """exp_*(-i q_M)(x, y) = (Det cosh(JM))^{-1/2}
    exp(i (x y) J tanh(JM) (x y)^t), per-eigenvalue roots of Det cosh(JM);
    kept apart from `w1_exp_symbol`, its oracle in star_exp_bridge_residual."""
    jm = matcore.matrix_J(q.n) @ q.M
    ch, sh = matcore.mat_cosh(jm)
    if abs(matcore.det(ch)) <= 1e-12:
        raise SingularMatrix("cosh(JM) is singular")
    th = sh @ matcore.inv(ch)
    return GaussianSymbol._trusted(q.n, 1 / matcore.det_sqrt(ch), 1j * (matcore.matrix_J(q.n) @ th))


@dataclass(frozen=True)
class DiffOp:
    """Σ_β c_β(p) ∂_p^β with polynomial coefficients c_β ∈ C[p_1..p_n]."""

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for beta, coeff in self.terms.items():
            beta = tuple(int(e) for e in beta)
            if len(beta) != self.n or any(e < 0 for e in beta):
                raise ShapeError(f"bad derivative index {beta}")
            if coeff.terms:
                clean[beta] = coeff
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def identity(n: int) -> "DiffOp":
        return DiffOp(n, {(0,) * n: Poly.const(n, 1.0)})

    def max_diff(self, other: "DiffOp") -> float:
        keys = set(self.terms) | set(other.terms)
        zero = Poly.zero(self.n)
        return max(
            (self.terms.get(k, zero).max_coeff_diff(other.terms.get(k, zero)) for k in keys),
            default=0.0,
        )


def _binom_multi(alpha, kappa) -> int:
    return math.prod(math.comb(a, k) for a, k in zip(alpha, kappa))


def _sub_indices(alpha):
    return itertools.product(*(range(a + 1) for a in alpha))


def weyl_quantize_poly(f: Poly) -> DiffOp:
    """W(f) for f(p, q) = Σ c p^β q^α, from the defining evaluation

    (W(u(p) q^α) φ)(p) = (i ∂/∂s)^α ( u(p + s/2) φ(p + s) )|_{s=0}
                       = i^{|α|} Σ_{κ≤α} C(α,κ) 2^{-|κ|} (∂^κ u)(p) ∂^{α-κ}φ.
    """
    n = _check_phase(f)
    out: dict = {}
    for exps, coeff in f.terms.items():
        beta, alpha = exps[:n], exps[n:]
        for kappa in _sub_indices(alpha):
            if any(k > b for k, b in zip(kappa, beta)):
                continue
            fall = math.prod(
                math.factorial(b) // math.factorial(b - k) for b, k in zip(beta, kappa)
            )
            c = (
                coeff
                * 1j ** sum(alpha)
                * _binom_multi(alpha, kappa)
                * 2.0 ** (-sum(kappa))
                * fall
            )
            mono = tuple(b - k for b, k in zip(beta, kappa))
            key = tuple(a - k for a, k in zip(alpha, kappa))
            poly = Poly(n, {mono: c})
            out[key] = out.get(key, Poly.zero(n)) + poly
    return DiffOp(n, out)


def diffop_apply(d: DiffOp, phi: Poly) -> Poly:
    """Apply Σ c_β(p) ∂^β to a polynomial φ(p)."""
    out = Poly.zero(d.n)
    for beta, coeff in d.terms.items():
        g = phi
        for i, e in enumerate(beta):
            for _ in range(e):
                g = g.diff(i)
        out = out + coeff * g
    return out


def diffop_compose(d1: DiffOp, d2: DiffOp) -> DiffOp:
    """Symbolic composition: ∂^β (c(p) ·) = Σ_{κ≤β} C(β,κ) (∂^κ c) ∂^{β-κ}."""
    if d1.n != d2.n:
        raise ShapeError("operators act on different spaces")
    n = d1.n
    out: dict = {}
    for b1, c1 in d1.terms.items():
        for b2, c2 in d2.terms.items():
            for kappa in _sub_indices(b1):
                dc = c2
                for i, e in enumerate(kappa):
                    for _ in range(e):
                        dc = dc.diff(i)
                if not dc.terms:
                    continue
                key = tuple(a - k + b for a, k, b in zip(b1, kappa, b2))
                poly = _binom_multi(b1, kappa) * (c1 * dc)
                out[key] = out.get(key, Poly.zero(n)) + poly
    return DiffOp(n, out)


def homomorphism_residual(f1: Poly, f2: Poly) -> float:
    """Max coefficient deviation of W(f1 ∗ f2) from W(f1) ∘ W(f2)."""
    return weyl_quantize_poly(moyal_mul(f1, f2)).max_diff(
        diffop_compose(weyl_quantize_poly(f1), weyl_quantize_poly(f2))
    )


def star_exp_bridge_residual(x_lie, point) -> float:
    """|exp_*(-i q_M)(point) - W1(σ'(exp X))(point)| with M = (1/2) J X."""
    from .weylsymbols import w1_exp_closed

    n = x_lie.n
    m = matcore.matrix_J(n) @ x_lie.full / 2
    m = np.real((m + m.T) / 2)
    point = np.asarray(point, dtype=float).reshape(2 * n)
    closed = star_exp_quadratic_closed(QuadForm2n(n, m), point)
    w1 = w1_exp_closed(x_lie, point[:n], point[n:])
    return abs(closed - w1)
