"""Exact Moyal star product on phase-space polynomials and Weyl quantization.

The bidifferential operators are

    P^l(u, v) = Σ Λ^{i1 j1} ... Λ^{il jl} (∂_{i1...il} u)(∂_{j1...jl} v)

with Λ pairing p_k to q_k (+1, and -1 for the transpose), so that P^1 is the
Poisson bracket Σ_k (∂u/∂p_k ∂v/∂q_k - ∂u/∂q_k ∂v/∂p_k).  The star product
is u ∗ v = Σ_l t^l P^l(u, v)/l! specialised at t = -i/2, which makes Weyl
quantization a homomorphism: W(f1 ∗ f2) = W(f1) W(f2).

Phase-space polynomials are `Poly` instances in 2n variables ordered
(p_1..p_n, q_1..q_n).  A quantized operator Σ c p^m ∂_p^b, its coefficients
on the left of its derivatives, is a `Poly` in the same 2n variables with
exponent (m, b): the layout of the symbol it quantizes, ∂_k in the slot of
q_k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import BadConfig, NonConvergent, ShapeError
from .matcore import _is_int, norm
from .polys import Poly
from .sympgroup import _memo
from .weylsymbols import GaussianSymbol, QuadForm2n, w1_exp_symbol

__all__ = [
    "phase_poly_from_quadform",
    "poisson_power",
    "moyal_mul",
    "star_exp_series",
    "star_exp_quadratic_closed",
    "star_exp_symbol",
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


def _check_phase(u: Poly, *others: Poly) -> int:
    """n for `Poly` operands on one phase space of 2n variables; ShapeError
    otherwise."""
    if not all(isinstance(w, Poly) for w in (u, *others)):
        raise ShapeError("operands must be Poly instances")
    if u.nvars % 2 != 0:
        raise ShapeError("phase-space polynomials need an even variable count")
    if any(w.nvars != u.nvars for w in others):
        raise ShapeError("operands live on different phase spaces")
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
    n = _check_phase(u, v)
    if not (_is_int(l) and l >= 0):
        raise ShapeError(f"order must be a nonnegative integer, got {l!r}")
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
    _check_phase(u, v)
    lmax = min(u.degree, v.degree)
    out = Poly.zero(u.nvars)
    for l in range(lmax + 1):
        out = out + (_T**l / math.factorial(l)) * poisson_power(u, v, l)
    return out


# Largest monomial count star_exp_series allocates, C(2⌊order/2⌋ + 2n, 2n):
# each power is kept only through the degrees that can still reach the point
# (see `star_exp_series`).  n = 2 at order 40 (the star-exp suite) needs
# 135,751; the cap admits n = 2 to order 57 and n = 3 to order 23 (376,740
# monomials, about 0.3 GB peak, as a step holds 2(4n + 1) + 2n work arrays
# of that length), and refuses n = 3 at order 40 (9.4M).
_MAX_MONOMIALS = 2**19


@dataclass
class _GradedTable:
    """The monomials in k variables of total degree ≤ `degree`, in graded
    order, so that the degree ≤ d monomials are a prefix for every d ≤ degree.

    exps[a, i] is the exponent of variable a in monomial i; up[a, i] is the
    index of v_a times monomial i, for the monomials of degree < `degree`;
    ends[d] is the number of monomials of degree ≤ d.  On a phase space,
    k = 2n, swap[i] is the index of monomial i with its p and q halves
    exchanged, and g[i] is the weight of monomial i in `_star_at_origin`.
    """

    degree: int
    exps: np.ndarray
    up: np.ndarray
    ends: list
    swap: np.ndarray
    g: np.ndarray


def _prefix(tab: _GradedTable, d: int) -> int:
    """Number of monomials of degree ≤ d (0 for d < 0)."""
    return tab.ends[d] if d >= 0 else 0


# one table per variable count, grown in place to the largest degree asked
# for; the graded order lets it serve every lower degree unchanged
_TABLES: dict = {}


def _rank(e: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """The stars-and-bars rank of each exponent e[..., :] of k variables
    within its degree-d shell: Σ_{j=1}^{k-1} C(s_j + k-1-j, k-j),
    s_j = e_j + ... + e_{k-1}, a bijection onto [0, C(d+k-1, k-1)).
    binom[p, r] = C(p, r)."""
    k = e.shape[-1]
    suffix = np.cumsum(e[..., ::-1], axis=-1)[..., ::-1]
    return sum(binom[suffix[..., j] + k - 1 - j, k - j] for j in range(1, k))


def _graded_table(k: int, degree: int) -> _GradedTable:
    """The cached table for k variables, grown to at least `degree`.

    Each new shell is the set of shell-(d-1) monomials raised in one slot,
    placed by `_rank`, which also gives those monomials' up rows and, with
    the halves exchanged, the swap of every new monomial.
    """
    tab = _TABLES.get(k)
    if tab is None:
        tab = _TABLES[k] = _GradedTable(
            0, np.zeros((k, 1), np.int16), np.zeros((k, 0), np.intp), [1], np.zeros(1, np.intp), np.ones(1, complex)
        )
    if degree <= tab.degree:
        return tab
    binom = np.array([[math.comb(p, r) for r in range(k + 1)] for p in range(degree + k)], np.int64)
    eye = np.eye(k, dtype=np.int64)
    ends = list(tab.ends)
    old = ends[-1]
    exps = np.empty((k, math.comb(degree + k, k)), np.int16)
    up = np.empty((k, math.comb(degree - 1 + k, k)), np.intp)
    exps[:, :old] = tab.exps
    up[:, : tab.up.shape[1]] = tab.up
    for d in range(tab.degree + 1, degree + 1):
        lo, hi = ends[d - 2] if d >= 2 else 0, ends[d - 1]
        cand = exps[:, lo:hi].T.astype(np.int64)[None] + eye[:, None, :]  # (raised slot, monomial, variable)
        up[:, lo:hi] = hi + _rank(cand, binom)
        exps[:, up[:, lo:hi].ravel()] = cand.reshape(-1, k).T
        ends.append(hi + math.comb(d + k - 1, k - 1))
    new = exps[:, old:].T.astype(np.int64)
    deg, q_deg = new.sum(axis=1), new[:, k // 2 :].sum(axis=1)
    swap = np.asarray(ends)[deg - 1] + _rank(np.roll(new, k // 2, axis=1), binom)
    fact = np.array([float(math.factorial(i)) for i in range(degree + 1)])
    # t^d (-1)^{|β|} = (-i)^{d + 2|β|} 2^{-d}
    g = np.array([1, -1j, -1, 1j])[(deg + 2 * q_deg) % 4] * np.ldexp(fact[new].prod(axis=1), -deg)
    tab.swap, tab.g = np.concatenate([tab.swap, swap]), np.concatenate([tab.g, g])
    tab.exps, tab.up, tab.ends, tab.degree = exps, up, ends, degree
    return tab


def _star_at_origin(tab: _GradedTable, u: np.ndarray, v: np.ndarray) -> complex:
    """(u ∗ v)(0) for u, v packed over degree prefixes of tab, k = 2n.

    At w = 0 only the terms of P^l with every derivative spent survive, and
    (∂^γ u)(0) = γ! u[γ], so `poisson_power`'s multinomial form gives, over
    γ = (α, β) with σγ = (β, α),

        (u ∗ v)(0) = Σ_γ g_γ u[γ] v[σγ],   g_γ = t^{|γ|} (-1)^{|β|} γ!.

    σ keeps the degree, so the sum runs over the shorter prefix.
    """
    m = min(u.size, v.size)
    return (tab.g[:m] * u[:m]) @ v[tab.swap[:m]]


def _star_mix(c0: complex, ell: np.ndarray, s_mat: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The matrix that `_centred_step` applies for f(w) = c0 + ℓ·w + wᵗSw.

    Only P^0, P^1 and P^2 survive against a quadratic.  With Λ the Poisson
    pairing (J in (p, q) order), Λ∇f(w) = Λℓ + G w for G = 2ΛS, and
    H = 2ΛSΛᵗ, so that, collecting the terms linear in w,

        u ∗ f = c0 u + t Λℓ·∇u + (t²/2) Σ_a ∂_a (H ∇u)_a + Σ_a w_a z_a,
        z_a   = ℓ_a u + Σ_b S_ab w_b u + t Σ_i G_ia ∂_i u.

    The matrix maps the rows (u, w_1 u … w_k u, ∂_1 u … ∂_k u) to the rows
    (z_1 … z_k, c0 u + t Λℓ·∇u, (t²/2)(H ∇u)_1 … (t²/2)(H ∇u)_k).
    """
    k = s_mat.shape[0]
    grad = 2.0 * lam @ s_mat
    mix = np.zeros((2 * k + 1, 2 * k + 1), complex)
    mix[:k, 0] = ell
    mix[:k, 1 : k + 1] = s_mat
    mix[:k, k + 1 :] = _T * grad.T
    mix[k, 0] = c0
    mix[k, k + 1 :] = _T * (lam @ ell)
    mix[k + 1 :, k + 1 :] = (_T**2 / 2) * (grad @ lam.T)
    return mix


def _centred_step(
    tab: _GradedTable, weights: np.ndarray, mix: np.ndarray, c: np.ndarray, deg: int, keep: int
) -> np.ndarray:
    """Packed coefficients through degree `keep`, |keep - deg| ≤ 2, of u ∗ f,
    for u of degree ≤ deg packed as c over the first _prefix(tab, deg)
    monomials of tab, f given by `mix` (see `_star_mix`), and
    weights[a, i] = exps[a, i] + 1 over the monomials of degree < deg.

    Multiplying by w_a scatters through up[a]; ∂_a gathers through up[a]
    with weight e_a + 1; the rows u, w_b u and ∂_i u go through `mix` in
    one product.  Degree d of u ∗ f reads only degrees d - 2 … d + 2 of u,
    so u is needed only through degree keep + 2.
    """
    k = weights.shape[0]
    axes = np.arange(k)[:, None]  # pairs row a with up[a]
    up = tab.up
    n_in, n_out = _prefix(tab, deg), _prefix(tab, keep)
    m0, mz = _prefix(tab, keep - 2), _prefix(tab, keep - 1)
    m1, m2 = _prefix(tab, deg - 1), _prefix(tab, deg - 2)
    rows = np.zeros((2 * k + 1, max(n_out, m1)), complex)
    lo = min(n_in, rows.shape[1])
    rows[0, :lo] = c[:lo]
    rows[1 : k + 1][axes, up[:, :m0]] = c[:m0]
    np.multiply(weights[:, :m1], c[up[:, :m1]], out=rows[k + 1 :, :m1])
    mixed = mix @ rows
    del rows
    out = mixed[k, :n_out].copy()
    out[:m2] += (weights[:, :m2] * mixed[k + 1 :][axes, up[:, :m2]]).sum(axis=0)
    for a in range(k):
        out[up[a, :mz]] += mixed[a, :mz]
    return out


def _require_time(s) -> complex:
    """The time s of a star exponential as a complex; ShapeError unless it is a
    finite Python or numpy number that is not a bool."""
    if not (isinstance(s, (int, float, complex, np.number)) and not isinstance(s, bool) and np.isfinite(s)):
        raise ShapeError(f"s must be a finite number, got {s!r}")
    return complex(s)


def star_exp_series(q: QuadForm2n, s: complex, order: int, point) -> tuple[complex, float]:
    """exp_*(s q_M)(point) = Σ_{l≤L} (s q_M)^{∗l}(point)/l! by repeated
    star multiplication.  Returns (value, last-term magnitude).

    Refuses outside the convergence envelope ‖sM‖ ≤ 0.25, |point| ≤ 1.5,
    L ≤ 60, and raises NonConvergent if the certificate fails.  Raises
    ShapeError unless s is a finite number (`_require_time`), and BadConfig for an L that is not a
    nonnegative integer and when the kept powers would need more than 2^19
    monomials (n = 2 above order 57, n = 3 above 23, n = 4 above 15).

    The powers u_l = (s q_M)^{∗l} are taken in the coordinates w = v - p
    centred at the point p, where s q_M(p + w) = pᵗSp + 2(Sp)·w + wᵗSw and
    term l is the constant coefficient u_l(0)/l!.  Only u_0 … u_h,
    h = ⌈L/2⌉, are built by `_centred_step`; by associativity each later
    term is u_{h+b}(0) = (u_h ∗ u_b)(0) for 1 ≤ b ≤ L - h, one pairing of
    packed coefficients (`_star_at_origin`) that reads u_h only through
    degree 2b.  Degree d of u ∗ f reads only degrees d - 2 … d + 2 of u, so
    u_l is needed only through degree min(2l, 2(L - h)); each u_l is one
    dense array over those monomials in graded order (see `_centred_step`).
    """
    if not (_is_int(order) and order >= 0):
        raise BadConfig(f"series order must be a nonnegative integer, got {order!r}")
    point = matcore.as_vector(point, 2 * q.n, float)
    s = _require_time(s)
    # ‖sM‖₂ = |s|·‖M‖₂, the norm of the symmetric M taken once per q
    if not abs(s) * _memo(q, "_norm2", None, lambda: matcore.hermitian_norm2(q.M)) <= 0.25 + 1e-12:
        raise NonConvergent("‖s M‖ exceeds the convergence envelope (0.25)")
    if not np.linalg.norm(point) <= 1.5 + 1e-12:
        raise NonConvergent("|point| exceeds the convergence envelope (1.5)")
    if order > 60:
        raise NonConvergent("truncation order exceeds 60")
    k = 2 * q.n
    top = 2 * (order // 2)
    if math.comb(top + k, k) > _MAX_MONOMIALS:
        raise BadConfig(
            f"order {order} at n = {q.n} needs {math.comb(top + k, k)} monomials "
            f"(limit {_MAX_MONOMIALS})"
        )
    tab = _graded_table(k, top)
    weights = tab.exps[:, : _prefix(tab, top - 1)] + 1.0
    s_mat = s * q.M
    sp = s_mat @ point
    mix = _star_mix(point @ sp, 2.0 * sp, s_mat, matcore.matrix_J(q.n).real)
    half = order - order // 2
    powers = [np.ones(1, complex)]
    for l in range(half):
        powers.append(_centred_step(tab, weights, mix, powers[l], min(2 * l, top), min(2 * l + 2, top)))
    values = [u[0] for u in powers]
    values += [_star_at_origin(tab, powers[half], powers[b]) for b in range(1, order - half + 1)]
    total = 0.0 + 0.0j
    last = 0.0
    for l, value in enumerate(values):
        term = value / math.factorial(l)
        last = abs(term)
        total += term
    if not last <= 1e-10 * max(abs(total), 1e-30):
        raise NonConvergent(f"last term {last:.3g} is not negligible")
    return complex(total), last


def star_exp_quadratic_closed(q: QuadForm2n, point) -> complex:
    """exp_*(-i q_M)(x, y): `star_exp_symbol(q, -1j)` at one point, kept as the benchmark binds it."""
    return star_exp_symbol(q, -1j)._at(matcore.as_vector(point, 2 * q.n, float))


def star_exp_symbol(q: QuadForm2n, s: complex) -> GaussianSymbol:
    """exp_*(s q_M)(x, y) = (Det cosh A)^{-1/2} exp(i (x y) J tanh(A) (x y)^t) at A = i s JM, the
    cosh law for any complex time s: s = -i is the paper's exp_*(-i q_M), s = 1 Hörmander's
    W1(exp(dσ'(iX))) = (Det cos JM)^{-1/2} exp(-(x y) J tan(JM) (x y)^t).  The root is
    `matcore.hamiltonian_cosh_det`'s; at a pole (s μ ∈ π/2 + πℤ, μ an eigenvalue of JM) cosh A
    is singular: SingularMatrix.  A non-finite or non-numeric s, ShapeError.  Built once per q and s."""

    def build():
        _require_time(s)
        a = (1j * s) * (matcore.matrix_J(q.n) @ q.M)
        ch, sh = matcore.mat_cosh(a)
        th = sh @ matcore.require_invertible(ch, scale=norm(ch) + norm(sh))[0]
        root = matcore.hamiltonian_cosh_det(a)
        return GaussianSymbol._trusted(q.n, 1 / root, 1j * (matcore.matrix_J(q.n) @ th))

    return _memo(q, "_star_exp_symbol", s, build)


@functools.lru_cache(maxsize=2048)
def _leibniz(a: tuple, b: tuple, step: float) -> tuple:
    """∂^a p^b = Σ_{κ≤a, κ≤b} C(a,κ) b!/(b-κ)! p^{b-κ} ∂^{a-κ}, as triples
    (C(a,κ) b!/(b-κ)! step^{|κ|}, b - κ, a - κ).  Memoised, since the terms
    of low-degree polynomials meet the same exponent pairs again and again;
    the entries are tuples, so no caller can change one."""
    axes = [
        [(math.comb(ai, k) * math.perm(bi, k) * step**k, bi - k, ai - k) for k in range(min(ai, bi) + 1)]
        for ai, bi in zip(a, b)
    ]
    return tuple(
        (math.prod(t[0] for t in picks), tuple(t[1] for t in picks), tuple(t[2] for t in picks))
        for picks in itertools.product(*axes)
    )


def weyl_quantize_poly(f: Poly) -> Poly:
    """W(f) for f(p, q) = Σ c p^β q^α, from the defining evaluation

    (W(u(p) q^α) φ)(p) = (i ∂/∂s)^α ( u(p + s/2) φ(p + s) )|_{s=0}
                       = i^{|α|} Σ_{κ≤α} C(α,κ) 2^{-|κ|} (∂^κ u)(p) ∂^{α-κ}φ,

    that is i^{|α|} ∂^α p^β by the Leibniz rule with each κ weighted 2^{-|κ|}.
    The operator Σ c' p^m ∂^b is returned as a `Poly` in the 2n variables of
    f with exponent (m, b) (see the module docstring).
    """
    n = _check_phase(f)
    out: dict = {}
    for exps, coeff in f.terms.items():
        c = coeff * 1j ** sum(exps[n:])
        for w, m, b in _leibniz(exps[n:], exps[:n], 0.5):
            out[m + b] = out.get(m + b, 0.0) + c * w
    return Poly._trusted(f.nvars, out)


def diffop_apply(d: Poly, phi: Poly) -> Poly:
    """Apply the operator Σ c p^m ∂^b, laid out as in `weyl_quantize_poly`,
    to a polynomial φ(p) in n = d.nvars / 2 variables."""
    n = _check_phase(d)
    if not isinstance(phi, Poly) or phi.nvars != n:
        raise ShapeError(f"φ must be a Poly in {n} variables")
    out: dict = {}
    for e, c in d.terms.items():
        for k, v in phi.terms.items():
            w = math.prod(map(math.perm, k, e[n:]))
            if w:
                key = tuple(m + ki - b for m, ki, b in zip(e[:n], k, e[n:]))
                out[key] = out.get(key, 0.0) + c * v * w
    return Poly._trusted(n, out)


def diffop_compose(d1: Poly, d2: Poly) -> Poly:
    """d1 ∘ d2 for operators laid out as in `weyl_quantize_poly`: each pair of
    terms c1 p^{m1} ∂^{b1} ∘ c2 p^{m2} ∂^{b2} puts ∂^{b1} p^{m2} in order by the
    Leibniz rule."""
    n = _check_phase(d1, d2)
    out: dict = {}
    for e1, c1 in d1.terms.items():
        for e2, c2 in d2.terms.items():
            for w, m, b in _leibniz(e1[n:], e2[:n], 1):
                key = tuple(x + y for x, y in zip(e1[:n] + b, m + e2[n:]))
                out[key] = out.get(key, 0.0) + c1 * c2 * w
    return Poly._trusted(d1.nvars, out)


def homomorphism_residual(f1: Poly, f2: Poly) -> float:
    """Max coefficient deviation of W(f1 ∗ f2) from W(f1) ∘ W(f2)."""
    return weyl_quantize_poly(moyal_mul(f1, f2)).max_coeff_diff(
        diffop_compose(weyl_quantize_poly(f1), weyl_quantize_poly(f2))
    )


def star_exp_bridge_residual(x_lie, point) -> float:
    """|exp_*(-i q_M)(point) - W1(σ'(exp X))(point)| with M = (1/2) J X: the
    cosh law at A = JM against `w1_exp_symbol`'s at A = X/2."""
    n = x_lie.n
    m = matcore.matrix_J(n) @ x_lie.full / 2
    m = np.real((m + m.T) / 2)
    point = matcore.as_vector(point, 2 * n, float)
    closed = star_exp_symbol(QuadForm2n(n, m), -1j)._at(point)
    return abs(closed - w1_exp_symbol(x_lie)._at(point))
