"""The Jacobi group G = H_n ⋊ S, its complexification, the P+ Kc P-
decomposition, the action on the bounded domain, and the kernel data
(K_χ, J_χ) of the holomorphic representations.

Domain points are a(y, Y) with y in C^n and Y complex symmetric with
I - Y Ybar > 0.  The group law of the complexification is

    ((z,w), c, k) ((z',w'), c', k')
        = ((z,w) + k(z',w'), c + c' + (1/2) ω((z,w), k(z',w')), kk')

with ω((z,w),(z',w')) = (i/2)(zw' - z'w) and k(z',w') = (Az'+Bw', Cz'+Dw').

This module also provides the Jacobi-path computation of the metaplectic
kernel,

    B_k(a(y,0), a(v,0)) = J_χ(g^{-1}, Z)^{-1} K_χ(g^{-1}·Z, W),
    g = ((0,0), 0, k),   g^{-1}·Z = a(P^{-1} y, -P^{-1} Q),

which serves as an independent oracle for the closed form used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import NoDecomposition, NotInS, ShapeError
from .heisenberg import symplectic_form
from .matcore import as_matrix, as_vector, block2x2, matrix_J, norm, principal_power, require_invertible
from .sympgroup import SuBlocks, _owned, _trusted, su_inv, su_mul

__all__ = [
    "JacobiPoint",
    "JacobiGroupElt",
    "JacobiGroupEltC",
    "CharParams",
    "jacobi_mul",
    "jacobi_inv",
    "complexify",
    "jc_mul",
    "pkp_decompose",
    "pkp_recompose",
    "jacobi_action",
    "k_chi",
    "j_chi",
    "bk_via_jacobi",
]


def _pairing(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> complex:
    """a(Mb) = a^t M b, the bilinear pairing used in all kernel formulas."""
    return complex(a @ (m @ b))


@dataclass(frozen=True)
class JacobiPoint:
    """Z = a(y, Y) in the domain; Y symmetric, I - Y Ybar > 0."""

    n: int
    y: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "y", _owned(as_vector(self.y, self.n)))
        object.__setattr__(self, "Y", _owned(as_matrix(self.Y, self.n, self.n, symmetric=1e-10)))

    def in_domain(self) -> bool:
        return matcore.hermitian_lam_min(np.eye(self.n) - self.Y @ self.Y.conj()) > 0

    @staticmethod
    def origin(n: int) -> "JacobiPoint":
        matcore.require_dim(n)
        return JacobiPoint(n, np.zeros(n), np.zeros((n, n)))


@dataclass(frozen=True)
class JacobiGroupElt:
    """((z0, z0bar), c, k) in G = H_n ⋊ S."""

    n: int
    z0: np.ndarray
    c: float
    k: SuBlocks

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "z0", _owned(as_vector(self.z0, self.n)))
        object.__setattr__(self, "c", float(self.c))
        matcore.require_finite(self.c)

    @staticmethod
    def identity(n: int) -> "JacobiGroupElt":
        matcore.require_dim(n)
        return JacobiGroupElt(n, np.zeros(n), 0.0, SuBlocks.identity(n))


@dataclass(frozen=True)
class JacobiGroupEltC:
    """((z0, w0), c, [[A,B],[C,D]]) in the complexified Jacobi group."""

    n: int
    z0: np.ndarray
    w0: np.ndarray
    c: complex
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        n = self.n
        matcore.require_dim(n)
        object.__setattr__(self, "z0", _owned(as_vector(self.z0, n)))
        object.__setattr__(self, "w0", _owned(as_vector(self.w0, n)))
        object.__setattr__(self, "c", complex(self.c))
        matcore.require_finite(self.c)
        for name in "ABCD":
            object.__setattr__(self, name, _owned(as_matrix(getattr(self, name), n, n)))
        j = matrix_J(n)
        m = self.mat
        if norm(m.T @ j @ m - j) > 1e-8 * (1 + norm(m) ** 2):
            raise NotInS("matrix part is not complex symplectic")

    @property
    def mat(self) -> np.ndarray:
        return block2x2(self.A, self.B, self.C, self.D)

    @staticmethod
    def from_mat(z0, w0, c, m: np.ndarray) -> "JacobiGroupEltC":
        m = as_matrix(m)
        n = m.shape[0] // 2
        return JacobiGroupEltC(n, z0, w0, c, m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])

    @staticmethod
    def identity(n: int) -> "JacobiGroupEltC":
        matcore.require_dim(n)
        return JacobiGroupEltC.from_mat(np.zeros(n), np.zeros(n), 0.0, np.eye(2 * n))


@dataclass(frozen=True)
class CharParams:
    """Character data χ(k) = e^{iλc} (Det P)^m on K; λ > 0, m (half-)integer.

    Kernel formulas are evaluated for any m including m = -1/2; the unitarity
    gate m + n + 1/2 < 0 is the caller's concern.
    """

    lam: float
    m: float

    def __post_init__(self):
        matcore.require_lambda(self.lam)
        matcore.require_finite(self.m)
        if abs(2 * self.m - round(2 * self.m)) > 1e-12:
            raise ShapeError("m must be a half-integer")


# ---------------------------------------------------------------------------
# group laws


def jacobi_mul(g1: JacobiGroupElt, g2: JacobiGroupElt) -> JacobiGroupElt:
    if g1.n != g2.n:
        raise ShapeError("mismatched n")
    kz = g1.k.act(g2.z0)
    om = symplectic_form(g1.z0, g1.z0.conj(), kz, kz.conj())
    return JacobiGroupElt(g1.n, g1.z0 + kz, g1.c + g2.c + 0.5 * om.real, su_mul(g1.k, g2.k))


def jacobi_inv(g: JacobiGroupElt) -> JacobiGroupElt:
    kinv = su_inv(g.k)
    return JacobiGroupElt(g.n, -kinv.act(g.z0), -g.c, kinv)


def complexify(g: JacobiGroupElt) -> JacobiGroupEltC:
    k = g.k
    return _trusted(JacobiGroupEltC, g.n, g.z0, g.z0.conj(), g.c, k.P, k.Q, k.Q.conj(), k.P.conj())


def jc_mul(g1: JacobiGroupEltC, g2: JacobiGroupEltC) -> JacobiGroupEltC:
    if g1.n != g2.n:
        raise ShapeError("mismatched n")
    kz = g1.A @ g2.z0 + g1.B @ g2.w0
    kw = g1.C @ g2.z0 + g1.D @ g2.w0
    c = g1.c + g2.c + 0.5 * symplectic_form(g1.z0, g1.w0, kz, kw)
    m, n = g1.mat @ g2.mat, g1.n
    return _trusted(JacobiGroupEltC, n, g1.z0 + kz, g1.w0 + kw, c, m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])


# ---------------------------------------------------------------------------
# P+ Kc P- decomposition and the domain action


def pkp_decompose(g: JacobiGroupEltC):
    """Components (y, Y, c, P, v, V) of the P+ Kc P- factorisation.

    y = z0 - B D^{-1} w0, Y = B D^{-1}, v = D^{-1} w0, V = D^{-1} C,
    P = (D^t)^{-1}, c = c0 - (i/4) (z0 - B D^{-1} w0) w0.
    Requires det(D) != 0.
    """
    dinv = require_invertible(g.D, NoDecomposition)[0]
    bd = g.B @ dinv
    y = g.z0 - bd @ g.w0
    v = dinv @ g.w0
    big_v = dinv @ g.C
    c = g.c - 0.25j * (y @ g.w0)
    return y, bd, c, dinv.T, v, big_v


def pkp_recompose(y, Y, c, P, v, V) -> JacobiGroupEltC:
    """Product of the P+, Kc, P- factors; inverse of pkp_decompose."""
    n = len(y)
    eye = np.eye(n)
    zero = np.zeros(n)
    P = as_matrix(P, n, n)
    p_plus = JacobiGroupEltC.from_mat(y, zero, 0.0, block2x2(eye, as_matrix(Y, n, n), 0 * eye, eye))
    kc = JacobiGroupEltC.from_mat(zero, zero, c, block2x2(P, 0 * eye, 0 * eye, require_invertible(P)[0].T))
    p_minus = JacobiGroupEltC.from_mat(zero, v, 0.0, block2x2(eye, 0 * eye, as_matrix(V, n, n), eye))
    return jc_mul(jc_mul(p_plus, kc), p_minus)


def jacobi_action(g: JacobiGroupEltC, z_pt: JacobiPoint) -> JacobiPoint:
    """g · a(y, Y) = a(y', Y') with Y' = (AY+B)(CY+D)^{-1} and
    y' = z0 + Ay - (AY+B)(CY+D)^{-1}(w0 + Cy)."""
    y, Y = z_pt.y, z_pt.Y
    cyd_inv = require_invertible(g.C @ Y + g.D, scale=norm(g.C) * norm(Y) + norm(g.D))[0]
    big_y = (g.A @ Y + g.B) @ cyd_inv
    y_new = g.z0 + g.A @ y - big_y @ (g.w0 + g.C @ y)
    return _trusted(JacobiPoint, z_pt.n, y_new, (big_y + big_y.T) / 2)


# ---------------------------------------------------------------------------
# kernel data


def k_chi(z_pt: JacobiPoint, w_pt: JacobiPoint, chi: CharParams) -> complex:
    """K_χ(Z, W) = Det(I - Y Vbar)^m exp((λ/4)(2 y (I - Vbar Y)^{-1} vbar
    + y (I - Vbar Y)^{-1} Vbar y + vbar Y (I - Vbar Y)^{-1} vbar))."""
    n = z_pt.n
    y, Y = z_pt.y, z_pt.Y
    vb = w_pt.y.conj()
    big_vb = w_pt.Y.conj()
    eye = np.eye(n)
    cinv, d = require_invertible(eye - big_vb @ Y, scale=1 + norm(big_vb) * norm(Y))
    expo = (
        2 * _pairing(y, cinv, vb)
        + _pairing(y, cinv @ big_vb, y)
        + _pairing(vb, Y @ cinv, vb)
    )
    # Det(I - Y Vbar) = Det(I - Vbar Y)
    det_factor = principal_power(d, chi.m)
    return det_factor * np.exp(chi.lam / 4 * expo)


def j_chi(g: JacobiGroupElt, z_pt: JacobiPoint, chi: CharParams) -> complex:
    """J_χ(g, Z) = e^{iλc0} Det(Qbar Y + Pbar)^{-m} exp((λ/4)(z0 z0bar
    + 2 z0bar P y + y P^t Qbar y
    - (z0bar + Qbar y)(PY + Q)(Qbar Y + Pbar)^{-1}(z0bar + Qbar y)))."""
    p, q = g.k.P, g.k.Q
    z0 = g.z0
    y, Y = z_pt.y, z_pt.Y
    inverse, d = require_invertible(q.conj() @ Y + p.conj(), scale=norm(q) * norm(Y) + norm(p))
    upper = p @ Y + q
    t = z0.conj() + q.conj() @ y
    expo = (
        z0 @ z0.conj()
        + 2 * (z0.conj() @ (p @ y))
        + _pairing(y, p.T @ q.conj(), y)
        - _pairing(t, upper @ inverse, t)
    )
    det_factor = principal_power(d, -chi.m)
    return np.exp(1j * chi.lam * g.c) * det_factor * np.exp(chi.lam / 4 * expo)


def bk_via_jacobi(k: SuBlocks, y, v, chi: CharParams) -> complex:
    """B_k(a(y,0), a(v,0)) computed along the Jacobi path.

    Independent of the closed-form kernel: uses only j_chi, k_chi and the
    domain action, with g = ((0,0), 0, k)."""
    n = k.n
    g = JacobiGroupElt(n, np.zeros(n), 0.0, k)
    ginv = jacobi_inv(g)
    z_pt = JacobiPoint(n, y, np.zeros((n, n)))
    w_pt = JacobiPoint(n, v, np.zeros((n, n)))
    moved = jacobi_action(complexify(ginv), z_pt)
    return k_chi(moved, w_pt, chi) / j_chi(ginv, z_pt, chi)
