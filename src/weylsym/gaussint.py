"""Generalised complex Gaussian integrals and analytic composition of
Gaussian kernels.

The central closed form is

    ∫_{C^n} exp(-(w(Aw) + wbar(D wbar) + 2 wbar(B w))) exp(uw + v wbar) dm(w)
        = π^n (Det N)^{-1/2} exp( (1/4) (u v) M^{-1} (u v)^t )

with M = [[A, B^t], [B, D]], N = U^t M U, valid when Re(N) is positive
definite.  Throughout, ``zw`` denotes the bilinear pairing Σ z_k w_k (no
conjugation); conjugates are always written explicitly.

Gaussian kernels are stored exactly as

    K(z, w) = c exp( (λ/4)(z(αz) + 2 z(β wbar) + wbar(γ wbar)) ),

the shape shared by every metaplectic kernel; composition against the Fock
weight e^{-λ|u|^2/2} dμ_λ(u) stays in this family and is evaluated by the
closed form above with symbolic linear terms (polarisation in (z, wbar)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DivergentIntegral, ShapeError
from .matcore import as_matrix, det_powhalf_posreal, matrix_U, norm
from .sympgroup import SuBlocks

__all__ = [
    "GaussianIntegrand",
    "GaussianKernel",
    "gaussian_integral_closed",
    "compose_kernels",
    "block_inverse_identity_residual",
    "cayley_block_identity_residual",
    "det_identity_residual",
]


@dataclass(frozen=True)
class GaussianIntegrand:
    """Data of exp(-(w(Aw) + wbar(D wbar) + 2 wbar(Bw))) exp(uw + v wbar)."""

    n: int
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A, self.n, self.n))
        object.__setattr__(self, "B", as_matrix(self.B, self.n, self.n))
        object.__setattr__(self, "D", as_matrix(self.D, self.n, self.n))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex).reshape(self.n))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex).reshape(self.n))
        if norm(self.A - self.A.T) > 1e-12 * (1 + norm(self.A)):
            raise ShapeError("A must be symmetric")
        if norm(self.D - self.D.T) > 1e-12 * (1 + norm(self.D)):
            raise ShapeError("D must be symmetric")

    @property
    def M(self) -> np.ndarray:
        return np.block([[self.A, self.B.T], [self.B, self.D]])

    @property
    def N(self) -> np.ndarray:
        u = matrix_U(self.n)
        return u.T @ self.M @ u

    def eval(self, w: np.ndarray) -> np.ndarray:
        """Pointwise integrand at w of shape (..., n)."""
        w = np.asarray(w, dtype=complex)
        wb = w.conj()
        quad = (
            np.einsum("...i,ij,...j->...", w, self.A, w)
            + np.einsum("...i,ij,...j->...", wb, self.D, wb)
            + 2 * np.einsum("...i,ij,...j->...", wb, self.B, w)
        )
        lin = w @ self.u + wb @ self.v
        return np.exp(-quad + lin)


def quadrature_scale(gi: GaussianIntegrand) -> float:
    """Gauss–Hermite axis scale matched to the slowest decay direction.

    In real coordinates v = (x, y) the integrand decays like
    exp(-v^t Re(N) v), so sampling at w = scale·s with
    scale = max(1, λ_min(Re N)^{-1/2}) keeps the transformed integrand
    bounded by the e^{-s^2} weight on every axis.
    """
    lam_min = float(np.min(np.linalg.eigvalsh(matcore.hermitian_part(gi.N))))
    if lam_min <= 0:
        raise DivergentIntegral("Re(N) is not positive definite")
    return max(1.0, 1.0 / np.sqrt(lam_min))


def gaussian_integral_closed(gi: GaussianIntegrand) -> complex:
    """Closed-form value of ∫ gi.eval(w) dm(w); requires Re(N) > 0."""
    n_mat = gi.N
    if not matcore.is_posdef_hermitian_part(n_mat):
        raise DivergentIntegral("Re(N) is not positive definite")
    m = gi.M
    r = np.concatenate([gi.u, gi.v])
    quad = r @ matcore.solve(m, r)
    return np.pi**gi.n / det_powhalf_posreal(n_mat) * np.exp(quad / 4)


@dataclass(frozen=True)
class GaussianKernel:
    """K(z,w) = c exp((λ/4)(z(αz) + 2 z(β wbar) + wbar(γ wbar)))."""

    n: int
    lam: float
    c: complex
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_matrix(self.alpha, self.n, self.n))
        object.__setattr__(self, "beta", as_matrix(self.beta, self.n, self.n))
        object.__setattr__(self, "gamma", as_matrix(self.gamma, self.n, self.n))
        object.__setattr__(self, "c", complex(self.c))
        if self.lam <= 0:
            raise ShapeError("lambda must be positive")
        if self.c == 0:
            raise ShapeError("kernel amplitude must be nonzero")
        if norm(self.alpha - self.alpha.T) > 1e-10 * (1 + norm(self.alpha)):
            raise ShapeError("alpha must be symmetric")
        if norm(self.gamma - self.gamma.T) > 1e-10 * (1 + norm(self.gamma)):
            raise ShapeError("gamma must be symmetric")

    @staticmethod
    def identity(n: int, lam: float) -> "GaussianKernel":
        """The reproducing kernel exp(λ z wbar / 2)."""
        zero = np.zeros((n, n))
        return GaussianKernel(n, lam, 1.0, zero, np.eye(n), zero)

    def eval(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Kernel value at (z, w); both broadcastable with shape (..., n)."""
        z = np.asarray(z, dtype=complex)
        wb = np.asarray(w, dtype=complex).conj()
        expo = (
            np.einsum("...i,ij,...j->...", z, self.alpha, z)
            + 2 * np.einsum("...i,ij,...j->...", z, self.beta, wb)
            + np.einsum("...i,ij,...j->...", wb, self.gamma, wb)
        )
        return self.c * np.exp(self.lam / 4 * expo)


def compose_kernels(k1: GaussianKernel, k2: GaussianKernel) -> GaussianKernel:
    """(K1 ∘ K2)(z, w) = ∫ K1(z, u) K2(u, w) e^{-λ|u|^2/2} dμ_λ(u), in closed form.

    The u-integral is the generalised Gaussian integral with
    A = -(λ/4)α2, D = -(λ/4)γ1, B = (λ/4)I and linear terms carrying the
    (z, wbar)-dependence; the composed parameters are read off from M^{-1}
    applied to the coefficient matrices (polarisation).
    """
    if k1.n != k2.n or abs(k1.lam - k2.lam) > 1e-14 * (1 + k1.lam):
        raise ShapeError("kernels must share n and lambda")
    n, lam = k1.n, k1.lam
    eye = np.eye(n)
    a = -(lam / 4) * k2.alpha
    d = -(lam / 4) * k1.gamma
    b = (lam / 4) * eye
    m = np.block([[a, b.T], [b, d]])
    u_frame = matrix_U(n)
    n_mat = u_frame.T @ m @ u_frame
    if not matcore.is_posdef_hermitian_part(n_mat, pivot_tol=1e-10):
        raise DivergentIntegral("composition integral has Re(N) not positive definite")
    minv = matcore.inv(m)
    m11, m12, m22 = minv[:n, :n], minv[:n, n:], minv[n:, n:]
    alpha = k1.alpha + (lam / 4) * (k1.beta @ m22 @ k1.beta.T)
    gamma = k2.gamma + (lam / 4) * (k2.beta.T @ m11 @ k2.beta)
    beta = (lam / 4) * (k1.beta @ m12.T @ k2.beta)
    c = k1.c * k2.c * (lam / 2) ** n / det_powhalf_posreal(n_mat)
    # symmetrise away roundoff
    alpha = (alpha + alpha.T) / 2
    gamma = (gamma + gamma.T) / 2
    return GaussianKernel(n, lam, c, alpha, beta, gamma)


# ---------------------------------------------------------------------------
# block-matrix identities feeding the closed-form Weyl symbol


def _inverse_blocks(a: np.ndarray, d: np.ndarray, p: np.ndarray):
    """Inverse of [[-a, I+p^t], [I+p, d]], returned as blocks (α, β, γ, δ)."""
    n = a.shape[0]
    eye = np.eye(n)
    big = np.block([[-a, eye + p.T], [eye + p, d]])
    inv = matcore.inv(big)
    return inv[:n, :n], inv[:n, n:], inv[n:, :n], inv[n:, n:]


def block_inverse_identity_residual(a, d, p) -> float:
    """Residual of the triple-product identity

    [[a, I-p^t], [p-I, d]] [[α,β],[γ,δ]] [[a, p^t-I], [I-p, d]]
        = [[4δ-a, 3I-4γ-p^t], [3I-4β-p, 4α+d]].
    """
    a, d, p = (as_matrix(x) for x in (a, d, p))
    n = a.shape[0]
    eye = np.eye(n)
    al, be, ga, de = _inverse_blocks(a, d, p)
    left = np.block([[a, eye - p.T], [p - eye, d]])
    mid = np.block([[al, be], [ga, de]])
    right = np.block([[a, p.T - eye], [eye - p, d]])
    rhs = np.block([[4 * de - a, 3 * eye - 4 * ga - p.T], [3 * eye - 4 * be - p, 4 * al + d]])
    return norm(left @ mid @ right - rhs)


def _kernel_blocks(k: SuBlocks):
    """The (a, d, p) triple for k in S: a = Qbar P^{-1}, d = P^{-1}Q, p = P^{-1}."""
    pinv = matcore.inv(k.P)
    return k.Q.conj() @ pinv, pinv @ k.Q, pinv


def cayley_block_identity_residual(k: SuBlocks) -> float:
    """Residual of (1/2) J (k - I)(k + I)^{-1} = [[δ, I/2-γ], [I/2-β, α]]."""
    n = k.n
    eye = np.eye(n)
    a, d, p = _kernel_blocks(k)
    al, be, ga, de = _inverse_blocks(a, d, p)
    lhs = matcore.matrix_J(n) @ matcore.cayley(k.full) / 2
    rhs = np.block([[de, eye / 2 - ga], [eye / 2 - be, al]])
    return norm(lhs - rhs)


def det_identity_residual(k: SuBlocks) -> float:
    """Residual of Det [[-Qbar P^{-1}, I+(P^t)^{-1}], [I+P^{-1}, P^{-1}Q]]
    = (-1)^n (Det P)^{-1} Det(k + I)."""
    n = k.n
    eye = np.eye(n)
    a, d, p = _kernel_blocks(k)
    big = np.block([[-a, eye + p.T], [eye + p, d]])
    lhs = matcore.det(big)
    rhs = (-1) ** n / matcore.det(k.P) * matcore.det(k.full + np.eye(2 * n))
    return abs(lhs - rhs)
