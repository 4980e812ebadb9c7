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
Closed-form symbols γ exp(v^t S v) on R^{2n} are the third Gaussian type,
`GaussianSymbol`; `weylsymbols` and `metaplectic` build them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, sympgroup
from .errors import DivergentIntegral, ShapeError
from .matcore import (
    as_batch,
    as_matrix,
    as_vector,
    block2x2,
    det_powhalf_posreal,
    matrix_U,
    norm,
    quad_form,
    require_finite,
)
from .sympgroup import SuBlocks, _owned

__all__ = [
    "GaussianIntegrand",
    "GaussianKernel",
    "GaussianSymbol",
    "gaussian_law",
    "gaussian_integral_closed",
    "compose_kernels",
    "block_inverse_identity_residual",
    "cayley_block_identity_residual",
    "det_identity_residual",
]


class _Gaussian:
    """x ↦ c exp(x^t Q x + r·x) at axis-major points x of C^{2n}: the record under the
    three Gaussian types below, whose `_init` says how their fields give (c, Q, r)."""

    @classmethod
    def _trusted(cls, *values):
        """From fields computed from checked data: not checked again, but sealed."""
        out = sympgroup._trusted(cls, *values)
        out._init()
        return out

    def _seal(self, c, q: np.ndarray, r: np.ndarray | None = None) -> None:
        """Store Q and r as `sympgroup._owned` arrays; ShapeError unless c and Q
        are finite, the one guard against a NaN or inf from a closed form (r
        comes from checked vectors)."""
        require_finite(c, q)
        object.__setattr__(self, "Q", _owned(q))
        object.__setattr__(self, "r", None if r is None else _owned(r))

    def _form(self, x: np.ndarray) -> np.ndarray:
        """The one exponent evaluator: x^t Q x + r·x at x (2n, ...), or (2n, m) with r."""
        f = quad_form(self.Q, x)
        return f if self.r is None else f + self.r @ x


@dataclass(frozen=True)
class GaussianIntegrand(_Gaussian):
    """Data of exp(-(w(Aw) + wbar(D wbar) + 2 wbar(Bw))) exp(uw + v wbar):
    Q = -M, r = (u, v) at ω = (w, wbar)."""

    n: int
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "A", _owned(as_matrix(self.A, self.n, self.n, symmetric=1e-12)))
        object.__setattr__(self, "B", _owned(as_matrix(self.B, self.n, self.n)))
        object.__setattr__(self, "D", _owned(as_matrix(self.D, self.n, self.n, symmetric=1e-12)))
        object.__setattr__(self, "u", _owned(as_vector(self.u, self.n)))
        object.__setattr__(self, "v", _owned(as_vector(self.v, self.n)))
        self._init()

    def _init(self):
        self._seal(1, -block2x2(self.A, self.B.T, self.B, self.D), np.concatenate([self.u, self.v]))

    @property
    def M(self) -> np.ndarray:
        """[[A, B^t], [B, D]]."""
        return -self.Q

    @property
    def N(self) -> np.ndarray:
        u = matrix_U(self.n)
        return u.T @ self.M @ u

    def exponent(self, w: np.ndarray) -> np.ndarray:
        """The exponent r ω - ω^t M ω at w of shape (..., n), with
        ω = (w, wbar) stacked axis-major."""
        wt = np.asarray(w, dtype=complex).T
        expo = self._form(np.concatenate([wt, wt.conj()]).reshape(2 * self.n, -1))
        return expo.reshape(wt.shape[1:]).T

    def eval(self, w: np.ndarray) -> np.ndarray:
        """Pointwise integrand exp(`exponent`(w)) at w of shape (..., n)."""
        return np.exp(self.exponent(w))


def quadrature_scale(gi: GaussianIntegrand) -> float:
    """Gauss–Hermite axis scale matched to the fastest decay direction.

    In real coordinates v = (x, y) the integrand decays like
    exp(-v^t Re(N) v), so sampling at w = scale·s with
    scale = λ_max(Re N)^{-1/2} leaves, along an eigenvector of Re N with
    eigenvalue λ, the factor exp(c s^2) over the e^{-s^2} weight, with
    0 ≤ c = 1 - λ/λ_max < 1.  DivergentIntegral unless Re N > 0.
    """
    n_mat = gi.N
    matcore.require_posreal(n_mat, DivergentIntegral)
    # Re N is the Hermitian part of N, so λ_max(Re N) = -λ_min(Re(-N))
    return 1.0 / np.sqrt(-matcore.hermitian_lam_min(-n_mat))


def quadrature_centre(gi: GaussianIntegrand) -> np.ndarray:
    """The peak w_c of |gi.eval|, where a quadrature grid is centred by
    integrating w ↦ gi.exponent(w + w_c): in real coordinates v = (x, y),
    |gi.eval| = exp(Re(U^t r) v - v^t Re(N) v) peaks at
    v_c = (1/2) Re(N)^{-1} Re(U^t r)."""
    v = matcore.solve(gi.N.real, (matrix_U(gi.n).T @ gi.r).real) / 2
    return v[: gi.n] + 1j * v[gi.n :]


def gaussian_law(m: np.ndarray, r: np.ndarray):
    """((Det N)^{1/2}, (1/4) r^t M^{-1} r) with N = U^t M U: the factors of
    ∫ exp(r ω - ω^t M ω) dm(w) = π^n (Det N)^{-1/2} exp((1/4) r^t M^{-1} r)
    for M 2n×2n in the frame ω = (w, wbar).  r is one linear term (2n,), or
    a (2n, k) matrix of them and the form its k×k polarisation.
    DivergentIntegral unless Re N > 0 (`matcore.require_posreal`)."""
    u = matrix_U(m.shape[0] // 2)
    root = det_powhalf_posreal(u.T @ m @ u, DivergentIntegral)
    return root, r.T @ matcore.solve(m, r) / 4


def gaussian_integral_closed(gi: GaussianIntegrand) -> complex:
    """Closed-form value of ∫ gi.eval(w) dm(w); requires Re(N) > 0."""
    root, quad = gaussian_law(gi.M, gi.r)
    return np.pi**gi.n / root * np.exp(quad)


@dataclass(frozen=True)
class GaussianKernel(_Gaussian):
    """K(z,w) = c exp((λ/4)(z(αz) + 2 z(β wbar) + wbar(γ wbar))):
    Q = (λ/4)[[α, β], [β^t, γ]] at ζ = (z, wbar)."""

    n: int
    lam: float
    c: complex
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "alpha", _owned(as_matrix(self.alpha, self.n, self.n, symmetric=1e-10)))
        object.__setattr__(self, "beta", _owned(as_matrix(self.beta, self.n, self.n)))
        object.__setattr__(self, "gamma", _owned(as_matrix(self.gamma, self.n, self.n, symmetric=1e-10)))
        object.__setattr__(self, "c", complex(self.c))
        if self.c == 0:
            raise ShapeError("kernel amplitude must be nonzero")
        self._init()

    def _init(self):
        matcore.require_lambda(self.lam)
        self._seal(self.c, self.lam / 4 * block2x2(self.alpha, self.beta, self.beta.T, self.gamma))

    @staticmethod
    def identity(n: int, lam: float) -> "GaussianKernel":
        """The reproducing kernel exp(λ z wbar / 2)."""
        matcore.require_dim(n)
        zero = np.zeros((n, n))
        return GaussianKernel._trusted(n, lam, 1.0, zero, np.eye(n), zero)

    def exponent(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The exponent of K(z, w)/c, ζ^t Q ζ, at z, w broadcastable with
        shape (..., n); the quadrature's path, which checks nothing."""
        z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        if z.shape != w.shape:
            z, w = np.broadcast_arrays(z, w)
        return self._form(np.concatenate([z.T, w.T.conj()])).T

    def eval(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Kernel value at (z, w), broadcastable with shape (..., n); ShapeError
        unless both are finite numeric batches (`matcore.as_batch`) that broadcast."""
        z, w = as_batch(z, self.n), as_batch(w, self.n)
        try:
            return self.c * np.exp(self.exponent(z, w))
        except ValueError as err:  # from np.broadcast_arrays, the one shape left unchecked
            raise ShapeError(f"points do not broadcast: {err}") from None


@dataclass(frozen=True)
class GaussianSymbol(_Gaussian):
    """v ↦ γ exp(v^t S v) on R^{2n}, S complex symmetric: every closed-form
    symbol, built by the ``*_symbol`` constructors in the (x, y) frame; Q = S, symmetrised."""

    n: int
    gamma: complex
    S: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "S", as_matrix(self.S, 2 * self.n, 2 * self.n, symmetric=1e-10))
        object.__setattr__(self, "gamma", complex(self.gamma))
        self._init()

    def _init(self):
        self._seal(self.gamma, (self.S + self.S.T) / 2)
        object.__setattr__(self, "S", self.Q)

    @staticmethod
    def from_zz(n: int, gamma: complex, C: np.ndarray) -> "GaussianSymbol":
        """From the (z, zbar)-frame exponent (z zbar) C (z zbar)^t via
        (z zbar)^t = U (x y)^t, so S = sym(U^t C U)."""
        matcore.require_dim(n)
        u = matrix_U(n)
        return GaussianSymbol._trusted(n, gamma, u.T @ C @ u)

    def eval(self, v):
        """γ exp(v^t S v) at one point v of shape (2n,), as a complex, or at
        a batch of shape (..., 2n), as an array of shape (...)."""
        return self._at(as_batch(v, 2 * self.n))

    def _at(self, v):
        """`eval` at points v already checked."""
        val = self.gamma * np.exp(self._form(v.T).T)
        return complex(val) if v.ndim == 1 else val

    def _at_z(self, z) -> complex:
        """The value at one point z of C^n, checked here."""
        z = as_vector(z, self.n)
        return self._at(np.concatenate([z.real, z.imag]))

    def eval_z(self, z):
        """Evaluate at z ∈ C^n, or at a batch of shape (..., n), via
        v = (Re z, Im z)."""
        z = as_batch(z, self.n)
        return self._at(np.concatenate([z.real, z.imag], axis=-1))


def compose_kernels(k1: GaussianKernel, k2: GaussianKernel) -> GaussianKernel:
    """(K1 ∘ K2)(z, w) = ∫ K1(z, u) K2(u, w) e^{-λ|u|^2/2} dμ_λ(u), in closed form.

    The u-integral is the generalised Gaussian integral with
    A = -(λ/4)α2, D = -(λ/4)γ1, B = (λ/4)I and linear terms
    (λ/2)(β2 wbar, β1^t z); `gaussian_law` polarised in (z, wbar) gives the
    composed parameters.
    """
    if k1.n != k2.n or abs(k1.lam - k2.lam) > 1e-14 * (1 + k1.lam):
        raise ShapeError("kernels must share n and lambda")
    n, lam = k1.n, k1.lam
    zero, eye = np.zeros((n, n)), np.eye(n)
    m = -(lam / 4) * block2x2(k2.alpha, -eye, -eye, k1.gamma)
    # r leaves out the linear terms' factor λ/2, so the form is (4/λ)(λ/2)^2 q = λq
    root, q = gaussian_law(m, block2x2(zero, k2.beta, k1.beta.T, zero))
    alpha = k1.alpha + lam * q[:n, :n]
    gamma = k2.gamma + lam * q[n:, n:]
    c = k1.c * k2.c * (lam / 2) ** n / root
    # symmetrise away roundoff
    return GaussianKernel._trusted(n, lam, c, (alpha + alpha.T) / 2, lam * q[:n, n:], (gamma + gamma.T) / 2)


# ---------------------------------------------------------------------------
# block-matrix identities feeding the closed-form Weyl symbol


def _inverse_blocks(a: np.ndarray, d: np.ndarray, p: np.ndarray):
    """Inverse of [[-a, I+p^t], [I+p, d]], returned as blocks (α, β, γ, δ)."""
    n = a.shape[0]
    eye = np.eye(n)
    big = block2x2(-a, eye + p.T, eye + p, d)
    inv = matcore.require_invertible(big)[0]
    return inv[:n, :n], inv[:n, n:], inv[n:, :n], inv[n:, n:]


def block_inverse_identity_residual(a, d, p) -> float:
    """Residual of the triple-product identity

    [[a, I-p^t], [p-I, d]] [[α,β],[γ,δ]] [[a, p^t-I], [I-p, d]]
        = [[4δ-a, 3I-4γ-p^t], [3I-4β-p, 4α+d]].
    """
    a = as_matrix(a)
    n = a.shape[0]
    d, p = as_matrix(d, n, n), as_matrix(p, n, n)
    eye = np.eye(n)
    al, be, ga, de = _inverse_blocks(a, d, p)
    left = block2x2(a, eye - p.T, p - eye, d)
    mid = block2x2(al, be, ga, de)
    right = block2x2(a, p.T - eye, eye - p, d)
    rhs = block2x2(4 * de - a, 3 * eye - 4 * ga - p.T, 3 * eye - 4 * be - p, 4 * al + d)
    return norm(left @ mid @ right - rhs)


def _kernel_blocks(k: SuBlocks):
    """The (a, d, p) triple for k in S: a = Qbar P^{-1}, d = P^{-1}Q, p = P^{-1}."""
    pinv = matcore.require_invertible(k.P)[0]
    return k.Q.conj() @ pinv, pinv @ k.Q, pinv


def cayley_block_identity_residual(k: SuBlocks) -> float:
    """Residual of (1/2) J (k - I)(k + I)^{-1} = [[δ, I/2-γ], [I/2-β, α]]."""
    n = k.n
    eye = np.eye(n)
    a, d, p = _kernel_blocks(k)
    al, be, ga, de = _inverse_blocks(a, d, p)
    lhs = matcore.matrix_J(n) @ matcore.cayley(k.full)[0] / 2
    rhs = block2x2(de, eye / 2 - ga, eye / 2 - be, al)
    return norm(lhs - rhs)


def det_identity_residual(k: SuBlocks) -> float:
    """Residual of Det [[-Qbar P^{-1}, I+(P^t)^{-1}], [I+P^{-1}, P^{-1}Q]]
    = (-1)^n (Det P)^{-1} Det(k + I)."""
    n = k.n
    eye = np.eye(n)
    a, d, p = _kernel_blocks(k)
    big = block2x2(-a, eye + p.T, eye + p, d)
    # numpy's determinant is the independent side: a residual, never a refusal
    lhs = np.linalg.det(big)
    rhs = (-1) ** n / np.linalg.det(k.P) * np.linalg.det(k.full + np.eye(2 * n))
    return abs(lhs - rhs)
