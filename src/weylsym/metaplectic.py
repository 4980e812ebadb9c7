"""Metaplectic operators through their kernels.

For k = [[P, Q], [Qbar, Pbar]] in S, the kernel of σ(k) on Fock space is

    b_k(z, w) = (Det P)^{-1/2} exp((λ/4)(z(Qbar P^{-1} z)
                + 2 z((P^t)^{-1} wbar) - wbar(P^{-1} Q wbar))),

the m = -1/2 member of the Jacobi-group kernel family.  The kernels satisfy
the intertwining functional equation against the Heisenberg action, compose
projectively (± sign), and their Berezin symbols admit the closed forms
implemented at the bottom of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import NotInLie, NotUnimodular
from .gaussint import GaussianKernel, GaussianSymbol, compose_kernels
from .matcore import as_matrix, as_vector, block2x2, norm, principal_power, principal_sqrt
from .polys import Poly
from .sympgroup import SuBlocks, SuLie, _memo, _owned, su_inv, su_mul

__all__ = [
    "sigma_kernel",
    "verify_intertwining",
    "sigma_cocycle_sign",
    "alpha_from_dets",
    "sigma_adjoint_check",
    "DsigmaKernel",
    "dsigma_kernel",
    "dsigma_apply",
    "berezin_sigma_symbol",
    "berezin_symbol_dsigma",
]


def sigma_kernel(k: SuBlocks, lam: float) -> GaussianKernel:
    """Gaussian-kernel data of σ(k): c = (Det P)^{-1/2}, α = Qbar P^{-1},
    β = (P^t)^{-1}, γ = -P^{-1} Q, with P^{-1} and Det P from one LU; built
    once per k and λ."""

    def build():
        pinv, det_p = matcore.require_invertible(k.P)
        alpha = k.Q.conj() @ pinv
        gamma = -pinv @ k.Q
        c = 1.0 / principal_sqrt(det_p)
        # S invariants make α and γ symmetric; clean roundoff
        return GaussianKernel._trusted(k.n, lam, c, (alpha + alpha.T) / 2, pinv.T, (gamma + gamma.T) / 2)

    return _memo(k, "_sigma_kernel", lam, build)


def verify_intertwining(k: SuBlocks, z0, z, w, lam: float) -> float:
    """Residual of the functional equation tying b_k to the Heisenberg action:

    exp(-(λ/4)|kz0|^2 + (λ/2) conj(kz0) z) b_k(z - kz0, w)
        = exp(-(λ/4)|z0|^2 - (λ/2) wbar z0) b_k(z, w + z0).
    """
    z0, z, w = (as_vector(v, k.n) for v in (z0, z, w))
    bk = sigma_kernel(k, lam)
    kz0 = k.act(z0)
    lhs = np.exp(-lam / 4 * np.sum(np.abs(kz0) ** 2) + lam / 2 * (kz0.conj() @ z)) * bk.eval(
        z - kz0, w
    )
    rhs = np.exp(-lam / 4 * np.sum(np.abs(z0) ** 2) - lam / 2 * (w.conj() @ z0)) * bk.eval(
        z, w + z0
    )
    return abs(complex(lhs - rhs)) / (1 + abs(complex(lhs)))


# how far, relative to 1 + their size, the composed kernel's (α, β, γ) may stray from σ(k1 k2)'s
_PARAM_TOL = 1e-9


def sigma_cocycle_scalar(k1: SuBlocks, k2: SuBlocks, lam: float) -> complex:
    """Scalar s with compose(σ(k1), σ(k2)) = s · σ(k1 k2), parameter-wise.

    Raises NotUnimodular if |s| deviates from 1 by more than 1e-8 or the
    Gaussian parameters of the two kernels disagree by more than _PARAM_TOL.
    """
    composed = compose_kernels(sigma_kernel(k1, lam), sigma_kernel(k2, lam))
    product = sigma_kernel(su_mul(k1, k2), lam)
    scale = 1 + norm(product.alpha) + norm(product.beta) + norm(product.gamma)
    dev = max(
        norm(composed.alpha - product.alpha),
        norm(composed.beta - product.beta),
        norm(composed.gamma - product.gamma),
    )
    if dev > _PARAM_TOL * scale:
        raise NotUnimodular(f"kernel parameters disagree by {dev:.3g}")
    s = composed.c / product.c
    if abs(abs(s) - 1.0) > 1e-8:
        raise NotUnimodular(f"relating scalar has modulus {abs(s):.12f}")
    return complex(s)


def sigma_cocycle_sign(k1: SuBlocks, k2: SuBlocks, lam: float) -> int:
    """The ± sign in σ(k1 k2) = ± σ(k1) σ(k2), measured from composed kernels."""
    s = sigma_cocycle_scalar(k1, k2, lam)
    sign = 1 if s.real > 0 else -1
    if abs(s - sign) > 1e-8:
        raise NotUnimodular(f"scalar {s} is not within 1e-8 of ±1")
    return sign


def alpha_from_dets(k1: SuBlocks, k2: SuBlocks) -> complex:
    """α(k, k') from determinants at m = -1/2:

    (Det P'')^m = α(k,k') (Det P)^m (Det P')^m (Det(P^{-1} P'' P'^{-1}))^{-1/2}.
    """
    m = -0.5
    p12 = su_mul(k1, k2).P
    p1inv, dp1 = matcore.require_invertible(k1.P)
    p2inv, dp2 = matcore.require_invertible(k2.P)
    dp12 = matcore.require_invertible(p12)[1]
    mid = matcore.require_invertible(p1inv @ p12 @ p2inv)[1]
    return principal_power(dp12, m) / (
        principal_power(dp1, m) * principal_power(dp2, m) / principal_sqrt(mid)
    )


def sigma_adjoint_check(k: SuBlocks, z, w, lam: float, swapped: bool = False) -> float:
    """Residual of b_{k^{-1}}(z, w) = conj(b_k(z, w)) as stated, or of the
    argument-swapped variant conj(b_k(w, z)) when ``swapped`` is set."""
    z, w = as_vector(z, k.n), as_vector(w, k.n)
    lhs = sigma_kernel(su_inv(k), lam).eval(z, w)
    bk = sigma_kernel(k, lam)
    rhs = np.conj(bk.eval(w, z) if swapped else bk.eval(z, w))
    return abs(complex(lhs - rhs))


@dataclass(frozen=True)
class DsigmaKernel:
    """Kernel b_X(z, w) of dσ(X) for X = [[A, B], [Bbar, Abar]]:

    ( -Tr(A)/2 + (λ/4) z(Bbar z) - (λ/2)(Az) wbar - (λ/4) wbar(B wbar) )
        · exp((λ/2) z wbar).
    """

    n: int
    lam: float
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        matcore.require_lambda(self.lam)
        object.__setattr__(self, "A", _owned(as_matrix(self.A, self.n, self.n)))
        object.__setattr__(self, "B", _owned(as_matrix(self.B, self.n, self.n)))

    def eval(self, z, w) -> complex:
        z, wb = as_vector(z, self.n), as_vector(w, self.n).conj()
        return complex(self._pref(z, wb) * np.exp(self.lam / 2 * (z @ wb)))

    def _pref(self, z: np.ndarray, wb: np.ndarray) -> complex:
        """The prefactor of b_X(z, w) at checked z and wbar; S_λ(dσ(X))(z) at w = z."""
        return (
            -0.5 * np.trace(self.A)
            + self.lam / 4 * (z @ (self.B.conj() @ z))
            - self.lam / 2 * ((self.A @ z) @ wb)
            - self.lam / 4 * (wb @ (self.B @ wb))
        )


def dsigma_kernel(x: SuLie, lam: float) -> DsigmaKernel:
    return DsigmaKernel(x.n, lam, x.A, x.B)


def dsigma_apply(x: SuLie, f: Poly, lam: float) -> Poly:
    """Exact action of dσ(X) on a polynomial f in z:

    (dσ(X) f)(z) = (-Tr(A)/2 + (λ/4) z(Bbar z)) f(z)
                   - Σ_j (Az)_j ∂f/∂z_j - (1/λ) Σ_{jk} B_{jk} ∂²f/∂z_j∂z_k.
    """
    n = x.n
    if f.nvars != n:
        raise NotInLie(f"polynomial has {f.nvars} variables, expected {n}")
    zvars = [Poly.var(n, i) for i in range(n)]
    quad = Poly.zero(n)
    bb = x.B.conj()
    for i in range(n):
        for j in range(n):
            if bb[i, j] != 0:
                quad = quad + bb[i, j] * zvars[i] * zvars[j]
    out = (-0.5 * np.trace(x.A)) * f + (lam / 4) * quad * f
    for j in range(n):
        az_j = Poly.zero(n)
        for i in range(n):
            if x.A[j, i] != 0:
                az_j = az_j + x.A[j, i] * zvars[i]
        out = out - az_j * f.diff(j)
    for j in range(n):
        for k in range(n):
            if x.B[j, k] != 0:
                out = out - (x.B[j, k] / lam) * f.diff(j).diff(k)
    return out


def berezin_sigma_symbol(k: SuBlocks, lam: float) -> GaussianSymbol:
    """S_λ(σ(k))(z) = b_k(z, z)/e_z(z) from the σ kernel (c, α, β, γ):
    c exp((λ/4)(z(αz) + 2 z((β - I) zbar) + zbar(γ zbar))) on R^{2n}, z = x + iy;
    built once per k and λ."""

    def build():
        bk = sigma_kernel(k, lam)
        off = bk.beta - np.eye(k.n)
        return GaussianSymbol.from_zz(k.n, bk.c, lam / 4 * block2x2(bk.alpha, off, off.T, bk.gamma))

    return _memo(k, "_berezin_sigma_symbol", lam, build)


def berezin_symbol_dsigma(x: SuLie, z, lam: float) -> complex:
    """S_λ(dσ(X))(z) = -Tr(A)/2 + (λ/4) z(Bbar z) - (λ/2)(Az) zbar
    - (λ/4) zbar(B zbar)."""
    z = as_vector(z, x.n)
    return complex(dsigma_kernel(x, lam)._pref(z, z.conj()))
