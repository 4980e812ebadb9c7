"""Both models of the Heisenberg representation, coherent states, the
Bargmann transform, and the parity-based quantizers Ω0 / Ω1.

Functions on Fock space and on L^2(R^n) are represented as evaluation
closures; every identity in scope is pointwise or reducible to quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussint import GaussianKernel
from .matcore import as_batch, as_vector, require_dim, require_finite, require_lambda
from .quadrature import lebesgue_rn
from .sympgroup import _owned

__all__ = [
    "HeisElt",
    "heis_mul",
    "heis_inv",
    "symplectic_form",
    "rho_fock_apply",
    "rho_schrod_apply",
    "coherent_eval",
    "bargmann_apply",
    "omega0_apply",
    "omega1_apply",
    "berezin_double_symbol",
]


@dataclass(frozen=True)
class HeisElt:
    """h = ((z0, z0bar), c) in the real Heisenberg group."""

    n: int
    z0: np.ndarray
    c: float

    def __post_init__(self):
        require_dim(self.n)
        object.__setattr__(self, "z0", _owned(as_vector(self.z0, self.n)))
        object.__setattr__(self, "c", float(self.c))
        require_finite(self.c)

    @staticmethod
    def identity(n: int) -> "HeisElt":
        require_dim(n)
        return HeisElt(n, np.zeros(n), 0.0)


def symplectic_form(z: np.ndarray, w: np.ndarray, zp: np.ndarray, wp: np.ndarray) -> complex:
    """ω((z, w), (z', w')) = (i/2)(z w' - z' w) with the bilinear pairing."""
    z, w, zp, wp = (np.asarray(x, dtype=complex) for x in (z, w, zp, wp))
    return 0.5j * (z @ wp - zp @ w)


def heis_mul(h1: HeisElt, h2: HeisElt) -> HeisElt:
    om = symplectic_form(h1.z0, h1.z0.conj(), h2.z0, h2.z0.conj())
    return HeisElt(h1.n, h1.z0 + h2.z0, h1.c + h2.c + 0.5 * om.real)


def heis_inv(h: HeisElt) -> HeisElt:
    return HeisElt(h.n, -h.z0, -h.c)


def rho_fock_apply(h: HeisElt, f, z: np.ndarray, lam: float) -> complex:
    """(ρ_λ(h) f)(z) = exp(iλc0 + (λ/2) z0bar z - (λ/4)|z0|^2) f(z - z0)."""
    require_lambda(lam)
    z = as_vector(z, h.n)
    z0 = h.z0
    pref = np.exp(1j * lam * h.c + lam / 2 * (z0.conj() @ z) - lam / 4 * np.sum(np.abs(z0) ** 2))
    return pref * f(z - z0)


def rho_schrod_apply(h: HeisElt, phi, x: np.ndarray, lam: float) -> complex:
    """(ρ'_λ(h) φ)(x) = exp(iλ(c - bx + ab/2)) φ(x - a) with z0 = a + ib; x may
    be batched with shape (..., n), and φ then takes the batch x - a."""
    require_lambda(lam)
    x = as_batch(x, h.n, float)
    a, b = h.z0.real, h.z0.imag
    pref = np.exp(1j * lam * (h.c - x @ b + 0.5 * (a @ b)))
    return pref * phi(x - a)


def coherent_eval(z: np.ndarray, w: np.ndarray, lam: float) -> complex:
    """e_z(w) = <e_z, e_w> = exp(λ zbar w / 2); w may be batched with shape (..., n)."""
    require_lambda(lam)
    z = as_vector(z, None)
    w = as_batch(w, z.shape[0])
    return np.exp(lam / 2 * (w @ z.conj()))


def bargmann_apply(phi, z: np.ndarray, lam: float, nodes: int = 80) -> complex:
    """Bargmann transform (Bφ)(z) by Gauss–Hermite quadrature over R^n.

    (Bφ)(z) = (λ/π)^{n/4} ∫ exp(-(λ/4)z^2 + λ zx - (λ/2)x^2) φ(x) dx.
    """
    require_lambda(lam)
    z = as_vector(z, None)
    n = z.shape[0]

    def integrand(x):
        expo = -lam / 4 * (z @ z) + lam * (x @ z) - lam / 2 * np.sum(x**2, axis=-1)
        return np.exp(expo) * phi(x)

    # for φ slowly varying the integrand peaks at x = Re(z), with width sqrt(2/λ)
    scale = np.sqrt(2.0 / lam)
    return (lam / np.pi) ** (n / 4) * lebesgue_rn(
        integrand, n, nodes_per_axis=nodes, scale=scale, center=z.real
    )


def omega0_apply(zc: np.ndarray, f, w: np.ndarray, lam: float) -> complex:
    """(Ω0(z) f)(w) = 2^n exp(λ(w zbar - |z|^2)) f(2z - w)."""
    zc = as_vector(zc, None)
    n = zc.shape[0]
    w = as_vector(w, n)
    pref = 2**n * np.exp(lam * ((w @ zc.conj()) - np.sum(np.abs(zc) ** 2)))
    return pref * f(2 * zc - w)


def omega1_apply(a: np.ndarray, b: np.ndarray, phi, x: np.ndarray, lam: float) -> complex:
    """(Ω1(a, b) φ)(x) = 2^n exp(2iλ b(a - x)) φ(2a - x)."""
    a = as_vector(a, None, float)
    n = a.shape[0]
    b, x = as_vector(b, n, float), as_vector(x, n, float)
    return 2**n * np.exp(2j * lam * (b @ (a - x))) * phi(2 * a - x)


def berezin_double_symbol(kernel: GaussianKernel, z: np.ndarray, w: np.ndarray, lam: float) -> complex:
    """Double Berezin symbol s(z, w) = k_A(z, w) / <e_w, e_z>, with
    <e_w, e_z> = exp(λ wbar z / 2); the diagonal z = w gives the covariant symbol."""
    z, w = as_vector(z, kernel.n), as_vector(w, kernel.n)
    return complex(kernel.c * np.exp(kernel.exponent(z, w) - lam / 2 * (z @ w.conj())))
