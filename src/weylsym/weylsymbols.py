"""Complex and classical Weyl symbols, the Berezin transform, and heat flow.

The complex Weyl symbol of a trace-class operator A on Fock space is

    W0(A)(z) = 2^n ∫ k_A(z+w, z-w) exp((λ/2)(-z zbar - w wbar + z wbar
               - zbar w)) dμ_λ(w),

and for metaplectic operators it has the closed Cayley form

    W0(σ(k))(z) = c_n(k) exp((λ/2) (z zbar) J (k-I)(k+I)^{-1} (z zbar)^t)

with the phase constant c_n keyed to the sign of Det(I+k) and the argument
of Det P, or, where Det P is real, taken from the Gaussian law of W0(σ(k))(0).
The classical Weyl symbol W1 is the same formula transported to the real
frame by z = x + iy.  The Berezin transform is the heat semigroup exp(Δ/2λ);
on Gaussians γ exp(v^t S v) the heat flow acts in closed form, which yields
the polar relation S_λ = B_λ^{1/2} W0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import AmbiguousPhase, BadConfig, HeatFlowSingular, NonConvergent, ShapeError
from .gaussint import GaussianKernel, GaussianSymbol, gaussian_law
from .matcore import _is_int, _is_real, as_matrix, as_vector, block2x2, matrix_J, norm, principal_sqrt
from .metaplectic import berezin_sigma_symbol, sigma_kernel
from .quadrature import GaussianExponent, _checked_plan, lebesgue_rn, quadrature_cn
from .sympgroup import SpLieReal, SpReal, SuBlocks, SuLie, _memo, _owned, su_from_sp

__all__ = [
    "GaussianSymbol",
    "QuadForm2n",
    "w0_integral",
    "metaplectic_phase_c",
    "adjudicate_phase",
    "w0_sigma_closed",
    "w0_sigma_symbol",
    "w0_dsigma_closed",
    "w1_sigma_closed",
    "w1_sigma_symbol",
    "w1_exp_symbol",
    "w1_dsigma_closed",
    "berezin_transform_gaussian",
    "berezin_transform_quadrature",
    "heat_flow_gaussian",
    "polar_relation_residual",
    "classical_weyl_kernel",
    "w1_of_classical_weyl",
]


@dataclass(frozen=True)
class QuadForm2n:
    """q_M(v) = v^t M v with M real symmetric 2n×2n."""

    n: int
    M: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        m = as_matrix(self.M, 2 * self.n, 2 * self.n, symmetric=1e-12, dtype=float)
        object.__setattr__(self, "M", _owned((m + m.T) / 2, float))

    def eval(self, v) -> float:
        v = as_vector(v, 2 * self.n, float)
        return float(v @ (self.M @ v))


def w0_integral(kernel: GaussianKernel, z, lam: float, nodes: int = 80, symmetric: bool = True) -> complex:
    """W0 of the operator with Gaussian kernel k, by Gauss–Hermite quadrature.

    Symmetric form: 2^n ∫ k(z+w, z-w) exp((λ/2)(-z zbar - w wbar + z wbar
    - zbar w)) dμ_λ(w); the exp(-(λ/2) w wbar) factor is the quadrature
    weight and the rest is folded into the integrand.  The non-symmetric
    variant integrates 2^n k(w, 2z-w) exp(λ(-z zbar + z wbar - w wbar / 2)).
    Either integrand's exponent, the kernel's exponent plus the W0 phase, is
    quadratic in w, so it is summed as a `GaussianExponent`.  ShapeError when
    λ differs from the kernel's own by more than 1e-14·(1 + λ), as in
    `compose_kernels`, and for a λ that `matcore.require_lambda` refuses.
    """
    matcore.require_lambda(lam)
    if not abs(lam - kernel.lam) <= 1e-14 * (1 + kernel.lam):
        raise ShapeError(f"lambda {lam!r} is not the kernel's {kernel.lam!r}")
    z = as_vector(z, kernel.n)
    zz = float(np.sum(np.abs(z) ** 2))

    if symmetric:

        def expo(w):
            # the phase's linear part (λ/2)(wbar z - w zbar) is iλ Im(wbar z)
            e = kernel.exponent(z + w, z - w) - lam / 2 * zz
            e.imag += lam * (w.conj() @ z).imag
            return e

    else:

        def expo(w):
            e = kernel.exponent(w, 2 * z - w)
            e += lam * (w.conj() @ z - zz)
            return e

    return 2**kernel.n * kernel.c * quadrature_cn(GaussianExponent(expo), lam, kernel.n, nodes_per_axis=nodes)


def metaplectic_phase_c(k: SuBlocks) -> complex:
    """The phase constant c_n(k) = W0(σ(k))(0) of the closed-form W0(σ(k)):

    * Det(I+k) > 0: 2^n (Det(I+k))^{-1/2};
    * Det(I+k) < 0 and Arg(Det P) ∈ (0, π): -i 2^n |Det(I+k)|^{-1/2};
    * Det(I+k) < 0 and Arg(Det P) ∈ (-π, 0): +i 2^n |Det(I+k)|^{-1/2};
    * Det(I+k) < 0 and Det P real, the cut of (Det P)^{-1/2}: the Gaussian law's
      value of W0(σ(k))(0), snapped to ±i 2^n |Det(I+k)|^{-1/2}.

    Det(I+k) is real on S; one that is not raises AmbiguousPhase.
    """
    return _phase_c(k, matcore.cayley(k.full)[1])


def _phase_c(k: SuBlocks, d: complex) -> complex:
    """The case analysis of `metaplectic_phase_c` at d = Det(I+k).  Its cut takes
    W0(σ(k))(0) = 2^n c (λ/2π)^n ∫ exp(-ω^t M ω) dm(w), M = (λ/4)[[-α, β + I],
    [β^t + I, -γ]] in ω = (w, wbar) and (c, α, β, γ) the kernel of σ(k), from the
    Gaussian law (DivergentIntegral unless Re N > 0), at λ = 1 where the prefactor
    is 1: the value is λ-free and follows `sigma_kernel`'s branch of c."""
    if abs(d.imag) > 1e-8 * (1 + abs(d)):
        raise AmbiguousPhase(f"Det(I+k) = {d} is not real")
    n, dr = k.n, d.real
    if dr > 0:
        return 2**n / principal_sqrt(dr)
    dp = matcore.require_invertible(k.P)[1]
    if abs(dp.imag) <= 1e-10 * (1 + abs(dp)):
        kern = sigma_kernel(k, 1.0)
        eye = np.eye(n)
        m = block2x2(-kern.alpha, kern.beta + eye, kern.beta.T + eye, -kern.gamma) / 4
        return _snap(n, dr, kern.c / gaussian_law(m, np.zeros(2 * n))[0], AmbiguousPhase)
    mag = 2**n / np.sqrt(abs(dr))
    return -1j * mag if dp.imag > 0 else 1j * mag


# how far a value's phase may lie from the constant it is snapped to
PHASE_SNAP = np.pi / 8


def _snap(n: int, d: float, value: complex, error: type) -> complex:
    """The allowed constant nearest `value` at d = Det(I+k): ±2^n/√d when d > 0,
    ±i 2^n/√|d| when d < 0; `error` unless value is nonzero with a phase less
    than PHASE_SNAP from it."""
    if d > 0:
        c = 2**n / principal_sqrt(d)
        c = c if value.real >= 0 else -c
    else:
        mag = 2**n / np.sqrt(abs(d))
        c = -1j * mag if value.imag < 0 else 1j * mag
    if not (value != 0 and abs(np.angle(value / c)) < PHASE_SNAP):
        raise error(f"phase {np.angle(value):.3f} of {value:.6g} is not near an allowed value {c:.6g}")
    return c


def adjudicate_phase(k: SuBlocks, lam: float = 1.0, nodes: int = 80) -> complex:
    """c_n(k) = W0(σ(k))(0) by quadrature, the oracle of the closed-form constant:
    the integral at z = 0 and `nodes` per axis, snapped by `_snap`; NonConvergent
    when its value vanishes or its phase is PHASE_SNAP or more from every
    allowed value."""
    d = matcore.cayley(k.full)[1].real
    return _snap(k.n, d, w0_integral(sigma_kernel(k, lam), np.zeros(k.n), lam, nodes=nodes), NonConvergent)


def w0_sigma_closed(k: SuBlocks, z, lam: float) -> complex:
    """W0(σ(k))(z): `w0_sigma_symbol(k, lam)` at one point, kept as the benchmark binds it."""
    return w0_sigma_symbol(k, lam).eval_z(z)


def w0_sigma_symbol(k: SuBlocks, lam: float) -> GaussianSymbol:
    """W0(σ(k))(z) = c_n(k) exp((λ/2)(z zbar) J (k-I)(k+I)^{-1} (z zbar)^t) on
    R^{2n}, z = x + iy; built once per k and λ."""

    def build():
        matcore.require_lambda(lam)
        cay, d = matcore.cayley(k.full)
        jc = matrix_J(k.n) @ cay
        return GaussianSymbol.from_zz(k.n, _phase_c(k, d), lam / 2 * jc)

    return _memo(k, "_w0_sigma_symbol", lam, build)


def w0_dsigma_closed(x: SuLie, z, lam: float) -> complex:
    """W0(dσ(X))(z) = (λ/4)(z(Bbar z) - zbar(B zbar) - 2(Az) zbar)."""
    matcore.require_lambda(lam)
    z = as_vector(z, x.n)
    zb = z.conj()
    return complex(
        lam / 4 * (z @ (x.B.conj() @ z) - zb @ (x.B @ zb) - 2 * ((x.A @ z) @ zb))
    )


def w1_sigma_closed(g: SpReal, x, y, lam: float = 1.0) -> complex:
    """W1(σ'(g))(x, y): `w1_sigma_symbol(g, lam)` at one point, kept as the benchmark binds it;
    x and y are checked in R^n and joined into one complex v = (x, y), the dtype of the exponent."""
    symbol = w1_sigma_symbol(g, lam)
    return symbol._at(np.concatenate((as_vector(x, g.n, float), as_vector(y, g.n, float)), dtype=complex))


def w1_sigma_symbol(g: SpReal, lam: float = 1.0) -> GaussianSymbol:
    """W1(σ'(g))(x, y) = c'_n(g) exp(-iλ (x y) J (g-I)(g+I)^{-1} (x y)^t),
    with c'_n(g) = c_n(U g U^{-1}) taken at Det(I+g) = Det(I+k); the exponent
    is cayley(g) itself, not that of `w0_sigma_symbol`; built once per g and λ."""

    def build():
        matcore.require_lambda(lam)
        cay, d = matcore.cayley(g.g)
        c = _phase_c(su_from_sp(g), d)
        return GaussianSymbol._trusted(g.n, c, -1j * lam * (matrix_J(g.n) @ cay))

    return _memo(g, "_w1_sigma_symbol", lam, build)


def w1_exp_symbol(x_lie: SpLieReal, lam: float = 1.0) -> GaussianSymbol:
    """W1(σ'(exp X))(x, y) = (Det cosh(X/2))^{-1/2} exp(-iλ (x y) J tanh(X/2) (x y)^t), the root by
    `matcore.hamiltonian_cosh_det`; SingularMatrix where cosh(X/2) is singular.  Built once per X and λ."""

    def build():
        matcore.require_lambda(lam)
        half = x_lie.full / 2
        ch, sh = matcore.mat_cosh(half)
        th = matcore.require_invertible(ch, scale=norm(ch) + norm(sh))[0] @ sh
        gamma = 1 / matcore.hamiltonian_cosh_det(half)
        return GaussianSymbol._trusted(x_lie.n, gamma, -1j * lam * (matrix_J(x_lie.n) @ th))

    return _memo(x_lie, "_w1_exp_symbol", lam, build)


def w1_dsigma_closed(x_lie: SpLieReal, x, y, lam: float = 1.0) -> complex:
    """W1(dσ'(X))(x, y) = (i/2)(2y(Ax) + y(By) - x(Cx)), which is also
    -(i/2)(x y) J X (x y)^t (the tests compare the two)."""
    x, y = as_vector(x, x_lie.n, float), as_vector(y, x_lie.n, float)
    a, b, c = x_lie.A, x_lie.B, x_lie.C
    return complex(lam * (0.5j * (2 * (y @ (a @ x)) + y @ (b @ y) - x @ (c @ x))))


def heat_flow_gaussian(f: GaussianSymbol, t: float) -> GaussianSymbol:
    """exp(tΔ) on Gaussians: γ exp(v^t S v) ↦
    γ det(I - 4tS)^{-1/2} exp(v^t S (I - 4tS)^{-1} v) while Re(I - 4tS) > 0;
    past that blow-up, HeatFlowSingular.  ShapeError unless t is a finite
    real (`matcore._is_real`, not a bool); t ≤ 0 is allowed."""
    if not (_is_real(t) and math.isfinite(t)):
        raise ShapeError(f"t must be a finite real, got {t!r}")
    a = np.eye(2 * f.n) - 4 * t * f.S
    d = matcore.det_powhalf_posreal(a, HeatFlowSingular)
    s_new = f.S @ matcore.require_invertible(a, HeatFlowSingular, 1 + norm(4 * t * f.S))[0]
    return GaussianSymbol._trusted(f.n, f.gamma / d, s_new)


def berezin_transform_gaussian(f: GaussianSymbol, lam: float) -> GaussianSymbol:
    """B_λ = exp(Δ/2λ) on Gaussian symbols, in closed form."""
    matcore.require_lambda(lam)
    return heat_flow_gaussian(f, 1.0 / (2 * lam))


def berezin_transform_quadrature(f, z, lam: float, nodes: int = 80) -> complex:
    """(B_λ f)(z) = ∫ f(w) e^{-λ|z-w|^2/2} dμ_λ(w) by quadrature; `f` is a
    GaussianSymbol or a vectorised callable on complex points (N, n)."""
    z = as_vector(z, f.n if isinstance(f, GaussianSymbol) else None)
    fval = f.eval_z if isinstance(f, GaussianSymbol) else f
    return quadrature_cn(lambda w: fval(z + w), lam, z.shape[0], nodes_per_axis=nodes)


def polar_relation_residual(k: SuBlocks, lam: float, npoints: int = 10, seed: int = 0) -> float:
    """sup_z |B_λ^{1/2}(W0(σ(k)))(z) - S_λ(σ(k))(z)| over `npoints` ≥ 1 points drawn from `seed`
    ≥ 0, or BadConfig (no points check nothing); B_λ^{1/2} = heat flow at t = 1/(4λ)."""
    matcore.require_lambda(lam)
    if not (_is_int(npoints) and npoints >= 1 and _is_int(seed) and seed >= 0):
        raise BadConfig(f"need integers npoints >= 1 and seed >= 0, got {npoints!r} and {seed!r}")
    half = heat_flow_gaussian(w0_sigma_symbol(k, lam), 1.0 / (4 * lam))
    # point j takes draws 2j (real parts) and 2j + 1 (imaginary parts)
    draws = np.random.default_rng(seed).standard_normal((npoints, 2, k.n))
    z = 0.5 * (draws[:, 0] + 1j * draws[:, 1])
    diff = half.eval_z(z) - berezin_sigma_symbol(k, lam).eval_z(z)
    return float(np.max(np.abs(diff), initial=0.0))


# ---------------------------------------------------------------------------
# classical Weyl quantization of test symbols, and its inverse via the trace


def classical_weyl_kernel(f, x, y, nodes: int = 96) -> np.ndarray:
    """Kernel of W(f) at paired points: k(x, y) = (2π)^{-1/2}
    (F2 f)((x+y)/2, x-y) with F2 the unitary Fourier transform in the second
    variable (n = 1); x, y are finite reals or 1-D arrays of one length, or ShapeError before f
    is called.  The nodes and the weights with e^{s^2} folded in come from the quadratures'
    one-axis plan, so a node count they refuse raises the same BadConfig."""
    x = as_vector(x, None, float)
    y = as_vector(y, x.shape[0], float)
    plan = _checked_plan(1, nodes)
    s, wt = plan.s, plan.axis_w[1]
    mid = (x + y) / 2
    diff = x - y
    vals = f(mid[:, None], s[None, :])
    phase = np.exp(-1j * diff[:, None] * s[None, :])
    return (2 * np.pi) ** (-1.0) * np.sum(vals * phase * wt[None, :], axis=1)


def w1_of_classical_weyl(f, a: float, b: float, lam: float, nodes: int = 96) -> complex:
    """Tr(Ω1(a, b) W(f)) by Mercer-diagonal quadrature (n = 1).

    The composite kernel is K(x, x') = 2 exp(2iλ b(a-x)) k_{W(f)}(2a-x, x');
    its diagonal integrates to f(a, λb) for Schwartz-class f.  The diagonal
    quadrature is kept narrow (scale 0.35) so that the inner Fourier
    frequency 2(a - x) stays below the Gauss–Hermite Nyquist limit.  A non-finite a or b, or
    λ ∉ (0, ∞), raises ShapeError before the quadrature.
    """
    a, b = as_vector([a, b], 2, float)
    matcore.require_lambda(lam)

    def diag(x):
        x = x.reshape(-1)
        kvals = classical_weyl_kernel(f, 2 * a - x, x, nodes=nodes)
        return 2.0 * np.exp(2j * lam * b * (a - x)) * kvals

    return lebesgue_rn(diag, 1, nodes_per_axis=nodes, scale=0.35, center=float(a))
