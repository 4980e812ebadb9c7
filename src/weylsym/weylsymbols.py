"""Complex and classical Weyl symbols, the Berezin transform, and heat flow.

The complex Weyl symbol of a trace-class operator A on Fock space is

    W0(A)(z) = 2^n ∫ k_A(z+w, z-w) exp((λ/2)(-z zbar - w wbar + z wbar
               - zbar w)) dμ_λ(w),

and for metaplectic operators it has the closed Cayley form

    W0(σ(k))(z) = c_n(k) exp((λ/2) (z zbar) J (k-I)(k+I)^{-1} (z zbar)^t)

with the phase constant c_n keyed to the sign of Det(I+k) and the argument
of Det P.  The classical Weyl symbol W1 is the same formula transported to
the real frame by z = x + iy.  The Berezin transform is the heat semigroup
exp(Δ/2λ); on Gaussians γ exp(v^t S v) the heat flow acts in closed form,
which yields the polar relation S_λ = B_λ^{1/2} W0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    AmbiguousPhase,
    CayleySingular,
    HeatFlowSingular,
    NotInLie,
    ShapeError,
    SingularMatrix,
)
from .matcore import as_matrix, matrix_J, matrix_U, norm, principal_sqrt
from .quadrature import gh_nodes, lebesgue_rn, quadrature_cn
from .sympgroup import (
    SpLieReal,
    SpReal,
    SuBlocks,
    SuLie,
    su_from_sp,
    validate_su_lie,
)

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
    "w1_exp_closed",
    "w1_exp_symbol",
    "w1_dsigma_closed",
    "hormander_exp_symbol",
    "hormander_symbol",
    "berezin_transform_gaussian",
    "berezin_transform_quadrature",
    "heat_flow_gaussian",
    "polar_relation_residual",
    "classical_weyl_kernel",
    "w1_of_classical_weyl",
]


@dataclass(frozen=True)
class GaussianSymbol:
    """v ↦ γ exp(v^t S v) on R^{2n}, S complex symmetric: every closed-form
    symbol, built by the ``*_symbol`` constructors in the (x, y) frame."""

    n: int
    gamma: complex
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", as_matrix(self.S, 2 * self.n, 2 * self.n))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if norm(self.S - self.S.T) > 1e-10 * (1 + norm(self.S)):
            raise ShapeError("S must be symmetric")

    @classmethod
    def _trusted(cls, n: int, gamma: complex, s: np.ndarray) -> "GaussianSymbol":
        """For a closed form's finite 2n×2n exponent s, symmetric up to
        roundoff: symmetrised, not validated again."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "gamma", complex(gamma))
        object.__setattr__(out, "S", (s + s.T) / 2)
        return out

    @staticmethod
    def from_zz(n: int, gamma: complex, C: np.ndarray) -> "GaussianSymbol":
        """From the (z, zbar)-frame exponent (z zbar) C (z zbar)^t via
        (z zbar)^t = U (x y)^t, so S = sym(U^t C U)."""
        C = as_matrix(C, 2 * n, 2 * n)
        u = matrix_U(n)
        return GaussianSymbol._trusted(n, gamma, u.T @ C @ u)

    def eval(self, v):
        """γ exp(v^t S v) at one point v of shape (2n,), as a complex, or at
        a batch of shape (..., 2n), as an array of shape (...)."""
        v = np.asarray(v)
        if v.shape[-1:] != (2 * self.n,):
            raise ShapeError(f"expected points of length {2 * self.n}, got shape {v.shape}")
        val = self.gamma * np.exp(np.einsum("...i,ij,...j->...", v, self.S, v))
        return complex(val) if v.ndim == 1 else val

    def eval_z(self, z):
        """Evaluate at z ∈ C^n, or at a batch of shape (..., n), via
        v = (Re z, Im z)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return self.eval(np.concatenate([z.real, z.imag], axis=-1))


@dataclass(frozen=True)
class QuadForm2n:
    """q_M(v) = v^t M v with M real symmetric 2n×2n."""

    n: int
    M: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.M, dtype=float)
        if m.shape != (2 * self.n, 2 * self.n):
            raise ShapeError(f"expected {2*self.n}x{2*self.n} matrix, got {m.shape}")
        if norm(m - m.T) > 1e-12 * (1 + norm(m)):
            raise ShapeError("M must be symmetric")
        object.__setattr__(self, "M", (m + m.T) / 2)

    def eval(self, v) -> float:
        v = np.asarray(v, dtype=float).reshape(2 * self.n)
        return float(v @ (self.M @ v))


def _kernel_eval(kernel, z, w):
    return kernel.eval(z, w) if hasattr(kernel, "eval") else kernel(z, w)


def w0_integral(kernel, z, lam: float, nodes: int = 80, symmetric: bool = True) -> complex:
    """W0 of the operator with kernel k, by Gauss–Hermite quadrature.

    Symmetric form: 2^n ∫ k(z+w, z-w) exp((λ/2)(-z zbar - w wbar + z wbar
    - zbar w)) dμ_λ(w); the exp(-(λ/2) w wbar) factor is the quadrature
    weight and the rest is folded into the integrand.  The non-symmetric
    variant integrates 2^n k(w, 2z-w) exp(λ(-z zbar + z wbar - w wbar / 2)).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = z.shape[0]
    zz = float(np.sum(np.abs(z) ** 2))

    if symmetric:

        def f(w):
            wb = w.conj()
            expo = lam / 2 * (-zz + wb @ z - w @ z.conj())
            return 2**n * _kernel_eval(kernel, z + w, z - w) * np.exp(expo)

    else:

        def f(w):
            expo = lam * (-zz + w.conj() @ z)
            return 2**n * _kernel_eval(kernel, w, 2 * z - w) * np.exp(expo)

    return quadrature_cn(f, lam, n, nodes_per_axis=nodes)


def metaplectic_phase_c(k: SuBlocks) -> complex:
    """The phase constant c_n(k) of the closed-form W0(σ(k)):

    * Det(I+k) > 0: 2^n (Det(I+k))^{-1/2};
    * Det(I+k) < 0 and Arg(Det P) ∈ (0, π): -i 2^n |Det(I+k)|^{-1/2};
    * Det(I+k) < 0 and Arg(Det P) ∈ (-π, 0): +i 2^n |Det(I+k)|^{-1/2}.

    Det(I+k) is real on S; a negative determinant with Det P real falls
    outside the case analysis and raises AmbiguousPhase.
    """
    n, full = k.n, k.full
    d = matcore.det(full + np.eye(2 * n))
    if abs(d.imag) > 1e-8 * (1 + abs(d)):
        raise AmbiguousPhase(f"Det(I+k) = {d} is not real")
    dr = d.real
    if abs(dr) <= 1e-12 * (1 + norm(full)) ** (2 * n):
        raise CayleySingular("Det(I+k) vanishes")
    if dr > 0:
        return 2**n / principal_sqrt(dr)
    dp = matcore.det(k.P)
    if abs(dp.imag) <= 1e-10 * (1 + abs(dp)):
        raise AmbiguousPhase("Det(I+k) < 0 with Det P real: phase not determined")
    mag = 2**n / np.sqrt(abs(dr))
    return -1j * mag if dp.imag > 0 else 1j * mag


def adjudicate_phase(k: SuBlocks, lam: float = 1.0, nodes: int = 80) -> complex:
    """Fix the phase of c_n(k) by quadrature: W0(σ(k))(0) = c_n(k), so the
    integral formula at z = 0 decides the sign when the case analysis is
    ambiguous."""
    from .metaplectic import sigma_kernel

    n = k.n
    d = matcore.det(k.full + np.eye(2 * n)).real
    if abs(d) <= 1e-12:
        raise CayleySingular("Det(I+k) vanishes")
    mag = 2**n / np.sqrt(abs(d))
    q = w0_integral(sigma_kernel(k, lam), np.zeros(n), lam, nodes=nodes)
    if abs(q) == 0:
        raise AmbiguousPhase("quadrature value vanished")
    return mag * q / abs(q)


def w0_sigma_closed(k: SuBlocks, z, lam: float) -> complex:
    """W0(σ(k))(z); see `w0_sigma_symbol`."""
    return w0_sigma_symbol(k, lam).eval_z(z)


def w0_sigma_symbol(k: SuBlocks, lam: float, c: complex | None = None) -> GaussianSymbol:
    """W0(σ(k))(z) = c exp((λ/2)(z zbar) J (k-I)(k+I)^{-1} (z zbar)^t) on
    R^{2n}, z = x + iy, with c = c_n(k) unless given (e.g. adjudicated)."""
    if c is None:
        c = metaplectic_phase_c(k)
    jc = matrix_J(k.n) @ matcore.cayley(k.full)
    return GaussianSymbol.from_zz(k.n, c, lam / 2 * jc)


def _xy(x, y) -> np.ndarray:
    """The real point v = (x, y) of R^{2n}."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return np.concatenate([x, y])


def w0_dsigma_closed(x: SuLie, z, lam: float) -> complex:
    """W0(dσ(X))(z) = (λ/4)(z(Bbar z) - zbar(B zbar) - 2(Az) zbar)."""
    if not validate_su_lie(x).ok:
        raise NotInLie("input fails Lie-algebra invariants")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zb = z.conj()
    return complex(
        lam / 4 * (z @ (x.B.conj() @ z) - zb @ (x.B @ zb) - 2 * ((x.A @ z) @ zb))
    )


def w1_sigma_closed(g: SpReal, x, y, lam: float = 1.0) -> complex:
    """W1(σ'(g))(x, y); see `w1_sigma_symbol`."""
    return w1_sigma_symbol(g, lam).eval(_xy(x, y))


def w1_sigma_symbol(g: SpReal, lam: float = 1.0) -> GaussianSymbol:
    """W1(σ'(g))(x, y) = c'_n(g) exp(-iλ (x y) J (g-I)(g+I)^{-1} (x y)^t),
    with c'_n(g) = c_n(U g U^{-1}); the exponent is cayley(g) itself, not
    that of `w0_sigma_symbol`."""
    c = metaplectic_phase_c(su_from_sp(g))
    jc = matrix_J(g.n) @ matcore.cayley(g.g)
    return GaussianSymbol._trusted(g.n, c, -1j * lam * jc)


def w1_exp_closed(x_lie: SpLieReal, x, y, lam: float = 1.0) -> complex:
    """W1(σ'(exp X))(x, y); see `w1_exp_symbol`."""
    return w1_exp_symbol(x_lie, lam).eval(_xy(x, y))


def w1_exp_symbol(x_lie: SpLieReal, lam: float = 1.0) -> GaussianSymbol:
    """W1(σ'(exp X))(x, y) = (Det cosh(X/2))^{-1/2}
    exp(-iλ (x y) J tanh(X/2) (x y)^t).

    Det cosh(X/2) is nonnegative on sp(n, R); the real square root is used.
    """
    ch, sh = matcore.mat_cosh(x_lie.full / 2)
    d = matcore.det(ch)
    if abs(d) <= 1e-12:
        raise SingularMatrix("cosh(X/2) is singular")
    if abs(d.imag) > 1e-8 * (1 + abs(d)) or d.real < 0:
        raise SingularMatrix(f"Det cosh(X/2) = {d} is not positive")
    th = matcore.solve(ch, sh)
    return GaussianSymbol._trusted(x_lie.n, 1 / np.sqrt(d.real), -1j * lam * (matrix_J(x_lie.n) @ th))


def w1_dsigma_closed(x_lie: SpLieReal, x, y, lam: float = 1.0) -> complex:
    """W1(dσ'(X))(x, y) = (i/2)(2y(Ax) + y(By) - x(Cx))
    = -(i/2)(x y) J X (x y)^t; both forms are evaluated and must agree."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    a, b, c = x_lie.A, x_lie.B, x_lie.C
    form1 = 0.5j * (2 * (y @ (a @ x)) + y @ (b @ y) - x @ (c @ x))
    v = np.concatenate([x, y])
    form2 = -0.5j * (v @ ((matrix_J(x_lie.n) @ x_lie.full) @ v))
    if abs(form1 - form2) > 1e-12 * (1 + abs(form1)):
        raise ShapeError(f"quadratic-form mismatch: {form1} vs {form2}")
    return complex(lam * form1)


def hormander_exp_symbol(m: QuadForm2n, x, y) -> complex:
    """W1(exp(dσ'(iX)))(x, y); see `hormander_symbol`."""
    return hormander_symbol(m).eval(_xy(x, y))


def hormander_symbol(m: QuadForm2n) -> GaussianSymbol:
    """W1(exp(dσ'(iX)))(x, y) = (Det cos(JM))^{-1/2}
    exp(-(x y) J tan(JM) (x y)^t), per-eigenvalue roots of Det cos(JM)."""
    jm = matrix_J(m.n) @ m.M
    cos, sinh_ijm = matcore.mat_cosh(1j * jm)
    if abs(matcore.det(cos)) <= 1e-12:
        raise SingularMatrix("cos(JM) is singular")
    tan = -1j * sinh_ijm @ matcore.inv(cos)
    return GaussianSymbol._trusted(m.n, 1 / matcore.det_sqrt(cos), -(matrix_J(m.n) @ tan))


def heat_flow_gaussian(f: GaussianSymbol, t: float) -> GaussianSymbol:
    """exp(tΔ) on Gaussians: γ exp(v^t S v) ↦
    γ det(I - 4tS)^{-1/2} exp(v^t S (I - 4tS)^{-1} v)."""
    a = np.eye(2 * f.n) - 4 * t * f.S
    try:
        d = matcore.det_sqrt(a)
        s_new = f.S @ matcore.inv(a)
    except SingularMatrix as exc:
        raise HeatFlowSingular("I - 4tS is singular") from exc
    return GaussianSymbol._trusted(f.n, f.gamma / d, s_new)


def berezin_transform_gaussian(f: GaussianSymbol, lam: float) -> GaussianSymbol:
    """B_λ = exp(Δ/2λ) on Gaussian symbols, in closed form."""
    return heat_flow_gaussian(f, 1.0 / (2 * lam))


def berezin_transform_quadrature(f, z, lam: float, nodes: int = 80) -> complex:
    """(B_λ f)(z) = ∫ f(w) e^{-λ|z-w|^2/2} dμ_λ(w) by quadrature; `f` is a
    GaussianSymbol or a vectorised callable on complex points (N, n)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = z.shape[0]

    fval = f.eval_z if isinstance(f, GaussianSymbol) else f
    return quadrature_cn(lambda w: fval(z + w), lam, n, nodes_per_axis=nodes)


def polar_relation_residual(k: SuBlocks, lam: float, npoints: int = 10, seed: int = 0) -> float:
    """sup_z |B_λ^{1/2}(W0(σ(k)))(z) - S_λ(σ(k))(z)| over sample points;
    B_λ^{1/2} = heat flow at t = 1/(4λ)."""
    from .metaplectic import berezin_sigma_symbol

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
    variable (n = 1); x, y may be arrays of equal shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s, w = gh_nodes(nodes)
    wt = w * np.exp(s**2)
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
    frequency 2(a - x) stays below the Gauss–Hermite Nyquist limit.
    """
    def diag(x):
        x = x.reshape(-1)
        kvals = classical_weyl_kernel(f, 2 * a - x, x, nodes=nodes)
        return 2.0 * np.exp(2j * lam * b * (a - x)) * kvals

    return lebesgue_rn(diag, 1, nodes_per_axis=nodes, scale=0.35, center=float(a))
