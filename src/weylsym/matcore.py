"""Dense complex matrix algebra and branch-cut-sensitive scalar/matrix functions.

Matrices are plain ``numpy`` arrays of ``complex128``, row-major.  Everything
here is pure: inputs are never mutated and results are freshly allocated.

The branch convention used throughout the library is the principal
determination: ``Arg`` in (-pi, pi], so the square root of a negative real
number is ``+i sqrt(|x|)``.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np
import scipy.linalg

from .errors import NotPositiveReal, ShapeError, SingularMatrix, CayleySingular

__all__ = [
    "as_matrix",
    "require_square",
    "matrix_J",
    "matrix_U",
    "mat_exp",
    "mat_cosh",
    "cayley",
    "principal_sqrt",
    "principal_power",
    "det",
    "solve",
    "inv",
    "eigenvalues",
    "det_sqrt",
    "det_powhalf_posreal",
    "hermitian_part",
    "is_posdef_hermitian_part",
    "norm",
]

_COND_LIMIT = 1e14


def as_matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite complex 2-D array, optionally checking its shape."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ShapeError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains NaN/Inf entries")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


@functools.cache
def matrix_J(n: int) -> np.ndarray:
    """The standard symplectic form [[0, I], [-I, 0]] of size 2n; read-only."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    j = np.block([[zero, eye], [-eye, zero]]).astype(complex)
    j.setflags(write=False)
    return j


@functools.cache
def matrix_U(n: int) -> np.ndarray:
    """The frame change [[I, iI], [I, -iI]] from (x, y) to (z, zbar); read-only."""
    eye = np.eye(n)
    u = np.block([[eye, 1j * eye], [eye, -1j * eye]])
    u.setflags(write=False)
    return u


def norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def mat_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling and squaring via scipy)."""
    return scipy.linalg.expm(require_square(m))


def mat_cosh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cosh(M), sinh(M)) from exp(±M); cos(M) = cosh(iM), sin(M) = -i sinh(iM)."""
    m = require_square(m)
    ep = scipy.linalg.expm(m)
    em = scipy.linalg.expm(-m)
    return (ep + em) / 2, (ep - em) / 2


def cayley(g: np.ndarray) -> np.ndarray:
    """(g - I)(g + I)^{-1}.  Defined when det(g + I) != 0."""
    g = require_square(g)
    eye = np.eye(g.shape[0])
    gp = g + eye
    if np.abs(np.linalg.det(gp)) <= 1e-12 * max(1.0, norm(gp)):
        raise CayleySingular("det(g + I) vanishes")
    return np.linalg.solve(gp.T, (g - eye).T).T


def principal_sqrt(c: complex) -> complex:
    """Principal square root: |r| = |c|^{1/2}, Arg(r) = Arg(c)/2, Arg in (-pi, pi].

    c = 0 returns 0 (the branch is irrelevant there).
    """
    return cmath.sqrt(c)


def principal_power(c: complex, expo: float) -> complex:
    """c**expo via the principal logarithm; consistent with principal_sqrt.
    A negative power of 0 raises SingularMatrix."""
    if c == 0:
        if expo < 0:
            raise SingularMatrix(f"0 ** {expo} is undefined")
        return 0.0 if expo > 0 else 1.0
    return cmath.exp(expo * cmath.log(c))


def det(m: np.ndarray) -> complex:
    return complex(np.linalg.det(require_square(m)))


def solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b; raises SingularMatrix for condition estimates > 1e14."""
    m = require_square(m)
    b = np.asarray(b, dtype=complex)
    try:
        cond = np.linalg.cond(m)
    except np.linalg.LinAlgError:
        raise SingularMatrix("condition estimate failed")
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrix(f"condition estimate {cond:.3g} exceeds 1e14")
    return np.linalg.solve(m, b)


def inv(m: np.ndarray) -> np.ndarray:
    return solve(m, np.eye(require_square(m).shape[0]))


def eigenvalues(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(require_square(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    m = require_square(m)
    return (m + m.conj().T) / 2


def is_posdef_hermitian_part(m: np.ndarray, pivot_tol: float = 1e-12) -> bool:
    """Cholesky-style test that the Hermitian part of m is positive definite."""
    h = hermitian_part(m)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return float(np.min(np.linalg.eigvalsh(h))) > pivot_tol


def det_sqrt(m: np.ndarray) -> complex:
    """det(M)^{1/2} as the product of per-eigenvalue principal roots; an
    eigenvalue of modulus ≤ 1e-12 raises SingularMatrix."""
    root = complex(1.0)
    for ev in eigenvalues(m):
        if abs(ev) <= 1e-12:
            raise SingularMatrix("eigenvalue at zero: square root undefined")
        root *= principal_sqrt(complex(ev))
    return root


def det_powhalf_posreal(n_mat: np.ndarray) -> complex:
    """det(N)^{1/2} for complex symmetric N with Re(N) positive definite.

    All eigenvalues of N lie in its field of values, hence in the open right
    half-plane, so the per-eigenvalue principal roots of `det_sqrt` are
    branch-consistent and the result has positive real part.
    """
    if not is_posdef_hermitian_part(n_mat):
        raise NotPositiveReal("Hermitian part of N is not positive definite")
    return det_sqrt(n_mat)
