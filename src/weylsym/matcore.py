"""Dense complex matrix algebra and branch-cut-sensitive scalar/matrix functions.

Matrices are plain ``numpy`` arrays of ``complex128``, row-major.  Everything
here is pure: inputs are never mutated and results are freshly allocated.
`as_matrix`, `as_vector` and `as_batch` check arrays arriving from outside the library,
`require_dim` the n of an element and `require_lambda` the scale λ; the other
functions do not check the square arrays their callers built, but that `hamiltonian_cosh_det`'s is Hamiltonian.
`require_invertible` is the one way to invert a matrix or take a guarded
determinant, and the one rule that refuses a matrix as singular.

The branch convention used throughout the library is the principal
determination: ``Arg`` in (-pi, pi], so the square root of a negative real
number is ``+i sqrt(|x|)``.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgetrf, zgetrs, zlange

from .errors import NotPositiveReal, ShapeError, SingularMatrix, CayleySingular

__all__ = [
    "as_matrix",
    "as_vector",
    "as_batch",
    "block2x2",
    "require_finite",
    "require_dim",
    "require_lambda",
    "matrix_J",
    "matrix_U",
    "mat_exp",
    "mat_cosh",
    "cayley",
    "principal_sqrt",
    "principal_power",
    "require_invertible",
    "solve",
    "det_powhalf_posreal",
    "hamiltonian_cosh_det",
    "hermitian_lam_min",
    "hermitian_norm2",
    "require_posreal",
    "norm",
    "quad_form",
]

def as_matrix(data, rows: int | None = None, cols: int | None = None, symmetric: float | None = None,
              dtype=complex) -> np.ndarray:
    """Coerce to a finite 2-D array of `dtype`, complex or float, optionally
    checking its shape and that ‖m - m^t‖ ≤ symmetric·(1 + ‖m‖); ShapeError
    otherwise, and on a nonzero imaginary part when dtype is float."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ShapeError(f"expected {cols} cols, got {m.shape[1]}")
    require_finite(m)
    if symmetric is not None and norm(m - m.T) > symmetric * (1 + norm(m)):
        raise ShapeError("matrix is not symmetric")
    if dtype is float:
        if m.imag.any():
            raise ShapeError("expected a real matrix, got a nonzero imaginary part")
        return m.real.copy()
    return m


# the dtype of the vector `as_vector` returns, by its `dtype` argument
_VECTOR_DTYPES = {complex: np.dtype(complex), float: np.dtype(float)}
_POINT_TYPES = {d: t for t, d in _VECTOR_DTYPES.items()}


def as_vector(data, size: int | None, dtype=complex) -> np.ndarray:
    """Coerce to a finite 1-D array of `size` entries (any length if None) of
    `dtype`, complex or float; a scalar counts as one.  ShapeError otherwise:
    on non-numeric entries, or a nonzero imaginary part when dtype is float.
    A 1-D array already of `dtype` is returned as it is, after the checks of
    its length and finiteness."""
    v = data
    if not (type(v) is np.ndarray and v.ndim == 1 and v.dtype is _VECTOR_DTYPES[dtype]):
        try:
            v = np.atleast_1d(data)
        except (TypeError, ValueError) as err:
            raise ShapeError(f"expected a numeric vector: {err}") from None
        if v.dtype.kind not in "biufc":
            raise ShapeError(f"expected a numeric vector, got {v.dtype} entries")
        if dtype is float and v.dtype.kind == "c" and v.imag.any():
            raise ShapeError("expected a real vector, got a nonzero imaginary part")
        v = (v.real if dtype is float else v).astype(dtype, copy=False)
    if v.ndim != 1 or size not in (None, v.shape[0]):
        raise ShapeError(f"expected a vector of length {size}, got shape {v.shape}")
    # a Python loop beats numpy's reductions on the few entries of a point
    if not all(map(cmath.isfinite, v.tolist())):
        raise ShapeError("NaN/Inf entries")
    return v


def as_batch(data, size: int, dtype=None) -> np.ndarray:
    """The batch twin of `as_vector`: coerce to a finite numeric array of
    points along the last axis, of shape (..., size), keeping a numeric
    dtype, or of `dtype` float; a scalar counts as one entry.  ShapeError
    otherwise: on non-numeric or ragged entries, a last axis of another
    length, or a nonzero imaginary part when dtype is float.  One point of
    float64 or complex128 entries is checked by `as_vector`, in its own dtype
    unless `dtype` is float."""
    if type(data) is np.ndarray and data.ndim == 1 and data.dtype in _POINT_TYPES:
        return as_vector(data, size, dtype or _POINT_TYPES[data.dtype])
    try:
        b = np.atleast_1d(data)
    except (TypeError, ValueError) as err:
        raise ShapeError(f"expected a numeric batch: {err}") from None
    if b.dtype.kind not in "biufc":
        raise ShapeError(f"expected a numeric batch, got {b.dtype} entries")
    if b.shape[-1:] != (size,):
        raise ShapeError(f"expected points of length {size}, got shape {b.shape}")
    if dtype is float:
        if b.dtype.kind == "c" and b.imag.any():
            raise ShapeError("expected real points, got a nonzero imaginary part")
        b = b.real.astype(float, copy=False)
    require_finite(b)
    return b


def require_finite(*values) -> None:
    """ShapeError unless every scalar or array in `values` is finite."""
    for v in values:
        if not np.isfinite(v).all():
            raise ShapeError("NaN/Inf entries")


def _is_int(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """True for a real number (`numbers.Real`: Python, numpy or fractional) that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def require_dim(n) -> None:
    """ShapeError unless the n of an element, its arrays being n×n or
    2n×2n, is an integer of at least 1 (`_is_int`); every element
    constructor, and every builder of an element from a bare n, checks it
    before it reads or makes an array."""
    if not (_is_int(n) and n >= 1):
        raise ShapeError(f"n must be an integer >= 1, got {n!r}")


def require_lambda(lam: float) -> None:
    """ShapeError unless the scale λ is a real number that is not a bool
    (`_is_real`, as `run_suite` asks), positive and finite."""
    if not (_is_real(lam) and 0 < lam < math.inf):
        raise ShapeError(f"lambda must be a positive and finite real, got {lam!r}")


def block2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The block matrix [[a, b], [c, d]] of 2-D blocks whose rows and columns
    line up: np.block's array, dtype included, written by slices into one
    preallocated array (a fifth of np.block's cost on small blocks)."""
    r, k = a.shape
    out = np.empty((r + c.shape[0], k + b.shape[1]), np.result_type(a, b, c, d))
    out[:r, :k] = a
    out[:r, k:] = b
    out[r:, :k] = c
    out[r:, k:] = d
    return out


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The complex identity of size n; read-only."""
    eye = np.eye(n, dtype=complex)
    eye.setflags(write=False)
    return eye


@functools.cache
def matrix_J(n: int) -> np.ndarray:
    """The standard symplectic form [[0, I], [-I, 0]] of size 2n; read-only."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    j = block2x2(zero, eye, -eye, zero).astype(complex)
    j.setflags(write=False)
    return j


@functools.cache
def matrix_U(n: int) -> np.ndarray:
    """The frame change [[I, iI], [I, -iI]] from (x, y) to (z, zbar); read-only."""
    eye = np.eye(n)
    u = block2x2(eye, 1j * eye, eye, -1j * eye)
    u.setflags(write=False)
    return u


def norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def quad_form(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^t m v for axis-major points v of shape (k, ...) and m of shape
    (k, k), as an array of shape (...): one (k, k) matmul over the stacked
    points, then a product and a sum over axis 0.  A batch w of shape
    (..., k) is ``quad_form(m, w.T).T``; one point (k,) takes two
    `ndarray.dot` products, the BLAS calls of ``v @ (m @ v)`` without
    matmul's ufunc dispatch, so v of m's dtype is cast by neither."""
    if v.ndim == 1:
        return v.dot(m.dot(v))
    flat = v.reshape(v.shape[0], -1)
    mv = m @ flat
    mv *= flat
    return mv.sum(axis=0).reshape(v.shape[1:])


def mat_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling and squaring via scipy), in complex arithmetic."""
    return scipy.linalg.expm(np.asarray(m, dtype=complex))


def mat_cosh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cosh(M), sinh(M)) from exp(±M); cos(M) = cosh(iM), sin(M) = -i sinh(iM)."""
    m = np.asarray(m, dtype=complex)
    ep = scipy.linalg.expm(m)
    em = scipy.linalg.expm(-m)
    return (ep + em) / 2, (ep - em) / 2


def cayley(g: np.ndarray) -> tuple[np.ndarray, complex]:
    """((g - I)(g + I)^{-1}, Det(g + I)) from `require_invertible` on g + I;
    CayleySingular when it refuses it."""
    eye = _identity(g.shape[0])
    inverse, d = require_invertible(g + eye, CayleySingular, 1 + norm(g))
    # g - I and g + I commute, so the right quotient is the left one
    return inverse @ (g - eye), d


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


def require_invertible(m: np.ndarray, error=SingularMatrix, scale: float = 0.0) -> tuple[np.ndarray, complex]:
    """The library's one singularity test: (m^{-1}, Det m) from one LU
    factorisation, the inverse solved against I, or `error` when
    ‖m^{-1}‖·max(‖m‖, scale) > 1e14, with both 1-norms exact.  A sum passes
    the size of its operands as `scale`, so that roundoff left by
    cancellation (I + k ≈ 1e-16·diag(i, -i)) is refused however well
    conditioned it is.  ShapeError on an empty matrix, which LAPACK refuses."""
    if not m.size:
        raise ShapeError("cannot invert an empty matrix")
    lu, piv, info = zgetrf(m)
    inverse = zgetrs(lu, piv, _identity(m.shape[0]))[0]
    inorm = zlange("1", inverse) if info == 0 else math.inf
    size = max(zlange("1", m), scale)
    # a NaN norm, from an inverse that overflowed, is refused too
    if not inorm * size <= 1e14:
        raise error(f"numerically singular: ‖m^-1‖ {inorm:.3g}, operand size {size:.3g}")
    swaps = sum(p != i for i, p in enumerate(piv.tolist()))
    return inverse, (-1) ** swaps * complex(lu.diagonal().prod())


def solve(m: np.ndarray, b: np.ndarray, error=SingularMatrix, scale: float = 0.0) -> np.ndarray:
    """Solve m x = b; raises `error` when `require_invertible` refuses m."""
    return require_invertible(m, error, scale)[0] @ b


def hermitian_lam_min(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part (m + m^H)/2 of m."""
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def hermitian_norm2(m: np.ndarray) -> float:
    """‖m‖₂ of a Hermitian m, the largest modulus of its eigenvalues: one
    Hermitian eigensolve in place of an SVD."""
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def require_posreal(m: np.ndarray, error=NotPositiveReal) -> float:
    """The library's one test that Re m is positive definite: λ_min of the
    Hermitian part of m, or `error` when it is ≤ 1e-12."""
    lam_min = hermitian_lam_min(m)
    if not lam_min > 1e-12:
        raise error(f"Hermitian part not positive definite: λ_min {lam_min:.3g}")
    return lam_min


def det_powhalf_posreal(n_mat: np.ndarray, error=NotPositiveReal) -> complex:
    """det(N)^{1/2} for complex symmetric N with Re(N) positive definite
    (`require_posreal`, raising `error`): every eigenvalue of N lies in its
    field of values, in the open right half-plane, so the product of their
    principal roots is branch-consistent and has positive real part."""
    require_posreal(n_mat, error)
    return math.prod(map(principal_sqrt, np.linalg.eigvals(n_mat).tolist()))


def _half_charpoly(b: np.ndarray) -> list:
    """[1, c_1, …, c_n], Σ c_k x^{n-k} = Π (x − x_k) over one x_k of each equal pair of eigenvalues of a
    2n×2n b (b = a², a Hamiltonian): Newton's identities c_k = -(1/k) Σ_{i≤k} c_{k-i} τ_i, τ_m = tr(bᵐ)/2."""
    taus = [np.trace(np.linalg.matrix_power(b, m)) / 2 for m in range(1, len(b) // 2 + 1)]
    coeffs = [1.0]
    for k in range(1, len(taus) + 1):
        coeffs.append(-sum(c * t for c, t in zip(coeffs[::-1], taus)) / k)
    return coeffs


def hamiltonian_cosh_det(a: np.ndarray) -> complex:
    """(Det cosh a)^{1/2} = Π cosh √x over the roots x of `_half_charpoly`(a²): cosh √x is entire in
    x and even in √x, so no pairing, branch or root is taken.  ShapeError unless aᵗJ + Ja ≈ 0."""
    if norm(a.T @ matrix_J(len(a) // 2) + matrix_J(len(a) // 2) @ a) > 1e-10 * (1 + norm(a)):
        raise ShapeError("a is not Hamiltonian: aᵗJ + Ja is not 0")
    return complex(math.prod(cmath.cosh(cmath.sqrt(x)) for x in np.roots(_half_charpoly(a @ a)).tolist()))
