"""Sp(n,R), the group S = Sp(n,C) ∩ SU(n,n), their Lie algebras, and the
Cayley-frame conjugation between the two pictures.

An element of S is stored as the block pair (P, Q) of

    k = [[P, Q], [Qbar, Pbar]],   P P* - Q Q* = I,   P Q^t = Q P^t,

and the conjugation k = U g U^{-1} with U = [[I, iI], [I, -iI]] identifies S
with Sp(n,R).  In block terms, for g = [[A, B], [C, D]],

    P = (A + D + i(C - B)) / 2,   Q = (A - D + i(C + B)) / 2.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import matcore
from .errors import NotInLie, NotInS, NotSymplectic
from .matcore import as_matrix, block2x2, matrix_J, matrix_U, norm

__all__ = [
    "SpReal",
    "SuBlocks",
    "SpLieReal",
    "SuLie",
    "ValidationReport",
    "su_from_sp",
    "sp_from_su",
    "su_lie_from_sp_lie",
    "validate_sp",
    "validate_su",
    "validate_sp_lie",
    "validate_su_lie",
    "random_sp_lie",
    "random_sp",
    "random_su",
    "sp_mul",
    "sp_inv",
    "su_mul",
    "su_inv",
    "su_exp",
    "rng_for",
]


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Deterministic per-purpose generator: same (seed, tag) -> same stream."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def _tol(x: float, base: float = 1e-10) -> float:
    return base * (1.0 + x)


@dataclass(frozen=True)
class ValidationReport:
    residuals: dict = field(default_factory=dict)
    tol: float = 1e-10

    @property
    def ok(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    @property
    def max_residual(self) -> float:
        """Largest residual, or NaN when any residual is NaN."""
        return float(np.max(list(self.residuals.values()), initial=0.0))


def _require(report: ValidationReport, error, what: str) -> None:
    if not report.ok:
        raise error(f"{what} (residual {report.max_residual:.3g})")


def _owned(v, dtype=complex) -> np.ndarray:
    """A read-only copy of `v` of `dtype` that owns its memory: how every
    element and Gaussian record stores an array, so that neither the caller's
    array nor a shared record can change under it."""
    v = np.array(v, dtype=dtype)
    v.setflags(write=False)
    return v


def _memo(elt, name: str, lam, build):
    """`build()`, the record of the immutable `elt` at `lam`, built once: the
    slot `name` of elt's __dict__ keeps (lam, record) and a call at another
    lam (by repr, so 1 and 1.0 differ) builds again and replaces it.  A build
    that raises stores nothing, so it raises again on the next call."""
    slot = elt.__dict__.get(name)
    if slot is not None and (slot[0] is lam or repr(slot[0]) == repr(lam)):
        return slot[1]
    record = build()
    elt.__dict__[name] = (lam, record)
    return record


def _trusted(cls, *values):
    """The one unchecked construction: the frozen dataclass `cls` from field
    values computed from checked ones.  Array fields become `_owned` arrays of
    the constructor's dtype (float for SpLieReal, complex otherwise), `complex`
    fields become complex, and the others are kept as given."""
    dtype = float if cls is SpLieReal else complex
    out = object.__new__(cls)
    for f, v in zip(fields(cls), values):
        if f.type == "np.ndarray":
            v = _owned(v, dtype)
        elif f.type == "complex":
            v = complex(v)
        object.__setattr__(out, f.name, v)
    return out


@dataclass(frozen=True)
class SpReal:
    """g in Sp(n,R), stored as the full real 2n x 2n matrix; NotSymplectic
    unless g is real and g^t J g = J."""

    n: int
    g: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "g", _owned(as_matrix(self.g, 2 * self.n, 2 * self.n)))
        _require(validate_sp(self), NotSymplectic, "g is not real symplectic")

    @property
    def blocks(self):
        n = self.n
        g = self.g
        return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]

    @staticmethod
    def identity(n: int) -> "SpReal":
        matcore.require_dim(n)
        return _trusted(SpReal, n, np.eye(2 * n))


@dataclass(frozen=True)
class SuBlocks:
    """k = [[P, Q], [Qbar, Pbar]] in S, stored via its blocks; NotInS unless
    the blocks satisfy the S invariants."""

    n: int
    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "P", _owned(as_matrix(self.P, self.n, self.n)))
        object.__setattr__(self, "Q", _owned(as_matrix(self.Q, self.n, self.n)))
        _require(validate_su(self), NotInS, "(P, Q) is not in S")

    @property
    def full(self) -> np.ndarray:
        """The 2n×2n matrix k, built from P and Q on first access; read-only."""
        p, q = self.P, self.Q
        return _memo(self, "_full", None, lambda: _owned(block2x2(p, q, q.conj(), p.conj())))

    @staticmethod
    def identity(n: int) -> "SuBlocks":
        matcore.require_dim(n)
        return _trusted(SuBlocks, n, np.eye(n), np.zeros((n, n)))

    def act(self, z: np.ndarray) -> np.ndarray:
        """kz := Pz + Q zbar (the action of S on C^n)."""
        z = np.asarray(z, dtype=complex)
        return self.P @ z + self.Q @ z.conj()


@dataclass(frozen=True)
class SpLieReal:
    """X = [[A, B], [C, -A^t]] in sp(n,R); NotInLie unless B, C are symmetric."""

    n: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "A", _owned(as_matrix(self.A, self.n, self.n, dtype=float), float))
        object.__setattr__(self, "B", _owned(as_matrix(self.B, self.n, self.n, dtype=float), float))
        object.__setattr__(self, "C", _owned(as_matrix(self.C, self.n, self.n, dtype=float), float))
        _require(validate_sp_lie(self), NotInLie, "X is not in the Lie algebra")

    @property
    def full(self) -> np.ndarray:
        return block2x2(self.A, self.B, self.C, -self.A.T).astype(float)


@dataclass(frozen=True)
class SuLie:
    """X = [[A, B], [Bbar, Abar]] in the Lie algebra of S; NotInLie unless A
    is skew-Hermitian and B symmetric."""

    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        matcore.require_dim(self.n)
        object.__setattr__(self, "A", _owned(as_matrix(self.A, self.n, self.n)))
        object.__setattr__(self, "B", _owned(as_matrix(self.B, self.n, self.n)))
        _require(validate_su_lie(self), NotInLie, "X is not in the Lie algebra")

    @property
    def full(self) -> np.ndarray:
        return block2x2(self.A, self.B, self.B.conj(), self.A.conj())


# ---------------------------------------------------------------------------
# conjugation between the two pictures


def su_from_sp(g: SpReal) -> SuBlocks:
    """k = U g U^{-1}."""
    a, b, c, d = g.blocks
    p = (a + d + 1j * (c - b)) / 2
    q = (a - d + 1j * (c + b)) / 2
    return _trusted(SuBlocks, g.n, p, q)


def sp_from_su(k: SuBlocks) -> SpReal:
    """Inverse conjugation g = U^{-1} k U, real because k has the block form
    [[P, Q], [Qbar, Pbar]]."""
    u = matrix_U(k.n)
    g = u.conj().T @ k.full @ u / 2  # U^{-1} = U*/2
    return _trusted(SpReal, k.n, g.real)


def su_lie_from_sp_lie(x: SpLieReal) -> SuLie:
    """U X U^{-1} for X in sp(n,R); lands in the Lie algebra of S."""
    a, b, c = x.A, x.B, x.C
    return _trusted(SuLie, x.n, (a - a.T + 1j * (c - b)) / 2, (a + a.T + 1j * (b + c)) / 2)


# ---------------------------------------------------------------------------
# validation


def validate_sp(g: SpReal) -> ValidationReport:
    j = matrix_J(g.n).real
    scale = norm(g.g)
    res = {
        "symplectic": norm(g.g.T @ j @ g.g - j),
        "real": norm(g.g.imag),
    }
    # the roundoff in the products grows like ε‖g‖², and the tolerance with it
    return ValidationReport(res, _tol(scale) * (1 + scale))


def validate_su(k: SuBlocks) -> ValidationReport:
    p, q = k.P, k.Q
    eye = np.eye(k.n)
    scale = norm(p) + norm(q)
    res = {
        "PPs-QQs=I": norm(p @ p.conj().T - q @ q.conj().T - eye),
        "PQt=QPt": norm(p @ q.T - q @ p.T),
        "PsP-QtQbar=I": norm(p.conj().T @ p - q.T @ q.conj() - eye),
        "PsQ=QtPbar": norm(p.conj().T @ q - q.T @ p.conj()),
    }
    # as in validate_sp, quadratic in the size of k
    return ValidationReport(res, _tol(scale) * (1 + scale))


def validate_sp_lie(x: SpLieReal) -> ValidationReport:
    j = matrix_J(x.n).real
    full = x.full
    res = {
        "B symmetric": norm(x.B - x.B.T),
        "C symmetric": norm(x.C - x.C.T),
        "XtJ+JX=0": norm(full.T @ j + j @ full),
    }
    return ValidationReport(res, _tol(norm(full)))


def validate_su_lie(x: SuLie) -> ValidationReport:
    res = {
        "A skew-Hermitian": norm(x.A + x.A.conj().T),
        "B symmetric": norm(x.B - x.B.T),
    }
    return ValidationReport(res, _tol(norm(x.full)))


# ---------------------------------------------------------------------------
# random elements (single exponentials of algebra draws; deterministic in seed)


def random_sp_lie(n: int, seed: int, scale: float = 0.5) -> SpLieReal:
    matcore.require_dim(n)
    rng = rng_for(seed, "sp-lie")
    a = rng.uniform(-scale, scale, (n, n))
    b = rng.uniform(-scale, scale, (n, n))
    c = rng.uniform(-scale, scale, (n, n))
    return _trusted(SpLieReal, n, a, (b + b.T) / 2, (c + c.T) / 2)


def random_sp(n: int, seed: int, scale: float = 0.5) -> SpReal:
    x = random_sp_lie(n, seed, scale)
    return _trusted(SpReal, n, matcore.mat_exp(x.full).real)


def random_su(n: int, seed: int, scale: float = 0.5) -> SuBlocks:
    return su_from_sp(random_sp(n, seed, scale))


def su_exp(x: SuLie) -> SuBlocks:
    """Exponential of a Lie-algebra element of S, returned as blocks."""
    n = x.n
    full = matcore.mat_exp(x.full)
    return _trusted(SuBlocks, n, full[:n, :n], full[:n, n:])


# ---------------------------------------------------------------------------
# group operations


def sp_mul(g1: SpReal, g2: SpReal) -> SpReal:
    return _trusted(SpReal, g1.n, g1.g @ g2.g)


def sp_inv(g: SpReal) -> SpReal:
    # g^{-1} = J^t g^t J for symplectic g
    j = matrix_J(g.n).real
    return _trusted(SpReal, g.n, j.T @ g.g.T @ j)


def su_mul(k1: SuBlocks, k2: SuBlocks) -> SuBlocks:
    p = k1.P @ k2.P + k1.Q @ k2.Q.conj()
    q = k1.P @ k2.Q + k1.Q @ k2.P.conj()
    return _trusted(SuBlocks, k1.n, p, q)


def su_inv(k: SuBlocks) -> SuBlocks:
    """Closed block form k^{-1} = [[P*, -Q^t], [-Q*, P^t]]."""
    return _trusted(SuBlocks, k.n, k.P.conj().T, -k.Q.T)
