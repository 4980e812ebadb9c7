"""Sparse multivariate polynomials with complex coefficients.

Terms are stored as a map from exponent multi-indices (tuples of ints) to
coefficients; zero coefficients are dropped.  Used both for the phase-space
Moyal algebra and for exact differentiation on Fock space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Poly"]

_DROP = 1e-300


@dataclass(frozen=True)
class Poly:
    """Polynomial in `nvars` variables: {exponent tuple: coefficient}."""

    nvars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {
            tuple(int(e) for e in k): complex(v)
            for k, v in self.terms.items()
            if abs(v) > _DROP
        }
        for k in clean:
            if len(k) != self.nvars or any(e < 0 for e in k):
                raise ValueError(f"bad exponent {k} for {self.nvars} variables")
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Poly":
        """Result of a ring operation on valid operands: the keys are already
        exponent tuples of length `nvars` and the values complex, so only
        the zero dropping of `__post_init__` is repeated."""
        out = object.__new__(cls)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "terms", {k: v for k, v in terms.items() if abs(v) > _DROP})
        return out

    def _check_same(self, other: "Poly") -> None:
        if other.nvars != self.nvars:
            raise ValueError(f"operands have {self.nvars} and {other.nvars} variables")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, c: complex) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): 1.0})

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Poly.const(self.nvars, other)
        self._check_same(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return Poly._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Poly._trusted(self.nvars, {k: v * other for k, v in self.terms.items()})
        self._check_same(other)
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0.0) + v1 * v2
        return Poly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ---------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        out = {}
        for k, v in self.terms.items():
            if k[i] > 0:
                e = list(k)
                e[i] -= 1
                out[tuple(e)] = out.get(tuple(e), 0.0) + v * k[i]
        return Poly._trusted(self.nvars, out)

    def eval(self, point) -> complex:
        point = np.asarray(point, dtype=complex)
        total = 0.0 + 0.0j
        for k, v in self.terms.items():
            total += v * np.prod([point[i] ** e for i, e in enumerate(k) if e], initial=1.0)
        return complex(total)

    @property
    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def max_coeff_diff(self, other: "Poly") -> float:
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys),
            default=0.0,
        )
