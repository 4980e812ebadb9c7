"""Sparse multivariate polynomials with complex coefficients.

Terms are stored as a map from exponent multi-indices (tuples of ints) to
coefficients; zero coefficients are dropped.  Used for the phase-space
Moyal algebra, for the Weyl-quantized operators on it (see `moyal`) and for
exact differentiation on Fock space.  Every entry refuses bad input with
ShapeError: an exponent that is not a tuple of `nvars` nonnegative
integers, a non-finite or non-numeric coefficient, an operand on another
number of variables, a non-finite scalar, a bad point or variable index.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .matcore import _is_int, as_vector

__all__ = ["Poly"]

_DROP = 1e-300
_SCALARS = (int, float, complex, np.number)


def _index(i, nvars: int) -> int:
    """i as a variable index in [0, nvars); ShapeError otherwise."""
    if not (_is_int(i) and 0 <= i < nvars):
        raise ShapeError(f"variable index {i!r} is not in [0, {nvars})")
    return i


@dataclass(frozen=True)
class Poly:
    """Polynomial in `nvars` variables: {exponent tuple: coefficient}."""

    nvars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (_is_int(self.nvars) and self.nvars >= 0):
            raise ShapeError(f"nvars must be a nonnegative integer, got {self.nvars!r}")
        object.__setattr__(self, "nvars", int(self.nvars))
        clean = {}
        try:
            for k, v in self.terms.items():
                if not (isinstance(k, tuple) and len(k) == self.nvars and all(_is_int(e) and e >= 0 for e in k)):
                    raise ShapeError(f"bad exponent {k!r} for {self.nvars} variables")
                if not isinstance(v, _SCALARS) or not cmath.isfinite(v):
                    raise ShapeError(f"coefficient {v!r} of {k} is not a finite number")
                if abs(v) > _DROP:
                    clean[tuple(map(int, k))] = complex(v)
        except OverflowError:  # a Python int coefficient past the float range
            raise ShapeError(f"coefficient of {k} is not a finite number") from None
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

    def _check_same(self, other) -> "Poly":
        """`other` as a Poly on the same variables: a finite scalar becomes a
        constant; anything else is refused."""
        if isinstance(other, _SCALARS):
            return Poly.const(self.nvars, other)
        if not isinstance(other, Poly) or other.nvars != self.nvars:
            raise ShapeError(f"operand {other!r} is not a polynomial in {self.nvars} variables")
        return other

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
        e[_index(i, nvars)] = 1
        return Poly(nvars, {tuple(e): 1.0})

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        other = self._check_same(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return Poly._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check_same(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            try:
                finite = cmath.isfinite(other)
            except OverflowError:  # a Python int past the float range
                finite = False
            if not finite:
                raise ShapeError(f"scalar operand {other!r} is not finite")
            return Poly._trusted(self.nvars, {k: v * other for k, v in self.terms.items()})
        other = self._check_same(other)
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
        i = _index(i, self.nvars)
        out = {}
        for k, v in self.terms.items():
            if k[i] > 0:
                e = list(k)
                e[i] -= 1
                out[tuple(e)] = out.get(tuple(e), 0.0) + v * k[i]
        return Poly._trusted(self.nvars, out)

    def eval(self, point) -> complex:
        point = as_vector(point, self.nvars)
        total = 0.0 + 0.0j
        for k, v in self.terms.items():
            total += v * np.prod([point[i] ** e for i, e in enumerate(k) if e], initial=1.0)
        return complex(total)

    @property
    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def max_coeff_diff(self, other: "Poly") -> float:
        other = self._check_same(other)
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys),
            default=0.0,
        )
