"""Exception hierarchy shared by all modules."""


class WeylsymError(Exception):
    """Base class for all library errors."""


class ShapeError(WeylsymError):
    """Matrix/vector dimensions do not match the operation's contract."""


class SingularMatrix(WeylsymError):
    """A matrix that must be invertible is singular (or numerically so)."""


class CayleySingular(WeylsymError):
    """det(g + I) vanishes, so the Cayley transform is undefined."""


class NotPositiveReal(WeylsymError):
    """Hermitian part of the matrix is not positive definite."""


class NotSymplectic(WeylsymError):
    """Matrix fails the real symplectic condition g^t J g = J."""


class NotInS(WeylsymError):
    """Block pair (P, Q) fails the Sp(n,C) ∩ SU(n,n) invariants."""


class NotInLie(WeylsymError):
    """Matrix data fails the Lie-algebra structure conditions."""


class DivergentIntegral(WeylsymError):
    """Gaussian integral hypothesis Re(N) > 0 fails; the integral diverges."""


class NoDecomposition(WeylsymError):
    """Group element admits no P+ Kc P- decomposition (det D = 0)."""


class HeatFlowSingular(WeylsymError):
    """I - 4tS is singular; the Gaussian heat flow blows up at this time."""


class NotUnimodular(WeylsymError):
    """Scalar relating two kernels is not of modulus one."""


class AmbiguousPhase(WeylsymError):
    """A sign the library cannot vouch for: the case analysis at det(I+k) < 0
    with real det P."""


class GaussianOverflow(WeylsymError):
    """A Gaussian value γ exp(E) past the float range: E not finite, Re E
    above log of the largest float, or the product not finite."""


class NonConvergent(WeylsymError):
    """Truncated series failed its convergence certificate."""


class UnknownSuite(WeylsymError):
    """Verification suite name not recognised."""


class BadConfig(WeylsymError):
    """Invalid suite/CLI configuration."""
