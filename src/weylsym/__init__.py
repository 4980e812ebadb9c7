"""Berezin and Weyl symbols of metaplectic representation operators.

Numerical toolkit for the holomorphic (Fock-space) model of the Heisenberg
and metaplectic representations: generalised Gaussian integrals, metaplectic
kernels and their Jacobi-group derivation, complex and classical Weyl
symbols with their Cayley-transform closed forms, the Berezin transform as a
heat semigroup, and an exact Moyal star product on phase-space polynomials.
"""

from .errors import (
    AmbiguousPhase,
    BadConfig,
    CayleySingular,
    DivergentIntegral,
    HeatFlowSingular,
    NoDecomposition,
    NonConvergent,
    NotInLie,
    NotInS,
    NotPositiveReal,
    NotSymplectic,
    NotUnimodular,
    ShapeError,
    SingularMatrix,
    UnknownSuite,
    WeylsymError,
)
from .gaussint import (
    GaussianIntegrand,
    GaussianKernel,
    compose_kernels,
    gaussian_integral_closed,
    gaussian_law,
)
from .metaplectic import (
    berezin_sigma_symbol,
    berezin_symbol_dsigma,
    dsigma_kernel,
    sigma_cocycle_sign,
    sigma_kernel,
)
from .moyal import (
    moyal_mul,
    poisson_power,
    star_exp_quadratic_closed,
    star_exp_series,
    star_exp_symbol,
    weyl_quantize_poly,
)
from .polys import Poly
from .suites import SuiteReport, run_suite
from .sympgroup import (
    SpLieReal,
    SpReal,
    SuBlocks,
    SuLie,
    su_from_sp,
    sp_from_su,
)
from .weylsymbols import (
    GaussianSymbol,
    QuadForm2n,
    berezin_transform_gaussian,
    heat_flow_gaussian,
    w0_integral,
    w0_sigma_closed,
    w1_exp_symbol,
    w1_sigma_closed,
)

__version__ = "0.1.0"
