"""Arrays are checked once, where they enter the library: public
constructors refuse bad input, closed forms refuse a non-finite result, and
nothing re-checks the arrays the library built itself."""

import numpy as np
import pytest

from weylsym.errors import ShapeError, WeylsymError
from weylsym.gaussint import GaussianIntegrand, GaussianKernel, compose_kernels
from weylsym.jacobi import CharParams, JacobiGroupEltC, JacobiPoint, bk_via_jacobi
from weylsym.metaplectic import berezin_sigma_symbol, berezin_symbol_sigma, sigma_cocycle_scalar, sigma_kernel
from weylsym.sympgroup import SpLieReal, SpReal, SuBlocks, SuLie, random_sp, random_sp_lie, random_su, su_from_sp
from weylsym.weylsymbols import (
    GaussianSymbol,
    QuadForm2n,
    w0_sigma_closed,
    w1_exp_closed,
    w1_exp_symbol,
    w1_sigma_closed,
)


def test_closed_forms_check_no_array_they_built(as_matrix_calls):
    g, k2, x = random_sp(2, 5), random_su(2, 6), random_sp_lie(2, 7)
    k = su_from_sp(g)
    k1, kk2 = sigma_kernel(k, 1.0), sigma_kernel(k2, 1.0)
    for call in (
        lambda: w0_sigma_closed(k, [0.1 + 0.2j, -0.3j], 1.0),
        lambda: w1_sigma_closed(g, [0.1, 0.2], [0.3, -0.1]),
        lambda: w1_exp_symbol(x),
        lambda: sigma_kernel(k, 1.0),
        lambda: compose_kernels(k1, kk2),
        lambda: berezin_sigma_symbol(k, 1.0),
        lambda: sigma_cocycle_scalar(k, k2, 1.0),
    ):
        as_matrix_calls.clear()
        call()
        assert as_matrix_calls == []
    # the two domain points bk_via_jacobi makes from its own y and v
    as_matrix_calls.clear()
    bk_via_jacobi(k, [0.1, 0.2j], [-0.3, 0.1], CharParams(1.0, -0.5))
    assert len(as_matrix_calls) <= 2


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_non_finite_lambda_is_refused(lam):
    g, x = random_sp(2, 5), random_sp_lie(2, 7)
    k = su_from_sp(g)
    for call in (
        lambda: w0_sigma_closed(k, [0.1 + 0.2j, -0.3j], lam),
        lambda: w1_sigma_closed(g, [0.1, 0.2], [0.3, -0.1], lam),
        lambda: w1_exp_closed(x, [0.1, 0.2], [0.3, -0.1], lam),
        lambda: berezin_symbol_sigma(k, [0.1 + 0.2j, -0.3j], lam),
        lambda: sigma_kernel(k, lam),
    ):
        with np.errstate(invalid="ignore"), pytest.raises(WeylsymError):
            call()


_Z, _I = np.zeros((1, 1)), np.eye(1)
# (constructor, valid arguments, position of the matrix argument to spoil)
CONSTRUCTORS = [
    (GaussianSymbol, (1, 1.0, np.eye(2)), 2),
    (GaussianKernel, (1, 1.0, 1.0, _Z, _I, _Z), 3),
    (GaussianIntegrand, (1, _I, _Z, _I, np.zeros(1), np.zeros(1)), 1),
    (QuadForm2n, (1, np.eye(2)), 1),
    (JacobiPoint, (1, np.zeros(1), 0.5 * _I), 2),
    (JacobiGroupEltC, (1, np.zeros(1), np.zeros(1), 0.0, _I, _Z, _Z, _I), 4),
    (SpReal, (1, np.eye(2)), 1),
    (SuBlocks, (1, _I, _Z), 1),
    (SpLieReal, (1, _Z, _Z, _Z), 1),
    (SuLie, (1, _Z, _Z), 1),
]


@pytest.mark.parametrize("cls, args, pos", CONSTRUCTORS, ids=[c[0].__name__ for c in CONSTRUCTORS])
def test_constructors_refuse_nan_and_wrong_shape(cls, args, pos):
    cls(*args)
    m = np.asarray(args[pos], dtype=float)
    nan = m.copy()
    nan[0, 0] = np.nan
    wide = np.zeros((m.shape[0], m.shape[1] + 1))
    for bad in (nan, wide):
        with pytest.raises(ShapeError):
            cls(*args[:pos], bad, *args[pos + 1 :])


def test_non_finite_points_are_refused():
    k, g = random_su(1, 1), random_sp(1, 1)
    sym = GaussianSymbol(1, 1.0, -np.eye(2))
    for call in (
        lambda: w0_sigma_closed(k, [np.nan], 1.0),
        lambda: w0_sigma_closed(k, [complex(0.1, np.inf)], 1.0),
        lambda: w1_sigma_closed(g, [np.nan], [0.0]),
        lambda: w1_exp_closed(random_sp_lie(1, 2), [0.0], [np.inf]),
        lambda: sym.eval([[0.1, 0.2], [np.nan, 0.0]]),
        lambda: sym.eval_z([0.1j, np.nan]),
    ):
        with pytest.raises(ShapeError):
            call()


# (constructor, valid arguments, position of the vector argument to spoil)
VECTOR_ARGS = [
    (GaussianIntegrand, (1, 0.5 * _I, _Z, 0.5 * _I, np.zeros(1), np.zeros(1)), 4),
    (GaussianIntegrand, (1, 0.5 * _I, _Z, 0.5 * _I, np.zeros(1), np.zeros(1)), 5),
    (JacobiPoint, (1, np.zeros(1), 0.5 * _I), 1),
]


@pytest.mark.parametrize("cls, args, pos", VECTOR_ARGS, ids=[f"{c[0].__name__}-{c[2]}" for c in VECTOR_ARGS])
def test_constructors_refuse_bad_vectors(cls, args, pos):
    cls(*args)
    for bad in ([np.nan], [np.inf], [1.0, 2.0], np.zeros((2, 1))):
        with pytest.raises(ShapeError):
            cls(*args[:pos], bad, *args[pos + 1 :])
