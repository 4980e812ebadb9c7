"""Arrays and vectors are checked once, where they enter the library:
public constructors and point-taking functions refuse bad input, closed
forms refuse a non-finite result, and nothing re-checks the arrays the
library built itself."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from weylsym import suites
from weylsym.cli import main
from weylsym.errors import BadConfig, ShapeError, WeylsymError
from weylsym.gaussint import GaussianIntegrand, GaussianKernel, compose_kernels
from weylsym.heisenberg import (
    HeisElt,
    bargmann_apply,
    berezin_double_symbol,
    coherent_eval,
    omega0_apply,
    omega1_apply,
    rho_fock_apply,
    rho_schrod_apply,
)
from weylsym.jacobi import CharParams, JacobiGroupElt, JacobiGroupEltC, JacobiPoint, bk_via_jacobi
from weylsym.metaplectic import (
    DsigmaKernel,
    berezin_sigma_symbol,
    berezin_symbol_dsigma,
    dsigma_kernel,
    sigma_adjoint_check,
    sigma_cocycle_scalar,
    sigma_kernel,
    verify_intertwining,
)
from weylsym.moyal import star_exp_bridge_residual, star_exp_quadratic_closed, star_exp_series, star_exp_symbol
from weylsym.polys import Poly
from weylsym.quadrature import lebesgue_cn, lebesgue_rn, quadrature_cn
from weylsym.suites import run_suite
from weylsym.sympgroup import (
    SpLieReal,
    SpReal,
    SuBlocks,
    SuLie,
    random_sp,
    random_sp_lie,
    random_su,
    su_from_sp,
    su_lie_from_sp_lie,
)
from weylsym.weylsymbols import (
    GaussianSymbol,
    QuadForm2n,
    berezin_transform_gaussian,
    berezin_transform_quadrature,
    classical_weyl_kernel,
    heat_flow_gaussian,
    polar_relation_residual,
    w0_dsigma_closed,
    w0_integral,
    w0_sigma_closed,
    w0_sigma_symbol,
    w1_dsigma_closed,
    w1_exp_symbol,
    w1_of_classical_weyl,
    w1_sigma_closed,
    w1_sigma_symbol,
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
        lambda: w1_exp_symbol(x, lam).eval([0.1, 0.2, 0.3, -0.1]),
        lambda: berezin_sigma_symbol(k, lam).eval_z([0.1 + 0.2j, -0.3j]),
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
    (DsigmaKernel, (1, 1.0, _Z, _Z), 2),
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


def _n_refusals():
    """Each constructor above, HeisElt and JacobiGroupElt, and each builder
    of an element from a bare n, at an n below 1 (its arrays emptied) or not
    an integer."""
    ctors = CONSTRUCTORS + [(HeisElt, (1, np.zeros(1), 0.0), 1),
                            (JacobiGroupElt, (1, np.zeros(1), 0.0, SuBlocks.identity(1)), 1)]
    for cls, args, _ in ctors:
        empty = [np.zeros((0,) * a.ndim) if isinstance(a, np.ndarray) else a for a in args[1:]]
        for n, rest in ((0, empty), (-1, empty), (1.5, args[1:]), (True, args[1:])):
            yield functools.partial(cls, n, *rest)
    for n in (0, -1):
        yield from (functools.partial(build, n, *rest) for build, *rest in (
            (SpReal.identity,), (SuBlocks.identity,), (random_sp, 1), (random_su, 1), (random_sp_lie, 1),
            (GaussianKernel.identity, 1.0), (GaussianSymbol.from_zz, 1.0, np.zeros((0, 0))), (JacobiPoint.origin,),
            (HeisElt.identity,), (JacobiGroupElt.identity,), (JacobiGroupEltC.identity,)))


def test_elements_refuse_an_n_below_1_before_lapack(capfd):
    calls = list(_n_refusals())
    assert len(calls) == 4 * (len(CONSTRUCTORS) + 2) + 2 * 11
    for call in calls:
        with pytest.raises(ShapeError, match="n must be an integer >= 1"):
            call()
    # LAPACK would write its complaint to fd 2
    assert capfd.readouterr() == ("", "")


# every entry that refuses λ outside (0, ∞) with `matcore.require_lambda`, at
# otherwise valid arguments; the symbol constructors check it inside their
# memoised build
LAMBDA_ENTRIES = [
    lambda lam: DsigmaKernel(1, lam, _Z, _Z),
    lambda lam: GaussianKernel(1, lam, 1.0, _Z, _I, _Z),
    lambda lam: CharParams(lam, -0.5),
    lambda lam: quadrature_cn(lambda w: np.ones(w.shape[0]), lam, 1, nodes_per_axis=4),
    lambda lam: w0_integral(sigma_kernel(random_su(1, 1), 1.0), [0.1], lam, nodes=4),
    lambda lam: berezin_transform_gaussian(GaussianSymbol(1, 1.0, -np.eye(2)), lam),
    lambda lam: polar_relation_residual(random_su(1, 1), lam),
    lambda lam: rho_fock_apply(HeisElt(1, [0.1], 0.2), np.exp, [0.3], lam),
    lambda lam: rho_schrod_apply(HeisElt(1, [0.1], 0.2), np.exp, [0.3], lam),
    lambda lam: coherent_eval([0.1], [0.2], lam),
    lambda lam: w0_dsigma_closed(su_lie_from_sp_lie(random_sp_lie(1, 2)), [0.1], lam),
    lambda lam: w0_sigma_symbol(random_su(1, 1), lam),
    lambda lam: w1_sigma_symbol(random_sp(1, 1), lam),
    lambda lam: w1_exp_symbol(random_sp_lie(1, 2), lam),
]


def test_dsigma_kernel_takes_lists_and_refuses_a_bad_lambda():
    # a NaN or wrongly shaped A is refused in test_constructors_refuse_nan_and_wrong_shape
    a, b = np.array([[0.1j]]), np.array([[0.2 + 0.1j]])
    kernel = DsigmaKernel(1, 1.0, a, b)
    assert DsigmaKernel(1, 1.0, a.tolist(), b.tolist()).eval([0.1], [0.2]) == kernel.eval([0.1], [0.2])
    for call in LAMBDA_ENTRIES:
        call(1.0)
        for lam in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ShapeError):
                call(lam)


def test_real_matrices_refuse_an_imaginary_part():
    spoilt = np.array([[1 + 1j, 0], [0, 1]])
    for call in (
        lambda: QuadForm2n(1, spoilt),
        lambda: QuadForm2n(1, spoilt.tolist()),
        lambda: SpLieReal(1, [[1j]], _Z, _Z),
        lambda: SpLieReal(1, _Z, [[0.5j]], _Z),
    ):
        with pytest.raises(ShapeError):
            call()
    assert QuadForm2n(1, np.eye(2) + 0j).M.dtype == SpLieReal(1, _I + 0j, _Z, _Z).A.dtype == float


def test_non_finite_points_are_refused():
    k, g = random_su(1, 1), random_sp(1, 1)
    sym = GaussianSymbol(1, 1.0, -np.eye(2))
    for call in (
        lambda: w0_sigma_closed(k, [np.nan], 1.0),
        lambda: w0_sigma_closed(k, [complex(0.1, np.inf)], 1.0),
        lambda: w1_sigma_closed(g, [np.nan], [0.0]),
        lambda: w1_exp_symbol(random_sp_lie(1, 2)).eval([0.0, np.inf]),
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
    (HeisElt, (1, np.zeros(1), 0.0), 1),
    (JacobiGroupElt, (1, np.zeros(1), 0.0, SuBlocks.identity(1)), 1),
    (JacobiGroupEltC, (1, np.zeros(1), np.zeros(1), 0.0, _I, _Z, _Z, _I), 1),
    (JacobiGroupEltC, (1, np.zeros(1), np.zeros(1), 0.0, _I, _Z, _Z, _I), 2),
]


@pytest.mark.parametrize("cls, args, pos", VECTOR_ARGS, ids=[f"{c[0].__name__}-{c[2]}" for c in VECTOR_ARGS])
def test_constructors_refuse_bad_vectors(cls, args, pos):
    cls(*args)
    for bad in ([np.nan], [np.inf], [1.0, 2.0], np.zeros((2, 1))):
        with pytest.raises(ShapeError):
            cls(*args[:pos], bad, *args[pos + 1 :])


# (constructor, valid arguments, position of the scalar c)
SCALAR_C = [
    (HeisElt, (1, np.zeros(1), 0.0), 2),
    (JacobiGroupElt, (1, np.zeros(1), 0.0, SuBlocks.identity(1)), 2),
    (JacobiGroupEltC, (1, np.zeros(1), np.zeros(1), 0.0, _I, _Z, _Z, _I), 3),
]


@pytest.mark.parametrize("cls, args, pos", SCALAR_C, ids=[c[0].__name__ for c in SCALAR_C])
def test_constructors_refuse_non_finite_c(cls, args, pos):
    for bad in (np.nan, np.inf):
        with pytest.raises(ShapeError):
            cls(*args[:pos], bad, *args[pos + 1 :])


_k, _g = random_su(2, 3), random_sp(2, 4)
_xl = random_sp_lie(2, 5)
_xs = su_lie_from_sp_lie(_xl)
_q = QuadForm2n(2, 0.05 * np.eye(4))
_z = np.array([0.1 + 0.2j, -0.3j])
_x, _y = np.array([0.1, 0.2]), np.array([0.3, -0.1])
_h = HeisElt(2, _z, 0.3)
_f = lambda u: np.sum(u)  # noqa: E731
# every function of a point at n = 2: kind "z" takes a point of C^n, "x" one
# of R^n, "v" one of R^{2n} and "xy" one as a pair (x, y) of R^n
POINTS = [
    ("w0_sigma_closed", "z", lambda z: w0_sigma_closed(_k, z, 1.0)),
    ("w0_dsigma_closed", "z", lambda z: w0_dsigma_closed(_xs, z, 1.0)),
    ("berezin_sigma_symbol.eval_z", "z", lambda z: berezin_sigma_symbol(_k, 1.0).eval_z(z)),
    ("berezin_symbol_dsigma", "z", lambda z: berezin_symbol_dsigma(_xs, z, 1.0)),
    ("DsigmaKernel.eval-z", "z", lambda z: dsigma_kernel(_xs, 1.0).eval(z, _z)),
    ("DsigmaKernel.eval-w", "z", lambda w: dsigma_kernel(_xs, 1.0).eval(_z, w)),
    ("verify_intertwining-z0", "z", lambda z0: verify_intertwining(_k, z0, _z, _z, 1.0)),
    ("verify_intertwining-z", "z", lambda z: verify_intertwining(_k, _z, z, _z, 1.0)),
    ("verify_intertwining-w", "z", lambda w: verify_intertwining(_k, _z, _z, w, 1.0)),
    ("sigma_adjoint_check-z", "z", lambda z: sigma_adjoint_check(_k, z, _z, 1.0)),
    ("sigma_adjoint_check-w", "z", lambda w: sigma_adjoint_check(_k, _z, w, 1.0)),
    ("bk_via_jacobi-y", "z", lambda y: bk_via_jacobi(_k, y, _z, CharParams(1.0, -0.5))),
    ("bk_via_jacobi-v", "z", lambda v: bk_via_jacobi(_k, _z, v, CharParams(1.0, -0.5))),
    ("w0_integral", "z", lambda z: w0_integral(sigma_kernel(_k, 1.0), z, 1.0, nodes=12)),
    (
        "berezin_transform_quadrature",
        "z",
        lambda z: berezin_transform_quadrature(GaussianSymbol(2, 1.0, -np.eye(4)), z, 1.0, nodes=12),
    ),
    ("rho_fock_apply", "z", lambda z: rho_fock_apply(_h, _f, z, 1.0)),
    ("rho_schrod_apply", "x", lambda x: rho_schrod_apply(_h, _f, x, 1.0)),
    ("coherent_eval", "z", lambda z: coherent_eval(z, _z, 1.0)),
    ("omega0_apply-z", "z", lambda z: omega0_apply(z, _f, _z, 1.0)),
    ("omega0_apply-w", "z", lambda w: omega0_apply(_z, _f, w, 1.0)),
    ("omega1_apply-a", "x", lambda a: omega1_apply(a, _y, _f, _x, 1.0)),
    ("omega1_apply-b", "x", lambda b: omega1_apply(_x, b, _f, _x, 1.0)),
    ("omega1_apply-x", "x", lambda x: omega1_apply(_x, _y, _f, x, 1.0)),
    ("berezin_double_symbol-z", "z", lambda z: berezin_double_symbol(sigma_kernel(_k, 1.0), z, _z, 1.0)),
    ("berezin_double_symbol-w", "z", lambda w: berezin_double_symbol(sigma_kernel(_k, 1.0), _z, w, 1.0)),
    ("w1_sigma_closed", "xy", lambda x, y: w1_sigma_closed(_g, x, y)),
    ("w1_dsigma_closed", "xy", lambda x, y: w1_dsigma_closed(_xl, x, y)),
    ("QuadForm2n.eval", "v", lambda v: _q.eval(v)),
    ("star_exp_series", "v", lambda v: star_exp_series(_q, -1j, 8, v)),
    ("star_exp_quadratic_closed", "v", lambda v: star_exp_quadratic_closed(_q, v)),
    ("star_exp_bridge_residual", "v", lambda v: star_exp_bridge_residual(_xl, v)),
]
GOOD = {"z": (_z,), "x": (_x,), "v": (np.concatenate([_x, _y]),), "xy": (_x, _y)}
# NaN, inf, a wrong length, complex data for a real point, strings
BAD = {
    "z": [([np.nan, 0],), ([0, complex(0, np.inf)],), (np.zeros(3),), (np.zeros((2, 1)),), (["a", "b"],)],
    "x": [([np.nan, 0],), ([0, np.inf],), (np.zeros(3),), (np.array([0.1 + 1j, 0.2]),), (["0.3", "0.1"],)],
    "v": [([0.1, np.nan, 0, 0],), ([0, 0, np.inf, 0],), (np.zeros(5),), ([0.1 + 1j, 0, 0, 0],), (["0.1"] * 4,)],
    "xy": [
        ([np.nan, 0], _y),
        (_x, [0, np.inf]),
        (np.zeros(3), np.zeros(1)),
        (np.array([0.1 + 1j, 0.2]), _y),
        (_x, ["0.3", "0.1"]),
    ],
}


@pytest.mark.parametrize("name, kind, call", POINTS, ids=[p[0] for p in POINTS])
def test_points_are_checked_where_they_enter(name, kind, call):
    call(*GOOD[kind])
    for bad in BAD[kind]:
        with pytest.raises(ShapeError):
            call(*bad)


def test_wrong_answers_at_n1_are_refused():
    g, x, q = random_sp(1, 1), random_sp_lie(1, 2), QuadForm2n(1, 0.1 * np.eye(2))
    for call in (
        # the NaN passed the series' convergence certificate
        lambda: star_exp_series(q, -1j, 12, [np.nan, 0.1]),
        # (x, y) split as (2, 0)
        lambda: w1_dsigma_closed(x, [0.1, 0.2], []),
        # the imaginary part was dropped with a ComplexWarning
        lambda: w1_sigma_closed(g, np.array([0.1 + 1j]), [0.2]),
        lambda: star_exp_quadratic_closed(q, np.array([0.1 + 2j, 0.2])),
    ):
        with pytest.raises(ShapeError):
            call()


def test_callable_berezin_transform_takes_any_length():
    f = lambda w: np.exp(-np.sum(np.abs(w) ** 2, axis=-1))  # noqa: E731
    berezin_transform_quadrature(f, [0.1], 1.0, nodes=8)
    berezin_transform_quadrature(f, [0.1, 0.2j], 1.0, nodes=8)
    for bad in ([np.nan], [[0.1]], ["a"]):
        with pytest.raises(ShapeError):
            berezin_transform_quadrature(f, bad, 1.0, nodes=8)


@pytest.mark.parametrize("nodes", [12, 40])
def test_w0_integral_checks_its_point_once(as_vector_calls, nodes):
    kernel = sigma_kernel(_k, 1.0)
    as_vector_calls.clear()
    w0_integral(kernel, _z, 1.0, nodes=nodes)
    assert len(as_vector_calls) == 1


def test_bargmann_takes_a_point_of_any_length():
    phi = lambda x: np.exp(-np.sum(x**2, axis=-1))  # noqa: E731
    bargmann_apply(phi, [0.1], 1.0, nodes=8)
    bargmann_apply(phi, [0.1, 0.2j], 1.0, nodes=8)
    for bad in ([np.nan], [0.1, np.inf], [[0.1]], ["a"]):
        with pytest.raises(ShapeError):
            bargmann_apply(phi, bad, 1.0, nodes=8)


def test_batched_points_are_refused_when_not_finite():
    """The batch entries check their points with `matcore.as_batch`:
    `GaussianKernel.eval` (its `exponent`, the quadrature's path, does not)
    and the batched w of `coherent_eval`, which must match z in length."""
    kernel = sigma_kernel(random_su(1, 1), 1.0)
    batch = np.array([[0.1], [np.nan]])
    for call in (
        lambda: kernel.eval([np.nan], [0.0]),
        lambda: kernel.eval([0.1], [complex(0, np.inf)]),
        lambda: kernel.eval(batch, [0.0]),
        lambda: coherent_eval([0.1], batch, 1.0),
        lambda: coherent_eval([0.1], np.zeros((3, 2)), 1.0),
    ):
        with pytest.raises(ShapeError):
            call()


def test_batches_of_the_wrong_length_or_type_are_refused():
    """`matcore.as_batch`, the batch twin of `as_vector`, gives every batch
    entry one typed error where numpy's ValueError or TypeError came out."""
    k = random_su(1, 1)
    kernel, symbol = sigma_kernel(k, 1.0), w0_sigma_symbol(k, 1.0)
    for call in (
        # a matmul core-dimension mismatch
        lambda: kernel.eval([0.1, 0.2], [0.0, 0.1]),
        # np.isfinite on strings
        lambda: kernel.eval(["a"], [0.0]),
        lambda: symbol.eval(["a", "b"]),
        # complex() of a malformed string
        lambda: coherent_eval([0.1, 0.2], ["a", "b"], 1.0),
        lambda: symbol.eval_z(["a"]),
        # ragged, and batches that do not broadcast
        lambda: symbol.eval([[0.1, 0.2], [0.3]]),
        lambda: kernel.eval(np.zeros((3, 1)), np.zeros((2, 1))),
    ):
        with pytest.raises(ShapeError):
            call()
    # a scalar is one entry, as for as_vector
    assert kernel.eval(0.1, 0.2) == kernel.eval([0.1], [0.2])
    assert symbol.eval_z(0.1 + 0.2j) == symbol.eval_z([0.1 + 0.2j])


_p1, _p2 = Poly.var(1, 0), Poly(2, {(1, 0): 1.0})
# every way into a Poly, with what it did before it was checked
POLY_BAD = [
    ("exponent-too-short", lambda: Poly(2, {(1,): 1.0})),  # ValueError
    ("exponent-negative", lambda: Poly(1, {(-1,): 1.0})),  # ValueError
    ("exponent-float", lambda: Poly(1, {(1.5,): 1.0})),  # truncated to (1,)
    ("exponent-str", lambda: Poly(1, {("1",): 1.0})),  # read as (1,)
    ("exponent-bool", lambda: Poly(1, {(True,): 1.0})),  # read as (1,)
    ("coefficient-nan", lambda: Poly(1, {(1,): np.nan})),  # dropped
    ("coefficient-inf", lambda: Poly(1, {(1,): np.inf})),  # kept
    ("coefficient-huge-int", lambda: Poly(1, {(1,): 10**400})),  # OverflowError
    ("operands-nvars", lambda: _p1 + _p2),  # ValueError
    ("product-nvars", lambda: _p1 * _p2),  # ValueError
    ("compare-nvars", lambda: _p1.max_coeff_diff(_p2)),  # 1.0, over keys of both lengths
    ("scalar-times-nan", lambda: _p1 * np.nan),  # the zero polynomial
    ("scalar-times-huge-int", lambda: _p1 * 10**400),  # OverflowError
    ("scalar-plus-nan", lambda: _p1 + np.nan),  # the NaN constant dropped
    ("eval-short-point", lambda: _p2.eval([2.0])),  # 2
    ("eval-long-point", lambda: _p1.eval([2.0, 5.0])),  # 2
    ("eval-nan-point", lambda: _p1.eval([np.nan])),  # NaN
    ("diff-negative", lambda: _p2.diff(-2)),  # differentiated variable 0
    ("diff-past-end", lambda: _p2.diff(3)),  # IndexError
    ("var-negative", lambda: Poly.var(2, -1)),  # the variable 1
    ("var-past-end", lambda: Poly.var(2, 2)),  # IndexError
]


@pytest.mark.parametrize("name, call", POLY_BAD, ids=[b[0] for b in POLY_BAD])
def test_poly_refuses_bad_input(name, call):
    with pytest.raises(ShapeError):
        call()


def test_poly_takes_numpy_integers_and_scalars():
    p = Poly(2, {(np.int64(1), 0): np.float64(2.0)})
    assert p == Poly(2, {(1, 0): 2.0}) and p.diff(np.int64(0)) == Poly.const(2, 2.0)
    assert p.eval([np.float32(0.5), 1]) == 1.0
    assert type(Poly(np.int64(2), {}).nvars) is int


# a bad configuration of run_suite, with what it did before it was checked
SUITE_BAD = [
    ("trials-float", {"trials": 2.5}),  # TypeError
    ("trials-str", {"trials": "3"}),  # TypeError
    ("trials-bool", {"trials": True}),  # one trial
    ("seed-float", {"seed": 1.5}),  # TypeError
    ("seed-str", {"seed": "a"}),  # TypeError
    ("seed-negative", {"seed": -1}),  # numpy's ValueError
    ("lambda-str", {"lam": "1"}),  # TypeError
    ("n-bool", {"n": True}),  # passed `n in ns`, then ShapeError
    ("n-float", {"n": 1.0}),  # passed `n in ns`, then ShapeError
    ("tol-nan", {"tol": np.nan}),  # every residual reported as a failure
    ("tol-negative", {"tol": -1.0}),  # likewise
    ("nodes-str", {"nodes": "x"}),  # ran, and passed
    ("nodes-zero", {"nodes": 0}),  # ran; the quadrature suites refused it in their first trial
    ("nodes-float", {"nodes": 12.0}),  # likewise
    ("nodes-bool", {"nodes": True}),  # likewise
    ("nodes-past-max", {"nodes": 513}),  # likewise
]


@pytest.mark.parametrize("name, kwargs", SUITE_BAD, ids=[b[0] for b in SUITE_BAD])
def test_run_suite_refuses_a_bad_configuration_before_any_trial(monkeypatch, name, kwargs):
    polar = suites._SUITES["polar"]
    trials = []
    monkeypatch.setitem(suites._SUITES, "polar", dataclasses.replace(polar, generate=lambda *a: trials.append(a)))
    with pytest.raises(BadConfig):
        run_suite("polar", **{"trials": 1, **kwargs})
    assert trials == []


def test_a_nan_tolerance_is_a_bad_configuration_not_a_failure(capsys):
    # a residual of 2.3e-16 was reported as a failure, with exit 1
    assert main(["suite", "polar", "--trials", "1", "--tol", "nan"]) == 2
    assert "tol" in capsys.readouterr().err


def test_weylsymbols_edges_refuse_before_sampling():
    k = random_su(1, 1)
    sampled = []
    f = lambda u, t: sampled.append(1)  # noqa: E731
    for call, error in (
        # 0.0 from no points, and numpy's errors
        (lambda: polar_relation_residual(k, 1.0, npoints=0), BadConfig),
        (lambda: polar_relation_residual(k, 1.0, npoints=-1), BadConfig),
        (lambda: polar_relation_residual(k, 1.0, npoints=2.5), BadConfig),
        (lambda: polar_relation_residual(k, 1.0, seed=-1), BadConfig),
        # [nan+nanj], numpy's broadcast ValueError, float("a")
        (lambda: classical_weyl_kernel(f, np.nan, 0.0), ShapeError),
        (lambda: classical_weyl_kernel(f, np.inf, 0.0), ShapeError),
        (lambda: classical_weyl_kernel(f, 0.0, [0.1, np.nan]), ShapeError),
        (lambda: classical_weyl_kernel(f, [0.1, 0.2], [0.1, 0.2, 0.3]), ShapeError),
        (lambda: classical_weyl_kernel(f, "a", 0.0), ShapeError),
        # NonConvergent after the whole sum
        (lambda: w1_of_classical_weyl(f, 0.0, 0.0, np.nan), ShapeError),
        (lambda: w1_of_classical_weyl(f, 0.0, 0.0, -1.0), ShapeError),
        (lambda: w1_of_classical_weyl(f, np.nan, 0.0, 1.0), ShapeError),
        (lambda: w1_of_classical_weyl(f, 0.0, np.inf, 1.0), ShapeError),
        (lambda: w1_of_classical_weyl(f, "a", 0.0, 1.0), ShapeError),
    ):
        with pytest.raises(error):
            call()
    assert sampled == []


@pytest.mark.parametrize("s", [np.nan, np.inf, complex(0, -np.inf), "a", None])
def test_star_exp_symbol_refuses_a_bad_time_in_its_build(s):
    q = QuadForm2n(1, 0.1 * np.eye(2))
    for _ in range(2):
        with pytest.raises(ShapeError):
            star_exp_symbol(q, s)
    # a refused build stores nothing
    assert "_star_exp_symbol" not in vars(q)


_sym = GaussianSymbol(2, 1.0, -0.1 * np.eye(4))
# a bad scale, centre, λ or time where it enters a quadrature or the heat
# flow, with what it did before it was checked
EDGE_BAD = [
    ("lebesgue_rn-scale-negative", lambda f: lebesgue_rn(f, 1, 20, scale=-1.0), BadConfig),  # -√π
    ("lebesgue_rn-scale-negative-n3", lambda f: lebesgue_rn(f, 3, 8, scale=-0.8), BadConfig),  # -5.568
    ("lebesgue_rn-scale-zero", lambda f: lebesgue_rn(f, 1, 20, scale=0.0), BadConfig),  # 0j
    ("lebesgue_cn-scale-str", lambda f: lebesgue_cn(f, 1, 20, scale="a"), BadConfig),  # TypeError
    ("lebesgue_cn-scale-nan", lambda f: lebesgue_cn(f, 1, 20, scale=np.nan), BadConfig),  # NonConvergent after the sum
    ("lebesgue_cn-scale-inf", lambda f: lebesgue_cn(f, 1, 20, scale=np.inf), BadConfig),  # likewise
    ("lebesgue_rn-center-2-at-n1", lambda f: lebesgue_rn(f, 1, 20, center=[0.0, 0.0]), ShapeError),  # 1.2533, not √π
    ("lebesgue_rn-center-3-at-n2", lambda f: lebesgue_rn(f, 2, 20, center=np.zeros(3)), ShapeError),  # ValueError
    ("lebesgue_rn-center-str", lambda f: lebesgue_rn(f, 2, 20, center="a"), ShapeError),  # UFuncTypeError
    ("lebesgue_rn-center-nan", lambda f: lebesgue_rn(f, 2, 20, center=[0.0, np.nan]), ShapeError),  # NonConvergent
    ("bargmann_apply-lambda-zero", lambda f: bargmann_apply(f, [0.1], 0.0, nodes=8), ShapeError),  # ZeroDivisionError
    ("bargmann_apply-lambda-negative", lambda f: bargmann_apply(f, [0.1], -1.0, nodes=8), ShapeError),  # NonConvergent
    ("bargmann_apply-lambda-inf", lambda f: bargmann_apply(f, [0.1], np.inf, nodes=8), ShapeError),  # RuntimeWarning
    # 1.761+0.015j, from a kernel at one λ integrated at another
    ("w0_integral-other-lambda", lambda f: w0_integral(sigma_kernel(_k, 1.0), np.zeros(2), 2.0, nodes=12), ShapeError),
    ("heat_flow_gaussian-t-nan", lambda f: heat_flow_gaussian(_sym, np.nan), ShapeError),  # LinAlgError
    ("heat_flow_gaussian-t-inf", lambda f: heat_flow_gaussian(_sym, np.inf), ShapeError),  # HeatFlowSingular, nan
    ("heat_flow_gaussian-t-str", lambda f: heat_flow_gaussian(_sym, "a"), ShapeError),  # UFuncTypeError
]


@pytest.mark.parametrize("name, call, error", EDGE_BAD, ids=[b[0] for b in EDGE_BAD])
def test_quadrature_and_heat_flow_edges_are_refused_before_any_evaluation(name, call, error):
    calls = []

    def f(x):
        calls.append(1)
        return np.exp(-np.sum(x**2, axis=-1))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(f)
    assert calls == []


def test_heat_flow_takes_a_zero_or_negative_time():
    assert heat_flow_gaussian(_sym, 0).gamma == 1.0
    # Det(I - 4tS)^{-1/2} with I - 4tS = 0.96 I on R^4
    assert heat_flow_gaussian(_sym, -0.1).gamma == pytest.approx(1 / 0.96**2)
