import numpy as np
import pytest

from weylsym import matcore
from weylsym.errors import NotInLie, NotInS, NotSymplectic
from weylsym.sympgroup import (
    SpLieReal,
    ValidationReport,
    SpReal,
    SuBlocks,
    SuLie,
    random_sp,
    random_sp_lie,
    random_su,
    sp_from_su,
    sp_inv,
    sp_mul,
    su_exp,
    su_from_sp,
    su_inv,
    su_lie_from_sp_lie,
    su_mul,
    validate_sp,
    validate_sp_lie,
    validate_su,
    validate_su_lie,
)


def test_random_elements_validate():
    for n in (1, 2, 3):
        for seed in range(10):
            g = random_sp(n, seed)
            assert validate_sp(g).ok
            k = random_su(n, seed)
            assert validate_su(k).ok
            x = random_sp_lie(n, seed)
            assert validate_sp_lie(x).ok
            assert validate_su_lie(su_lie_from_sp_lie(x)).ok


def test_frame_round_trip():
    for n in (1, 2):
        for seed in range(10):
            g = random_sp(n, seed)
            back = sp_from_su(su_from_sp(g))
            assert np.allclose(back.g, g.g, atol=1e-12)
            k = random_su(n, seed + 100)
            again = su_from_sp(sp_from_su(k))
            assert np.allclose(again.P, k.P, atol=1e-12)
            assert np.allclose(again.Q, k.Q, atol=1e-12)


def test_frame_is_conjugation_by_U():
    # k = U g U^{-1} as full matrices
    for n in (1, 2):
        g = random_sp(n, 42)
        u = matcore.matrix_U(n)
        k = su_from_sp(g)
        assert np.allclose(k.full, u @ g.g @ np.linalg.inv(u), atol=1e-12)
        # built once per element and shared read-only
        assert k.full is k.full and not k.full.flags.writeable


def test_group_operations():
    for n in (1, 2):
        g1, g2 = random_sp(n, 1), random_sp(n, 2)
        prod = sp_mul(g1, g2)
        assert np.allclose(prod.g, g1.g @ g2.g)
        assert np.allclose(sp_mul(g1, sp_inv(g1)).g, np.eye(2 * n), atol=1e-12)

        k1, k2 = random_su(n, 3), random_su(n, 4)
        assert np.allclose(su_mul(k1, k2).full, k1.full @ k2.full, atol=1e-12)
        assert np.allclose(su_mul(k1, su_inv(k1)).full, np.eye(2 * n), atol=1e-12)


def test_su_inverse_blocks():
    # k^{-1} = (P*, -Q^t; -Q*, P^t)
    k = random_su(2, 9)
    ki = su_inv(k)
    assert np.allclose(ki.P, k.P.conj().T, atol=1e-12)
    assert np.allclose(ki.Q, -k.Q.T, atol=1e-12)


def test_su_invariants():
    for seed in range(5):
        k = random_su(2, seed)
        eye = np.eye(2)
        assert np.allclose(k.P @ k.P.conj().T - k.Q @ k.Q.conj().T, eye, atol=1e-12)
        assert np.allclose(k.P @ k.Q.T, k.Q @ k.P.T, atol=1e-12)


def test_su_exp_matches_group_exponential():
    for n in (1, 2):
        x = su_lie_from_sp_lie(random_sp_lie(n, 17, scale=0.3))
        k = su_exp(x)
        assert validate_su(k).ok
        assert np.allclose(k.full, matcore.mat_exp(x.full), atol=1e-12)


def test_lie_frame_change_matches_derivative():
    # d/dt U exp(tX) U^{-1} |_0 agrees with the block formulas
    x = random_sp_lie(2, 23)
    xs = su_lie_from_sp_lie(x)
    u = matcore.matrix_U(2)
    assert np.allclose(xs.full, u @ x.full @ np.linalg.inv(u), atol=1e-12)


def test_validators_reject_bad_input():
    with pytest.raises(NotInS):
        sp_from_su(SuBlocks(1, np.array([[2.0]]), np.array([[0.0]])))
    with pytest.raises(NotSymplectic):
        su_from_sp(SpReal(1, np.array([[2.0, 0.0], [0.0, 2.0]])))
    with pytest.raises(NotInLie):
        SuLie(1, np.array([[1.0]]), np.array([[0.0]]))  # A must be skew-Hermitian


def test_large_products_are_members():
    # the roundoff in g^t J g - J grows like ε‖g‖², and the tolerance with it
    for s in range(40):
        g = sp_mul(random_sp(3, s, 6.0), random_sp(3, s + 1000, 6.0))
        k = su_from_sp(g)
        SpReal(3, g.g)
        SuBlocks(3, k.P, k.Q)
    # s = 7: ‖g‖ = 8.4e7 and ‖g^t J g - J‖ = 0.19, but one entry moved by
    # 1e-6 of the size is refused
    g = sp_mul(random_sp(3, 7, 6.0), random_sp(3, 1007, 6.0))
    k = su_from_sp(g)
    for i, j in ((0, 0), (2, 3), (5, 5)):
        bad = g.g.copy()
        bad[i, j] += 1e-6 * np.linalg.norm(g.g)
        with pytest.raises(NotSymplectic):
            SpReal(3, bad)
        bad = k.P.copy()
        bad[i % 3, j % 3] += 1e-6 * (np.linalg.norm(k.P) + np.linalg.norm(k.Q))
        with pytest.raises(NotInS):
            SuBlocks(3, bad, k.Q)


def test_validation_report_nan_residual():
    # a NaN residual fails the report and is its maximum, in either order
    for residuals in ({"a": float("nan"), "b": 1e-3}, {"b": 1e-3, "a": float("nan")}):
        rep = ValidationReport(residuals)
        assert not rep.ok
        assert np.isnan(rep.max_residual)
    assert ValidationReport({"a": 1e-3, "b": 2e-3}).max_residual == 2e-3
    assert ValidationReport({}).max_residual == 0.0


def test_constructors_check_once(validator_calls):
    g, k = random_sp(2, 1), random_su(2, 2)
    x = random_sp_lie(2, 3)
    xs = su_lie_from_sp_lie(x)
    for build in (
        lambda: SpReal(2, g.g),
        lambda: SuBlocks(2, k.P, k.Q),
        lambda: SpLieReal(2, x.A, x.B, x.C),
        lambda: SuLie(2, xs.A, xs.B),
    ):
        validator_calls.clear()
        build()
        assert len(validator_calls) == 1
    validator_calls.clear()
    su_mul(k, k)
    assert validator_calls == []


DTYPES = {SpReal: {"g": complex}, SuBlocks: {"P": complex, "Q": complex},
          SpLieReal: {"A": float, "B": float, "C": float}, SuLie: {"A": complex, "B": complex}}
VALIDATE = {SpReal: validate_sp, SuBlocks: validate_su, SpLieReal: validate_sp_lie, SuLie: validate_su_lie}


def test_operations_build_checked_elements():
    # every unchecked result is in its set, with the checking constructor's dtypes
    for n in (1, 2, 3):
        for scale in (0.5, 1.5, 3.0):
            for seed in range(3):
                x = random_sp_lie(n, 300 + seed, scale)
                g1, g2 = random_sp(n, 400 + seed, scale), random_sp(n, 500 + seed, scale)
                k1, k2 = su_from_sp(g1), su_from_sp(g2)
                xs = su_lie_from_sp_lie(x)
                for elt in (x, g1, k1, xs, sp_from_su(k2), su_mul(k1, k2), su_inv(k1),
                            su_exp(xs), sp_mul(g1, g2), sp_inv(g1)):
                    cls = type(elt)
                    assert VALIDATE[cls](elt).ok
                    for name, dtype in DTYPES[cls].items():
                        assert getattr(elt, name).dtype == dtype
                    again = cls(n, *(getattr(elt, name) for name in DTYPES[cls]))
                    for name in DTYPES[cls]:
                        assert np.array_equal(getattr(again, name), getattr(elt, name))
