import ast
import pathlib
import re

import numpy as np
import pytest

import weylsym
from weylsym import matcore
from weylsym.errors import AmbiguousPhase, CayleySingular, DivergentIntegral, NoDecomposition, NotPositiveReal, ShapeError, SingularMatrix


def test_frame_matrices():
    for n in (1, 2, 3):
        j = matcore.matrix_J(n)
        assert np.allclose(j @ j, -np.eye(2 * n))
        assert np.allclose(j.T, -j)
        u = matcore.matrix_U(n)
        # U carries (x, y) to (x + iy, x - iy)
        v = np.arange(1.0, 2 * n + 1)
        zc = u @ v
        assert np.allclose(zc[:n], v[:n] + 1j * v[n:])
        assert np.allclose(zc[n:], v[:n] - 1j * v[n:])


def test_block2x2_is_np_block():
    # the same array as np.block, bit for bit and dtype for dtype, for
    # square and rectangular blocks of mixed dtypes
    rng = np.random.default_rng(4)

    def draw(shape, dtype):
        x = 3 * rng.standard_normal(shape)
        return (x + 1j * rng.standard_normal(shape) if dtype is complex else x).astype(dtype)

    for (r, k), dtypes in (((2, 2), (float,) * 4), ((1, 3), (float, complex, float, float)), ((3, 1), (int,) * 4),
                           ((2, 1), (int, float, int, int))):
        a, b, c, d = map(draw, ((r, r), (r, k), (k, r), (k, k)), dtypes)
        got, want = matcore.block2x2(a, b, c, d), np.block([[a, b], [c, d]])
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_cayley_involution_and_rotation():
    theta = 0.8
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    c = matcore.cayley(r)[0]
    # exp(theta J1) has Cayley transform tan(theta/2) J1
    j1 = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(c, np.tan(theta / 2) * j1, atol=1e-12)


def test_cayley_singular():
    with pytest.raises(CayleySingular):
        matcore.cayley(-np.eye(2))
    # g + I = 1e-7 I is small but perfectly conditioned
    g = 1e-7 - 1
    assert np.allclose(matcore.cayley(g * np.eye(2))[0], (g - 1) / (g + 1) * np.eye(2), rtol=1e-14, atol=0)


def test_matrix_functions_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = 0.4 * rng.standard_normal((3, 3))
        ch, sh = matcore.mat_cosh(x)
        assert np.allclose(ch @ ch - sh @ sh, np.eye(3), atol=1e-12)
        # tanh as cosh^{-1} sinh (w1_exp_symbol) and sinh cosh^{-1} (star_exp_symbol)
        assert np.allclose(matcore.solve(ch, sh), sh @ np.linalg.inv(ch), atol=1e-12)
        assert np.allclose(matcore.mat_exp(x), ch + sh, atol=1e-12)


def test_principal_branches():
    assert matcore.principal_sqrt(-1 + 0j) == pytest.approx(1j)
    assert matcore.principal_sqrt(4.0) == pytest.approx(2.0)
    # principal powers agree with principal sqrt at exponent 1/2
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert matcore.principal_power(c, 0.5) == pytest.approx(matcore.principal_sqrt(c))
        assert matcore.principal_power(c, -0.5) == pytest.approx(1 / matcore.principal_sqrt(c))


def test_principal_power_at_zero():
    assert matcore.principal_power(0, 0.0) == 1
    assert matcore.principal_power(0j, 0) == 1
    assert matcore.principal_power(0, 0.5) == 0
    for expo in (-0.5, -2):
        with pytest.raises(SingularMatrix):
            matcore.principal_power(0j, expo)


def test_det_powhalf_posreal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = w @ w.conj().T + 3 * np.eye(3)  # Hermitian positive definite
        s = 0.1 * (w + w.T)
        m = h + 1j * (s + s.conj().T) / 2
        val = matcore.det_powhalf_posreal(m)
        assert val**2 == pytest.approx(np.linalg.det(m), rel=1e-10)
        assert val.real > 0


def test_det_powhalf_rejects_indefinite():
    with pytest.raises(NotPositiveReal):
        matcore.det_powhalf_posreal(np.diag([1.0, -1.0]))


def test_hamiltonian_cosh_det_pairs_the_spectrum():
    def paired(a):
        ch, sh = matcore.mat_cosh(a)
        inverse, d = matcore.require_invertible(ch, scale=matcore.norm(ch) + matcore.norm(sh))
        return matcore.hamiltonian_cosh_det(a, d, np.linalg.norm(ch, 1) * np.linalg.norm(inverse, 1)), d

    # eigenvalues ±2i: Π cosh = cos 2 < 0, a sign no root of Det cosh = cos²2 picks
    rot = np.array([[0.0, 2.0], [-2.0, 0.0]])
    root, d = paired(rot)
    assert root == pytest.approx(np.cos(2.0), rel=1e-14)
    # ±(1 + 2i) and ±(1 - 2i), and a nilpotent pair at zero that adds cosh 0 = 1
    a = np.zeros((6, 6))
    a[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    a[2:4, 2:4] = [[-1.0, 2.0], [-2.0, -1.0]]
    a[4, 5] = 1.0
    assert paired(a)[0] == pytest.approx(abs(np.cosh(1 + 2j)) ** 2, rel=1e-14)
    # a spectrum not made of ± pairs, or a determinant the product does not square to
    with pytest.raises(AmbiguousPhase):
        paired(np.diag([1.0, 2.0]))
    with pytest.raises(AmbiguousPhase):
        matcore.hamiltonian_cosh_det(rot, 2 * d, 1.0)
    # an error bar of ε·cond₁ past 1e-3 admits more, but not a factor cosh²μ
    assert matcore.hamiltonian_cosh_det(rot, 1.01 * d, 3e12) == root
    with pytest.raises(AmbiguousPhase):
        matcore.hamiltonian_cosh_det(rot, 1.01 * d, 2e12)


def test_solve_and_inv_singular():
    with pytest.raises(SingularMatrix):
        matcore.solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularMatrix):
        matcore.require_invertible(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_require_invertible():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 8):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        inverse, d = matcore.require_invertible(m)
        cond = np.linalg.cond(m, 1)
        assert np.linalg.norm(m @ inverse - np.eye(n), 1) <= 1e-12 * cond
        assert d == pytest.approx(np.linalg.det(m), rel=1e-12)
    with pytest.raises(NoDecomposition):
        matcore.require_invertible(np.zeros((2, 2)), NoDecomposition)
    # an empty matrix never reaches zgetrf, which refuses it
    with pytest.raises(ShapeError, match="empty"):
        matcore.require_invertible(np.zeros((0, 0)))
    # a sum that cancels to roundoff is refused only once its operand size is known
    tiny = 1.2e-16 * np.diag([1j, -1j])
    matcore.require_invertible(tiny)
    with pytest.raises(CayleySingular):
        matcore.require_invertible(tiny, CayleySingular, scale=2.4)
    with pytest.raises(SingularMatrix):
        matcore.require_invertible(np.diag([1.0, 1e-15]))
    # the rule is exact: ‖m^{-1}‖₁·‖m‖₁ = 1/t on diag(1, t) is refused past 1e14
    assert matcore.require_invertible(np.diag([1.0, 2e-14]))[1] == pytest.approx(2e-14)
    with pytest.raises(NoDecomposition):
        matcore.require_invertible(np.diag([1.0, 5e-15]), NoDecomposition)


def _det_names(fn: ast.AST) -> set:
    """Names bound, directly or through other such names, to a det(...) value."""
    names: set = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _mentions_det(node.value, names):
                for tgt in node.targets:
                    for name in ast.walk(tgt):
                        if isinstance(name, ast.Name) and name.id not in names:
                            names.add(name.id)
                            changed = True
    return names


def _mentions_det(node: ast.AST, names: set) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")) == "det":
                return True
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
    return False


def _magnitude_operand(node: ast.AST) -> ast.AST:
    """abs(x) and x.real compare the size of x; x.imag does not."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "abs" and node.args:
        return _magnitude_operand(node.args[0])
    if isinstance(node, ast.Attribute) and node.attr == "real":
        return _magnitude_operand(node.value)
    return node


def test_singularity_decided_only_in_matcore():
    """Outside matcore no module inverts through numpy or compares a
    determinant with a small threshold: `matcore.require_invertible` is the
    one place that decides that a matrix is numerically singular.  Nor does
    one run a Cholesky factorisation or a Hermitian eigensolve:
    `matcore.require_posreal` is the one place that decides Re N > 0, on
    `matcore.hermitian_lam_min`, which the bounded-domain test
    `JacobiPoint.in_domain` shares."""
    found = []
    for path in sorted(pathlib.Path(weylsym.__file__).parent.glob("*.py")):
        if path.name == "matcore.py":
            continue
        src = path.read_text()
        for lineno, line in enumerate(src.splitlines(), 1):
            if re.search(r"np\.linalg\.(inv|solve|cond)\(", line):
                found.append(f"{path.name}:{lineno}: {line.strip()}")
        tree = ast.parse(src)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
            if name in ("cholesky", "eigvalsh"):
                found.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Module)):
                continue
            names = _det_names(fn)
            for cmp in ast.walk(fn):
                if not isinstance(cmp, ast.Compare):
                    continue
                left = _magnitude_operand(cmp.left)
                is_det = not isinstance(left, ast.Attribute) and _mentions_det(left, names)
                small = any(
                    isinstance(c, ast.Constant) and isinstance(c.value, float) and 0 < c.value < 1e-6
                    for side in cmp.comparators
                    for c in ast.walk(side)
                )
                if is_det and small:
                    found.append(f"{path.name}:{cmp.lineno}: {ast.unparse(cmp)}")
    assert sorted(set(found)) == []


def test_posdef_hermitian_part():
    assert matcore.require_posreal(np.eye(2) + 1j * np.array([[0, 5], [5, 0]])) == pytest.approx(1.0)
    with pytest.raises(NotPositiveReal):
        matcore.require_posreal(np.diag([1.0, -0.1]))


def test_require_posreal_threshold_and_error():
    # λ_min(Re m) is returned above 1e-12 and refused with the caller's error at it
    m = np.diag([2e-12, 1.0]) + 1j * np.array([[0.0, 3.0], [3.0, 1.0]])
    assert matcore.require_posreal(m) == pytest.approx(2e-12, rel=1e-3)
    with pytest.raises(DivergentIntegral):
        matcore.require_posreal(np.diag([1e-12, 1.0]), DivergentIntegral)
    with pytest.raises(NotPositiveReal):
        matcore.det_powhalf_posreal(np.diag([1e-12, 1.0]))


def test_one_quadratic_form_evaluator():
    """No module calls einsum: every Gaussian exponent goes through
    `matcore.quad_form`, by way of the one evaluator of `gaussint._Gaussian`."""
    found = []
    for path in sorted(pathlib.Path(weylsym.__file__).parent.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call):
                name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
                if name == "einsum":
                    found.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
    assert not found, found
