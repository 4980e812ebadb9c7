"""Elements and Gaussian records are immutable: every array field is a
read-only copy that owns its memory.  On that rests the memo: each
closed-form record is built once per element and λ, and a record from the
memo is bitwise the record a fresh build returns."""

import ast
import copy
import pathlib
from dataclasses import fields

import numpy as np
import pytest

import weylsym
from weylsym import weylsymbols
from weylsym.errors import CayleySingular, DivergentIntegral
from weylsym.gaussint import GaussianIntegrand, GaussianKernel
from weylsym.heisenberg import HeisElt
from weylsym.jacobi import JacobiGroupElt, JacobiGroupEltC, JacobiPoint
from weylsym.metaplectic import DsigmaKernel, berezin_sigma_symbol, sigma_kernel
from weylsym.moyal import star_exp_symbol
from weylsym.sympgroup import SpLieReal, SpReal, SuBlocks, SuLie, random_sp, random_sp_lie, random_su, su_from_sp
from weylsym.weylsymbols import (
    GaussianSymbol,
    QuadForm2n,
    w0_sigma_symbol,
    w1_exp_symbol,
    w1_sigma_closed,
    w1_sigma_symbol,
)


def _arrays(obj) -> dict:
    """The arrays an element or record holds: its fields, a record's Q and r,
    and the memoised `SuBlocks.full`."""
    names = [f.name for f in fields(obj)] + ["Q", "r"] + (["full"] if isinstance(obj, SuBlocks) else [])
    return {a: getattr(obj, a, None) for a in names if isinstance(getattr(obj, a, None), np.ndarray)}


def _bits(obj):
    """Everything a record holds, bit for bit: type, scalar reprs and array bytes."""
    out = [type(obj).__name__]
    for name in [f.name for f in fields(obj)] + ["Q", "r"]:
        v = getattr(obj, name, None)
        out.append((name, (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)))
    return out


def _outcome(call):
    """A record's bits, or the type of the error its build raised."""
    try:
        return _bits(call())
    except weylsym.WeylsymError as err:
        return type(err)


def _fresh(elt):
    """The element without its memo: a copy holding the same fields only."""
    out = copy.copy(elt)
    for name in [k for k in vars(out) if k.startswith("_")]:
        del vars(out)[name]
    return out


def _quad_form(n, seed, scale):
    m = np.random.default_rng(seed).uniform(-scale, scale, (2 * n, 2 * n))
    # scaled down so that every draw here has a record to compare, not only an error
    return QuadForm2n(n, 0.1 * (m + m.T))


# (name, the constructor called as (element, λ), a draw (n, seed, scale) of its element)
MEMOISED = [
    ("sigma_kernel", sigma_kernel, random_su),
    ("w0_sigma_symbol", w0_sigma_symbol, random_su),
    ("berezin_sigma_symbol", berezin_sigma_symbol, random_su),
    ("w1_sigma_symbol", w1_sigma_symbol, random_sp),
    ("w1_exp_symbol", w1_exp_symbol, random_sp_lie),
    # Hörmander's symbol is the star exponential at s = 1, the quadratic one at s = -i
    ("hormander_symbol", lambda m, lam: star_exp_symbol(m, 1), _quad_form),
    ("star_exp_quadratic_symbol", lambda q, lam: star_exp_symbol(q, -1j), _quad_form),
    # keyed by the time s, not λ: λ = 0.7 stands for s = -i
    ("star_exp_symbol", lambda q, lam: star_exp_symbol(q, -1j if lam == 0.7 else lam), _quad_form),
]
# alternating on one element, so that each slot is replaced; 1 and 1.0 are different λ
LAMS = (1, 1.0, 0.7, 1.0, 1, 0.7, 0.7)


@pytest.mark.parametrize("scale", [0.5, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name, build, draw", MEMOISED, ids=[m[0] for m in MEMOISED])
def test_memo_is_bitwise_a_fresh_build(name, build, draw, n, scale):
    for seed in (1, 2):
        elt = draw(n, seed, scale)
        for lam in LAMS:
            fresh = _outcome(lambda: build(_fresh(elt), lam))
            assert _outcome(lambda: build(elt, lam)) == fresh
            # the second call reads the slot
            assert _outcome(lambda: build(elt, lam)) == fresh
            if not isinstance(fresh, type):
                assert build(elt, lam) is build(elt, lam)


def test_memo_keeps_one_record_per_element():
    k = random_su(2, 4)
    first = w0_sigma_symbol(k, 1.0)
    other = w0_sigma_symbol(k, 0.7)
    assert w0_sigma_symbol(k, 0.7) is other
    # 0.7 replaced 1.0: the record is built again, to the same bits
    again = w0_sigma_symbol(k, 1.0)
    assert again is not first and _bits(again) == _bits(first)
    # one slot per constructor, each holding one (λ, record)
    assert len(vars(k)) == len(fields(k)) + 2  # the w0 slot and full


def _divergent_law(m, r):
    raise DivergentIntegral("Re N is not positive definite")


def test_a_build_that_raises_is_not_memoised(monkeypatch, cayley_calls):
    # at the cut (Det(I+g) < 0, Det P real) the constant comes from the Gaussian
    # law, made here to refuse as it does for a divergent integral
    monkeypatch.setattr(weylsymbols, "gaussian_law", _divergent_law)
    cases = [
        (SpReal(1, -np.eye(2)), CayleySingular),
        (SpReal(1, -np.diag([2.0, 0.5])), DivergentIntegral),
    ]
    for g, error in cases:
        for build, elt in ((w1_sigma_symbol, g), (w0_sigma_symbol, su_from_sp(g))):
            cayley_calls.clear()
            for _ in range(3):
                with pytest.raises(error):
                    build(elt, 1.0)
            # every call factors I+g again
            assert len(cayley_calls) == 3


def test_a_symbol_grid_factors_once(cayley_calls):
    g = random_sp(2, 9)
    pts = np.random.default_rng(0).uniform(-1, 1, (64, 2, 2))
    cayley_calls.clear()
    for x, y in pts:
        w1_sigma_closed(g, x, y)
    assert len(cayley_calls) == 1


_I = np.eye(1)
# (constructor, arguments): every array argument is an ndarray the caller keeps
CALLER_ARRAYS = [
    (SpReal, lambda dt: (1, np.array([[2.0, 0.3], [0.0, 0.5]], dtype=dt))),
    (SuBlocks, lambda dt: (1, np.array([[1.25]], dtype=dt), np.array([[0.75]], dtype=dt))),
    (SpLieReal, lambda dt: (1, np.array([[0.2]], dtype=dt), np.array([[0.1]], dtype=dt), np.array([[0.3]], dtype=dt))),
    (SuLie, lambda dt: (1, np.array([[0.0]], dtype=dt), np.array([[0.4]], dtype=dt))),
    (QuadForm2n, lambda dt: (1, np.array([[1.0, 0.2], [0.2, 0.5]], dtype=dt))),
    (GaussianSymbol, lambda dt: (1, 1.0, np.array([[-1.0, 0.2], [0.2, -0.5]], dtype=dt))),
    (GaussianKernel, lambda dt: (1, 1.0, 1.0, np.zeros((1, 1), dt), np.eye(1, dtype=dt), np.zeros((1, 1), dt))),
    (
        GaussianIntegrand,
        lambda dt: (1, np.eye(1, dtype=dt), np.zeros((1, 1), dt), np.eye(1, dtype=dt), np.ones(1, dt), np.ones(1, dt)),
    ),
    (HeisElt, lambda dt: (1, np.array([0.1], dtype=dt), 0.0)),
    (JacobiPoint, lambda dt: (1, np.array([0.1], dtype=dt), np.array([[0.2]], dtype=dt))),
    (JacobiGroupElt, lambda dt: (1, np.array([0.1], dtype=dt), 0.0, SuBlocks.identity(1))),
    (DsigmaKernel, lambda dt: (1, 1.0, np.array([[0.1]], dtype=dt), np.array([[0.2]], dtype=dt))),
    (
        JacobiGroupEltC,
        lambda dt: (1, np.ones(1, dt), np.ones(1, dt), 0.0, *(np.array([[a]], dtype=dt) for a in (1.0, 0.0, 0.0, 1.0))),
    ),
]


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("cls, args", CALLER_ARRAYS, ids=[c[0].__name__ for c in CALLER_ARRAYS])
def test_the_callers_array_is_not_kept(cls, args, dtype):
    given = args(dtype)
    elt = cls(*given)
    before = {name: a.copy() for name, a in _arrays(elt).items()}
    for a in given:
        if isinstance(a, np.ndarray):
            a += 5
    after = _arrays(elt)
    assert all(np.array_equal(after[name], a) for name, a in before.items())


def _elements_and_records():
    g, x = random_sp(2, 1), random_sp_lie(2, 2)
    k = su_from_sp(g)
    built = [cls(*args(complex)) for cls, args in CALLER_ARRAYS]
    built += [g, k, x, random_su(2, 3)]
    memoised = [sigma_kernel(k, 1.0), w0_sigma_symbol(k, 1.0), berezin_sigma_symbol(k, 1.0)]
    memoised += [w1_sigma_symbol(g), w1_exp_symbol(x), star_exp_symbol(QuadForm2n(2, 0.1 * np.eye(4)), 1)]
    return built + memoised


@pytest.mark.parametrize("obj", _elements_and_records(), ids=lambda o: type(o).__name__)
def test_array_fields_are_read_only_and_own_their_memory(obj):
    arrays = _arrays(obj)
    assert arrays
    for name, a in arrays.items():
        assert a.flags.owndata, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_only_sympgroup_writes_into_an_instance():
    """One memo mechanism: no module but sympgroup touches an instance
    __dict__ (or vars()) or sets a _-prefixed attribute by name with
    object.__setattr__ or setattr."""
    found = []
    for path in sorted(pathlib.Path(weylsym.__file__).parent.glob("*.py")):
        if path.name == "sympgroup.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if func == "vars":
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
                elif func in ("object.__setattr__", "setattr") and len(node.args) > 1:
                    name = node.args[1]
                    if isinstance(name, ast.Constant) and str(name.value).startswith("_"):
                        found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found
