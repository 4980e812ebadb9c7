import argparse
import json
import math
import sys

import numpy as np
import pytest

from weylsym import cli, suites
from weylsym.cli import EVAL_KINDS, main
from weylsym.errors import UnknownSuite
from weylsym.metaplectic import berezin_sigma_symbol, berezin_symbol_dsigma, sigma_kernel
from weylsym.mjson import dump_matrix
from weylsym.moyal import star_exp_quadratic_closed, star_exp_series, star_exp_symbol
from weylsym.suites import SuiteReport, default_tol
from weylsym.sympgroup import (
    SpReal,
    random_sp,
    random_sp_lie,
    random_su,
    sp_mul,
    su_from_sp,
    su_lie_from_sp_lie,
)
from weylsym.weylsymbols import (
    QuadForm2n,
    w0_dsigma_closed,
    w0_sigma_closed,
    w1_dsigma_closed,
    w1_exp_symbol,
    w1_sigma_closed,
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_w1_sigma_identity(capsys):
    code, out = _run(capsys, ["eval", "w1-sigma", "--g", "identity", "--at", "0", "0"])
    assert code == 0
    val = json.loads(out)["value"]
    assert val == pytest.approx([1.0, 0.0])


def test_star_exp_closed_value(capsys):
    code, out = _run(
        capsys,
        ["eval", "star-exp", "--M", "0.15I", "--point", "1", "0", "--closed"],
    )
    assert code == 0
    val = json.loads(out)["value"]
    t = 0.15
    expect = np.exp(-1j * np.tan(t)) / np.cos(t)
    assert val == pytest.approx([expect.real, expect.imag], rel=1e-12)


def test_star_exp_series_reports_last_term(capsys):
    code, out = _run(capsys, ["eval", "star-exp", "--M", "0.1I", "--point", "0.5", "0.2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["last_term"] < 1e-10


def test_star_exp_series_too_large_is_bad_config(capsys):
    code = main(["eval", "star-exp", "--n", "3", "--M", "0.05I", "--point", "0.1", "0", "0", "0", "0", "0"])
    assert code == 2
    assert "monomials" in capsys.readouterr().err


def test_eval_from_matrix_file(tmp_path, capsys):
    g = random_sp(1, 42)
    path = tmp_path / "g.json"
    dump_matrix(g.g, str(path))
    code, out = _run(capsys, ["eval", "w1-sigma", "--g", str(path), "--at", "0.3", "-0.2"])
    assert code == 0
    re, im = json.loads(out)["value"]
    from weylsym.weylsymbols import w1_sigma_closed

    expect = w1_sigma_closed(g, [0.3], [-0.2])
    assert complex(re, im) == pytest.approx(expect, rel=1e-12)


def test_eval_at_the_phase_cut(tmp_path, capsys):
    # g = -diag(2, 1/2): Det(I + g) < 0 with Det P real, the cut of (Det P)^{-1/2},
    # where the constant comes from the Gaussian law of W0(σ(k))(0)
    g = -np.diag([2.0, 0.5])
    path = tmp_path / "neg.json"
    dump_matrix(g, str(path))
    code, out = _run(capsys, ["eval", "w1-sigma", "--g", str(path), "--at", "0.1", "0.2"])
    assert code == 0
    w1 = complex(*json.loads(out)["value"])
    assert w1 == w1_sigma_closed(SpReal(1, g), [0.1], [0.2])
    # W0 of k = U g U^{-1} at z = x + iy agrees
    k_path = tmp_path / "neg_k.json"
    dump_matrix(su_from_sp(SpReal(1, g)).full, str(k_path))
    code, out = _run(capsys, ["eval", "w0-sigma", "--k", str(k_path), "--at", "0.1", "0.2"])
    assert code == 0
    assert complex(*json.loads(out)["value"]) == pytest.approx(w1, rel=1e-12)


def test_eval_has_no_quadrature_options(capsys):
    # no option of eval reads a node count or asks for a runtime phase quadrature
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    pe = sub.choices["eval"]
    assert {o for a in pe._actions for o in a.option_strings} == {
        "-h", "--help", "--k", "--g", "--X", "--M", "--at", "--point", "--n", "--lambda", "--order", "--closed", "--format"
    }
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "w1-sigma", "--g", "identity", "--at", "0", "0", "--nodes", "80"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --nodes 80" in capsys.readouterr().err


def test_missing_required_matrix_is_bad_input(capsys):
    assert main(["eval", "w1-sigma", "--at", "0", "0"]) == 2
    assert main(["eval", "star-exp", "--M", "nonsense", "--point", "0", "0"]) == 2
    capsys.readouterr()


def test_suite_pass_and_formats(capsys):
    code, out = _run(capsys, ["suite", "lemmatrices", "--trials", "5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    code, out = _run(capsys, ["suite", "lemmatrices", "--trials", "5", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,case,residual,tol,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_suite_forced_failure(capsys):
    # an absurd tolerance forces residual > tol without touching the math
    code, out = _run(capsys, ["suite", "lemmatrices", "--trials", "3", "--tol", "1e-30"])
    assert code == 1


def test_nan_residual_fails_the_suite():
    for residuals in ([float("nan"), 1e-9], [1e-9, float("nan")]):
        records = [{"case": f"trial{i}", "residual": r} for i, r in enumerate(residuals)]
        report = SuiteReport("gaussint", 1, 1.0, 2, 7, 1e-8, records)
        assert report.failures == 1
        assert math.isnan(report.max_residual)


def test_suite_quadrature_nodes_out_of_range_is_bad_config(capsys):
    # numpy's Gauss-Hermite weights are NaN at 400 nodes
    assert main(["suite", "gaussint", "--trials", "1", "--nodes", "400"]) == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_suite_non_finite_lambda_is_bad_config(capsys, lam):
    # a NaN or infinite λ would print as bare NaN / Infinity, not JSON
    assert main(["suite", "lemmatrices", "--lambda", lam, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lambda" in captured.err


def test_unknown_suite(capsys):
    assert main(["suite", "no-such-suite"]) == 2
    capsys.readouterr()


def test_deterministic_output(capsys):
    args = ["suite", "cocycle", "--trials", "4", "--seed", "11", "--format", "csv"]
    _, first = _run(capsys, args)
    _, second = _run(capsys, args)
    assert first == second


def test_csv_value_format(capsys):
    code, out = _run(
        capsys, ["eval", "w1-sigma", "--g", "identity", "--at", "0", "0", "--format", "csv"]
    )
    assert code == 0
    re, im = (float(tok) for tok in out.strip().split(","))
    assert (re, im) == pytest.approx((1.0, 0.0))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "w1-sigma", "--g", "identity", "--at", "nan", "0"],
        ["eval", "w0-sigma", "--k", "identity", "--at", "inf", "0"],
        ["eval", "kernel", "--k", "identity", "--at", "0", "0", "nan", "0"],
        ["eval", "star-exp", "--M", "0.1I", "--point", "nan", "0", "--closed"],
        ["eval", "w1-sigma", "--g", "identity", "--at", "0", "0", "--lambda", "-1"],
        ["eval", "star-exp", "--M", "nanI", "--point", "0.1", "0.2"],
    ],
)
def test_eval_refuses_non_finite_input(capsys, argv):
    # refused by the library's own checks (a WeylsymError), not by numpy
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _matrix_file(tmp_path, name, m):
    path = tmp_path / name
    dump_matrix(np.asarray(m), str(path))
    return str(path)


@pytest.mark.parametrize(
    "kind, flag, good, bad",
    [
        # k = [[P, Q], [Qbar, Pbar]]: the bottom blocks must match the top ones
        ("w0-sigma", "--k", np.eye(2), [[1.0, 0.0], [0.5, 1.0]]),
        # g must be real
        ("w1-sigma", "--g", np.eye(2), [[1.0, 0.2j], [0.0, 1.0]]),
        # X = [[A, B], [C, -A^t]]: D = -A^t
        ("w1-exp", "--X", [[0.1, 0.2], [0.3, -0.1]], [[0.1, 0.2], [0.3, 5.0]]),
        # X = [[A, B], [Bbar, Abar]]
        ("w0-dsigma", "--X", [[0.1j, 0.2], [0.2, -0.1j]], [[0.1j, 0.2], [0.7, -0.1j]]),
        # M must be real
        ("star-exp", "--M", 0.1 * np.eye(2), [[0.1, 0.05j], [0.05j, 0.1]]),
        # and symmetric, as given: it is not symmetrised
        ("hormander", "--M", [[0.1, 0.05], [0.05, 0.1]], [[0.1, 0.05], [0.0, 0.1]]),
    ],
    ids=["SuBlocks", "SpReal", "SpLieReal", "SuLie", "QuadForm2n", "QuadForm2n-symmetric"],
)
def test_eval_refuses_a_matrix_its_element_does_not_reproduce(tmp_path, capsys, kind, flag, good, bad):
    args = ["eval", kind, "--at", "0.1", "0.2"]
    assert main(args + [flag, _matrix_file(tmp_path, "good.json", good)]) == 0
    assert main(args + [flag, _matrix_file(tmp_path, "bad.json", bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_accepts_a_large_symplectic_product(tmp_path, capsys):
    # ‖g‖ = 8.4e7: g^t J g misses J by 0.19 in roundoff alone
    g = sp_mul(random_sp(3, 7, 6.0), random_sp(3, 1007, 6.0))
    path = _matrix_file(tmp_path, "g.json", g.g)
    code, out = _run(capsys, ["eval", "w1-sigma", "--n", "3", "--g", path, "--at", "0.1", "0.2", "0.3", "-0.1", "0", "0.2"])
    assert code == 0
    from weylsym.weylsymbols import w1_sigma_closed

    expect = w1_sigma_closed(g, [0.1, 0.2, 0.3], [-0.1, 0, 0.2])
    assert json.loads(out)["value"] == [expect.real, expect.imag]


def test_w0_sigma_refuses_k_outside_s(tmp_path, capsys):
    # P = 2, Q = 0 has the block form of S but fails P P* - Q Q* = I
    code = main(["eval", "w0-sigma", "--k", _matrix_file(tmp_path, "k.json", 2 * np.eye(2)), "--at", "0.1", "0.2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_series_order_is_bad_config(capsys):
    assert main(["eval", "star-exp", "--M", "0.1I", "--point", "0.1", "0.2", "--order", "-1"]) == 2
    assert "order" in capsys.readouterr().err


@pytest.mark.parametrize("flag, at", [("--at", ["-3.7e-05", "0.1"]), ("--point", ["0.2", "-1e-05"]),
                                      ("--at", ["-2E+0", "-.5"])])
def test_eval_takes_negative_coordinates_with_an_exponent(capsys, flag, at):
    code, out = _run(capsys, ["eval", "star-exp", "--M", "0.1I", flag, *at, "--closed"])
    assert code == 0
    expect = star_exp_quadratic_closed(QuadForm2n(1, 0.1 * np.eye(2)), [float(a) for a in at])
    assert json.loads(out)["value"] == [expect.real, expect.imag]


# n = 2 at λ = 1.3; the reals after --at, read as x then y for R^{2n} and as
# re/im pairs for C^n
_N, _LAM = 2, 1.3
_AT = [0.3, -0.2, 0.1, 0.25]
_X, _Y = np.array(_AT[:2]), np.array(_AT[2:])
_Z = np.array([0.3 - 0.2j, 0.1 + 0.25j])
_W = np.array([-0.15 + 0.05j, 0.2 + 0.1j])
_K, _G = random_su(_N, 3), random_sp(_N, 4)
_XR = random_sp_lie(_N, 5, scale=0.4)
_XC = su_lie_from_sp_lie(_XR)
_R = np.random.default_rng(6).uniform(-1, 1, (2 * _N, 2 * _N))
_Q = QuadForm2n(_N, 0.03 * (_R + _R.T))

# kind: (matrix flag, its matrix, extra arguments, the library call)
_KINDS = {
    "w0-sigma": ("--k", _K.full, [], lambda: w0_sigma_closed(_K, _Z, _LAM)),
    "w0-dsigma": ("--X", _XC.full, [], lambda: w0_dsigma_closed(_XC, _Z, _LAM)),
    "w1-sigma": ("--g", _G.g, [], lambda: w1_sigma_closed(_G, _X, _Y, _LAM)),
    "w1-exp": ("--X", _XR.full, [], lambda: w1_exp_symbol(_XR, _LAM).eval(np.concatenate([_X, _Y]))),
    "w1-dsigma": ("--X", _XR.full, [], lambda: w1_dsigma_closed(_XR, _X, _Y, _LAM)),
    "berezin-sigma": ("--k", _K.full, [], lambda: berezin_sigma_symbol(_K, _LAM).eval_z(_Z)),
    "berezin-dsigma": ("--X", _XC.full, [], lambda: berezin_symbol_dsigma(_XC, _Z, _LAM)),
    "star-exp": ("--M", _Q.M, ["--order", "12"], lambda: star_exp_series(_Q, -1j, 12, _AT)),
    "hormander": ("--M", _Q.M, [], lambda: star_exp_symbol(_Q, 1).eval(np.concatenate([_X, _Y]))),
    "kernel": ("--k", _K.full, [], lambda: complex(sigma_kernel(_K, _LAM).eval(_Z, _W))),
}


def test_every_eval_kind_is_tested():
    assert sorted(_KINDS) == sorted(EVAL_KINDS)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_eval_prints_its_library_call_bit_for_bit(tmp_path, capsys, kind, fmt):
    flag, m, extra, call = _KINDS[kind]
    at = _AT + [-0.15, 0.05, 0.2, 0.1] if kind == "kernel" else _AT
    argv = ["eval", kind, flag, _matrix_file(tmp_path, "m.json", m), "--n", str(_N), "--lambda", str(_LAM)]
    code, out = _run(capsys, argv + ["--at", *map(repr, at), *extra, "--format", fmt])
    assert code == 0
    expect = call()
    fields = {}
    if isinstance(expect, tuple):
        expect, last = expect
        fields = {"last_term": last}
    if fmt == "csv":
        assert out == f"{expect.real:.15g},{expect.imag:.15g}\n"
    else:
        assert json.loads(out) == {"value": [expect.real, expect.imag], **fields}


def test_point_is_the_same_option_as_at(tmp_path, capsys):
    path = _matrix_file(tmp_path, "g.json", _G.g)
    argv = ["eval", "w1-sigma", "--n", "2", "--g", path]
    at = _run(capsys, argv + ["--at", *map(repr, _AT)])
    point = _run(capsys, argv + ["--point", *map(repr, _AT)])
    # the later of the two gives the point
    both = _run(capsys, argv + ["--at", "0", "0", "0", "0", "--point", *map(repr, _AT)])
    expect = w1_sigma_closed(_G, _X, _Y)
    assert at == point == both == (0, json.dumps({"value": [expect.real, expect.imag]}) + "\n")


def test_jacobi_bk_runs_past_n_2(capsys):
    # the suite runs no quadrature, so it admits the n of the other closed-form suites
    for n in ("3", "4"):
        code, out = _run(capsys, ["suite", "jacobi-bk", "--n", n, "--trials", "5"])
        assert code == 0
        assert json.loads(out)["failures"] == 0


def test_star_exp_suite_refuses_n_3_before_the_series(monkeypatch, capsys):
    called = []
    monkeypatch.setattr(suites, "star_exp_series", lambda *a: called.append(a))
    assert main(["suite", "star-exp", "--n", "3", "--trials", "1"]) == 2
    assert "needs n in {1, 2}" in capsys.readouterr().err
    assert called == []


def test_default_tol_refuses_an_unknown_suite():
    assert default_tol("lemmatrices") == 1e-10
    with pytest.raises(UnknownSuite):
        default_tol("no-such-suite")


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("kind", EVAL_KINDS)
def test_eval_refuses_n_below_1_before_reading_a_matrix(monkeypatch, capfd, kind, n):
    # capfd, not capsys: LAPACK writes its complaints to fd 2
    read = []
    monkeypatch.setattr(cli, "_load_square", lambda *a: read.append(a))
    flag = _KINDS[kind][0]
    for extra in (["--closed"], []) if kind == "star-exp" else ([],):
        assert main(["eval", kind, flag, "identity", "--n", n, *extra]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n must be at least 1, got {n}\n"
    assert read == []


def test_main_builds_one_parser_and_carries_nothing_between_calls(monkeypatch, capsys):
    series = ["eval", "star-exp", "--M", "0.1I", "--point", "0.5", "0.2"]
    argvs = [series + ["--closed"], series, series + ["--format", "csv"]]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_run(capsys, argv))
    # the closed form, the series with its last term, and the series as csv
    assert len(set(fresh)) == 3
    assert "last_term" not in fresh[0][1] and "last_term" in fresh[1][1]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: built.append(1) or build())
    cli._parser.cache_clear()
    assert [_run(capsys, argv) for argv in argvs] == fresh
    assert built == [1]
    # the defaults that every call shares cannot be changed by one of them
    assert cli._parser().parse_args(["eval", "w1-sigma"]).at == ()


def test_no_eval_kind_runs_a_quadrature(monkeypatch, tmp_path, capsys):
    """`eval` evaluates closed forms only: with every quadrature made to raise,
    every kind still prints its value, the phase cut's W0 and W1 included."""
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "weylsym"]:
        for name in ("quadrature_cn", "lebesgue_cn", "lebesgue_rn"):
            if getattr(getattr(mod, name, None), "__module__", None) == "weylsym.quadrature":
                monkeypatch.setattr(mod, name, lambda *a, _name=name, **kw: pytest.fail(f"{_name} ran"))
    assert not hasattr(cli, "adjudicate_phase")
    for kind, (flag, m, extra, _) in sorted(_KINDS.items()):
        at = _AT + [-0.15, 0.05, 0.2, 0.1] if kind == "kernel" else _AT
        argv = ["eval", kind, flag, _matrix_file(tmp_path, "m.json", m), "--n", str(_N), "--lambda", str(_LAM)]
        assert _run(capsys, argv + ["--at", *map(repr, at), *extra])[0] == 0, kind
    cut = SpReal(1, -np.diag([2.0, 0.5]))
    for kind, flag, m in (("w1-sigma", "--g", cut.g), ("w0-sigma", "--k", su_from_sp(cut).full)):
        assert _run(capsys, ["eval", kind, flag, _matrix_file(tmp_path, "cut.json", m), "--at", "0.1", "0.2"])[0] == 0
