import json
import math

import numpy as np
import pytest

from weylsym.cli import main
from weylsym.mjson import dump_matrix
from weylsym.moyal import star_exp_quadratic_closed
from weylsym.suites import SuiteReport
from weylsym.sympgroup import SpReal, random_sp, sp_mul, su_from_sp
from weylsym.weylsymbols import QuadForm2n


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


def test_ambiguous_phase_exit_code_and_adjudication(tmp_path, capsys):
    # g = -diag(2, 1/2): det(I + g) < 0 with Det P real, so the closed-form
    # phase is ambiguous; quadrature adjudication resolves it
    g = -np.diag([2.0, 0.5])
    path = tmp_path / "neg.json"
    dump_matrix(g, str(path))
    args = ["eval", "w1-sigma", "--g", str(path), "--at", "0.1", "0.2"]
    code = main(args)
    capsys.readouterr()
    assert code == 3
    code, out = _run(capsys, args + ["--adjudicate-phase"])
    assert code == 0
    re, im = json.loads(out)["value"]
    assert np.isfinite(re) and np.isfinite(im)
    # W0 of k = U g U^{-1} at z = x + iy, adjudicated the same way
    k_path = tmp_path / "neg_k.json"
    dump_matrix(su_from_sp(SpReal(1, g)).full, str(k_path))
    code, out = _run(capsys, ["eval", "w0-sigma", "--k", str(k_path), "--at", "0.1", "0.2", "--adjudicate-phase"])
    assert code == 0
    assert complex(*json.loads(out)["value"]) == pytest.approx(complex(re, im), rel=1e-12)


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
    ],
    ids=["SuBlocks", "SpReal", "SpLieReal", "SuLie", "QuadForm2n"],
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
