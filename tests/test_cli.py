import json

import numpy as np
import pytest

from weylsym.cli import main
from weylsym.mjson import dump_matrix
from weylsym.sympgroup import SpReal, random_sp, su_from_sp


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
