"""Every registered suite at every n it admits, at its defaults, as the CLI
runs it: 20 trials, seed 7 and the suite's own tolerance."""

import json

import numpy as np
import pytest

from weylsym.suites import _SUITES, SUITE_NAMES, run_suite

# star-exp at n = 2 takes about 2.5 s at its defaults; tests/test_moyal.py runs
# it at two trials
_CASES = [(name, n) for name in SUITE_NAMES for n in _SUITES[name].ns if (name, n) != ("star-exp", 2)]


@pytest.mark.parametrize("name, n", _CASES)
def test_every_suite_passes_at_its_defaults(name, n):
    report = run_suite(name, n=n)
    assert (report.trials, report.seed, report.tol) == (20, 7, _SUITES[name].tol)
    assert report.failures == 0, report.to_csv_lines()
    assert json.loads(json.dumps(report.to_obj())) == report.to_obj()


def test_a_report_from_numpy_arguments_is_json():
    report = run_suite(
        "lemmatrices", n=np.int64(2), lam=np.float64(1.5), trials=np.int64(2), seed=np.int64(3), tol=np.float64(1e-10)
    )
    obj = json.loads(json.dumps(report.to_obj()))
    assert {k: obj[k] for k in ("n", "lambda", "trials", "seed", "tol")} == {
        "n": 2, "lambda": 1.5, "trials": 2, "seed": 3, "tol": 1e-10
    }
    assert [type(getattr(report, f)) for f in ("n", "lam", "trials", "seed", "tol")] == [int, float, int, int, float]
    # the same trials as from Python numbers
    assert report == run_suite("lemmatrices", n=2, lam=1.5, trials=2, seed=3, tol=1e-10)
