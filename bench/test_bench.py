"""Checks of the benchmark itself: the tracer restores every name it wraps,
its counts repeat exactly, and the benchmark refuses to run without the
weylsym sources.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, leftover_wraps  # noqa: E402
from worker import layer_metrics, run_pass  # noqa: E402
from weylsym import gaussint, matcore, moyal, sympgroup  # noqa: E402
from weylsym.polys import Poly  # noqa: E402


def _snapshot() -> dict:
    owners = [m for name, m in sys.modules.items() if name == "weylsym" or name.startswith("weylsym.")]
    owners += [Poly, sympgroup.SuBlocks, scipy.linalg]
    return {(id(o), attr): id(v) for o in owners for attr, v in vars(o).items()}


def _mixed_ops(tmp_path) -> tuple:
    """A small deck touching every hook: Poly results, star_exp_series,
    quadrature grids, the CLI and scipy's expm."""
    series = workloads.build("series", 3, 1, tmp_path)
    quad = workloads.build("quadrature", 3, 1, tmp_path)
    point = workloads.build("pointwise", 3, 1, tmp_path)
    ops = [series.blocks[0][0]]
    ops += [op for op in quad.blocks[0] if op.kind.endswith(".n1")][:8]
    ops += [op for op in quad.blocks[0] if op.kind == "adjudicate.n2"][:1]
    ops += point.blocks[0]
    return ops, point.cleanup


def _traced_counts(ops) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        _, errors = run_pass(ops)
    finally:
        tracer.uninstall()
    assert not errors
    metrics = layer_metrics(tracer, len(ops), 1.0, 1.0, 0.0)
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "computed_bytes")}
    counts.update({name: st.calls for name, st in tracer.funcs.items()})
    return counts


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        # a name taken in by `from .matcore import ...` and its home binding
        assert gaussint.det_powhalf_posreal is matcore.det_powhalf_posreal
        assert hasattr(matcore.solve, "__bench_traced__")
        assert hasattr(Poly.__mul__, "__bench_traced__")
        assert hasattr(scipy.linalg.expm, "__bench_traced__")
        assert hasattr(vars(sympgroup.SuBlocks)["full"].fget, "__bench_traced__")
        f = moyal.phase_poly_from_quadform(moyal.QuadForm2n(1, 0.1 * np.eye(2)))
        moyal.moyal_mul(f, f)
        gaussint.det_powhalf_posreal(np.eye(2))
        matcore.mat_cosh(np.eye(2))
    finally:
        tracer.uninstall()
    assert leftover_wraps() == []
    assert _snapshot() == before
    assert tracer.stat("matcore.det_powhalf_posreal").calls == 1
    assert tracer.stat("scipy.expm").calls == 2
    assert tracer.stat("moyal.poisson_power").calls == 3
    assert tracer.counters["polys.terms_out"] > 0


def test_counts_repeat_exactly(tmp_path):
    ops, cleanup = _mixed_ops(tmp_path)
    try:
        # as in the benchmark, the traced passes start with the grid caches warm
        run_pass(ops)
        first = _traced_counts(ops)
        second = _traced_counts(ops)
    finally:
        cleanup()
    assert leftover_wraps() == []
    assert first == second
    for name in ("polys.terms_out", "quadrature.points", "scipy.expm.calls", "cli.calls", "moyal.poisson_power.calls"):
        assert first[name] > 0, name


def _run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_two_traced_runs_agree_on_counts():
    args = ["--workload", "pointwise", "--seed", "5", "--seconds", "1", "--trace", "1"]
    results = []
    for _ in range(2):
        proc = _run(args, ROOT)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in results]
    assert counts[0] == counts[1]
    assert results[0]["correct"] and results[0]["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run(["--workload", "series", "--seed", "1", "--seconds", "10", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
