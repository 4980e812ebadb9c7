"""weylsym benchmark: one workload, end to end or traced layer by layer.

    python3 bench/run.py --workload series --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run it from the repository root; it imports ``weylsym`` from ``src/`` and
refuses to run without it.  Workloads: ``series``, ``quadrature``,
``pointwise`` (``all`` runs the three in turn).  See ``bench/README.md``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
fresh interpreters, from start to the first timed op), ``ops_per_s``,
``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb`` of the timed process, and
the fail ratio as ``failed`` / ``attempted``.  ``--trace 1`` runs a fixed
set of ops untraced and then traced, and prints the per-layer metrics.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

This process imports neither numpy nor weylsym: every measured process is
a fresh child, which pins BLAS to one thread before it imports numpy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("series", "quadrature", "pointwise")

# fresh interpreters whose set-up is timed, including the measured worker
SETUP_SAMPLES = 3
# the whole run, children included, ends within this
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _run_worker(args: list, deadline: float) -> tuple:
    """Start a worker; returns (seconds from start to READY, remaining stdout).

    A watchdog kills the worker at the deadline; the worker is always
    waited for.
    """
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        setup_s = None
        for line in proc.stdout:
            if line.strip() == "READY":
                setup_s = time.perf_counter() - t0
                break
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or setup_s is None:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {code}")
    return setup_s, rest


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_run_worker([*base, "--setup-only"], deadline)[0])
    setup_s, out = _run_worker(base, deadline)
    setups.append(setup_s)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {workload} printed no result")
    result = json.loads(lines[-1])
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    result["metrics"] = metrics
    result["setup_samples_s"] = setups
    return result


def _print_report(workload: str, seed: int, res: dict) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"== {workload} (seed {seed}): {attempted} ops in {res['window_s']:.1f} s over {res['blocks']} blocks")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    if res["errors"]:
        print(f"  errors: {json.dumps(res['errors'])}")
    if len(res["setup_samples_s"]) > 1:
        print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in res['setup_samples_s'])}")
    if "spans" in res:
        print(f"  spans: {json.dumps(res['spans'])}")
    print(f"  env: {json.dumps(res['env'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "weylsym" / "__init__.py").is_file():
        print(f"error: no weylsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            _print_report(name, args.seed, results[name])
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload == "all":
        summary["workloads"] = {name: r["metrics"] for name, r in results.items()}
    else:
        summary["metrics"] = results[args.workload]["metrics"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
