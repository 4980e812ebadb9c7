"""One benchmark process: set up a workload, then run it timed or traced.

Started by ``bench/run.py``; not meant to be run by hand.  It prints
``READY`` once set-up (imports, input generation, warm-up and cold
quadrature grids) is done, which is where the parent stops the set-up
clock.  With ``--setup-only`` it exits there.  Otherwise the last line of
its output is one JSON object with the run's metrics.
"""

import os

# pin BLAS to one thread before numpy is imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# p90 needs at least ten samples above it
MIN_OPS = 100
# the timed window stops at the first block boundary past --seconds once
# MIN_OPS ops are done, and never runs past this
MAX_WINDOW_S = 120.0
# a trace run runs one warm-up block, then the same blocks untraced and
# traced; tracing adds 10-20%, so 0.4 of --seconds per pass keeps the run
# near --seconds
TRACE_PASS_SHARE = 0.4

LAYERS = (
    "cli", "suites", "moyal", "polys", "weylsymbols", "metaplectic", "jacobi",
    "heisenberg", "gaussint", "quadrature", "sympgroup", "matcore", "mjson",
)


def check(op) -> str | None:
    """Run one op; None if it passed, else the error type."""
    try:
        residual, tol = op.run()
    except Exception as exc:  # an op that raises is counted, the loop goes on
        return type(exc).__name__
    return None if residual <= tol else "ToleranceExceeded"


def timed_run(deck, seconds: float) -> dict:
    lat, errors, block_rates = [], Counter(), []
    start = perf_counter()
    b = 0
    while True:
        t_block = perf_counter()
        block = deck.blocks[b % len(deck.blocks)]
        for op in block:
            t0 = perf_counter()
            err = check(op)
            lat.append(perf_counter() - t0)
            if err:
                errors[f"{op.kind}:{err}"] += 1
        block_rates.append(len(block) / (perf_counter() - t_block))
        b += 1
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(lat) >= MIN_OPS) or elapsed >= MAX_WINDOW_S:
            break
    return {
        "attempted": len(lat),
        "failed": sum(errors.values()),
        "errors": dict(errors),
        "window_s": elapsed,
        "blocks": b,
        "metrics": {
            # the median block resists bursts of load from outside the run
            "ops_per_s": (statistics.median(block_rates), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def trace_blocks(seconds: float, nominal_block_s: float) -> int:
    """Blocks per trace pass: fixed by --seconds, never by a clock, so the
    counts of two traced runs with one seed are equal."""
    return max(1, int(TRACE_PASS_SHARE * seconds / nominal_block_s))


def run_pass(ops) -> tuple:
    errors = Counter()
    t0 = perf_counter()
    for op in ops:
        err = check(op)
        if err:
            errors[f"{op.kind}:{err}"] += 1
    return perf_counter() - t0, errors


def traced_run(deck, cold_s: float) -> dict:
    from tracer import Tracer, leftover_wraps

    ops = [op for block in deck.blocks for op in block]
    # the first block after set-up runs slower (about 10% on quadrature);
    # run it once so that both passes start warm
    run_pass(deck.blocks[0])
    plain_s, errors = run_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_errors = run_pass(ops)
    finally:
        tracer.uninstall()
    left = leftover_wraps()
    if left:
        raise RuntimeError(f"tracer left names wrapped: {left}")
    errors.update(traced_errors)
    return {
        "attempted": 2 * len(ops),
        "failed": sum(errors.values()),
        "errors": dict(errors),
        "window_s": plain_s + traced_s,
        "blocks": 2 * len(deck.blocks),
        "metrics": layer_metrics(tracer, len(ops), plain_s, traced_s, cold_s),
        "spans": tracer.dump(),
    }


def _per_call(total_s: float, calls: int, scale: float) -> float:
    return scale * total_s / calls if calls else 0.0


def layer_metrics(tr, nops: int, plain_s: float, traced_s: float, cold_s: float) -> dict:
    out = {}
    layers = tr.layer_totals()
    for layer in LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    c = tr.counters
    closed = [st for name, st in tr.funcs.items() if name.startswith("weylsymbols.") and name.endswith("_closed")]
    points = c["quadrature.points"]
    cli_main = tr.stat("cli.main")
    out.update({
        "polys.terms_out": (int(c["polys.terms_out"]), "count"),
        "moyal.poisson_power.calls": (tr.stat("moyal.poisson_power").calls, "count"),
        "moyal.moyal_mul.self_s": (tr.stat("moyal.moyal_mul").self_s, "s"),
        "quadrature.points": (int(points), "count"),
        "quadrature.ns_per_point": (_per_call(c["quadrature.time_s"], points, 1e9), "ns"),
        "quadrature.grid_bytes": (tr.grid_bytes(), "computed_bytes"),
        "quadrature.cold_s": (cold_s, "s"),
        "matcore.solve.calls": (tr.stat("matcore.solve").calls, "count"),
        "matcore.solve.self_s": (tr.stat("matcore.solve").self_s, "s"),
        "scipy.expm.calls": (tr.stat("scipy.expm").calls, "count"),
        "scipy.expm.self_s": (tr.stat("scipy.expm").self_s, "s"),
        "weylsymbols.closed.us_per_point": (
            _per_call(sum(st.total_s for st in closed), sum(st.calls for st in closed), 1e6), "us"),
        "gaussint.compose_kernels.calls": (tr.stat("gaussint.compose_kernels").calls, "count"),
        "cli.main.ms_per_call": (_per_call(cli_main.total_s, cli_main.calls, 1e3), "ms"),
        "trace.ops": (nops, "count"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
    })
    for n in (1, 2):
        out[f"moyal.star_exp_series.ms_per_call.n{n}"] = (
            _per_call(c[f"moyal.star_exp_series.total_s.n{n}"], c[f"moyal.star_exp_series.calls.n{n}"], 1e3),
            "ms",
        )
    return out


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from its .git directory without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> dict:
    """Threads of each loaded OpenBLAS, asked through its own API."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import weylsym

    if Path(weylsym.__file__).resolve().parent != SRC / "weylsym":
        print(f"error: imported weylsym from {weylsym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.trace:
        nblocks = trace_blocks(args.seconds, workloads.NOMINAL_BLOCK_S[args.workload])
    else:
        nblocks = workloads.DECK_BLOCKS
    deck = workloads.build(args.workload, args.seed, nblocks, BENCH)
    try:
        cold_s = sum(workloads.build_cold_grid(*g) for g in deck.cold_grids)
        for op in deck.warmup:
            check(op)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(deck, cold_s)
        else:
            result = timed_run(deck, args.seconds)
    finally:
        deck.cleanup()
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
