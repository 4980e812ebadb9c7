"""The benchmark's three workloads, built as decks of oracle-checked ops.

A deck is a list of blocks; a block is a list of ops in a fixed mix.  The
timed loop runs whole blocks, so every run sees the same mix of op kinds
and the latency percentiles fall at the same ranks whatever the seed: the
seed draws the matrices, points and suite seeds, never the mix.

Every op returns ``(residual, tol)`` and fails when the residual exceeds
the tolerance or the op raises.  Library calls go through module
attributes at call time (``moyal.star_exp_series``), so that the tracer
sees them.  See ``bench/README.md`` for why each workload exists and for
the configurations it deliberately leaves out.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from weylsym import cli, mjson, moyal, quadrature, suites, sympgroup, weylsymbols
from weylsym.errors import AmbiguousPhase

WORKLOADS = ("series", "quadrature", "pointwise")
# seconds per block at the seed commit on a 2-core Xeon; sizes the traced
# pass, which must not depend on a clock
NOMINAL_BLOCK_S = {"series": 4.1, "quadrature": 3.6, "pointwise": 0.11}
# distinct blocks drawn for a timed run; the window cycles through them
DECK_BLOCKS = 16


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], tuple]


@dataclass
class Deck:
    blocks: list
    warmup: list
    cold_grids: list  # (n, nodes, integrator) built once during set-up
    cleanup: Callable[[], None] = lambda: None


# block index of the warm-up ops, outside any deck
WARMUP_BLOCK = 2**20


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _suite_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# series: star_exp_series against the closed form


# n = 1 orders in one block; the two n = 2 ops (order 8) make up 2 of the
# 15 ops, so p90 (rank 13.5 of 15 per block) falls inside the n = 2 group,
# and p50 (rank 7.5) in the middle of the five order-16 ops
SERIES_N1_ORDERS = (12, 12, 12, 14, 14, 16, 16, 16, 16, 16, 18, 20, 24)
SERIES_N2_ORDERS = (8, 8)
# largest ‖M‖ per n: at the lowest order (12 for n = 1, 8 for n = 2) the
# truncation certificate (last term <= 1e-10 |total|) then holds with a
# margin of 5x or more; nearer the 0.2 / 0.1 envelope star_exp_series
# correctly refuses a few draws with NonConvergent
SERIES_N1_NORM = 0.15
SERIES_N2_NORM = 0.07


def _series_op(rng, n: int, order: int, m_norm: float, radius: float) -> Op:
    r = rng.uniform(-1, 1, (2 * n, 2 * n))
    m = rng.uniform(0.5, 1.0) * m_norm * (r + r.T) / np.linalg.norm(r + r.T, 2)
    p = rng.uniform(-1, 1, 2 * n)
    p *= rng.uniform(0.25, 1.0) * radius / np.linalg.norm(p)
    q = weylsymbols.QuadForm2n(n, m)
    tol = suites.default_tol("star-exp")

    def run():
        series, _ = moyal.star_exp_series(q, -1j, order, p)
        closed = moyal.star_exp_quadratic_closed(q, p)
        return abs(series - closed) / abs(closed), tol

    return Op(f"star_exp_series.n{n}", run)


def _series_block(seed: int, b: int) -> list:
    rng = _rng(seed, 1, b)
    ops = [_series_op(rng, 1, o, SERIES_N1_NORM, 0.8) for o in SERIES_N1_ORDERS]
    ops += [_series_op(rng, 2, o, SERIES_N2_NORM, 0.5) for o in SERIES_N2_ORDERS]
    return ops


def _series_warmup() -> list:
    rng = _rng(0, 1, WARMUP_BLOCK)
    f2 = moyal.phase_poly_from_quadform(weylsymbols.QuadForm2n(2, 0.05 * np.eye(4)))

    def mul_n2():
        moyal.moyal_mul(moyal.moyal_mul(f2, f2), f2)
        return 0.0, 1.0

    return [_series_op(rng, 1, 12, SERIES_N1_NORM, 0.8), Op("moyal_mul.n2", mul_n2)]


# ---------------------------------------------------------------------------
# quadrature: Gauss-Hermite oracle checks


ADJUDICATE_N2_NODES = 30


def _suite_op(name: str, n: int, seed: int, nodes: int | None = None) -> Op:
    def run():
        rep = suites.run_suite(name, n=n, trials=1, seed=seed, nodes=nodes)
        return rep.max_residual, rep.tol

    return Op(f"{name}.n{n}", run)


def _adjudicate_op(k, nodes: int) -> Op:
    """adjudicate_phase against the case analysis wherever that decides."""
    tol = suites.default_tol("w0-quadrature")

    def run():
        c = weylsymbols.adjudicate_phase(k, 1.0, nodes=nodes)
        try:
            ref = weylsymbols.metaplectic_phase_c(k)
        except AmbiguousPhase:
            return 0.0, tol
        return abs(c - ref) / abs(ref), tol

    return Op(f"adjudicate.n{k.n}", run)


# One block: two ops on 2.56M-point grids (n = 2, 40 nodes), six
# adjudications on 810k-point grids and 32 light n = 1 ops.  p90 (rank
# 36.9 of 40) falls among the adjudications, p50 among the light ops.
def _quadrature_block(seed: int, b: int) -> list:
    rng = _rng(seed, 2, b)
    s = lambda: _suite_seed(rng)  # noqa: E731
    ops = [_suite_op("gaussint", 2, s()), _suite_op("w0-quadrature", 2, s())]
    ops += [_adjudicate_op(sympgroup.random_su(2, s()), ADJUDICATE_N2_NODES) for _ in range(6)]
    for _ in range(8):
        ops.append(_suite_op("gaussint", 1, s()))
        ops.append(_suite_op("w0-quadrature", 1, s()))
        ops.append(_suite_op("bargmann", 1, s()))
        ops.append(_adjudicate_op(sympgroup.random_su(1, s()), 80))
    return ops


def _quadrature_warmup() -> list:
    rng = _rng(0, 2, WARMUP_BLOCK)
    s = lambda: _suite_seed(rng)  # noqa: E731
    return [
        _suite_op("gaussint", 1, s()),
        _suite_op("w0-quadrature", 1, s()),
        _suite_op("bargmann", 1, s()),
        _adjudicate_op(sympgroup.random_su(1, s()), 80),
        _adjudicate_op(sympgroup.random_su(2, s()), ADJUDICATE_N2_NODES),
    ]


# every grid shape the quadrature workload touches: (n, nodes, integrator)
QUADRATURE_GRIDS = [
    (1, 80, "cn"),
    (2, 40, "cn"),
    (2, ADJUDICATE_N2_NODES, "cn"),
    (1, 80, "rn"),
]


def build_cold_grid(n: int, nodes: int, integrator: str) -> float:
    """First call for one grid shape, with a constant integrand; returns
    its wall time."""
    one = lambda pts: np.ones(len(pts))  # noqa: E731
    t0 = time.perf_counter()
    if integrator == "cn":
        quadrature.quadrature_cn(one, 1.0, n, nodes_per_axis=nodes)
    else:
        quadrature.lebesgue_rn(one, n, nodes_per_axis=nodes)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# pointwise: small closed-form calls


POINTWISE_SUITES = (
    ("lemmatrices", (1, 2, 3)),
    ("jacobi-bk", (1, 2)),
    ("intertwining", (1, 2, 3)),
    ("cocycle", (1, 2, 3)),
    ("w1-bridge", (1, 2, 3)),
    ("polar", (1, 2, 3)),
    ("quantize-hom", (1, 2, 3)),
)
SYMBOL_GRID_POINTS = 64
# four symbol grids in a block of 27 ops: p90 (rank 24.3) falls inside
# them, p50 (rank 13.5) among the suite trials
SYMBOL_GRID_NS = (1, 1, 2, 3)


def _symbol_grid_op(rng, n: int) -> Op:
    g = sympgroup.random_sp(n, _suite_seed(rng))
    xs = rng.uniform(-1, 1, (SYMBOL_GRID_POINTS, n))
    ys = rng.uniform(-1, 1, (SYMBOL_GRID_POINTS, n))
    tol = suites.default_tol("w1-bridge")

    def run():
        k = sympgroup.su_from_sp(g)
        worst = 0.0
        for x, y in zip(xs, ys):
            w1 = weylsymbols.w1_sigma_closed(g, x, y)
            w0 = weylsymbols.w0_sigma_closed(k, x + 1j * y, 1.0)
            worst = max(worst, abs(w1 - w0) / abs(w0))
        return worst, tol

    return Op(f"symbol-grid.n{n}", run)


def _cli_value(argv: list) -> complex:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"weylsym {' '.join(argv)} exited with {code}")
    re, im = json.loads(out.getvalue())["value"]
    return complex(re, im)


def _fmt(vals) -> list:
    return [repr(float(v)) for v in vals]


def _cli_ops(rng, workdir: Path, b: int) -> list:
    """weylsym eval for a random g (w1-sigma), a random k (w0-sigma) and a
    scalar M (star-exp --closed), each against the library call it wraps."""
    n = 1 + b % 2
    g = sympgroup.random_sp(n, _suite_seed(rng))
    k = sympgroup.random_su(n, _suite_seed(rng))
    g_path = workdir / f"g{b}.json"
    k_path = workdir / f"k{b}.json"
    mjson.dump_matrix(g.g, str(g_path))
    mjson.dump_matrix(k.full, str(k_path))
    x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    z = rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
    z_args = _fmt(np.column_stack([z.real, z.imag]).ravel())
    t = float(rng.uniform(0.05, 0.3))
    pt = rng.uniform(-1, 1, 2 * n)

    def w1_sigma():
        got = _cli_value(["eval", "w1-sigma", "--n", str(n), "--g", str(g_path), "--at", *_fmt(x), *_fmt(y)])
        return abs(got - weylsymbols.w1_sigma_closed(g, x, y, 1.0)), 0.0

    def w0_sigma():
        got = _cli_value(["eval", "w0-sigma", "--n", str(n), "--k", str(k_path), "--at", *z_args])
        return abs(got - weylsymbols.w0_sigma_closed(k, z, 1.0)), 0.0

    def star_exp():
        got = _cli_value(["eval", "star-exp", "--n", str(n), "--M", f"{t!r}I", "--point", *_fmt(pt), "--closed"])
        q = weylsymbols.QuadForm2n(n, t * np.eye(2 * n))
        return abs(got - moyal.star_exp_quadratic_closed(q, pt)), 0.0

    return [
        Op(f"cli.w1-sigma.n{n}", w1_sigma),
        Op(f"cli.w0-sigma.n{n}", w0_sigma),
        Op(f"cli.star-exp.n{n}", star_exp),
    ]


def _pointwise_block(seed: int, b: int, workdir: Path) -> list:
    rng = _rng(seed, 3, b)
    ops = [
        _suite_op(name, n, _suite_seed(rng)) for name, ns in POINTWISE_SUITES for n in ns
    ]
    ops += [_symbol_grid_op(rng, n) for n in SYMBOL_GRID_NS]
    ops += _cli_ops(rng, workdir, b)
    return ops


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, nblocks: int, workdir_parent: Path) -> Deck:
    """The deck of `nblocks` blocks for one workload and seed."""
    if workload == "series":
        blocks = [_series_block(seed, b) for b in range(nblocks)]
        return Deck(blocks, _series_warmup(), [])
    if workload == "quadrature":
        blocks = [_quadrature_block(seed, b) for b in range(nblocks)]
        return Deck(blocks, _quadrature_warmup(), QUADRATURE_GRIDS)
    if workload == "pointwise":
        workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=workdir_parent))
        try:
            blocks = [_pointwise_block(seed, b, workdir) for b in range(nblocks)]
            warm = _pointwise_block(0, WARMUP_BLOCK, workdir)
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise
        return Deck(blocks, warm, [], cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
