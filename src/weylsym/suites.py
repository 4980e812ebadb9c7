"""Named verification suites: randomized cross-checks of every closed form
against an independent oracle (quadrature, series, or an alternative
derivation), with deterministic per-trial seeding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import matcore
from .errors import BadConfig, UnknownSuite
from .gaussint import (
    GaussianIntegrand,
    GaussianKernel,
    block_inverse_identity_residual,
    cayley_block_identity_residual,
    compose_kernels,
    det_identity_residual,
    gaussian_integral_closed,
    quadrature_centre,
    quadrature_scale,
)
from .heisenberg import HeisElt, bargmann_apply, rho_fock_apply, rho_schrod_apply
from .jacobi import CharParams, bk_via_jacobi
from .metaplectic import sigma_cocycle_scalar, sigma_kernel, verify_intertwining
from .moyal import (
    Poly,
    homomorphism_residual,
    star_exp_series,
    star_exp_symbol,
)
from .quadrature import MAX_NODES, GaussianExponent, lebesgue_cn
from .sympgroup import (
    SpReal,
    random_sp,
    random_sp_lie,
    random_su,
    rng_for,
    su_from_sp,
    su_inv,
)
from .weylsymbols import (
    QuadForm2n,
    polar_relation_residual,
    w0_integral,
    w0_sigma_closed,
    w1_exp_symbol,
    w1_sigma_closed,
)

__all__ = ["SuiteReport", "run_suite", "default_tol", "SUITE_NAMES", "random_su_negdet"]


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    lam: float
    trials: int
    seed: int
    tol: float
    records: list = field(default_factory=list)

    @property
    def failures(self) -> int:
        """Records whose residual is not within tol; a NaN residual fails."""
        return sum(1 for r in self.records if not r["residual"] <= self.tol)

    @property
    def max_residual(self) -> float:
        """Largest residual, or NaN when any residual is NaN."""
        return float(np.max([r["residual"] for r in self.records], initial=0.0))

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "lambda": self.lam,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "failures": self.failures,
            "max_residual": self.max_residual,
            "records": self.records,
        }

    def to_csv_lines(self) -> list:
        lines = ["suite,case,residual,tol,pass"]
        for r in self.records:
            ok = "true" if r["residual"] <= self.tol else "false"
            lines.append(f"{self.suite},{r['case']},{r['residual']:.6e},{self.tol:.1e},{ok}")
        return lines


def _tseed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _cpx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_su_negdet(seed: int):
    """An element k of S (n = 1) with Det(I + k) < -0.3 and Det P off the
    real axis, built as rotation · squeeze with numerically verified sign."""
    rng = rng_for(seed, "negdet")
    while True:
        theta = np.pi + rng.uniform(-0.55, 0.55)
        if abs(theta - np.pi) < 0.03:
            continue
        a = rng.uniform(1.8, 3.0)
        c, s = np.cos(theta), np.sin(theta)
        g = np.array([[c, -s], [s, c]]) @ np.diag([a, 1.0 / a])
        if np.linalg.det(np.eye(2) + g) < -0.3:
            return su_from_sp(SpReal(1, g))


# ---------------------------------------------------------------------------
# individual suites: each yields (case label, residual)


def random_gaussian_integrand(rng, n) -> GaussianIntegrand:
    """Admissible integrand built from a target N with Re(N) spectrum in
    [0.6, 1.6], mapped back through M = U^{-t} N U^{-1}."""
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    s = q @ np.diag(rng.uniform(0.6, 1.6, 2 * n)) @ q.T
    t = rng.standard_normal((2 * n, 2 * n))
    n_mat = s + 0.3j * (t + t.T) / 2
    uinv = matcore.matrix_U(n).conj().T / 2
    m = uinv.T @ n_mat @ uinv
    m = (m + m.T) / 2
    return GaussianIntegrand(
        n, m[:n, :n], m[n:, :n], m[n:, n:], _cpx(rng, n, 0.5), _cpx(rng, n, 0.5)
    )


def _suite_gaussint(n, lam, trials, seed, nodes):
    for trial in range(trials):
        rng = rng_for(_tseed(seed, trial), "gaussint")
        gi = random_gaussian_integrand(rng, n)
        closed = gaussian_integral_closed(gi)
        wc = quadrature_centre(gi)
        quad = lebesgue_cn(GaussianExponent(lambda w: gi.exponent(w + wc)), n, nodes_per_axis=nodes,
                           scale=quadrature_scale(gi))
        yield f"trial{trial}", abs(closed - quad) / abs(closed)


def _suite_lemmatrices(n, lam, trials, seed, nodes):
    for trial in range(trials):
        k = random_su(n, _tseed(seed, trial))
        pinv = matcore.require_invertible(k.P)[0]
        r1 = block_inverse_identity_residual(k.Q.conj() @ pinv, pinv @ k.Q, pinv)
        r2 = cayley_block_identity_residual(k)
        r3 = det_identity_residual(k)
        yield f"trial{trial}", max(r1, r2, r3)


def _suite_jacobi_bk(n, lam, trials, seed, nodes):
    chi = CharParams(lam, -0.5)
    for trial in range(trials):
        ts = _tseed(seed, trial)
        k = random_su(n, ts)
        rng = rng_for(ts, "jacobi-bk")
        y = _cpx(rng, n, 0.6)
        v = _cpx(rng, n, 0.6)
        direct = sigma_kernel(k, lam).eval(y, v)
        dual = bk_via_jacobi(k, y, v, chi)
        yield f"trial{trial}", abs(direct - dual) / abs(direct)


def _suite_intertwining(n, lam, trials, seed, nodes):
    for trial in range(trials):
        ts = _tseed(seed, trial)
        k = random_su(n, ts)
        rng = rng_for(ts, "intertwining")
        z0, z, w = (_cpx(rng, n, 0.7) for _ in range(3))
        yield f"trial{trial}", verify_intertwining(k, z0, z, w, lam)


def _suite_cocycle(n, lam, trials, seed, nodes):
    for trial in range(trials):
        ts = _tseed(seed, trial)
        k1 = random_su(n, ts)
        k2 = random_su(n, ts + 7_777_777)
        s = sigma_cocycle_scalar(k1, k2, lam)
        r_sign = min(abs(s - 1), abs(s + 1))
        # unitarity: σ(k) σ(k^{-1}) must reproduce the identity kernel
        comp = compose_kernels(sigma_kernel(k1, lam), sigma_kernel(su_inv(k1), lam))
        ident = GaussianKernel.identity(n, lam)
        r_unit = max(
            matcore.norm(comp.alpha - ident.alpha),
            matcore.norm(comp.beta - ident.beta),
            matcore.norm(comp.gamma - ident.gamma),
            abs(comp.c - 1.0),
        )
        yield f"trial{trial}", max(r_sign, r_unit)


def _suite_w0_quadrature(n, lam, trials, seed, nodes):
    for trial in range(trials):
        ts = _tseed(seed, trial)
        if n == 1 and trial % 5 == 4:
            k = random_su_negdet(ts)
            label = f"trial{trial}-negdet"
        else:
            k = random_su(n, ts)
            label = f"trial{trial}"
        rng = rng_for(ts, "w0-points")
        z = _cpx(rng, n, 0.4)
        closed = w0_sigma_closed(k, z, lam)
        quad = w0_integral(sigma_kernel(k, lam), z, lam, nodes=nodes)
        yield label, abs(closed - quad) / abs(quad)


def _suite_w1_bridge(n, lam, trials, seed, nodes):
    for trial in range(trials):
        ts = _tseed(seed, trial)
        x_lie = random_sp_lie(n, ts, scale=0.4)
        g = random_sp(n, ts, scale=0.4)  # exp(x_lie), from the same draw
        rng = rng_for(ts, "w1-points")
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        a = w1_exp_symbol(x_lie).eval(np.concatenate([x, y]))
        b = w1_sigma_closed(g, x, y)
        r1 = abs(a - b) / abs(b)
        c = w0_sigma_closed(su_from_sp(g), x + 1j * y, 1.0)
        r2 = abs(b - c) / abs(c)
        yield f"trial{trial}", max(r1, r2)


def _suite_polar(n, lam, trials, seed, nodes):
    for trial in range(trials):
        ts = _tseed(seed, trial)
        k = random_su(n, ts)
        yield f"trial{trial}", polar_relation_residual(k, lam, npoints=10, seed=ts)


def _suite_star_exp(n, lam, trials, seed, nodes):
    for trial in range(trials):
        rng = rng_for(_tseed(seed, trial), "star-exp")
        r = rng.uniform(-1, 1, (2 * n, 2 * n))
        m = 0.2 * (r + r.T) / max(np.linalg.norm(r + r.T, 2), 1e-12)
        q = QuadForm2n(n, m)
        point = rng.uniform(-0.8, 0.8, 2 * n)
        series, _ = star_exp_series(q, -1j, 40, point)
        closed = star_exp_symbol(q, -1j).eval(point)
        yield f"trial{trial}", abs(series - closed) / abs(closed)


def _random_phase_poly(rng, n, max_deg=3, nterms=5) -> Poly:
    out: dict = {}
    dim = 2 * n
    for _ in range(nterms):
        deg = rng.integers(0, max_deg + 1)
        e = [0] * dim
        for _ in range(deg):
            e[rng.integers(0, dim)] += 1
        key = tuple(e)
        out[key] = out.get(key, 0.0) + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Poly(dim, out)


def _suite_quantize_hom(n, lam, trials, seed, nodes):
    for trial in range(trials):
        rng = rng_for(_tseed(seed, trial), "quantize-hom")
        f1 = _random_phase_poly(rng, n)
        f2 = _random_phase_poly(rng, n)
        yield f"trial{trial}", homomorphism_residual(f1, f2)


def _suite_bargmann(n, lam, trials, seed, nodes):
    for trial in range(trials):
        ts = _tseed(seed, trial)
        rng = rng_for(ts, "bargmann")
        m = trial % 3

        def phi(x):
            x = np.atleast_2d(x)
            return x[:, 0] ** m * np.exp(-0.5 * np.sum(x**2, axis=-1))

        h = HeisElt(n, _cpx(rng, n, 0.4), rng.uniform(-1, 1))
        z = _cpx(rng, n, 0.5)

        lhs = bargmann_apply(lambda x: rho_schrod_apply(h, phi, x, lam), z, lam, nodes=nodes)
        rhs = rho_fock_apply(h, lambda w: bargmann_apply(phi, w, lam, nodes=nodes), z, lam)
        yield f"trial{trial}", abs(lhs - rhs) / (1 + abs(rhs))


@dataclass(frozen=True)
class _Suite:
    """A registered suite: its generator of (case label, residual), its
    default tolerance, and the n it admits."""

    generate: Callable
    tol: float
    ns: tuple


# past n = 2 the C^n grids of gaussint and w0-quadrature at the default 40 nodes
# (40^{2n} points) exceed quadrature.MAX_POINTS, and the star-exp series at order 40
# (C(40 + 2n, 2n) monomials) the monomial cap of moyal.star_exp_series; bargmann
# integrates over R^n, 40^3 = 64,000 points at n = 3
_N_TO_2 = (1, 2)
_N_TO_4 = (1, 2, 3, 4)

_SUITES = {
    "gaussint": _Suite(_suite_gaussint, 1e-8, _N_TO_2),
    "lemmatrices": _Suite(_suite_lemmatrices, 1e-10, _N_TO_4),
    "jacobi-bk": _Suite(_suite_jacobi_bk, 1e-9, _N_TO_4),
    "intertwining": _Suite(_suite_intertwining, 1e-10, _N_TO_4),
    "cocycle": _Suite(_suite_cocycle, 1e-9, _N_TO_4),
    "w0-quadrature": _Suite(_suite_w0_quadrature, 1e-6, _N_TO_2),
    "w1-bridge": _Suite(_suite_w1_bridge, 1e-8, _N_TO_4),
    "polar": _Suite(_suite_polar, 1e-8, _N_TO_4),
    "star-exp": _Suite(_suite_star_exp, 1e-6, _N_TO_2),
    "quantize-hom": _Suite(_suite_quantize_hom, 1e-12, _N_TO_4),
    "bargmann": _Suite(_suite_bargmann, 1e-6, (1, 2, 3)),
}

SUITE_NAMES = tuple(_SUITES)


def _suite(name: str) -> _Suite:
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _SUITES[name]


def default_tol(name: str) -> float:
    """The tolerance suite `name` runs at unless given one; UnknownSuite for
    a name not registered."""
    return _suite(name).tol


def run_suite(
    name: str,
    n: int = 1,
    lam: float = 1.0,
    trials: int = 20,
    seed: int = 7,
    tol: float | None = None,
    nodes: int | None = None,
) -> SuiteReport:
    """Run suite `name`, or raise BadConfig before any trial unless trials ≥ 1, n in the suite's
    ns and seed ≥ 0 are integers (`matcore._is_int`), λ > 0 and tol ≥ 0 finite reals
    (`matcore._is_real`), and nodes None or an integer in [1, MAX_NODES]."""
    suite = _suite(name)
    if not (matcore._is_int(trials) and trials >= 1):
        raise BadConfig(f"trials must be an integer >= 1, got {trials!r}")
    if not (matcore._is_real(lam) and 0 < lam < math.inf):
        raise BadConfig(f"lambda must be positive and finite, got {lam!r}")
    if not (matcore._is_int(n) and n in suite.ns):
        raise BadConfig(f"suite {name!r} needs n in {{{', '.join(map(str, suite.ns))}}}, got {n!r}")
    if not (matcore._is_int(seed) and seed >= 0):
        raise BadConfig(f"seed must be an integer >= 0, got {seed!r}")
    if not (nodes is None or (matcore._is_int(nodes) and 1 <= nodes <= MAX_NODES)):
        raise BadConfig(f"nodes must be None or an integer in [1, {MAX_NODES}], got {nodes!r}")
    if tol is None:
        tol = suite.tol
    elif not (matcore._is_real(tol) and 0 <= tol < math.inf):
        raise BadConfig(f"tol must be finite and >= 0, got {tol!r}")
    # stored as Python numbers, so that to_obj() goes through json.dumps
    n, lam, trials, seed, tol = int(n), float(lam), int(trials), int(seed), float(tol)
    if nodes is None:
        nodes = 80 if n == 1 else 40
    records = [
        {"case": case, "residual": float(res)}
        for case, res in suite.generate(n, lam, trials, seed, nodes)
    ]
    return SuiteReport(name, n, lam, trials, seed, tol, records)
