"""Command-line frontend: evaluate symbols and kernels at points, or run the
named verification suites.

Exit codes: 0 success, 1 suite failures, 2 bad input, 3 unresolved phase
ambiguity (pass --adjudicate-phase to resolve it by quadrature), or a
cosh-law constant that fails its certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .errors import AmbiguousPhase, WeylsymError
from .matcore import norm
from .metaplectic import (
    berezin_symbol_dsigma,
    berezin_symbol_sigma,
    sigma_kernel,
)
from .mjson import load_matrix
from .moyal import star_exp_quadratic_closed, star_exp_series
from .suites import SUITE_NAMES, run_suite
from .sympgroup import SpLieReal, SpReal, SuBlocks, SuLie, su_from_sp
from .weylsymbols import (
    QuadForm2n,
    adjudicate_phase,
    hormander_exp_symbol,
    w0_dsigma_closed,
    w0_sigma_closed,
    w0_sigma_symbol,
    w1_dsigma_closed,
    w1_exp_closed,
    w1_sigma_closed,
)

EVAL_KINDS = (
    "w0-sigma",
    "w0-dsigma",
    "w1-sigma",
    "w1-exp",
    "w1-dsigma",
    "berezin-sigma",
    "berezin-dsigma",
    "star-exp",
    "hormander",
    "kernel",
)


def _load_square(spec: str, size: int) -> np.ndarray:
    """A square matrix from a JSON file, or 'identity', or '<scalar>I'."""
    if os.path.exists(spec):
        m = load_matrix(spec)
        if m.shape != (size, size):
            raise WeylsymError(f"expected {size}x{size} matrix, got {m.shape}")
        return m
    if spec == "identity":
        return np.eye(size, dtype=complex)
    if spec.endswith("I"):
        try:
            return float(spec[:-1]) * np.eye(size, dtype=complex)
        except ValueError:
            pass
    raise WeylsymError(f"cannot interpret matrix argument {spec!r}")


def _complex_point(vals, n):
    vals = np.asarray(vals, dtype=float)
    if vals.size != 2 * n:
        raise WeylsymError(f"expected {2*n} reals (re/im interleaved), got {vals.size}")
    return vals[0::2] + 1j * vals[1::2]


def _real_point(vals, n):
    vals = np.asarray(vals, dtype=float)
    if vals.size != 2 * n:
        raise WeylsymError(f"expected {2*n} reals, got {vals.size}")
    return vals[:n], vals[n:]


def _element_from_file(cls, spec: str, n: int):
    """An element of `cls` (SuBlocks, SpReal, SpLieReal or SuLie) built from
    the blocks of a 2n×2n matrix through its checking constructor; refused
    unless the element reproduces the matrix."""
    m = _load_square(spec, 2 * n)
    a, b, c = m[:n, :n], m[:n, n:], m[n:, :n]
    if cls is SpReal:
        elt = SpReal(n, m)
    else:
        elt = SpLieReal(n, a, b, c) if cls is SpLieReal else cls(n, a, b)
    dev = norm((elt.g if cls is SpReal else elt.full) - m)
    if dev > 1e-10 * (1 + norm(m)):
        raise WeylsymError(
            f"{spec} is not a {cls.__name__} matrix: the element built from its blocks differs by {dev:.3g}"
        )
    return elt


def _emit_value(value: complex, args, extra: dict | None = None) -> None:
    if args.format == "csv":
        print(f"{value.real:.15g},{value.imag:.15g}")
        return
    obj = {"value": [value.real, value.imag]}
    if extra:
        obj.update(extra)
    print(json.dumps(obj))


def _run_eval(args) -> int:
    n = args.n
    lam = args.lam
    kind = args.kind
    extra = None
    if not 0 < lam < np.inf:
        raise WeylsymError(f"--lambda must be positive and finite, got {lam}")
    if not np.all(np.isfinite(args.at + args.point)):
        raise WeylsymError("evaluation point must be finite")

    if kind in ("w0-sigma", "berezin-sigma", "kernel"):
        if not args.k:
            raise WeylsymError(f"{kind} requires --k")
        k = _element_from_file(SuBlocks, args.k, n)
        if kind == "kernel":
            vals = np.asarray(args.at, dtype=float)
            if vals.size != 4 * n:
                raise WeylsymError(f"kernel point needs {4*n} reals (z then w)")
            z = vals[: 2 * n][0::2] + 1j * vals[: 2 * n][1::2]
            w = vals[2 * n :][0::2] + 1j * vals[2 * n :][1::2]
            value = complex(sigma_kernel(k, lam).eval(z, w))
        else:
            z = _complex_point(args.at, n)
            if kind == "w0-sigma":
                try:
                    value = w0_sigma_closed(k, z, lam)
                except AmbiguousPhase:
                    if not args.adjudicate_phase:
                        raise
                    c = adjudicate_phase(k, lam, nodes=args.nodes)
                    value = w0_sigma_symbol(k, lam, c).eval_z(z)
            else:
                value = berezin_symbol_sigma(k, z, lam)
    elif kind in ("w0-dsigma", "berezin-dsigma"):
        if not args.X:
            raise WeylsymError(f"{kind} requires --X")
        x_lie = _element_from_file(SuLie, args.X, n)
        z = _complex_point(args.at, n)
        fn = w0_dsigma_closed if kind == "w0-dsigma" else berezin_symbol_dsigma
        value = fn(x_lie, z, lam)
    elif kind == "w1-sigma":
        if not args.g:
            raise WeylsymError("w1-sigma requires --g")
        g = _element_from_file(SpReal, args.g, n)
        x, y = _real_point(args.at, n)
        try:
            value = w1_sigma_closed(g, x, y, lam)
        except AmbiguousPhase:
            if not args.adjudicate_phase:
                raise
            k = su_from_sp(g)
            c = adjudicate_phase(k, lam, nodes=args.nodes)
            value = w0_sigma_symbol(k, lam, c).eval_z(x + 1j * y)
    elif kind in ("w1-exp", "w1-dsigma"):
        if not args.X:
            raise WeylsymError(f"{kind} requires --X")
        x_lie = _element_from_file(SpLieReal, args.X, n)
        x, y = _real_point(args.at, n)
        fn = w1_exp_closed if kind == "w1-exp" else w1_dsigma_closed
        value = fn(x_lie, x, y, lam)
    elif kind in ("star-exp", "hormander"):
        if not args.M:
            raise WeylsymError(f"{kind} requires --M")
        m = _load_square(args.M, 2 * n)
        q = QuadForm2n(n, (m + m.T) / 2)
        pt = np.asarray(args.point if args.point else args.at, dtype=float)
        if pt.size != 2 * n:
            raise WeylsymError(f"point needs {2*n} reals")
        if kind == "hormander":
            value = hormander_exp_symbol(q, pt[:n], pt[n:])
        elif args.closed:
            value = star_exp_quadratic_closed(q, pt)
        else:
            value, last = star_exp_series(q, -1j, args.order, pt)
            extra = {"last_term": last}
    else:  # pragma: no cover - argparse restricts choices
        raise WeylsymError(f"unknown eval kind {kind!r}")

    _emit_value(value, args, extra)
    return 0


def _run_suite(args) -> int:
    report = run_suite(
        args.name,
        n=args.n,
        lam=args.lam,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        nodes=args.nodes,
    )
    if args.format == "csv":
        for line in report.to_csv_lines():
            print(line)
    else:
        print(json.dumps(report.to_obj()))
    return 0 if report.failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weylsym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a symbol or kernel at a point")
    # a coordinate such as -3.7e-05 is a number, not an option: Python
    # 3.11's argparse takes only the forms -1 and -1.5 for numbers
    pe._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    pe.add_argument("kind", choices=EVAL_KINDS)
    pe.add_argument("--k", help="element of S (2n x 2n complex matrix JSON)")
    pe.add_argument("--g", help="element of Sp(n, R) (2n x 2n real matrix JSON)")
    pe.add_argument("--X", help="Lie algebra element (2n x 2n matrix JSON)")
    pe.add_argument("--M", help="real symmetric 2n x 2n matrix JSON, 'identity', or '<t>I'")
    pe.add_argument("--at", type=float, nargs="+", default=[], help="evaluation point")
    pe.add_argument("--point", type=float, nargs="*", default=[], help="alias of --at")
    pe.add_argument("--n", type=int, default=1)
    pe.add_argument("--lambda", dest="lam", type=float, default=1.0)
    pe.add_argument("--nodes", type=int, default=80)
    pe.add_argument("--order", type=int, default=40)
    pe.add_argument("--closed", action="store_true", help="use the closed form")
    pe.add_argument("--adjudicate-phase", action="store_true")
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.set_defaults(func=_run_eval)

    ps = sub.add_parser("suite", help="run a named verification suite")
    ps.add_argument("name", help=f"one of: {', '.join(SUITE_NAMES)}")
    ps.add_argument("--n", type=int, default=1)
    ps.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ps.add_argument("--trials", type=int, default=20)
    ps.add_argument("--seed", type=int, default=7)
    ps.add_argument("--tol", type=float, default=None)
    ps.add_argument("--nodes", type=int, default=None)
    ps.add_argument("--format", choices=("json", "csv"), default="json")
    ps.set_defaults(func=_run_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AmbiguousPhase as exc:
        print(f"ambiguous phase: {exc}", file=sys.stderr)
        return 3
    except WeylsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
