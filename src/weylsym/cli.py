"""Command-line frontend: evaluate symbols and kernels at points, or run the
named verification suites.

Each `eval` kind is one entry of a table: the option naming its matrix, the
element type that matrix must give, how the reals after --at (or --point,
the same option) are read, and its evaluator.  Every matrix is built through
its element's checking constructor and refused unless the element
reproduces it.

Exit codes: 0 success, 1 suite failures, 2 bad input, 3 a sign the library
cannot vouch for: a Det(I+k) that is not real, or a cosh-law constant that
fails its certificate.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AmbiguousPhase, WeylsymError
from .matcore import norm
from .metaplectic import berezin_sigma_symbol, berezin_symbol_dsigma, sigma_kernel
from .mjson import load_matrix
from .moyal import star_exp_series, star_exp_symbol
from .suites import SUITE_NAMES, run_suite
from .sympgroup import SpLieReal, SpReal, SuBlocks, SuLie
from .weylsymbols import (
    QuadForm2n,
    w0_dsigma_closed,
    w0_sigma_closed,
    w1_dsigma_closed,
    w1_exp_symbol,
    w1_sigma_closed,
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


def _element_from_file(cls, spec: str, n: int):
    """An element of `cls` (SuBlocks, SpReal, SpLieReal, SuLie or QuadForm2n)
    built from a 2n×2n matrix, or from its blocks, through its checking
    constructor; refused unless the element reproduces the matrix."""
    m = _load_square(spec, 2 * n)
    if cls in (SpReal, QuadForm2n):
        elt = cls(n, m)
    else:
        a, b, c = m[:n, :n], m[:n, n:], m[n:, :n]
        elt = SpLieReal(n, a, b, c) if cls is SpLieReal else cls(n, a, b)
    built = elt.g if cls is SpReal else elt.M if cls is QuadForm2n else elt.full
    dev = norm(built - m)
    if dev > 1e-10 * (1 + norm(m)):
        raise WeylsymError(
            f"{spec} is not a {cls.__name__} matrix: the element built from it differs by {dev:.3g}"
        )
    return elt


def _point(vals: list, n: int, layout: str):
    """The reals after --at read as `layout`: 'xy', the 2n coordinates
    (x, y) of R^{2n} as given; 'z', a point of C^n as re/im pairs; 'zw',
    two such points, z then w."""
    size = 4 * n if layout == "zw" else 2 * n
    v = np.asarray(vals, dtype=float)
    if v.size != size:
        raise WeylsymError(f"a {layout} point needs {size} reals, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise WeylsymError("evaluation point must be finite")
    if layout == "xy":
        return v
    z = v[0::2] + 1j * v[1::2]
    return z if layout == "z" else np.split(z, 2)


# ---------------------------------------------------------------------------
# evaluators: (element, point, args) -> value, or (value, extra JSON fields)


def _w0_sigma(k, z, args):
    return w0_sigma_closed(k, z, args.lam)


def _w0_dsigma(x_lie, z, args):
    return w0_dsigma_closed(x_lie, z, args.lam)


def _w1_sigma(g, v, args):
    return w1_sigma_closed(g, *np.split(v, 2), args.lam)


def _w1_exp(x_lie, v, args):
    return w1_exp_symbol(x_lie, args.lam).eval(v)


def _w1_dsigma(x_lie, v, args):
    return w1_dsigma_closed(x_lie, *np.split(v, 2), args.lam)


def _berezin_sigma(k, z, args):
    return berezin_sigma_symbol(k, args.lam).eval_z(z)


def _berezin_dsigma(x_lie, z, args):
    return berezin_symbol_dsigma(x_lie, z, args.lam)


def _star_exp(q, v, args):
    if args.closed:
        return star_exp_symbol(q, -1j).eval(v)
    value, last = star_exp_series(q, -1j, args.order, v)
    return value, {"last_term": last}


def _hormander(q, v, args):
    return star_exp_symbol(q, 1).eval(v)


def _kernel(k, zw, args):
    return complex(sigma_kernel(k, args.lam).eval(*zw))


@dataclass(frozen=True)
class _EvalKind:
    """An `eval` kind: the option naming its matrix, the element type that
    matrix must be, how the reals after --at read (see `_point`), and its
    evaluator."""

    flag: str
    element: type
    layout: str
    evaluate: Callable


_EVAL = {
    "w0-sigma": _EvalKind("k", SuBlocks, "z", _w0_sigma),
    "w0-dsigma": _EvalKind("X", SuLie, "z", _w0_dsigma),
    "w1-sigma": _EvalKind("g", SpReal, "xy", _w1_sigma),
    "w1-exp": _EvalKind("X", SpLieReal, "xy", _w1_exp),
    "w1-dsigma": _EvalKind("X", SpLieReal, "xy", _w1_dsigma),
    "berezin-sigma": _EvalKind("k", SuBlocks, "z", _berezin_sigma),
    "berezin-dsigma": _EvalKind("X", SuLie, "z", _berezin_dsigma),
    "star-exp": _EvalKind("M", QuadForm2n, "xy", _star_exp),
    "hormander": _EvalKind("M", QuadForm2n, "xy", _hormander),
    "kernel": _EvalKind("k", SuBlocks, "zw", _kernel),
}

EVAL_KINDS = tuple(_EVAL)


def _run_eval(args) -> int:
    kind = _EVAL[args.kind]
    if args.n < 1:
        raise WeylsymError(f"--n must be at least 1, got {args.n}")
    if not 0 < args.lam < np.inf:
        raise WeylsymError(f"--lambda must be positive and finite, got {args.lam}")
    point = _point(args.at, args.n, kind.layout)
    spec = getattr(args, kind.flag)
    if not spec:
        raise WeylsymError(f"{args.kind} requires --{kind.flag}")
    out = kind.evaluate(_element_from_file(kind.element, spec, args.n), point, args)
    value, extra = out if isinstance(out, tuple) else (out, {})
    if args.format == "csv":
        print(f"{value.real:.15g},{value.imag:.15g}")
    else:
        print(json.dumps({"value": [value.real, value.imag], **extra}))
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
    pe.add_argument("--at", "--point", dest="at", type=float, nargs="+", default=(), help="evaluation point")
    pe.add_argument("--n", type=int, default=1)
    pe.add_argument("--lambda", dest="lam", type=float, default=1.0)
    pe.add_argument("--order", type=int, default=40)
    pe.add_argument("--closed", action="store_true", help="use the closed form")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and kept for the
    process; its defaults are immutable, so no call can change another's."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
