"""Call tracer for the weylsym benchmark.

The tracer times calls into each ``weylsym`` module from outside, without
editing the package.  While installed it replaces:

* every public function (and cached function) that a ``weylsym`` module, or
  the ``weylsym`` package itself, binds as a module attribute.  That covers
  names defined there, names taken in by ``from .matcore import ...`` and
  names reached by attribute such as ``matcore.solve``;
* the public methods, static methods and properties of every class a
  ``weylsym`` module defines, plus the ring operators of ``Poly``;
* ``scipy.linalg.expm`` as ``matcore`` sees it.

All bindings of one function share one wrapper, so a call is counted once,
under the module that defines the function: that module is its layer.

Each wrapper records a span: its duration, and the part of it covered by
child spans.  Spans are aggregated per function as they close, since one
traced run of the series workload makes a million ``Poly`` calls.  A
layer's self time is the sum of its spans' durations minus their child
spans.  ``uninstall`` puts back every replaced object.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

_MARK = "__bench_traced__"

# Poly operators whose result is a Poly: their term counts feed polys.terms_out
_POLY_RESULT_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__", "diff")

# quadrature entry points -> real axes per unit of their argument n
_QUADRATURE_DIMS = {"quadrature_cn": 2, "lebesgue_cn": 2, "lebesgue_rn": 1}


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _in_weylsym(obj) -> bool:
    return str(getattr(obj, "__module__", "")).startswith("weylsym.")


def _modules() -> list:
    """The imported ``weylsym`` package and its submodules."""
    return sorted(
        (m for name, m in sys.modules.items() if name == "weylsym" or name.startswith("weylsym.")),
        key=lambda m: m.__name__,
    )


def _classes() -> list:
    """Classes defined in ``weylsym`` modules, exceptions excepted."""
    found = {}
    for mod in _modules():
        for obj in vars(mod).values():
            if isinstance(obj, type) and _in_weylsym(obj) and not issubclass(obj, BaseException):
                found[id(obj)] = obj
    return sorted(found.values(), key=lambda c: (c.__module__, c.__name__))


def _traced_methods(cls) -> list:
    """(attribute, raw class-dict entry) of the methods to wrap on `cls`."""
    out = []
    for attr, raw in vars(cls).items():
        if attr.startswith("_") and not (cls.__name__ == "Poly" and attr in _POLY_RESULT_OPS):
            continue
        if isinstance(raw, (staticmethod, property)) or inspect.isfunction(raw):
            out.append((attr, raw))
    return out


def _unwrap_entry(raw):
    if isinstance(raw, staticmethod):
        return raw.__func__
    if isinstance(raw, property):
        return raw.fget
    return raw


class FuncStats:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Aggregated spans per traced function, plus work counters."""

    def __init__(self):
        self.funcs: dict[str, FuncStats] = defaultdict(FuncStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.grid_shapes: set = set()
        self._stack: list = []
        self._wrappers: dict = {}
        self._patches: list = []

    # -- spans ------------------------------------------------------------------
    def _wrap(self, fn, name: str, hook=None):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key][1]
        stack = self._stack
        stats = self.funcs[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stats.calls += 1
                stats.self_s += dur - child
                stats.total_s += dur
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        setattr(traced, _MARK, name)
        # keep fn alive so that its id is not reused while the wrapper is cached
        self._wrappers[key] = (fn, traced)
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- hooks ------------------------------------------------------------------
    def _terms_hook(self, args, kwargs, result, dur):
        self.counters["polys.terms_out"] += len(result.terms)

    def _quadrature_hook(self, fn, per_n: int):
        sig = inspect.signature(fn)

        def hook(args, kwargs, result, dur):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            dim = per_n * bound.arguments["n"]
            nodes = bound.arguments["nodes_per_axis"]
            self.counters["quadrature.points"] += nodes**dim
            self.counters["quadrature.time_s"] += dur
            self.grid_shapes.add((dim, nodes))

        return hook

    def _star_exp_hook(self, args, kwargs, result, dur):
        n = args[0].n if args else kwargs["q"].n
        self.counters[f"moyal.star_exp_series.calls.n{n}"] += 1
        self.counters[f"moyal.star_exp_series.total_s.n{n}"] += dur

    def _hook_for(self, fn):
        layer, name = _layer(fn), fn.__name__
        if layer == "quadrature" and name in _QUADRATURE_DIMS:
            return self._quadrature_hook(fn, _QUADRATURE_DIMS[name])
        if layer == "moyal" and name == "star_exp_series":
            return self._star_exp_hook
        return None

    # -- install / uninstall ------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        left = leftover_wraps()
        if left:
            raise RuntimeError(f"names are still wrapped by an earlier tracer: {left}")
        try:
            for mod in _modules():
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or isinstance(obj, type) or not (callable(obj) and _in_weylsym(obj)):
                        continue
                    name = f"{_layer(obj)}.{obj.__name__}"
                    self._patch(mod, attr, self._wrap(obj, name, self._hook_for(obj)))
            for cls in _classes():
                for attr, raw in _traced_methods(cls):
                    fn = _unwrap_entry(raw)
                    hook = self._terms_hook if cls.__name__ == "Poly" and attr in _POLY_RESULT_OPS else None
                    traced = self._wrap(fn, f"{_layer(cls)}.{cls.__name__}.{fn.__name__}", hook)
                    if isinstance(raw, staticmethod):
                        traced = staticmethod(traced)
                    elif isinstance(raw, property):
                        traced = property(traced)
                    self._patch(cls, attr, traced)
            from weylsym import matcore

            linalg = matcore.scipy.linalg
            self._patch(linalg, "expm", self._wrap(linalg.expm, "scipy.expm"))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------
    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)} over every traced function."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for name, st in self.funcs.items():
            rec = out[name.split(".", 1)[0]]
            rec[0] += st.calls
            rec[1] += st.self_s
        return {k: tuple(v) for k, v in out.items()}

    def grid_bytes(self) -> int:
        """Bytes of the float64 points (N, dim) and weights (N,) of each
        distinct grid shape, computed from the shape."""
        return sum(nodes**dim * (dim + 1) * 8 for dim, nodes in self.grid_shapes)

    def stat(self, name: str) -> FuncStats:
        return self.funcs.get(name, FuncStats())

    def dump(self) -> dict:
        """Per-function spans, for writing out after the traced run."""
        return {
            name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s}
            for name, st in sorted(self.funcs.items())
            if st.calls
        }


def leftover_wraps() -> list:
    """Names that still hold a tracer wrapper; empty once a tracer is removed."""
    owners = [*_modules(), *_classes()]
    linalg = sys.modules.get("scipy.linalg")
    if linalg is not None:
        owners.append(linalg)
    return [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner in owners
        for attr, raw in vars(owner).items()
        if getattr(_unwrap_entry(raw), _MARK, None) is not None
    ]
