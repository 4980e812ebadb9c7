import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import weylsym
from weylsym import errors, matcore


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(weylsym.__path__):
        mod = importlib.import_module(f"weylsym.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"weylsym.{info.name}.__all__ names missing {name!r}"


def test_import_loads_no_scipy_special_or_integrate():
    # scipy.special alone adds about 2.6 MB of peak RSS to every process
    code = (
        "import sys, weylsym, weylsym.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.special', 'scipy.integrate'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(weylsym.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_inside_a_function():
    """The package has no import cycle to break by a deferred import: every
    `from .` import sits at the top of its module."""
    found = []
    for path in sorted(Path(weylsym.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert not found, found


def test_one_guard_and_scipy_only_in_matcore():
    """`matcore.require_invertible` is the one way to invert a matrix, with
    no `det`, `inv` or `lu_solve` beside it, and no module but `matcore`
    imports scipy: taking scipy off the import path changes `matcore` alone."""
    assert [name for name in ("det", "inv", "lu_solve") if hasattr(matcore, name)] == []
    found = []
    for path in sorted(Path(weylsym.__file__).parent.glob("*.py")):
        if path.name == "matcore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not found, found


def test_one_block_assembler_in_matcore():
    """`matcore.block2x2` is the one way to assemble [[a, b], [c, d]]: no
    module calls np.block, which costs five times as much on small blocks."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(weylsym.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "block"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert not found, found


def test_every_raise_is_typed():
    """Every `raise` in the package names a `weylsym.errors` class, or the
    `error` parameter of a guard that raises the class its caller chose, or
    re-raises what it caught."""
    typed = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}
    guards = {"require_invertible", "require_posreal", "_require", "_snap"}
    found = []
    for path in sorted(Path(weylsym.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_guard = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in guards
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            if name not in typed and not (name == "error" and id(node) in in_guard):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
