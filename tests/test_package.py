import importlib
import pkgutil

import weylsym


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(weylsym.__path__):
        mod = importlib.import_module(f"weylsym.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"weylsym.{info.name}.__all__ names missing {name!r}"
