import sys

import pytest


def _count_calls(monkeypatch, home: str, names) -> list:
    """Wrap every binding in the loaded weylsym modules of the functions
    `names` of module `home`, to append to the returned list on each call."""
    calls = []
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "weylsym"]:
        for name in names:
            fn = getattr(mod, name, None)
            if getattr(fn, "__module__", None) == home:
                monkeypatch.setattr(mod, name, lambda *a, _fn=fn, **kw: calls.append(1) or _fn(*a, **kw))
    return calls


@pytest.fixture
def set_chunk(monkeypatch):
    """Sets quadrature.CHUNK for the rest of the test, with the plan cache cleared."""
    from weylsym import quadrature

    def set_chunk(chunk):
        monkeypatch.setattr(quadrature, "CHUNK", chunk)
        quadrature._plan.cache_clear()

    yield set_chunk
    quadrature._plan.cache_clear()


@pytest.fixture
def validator_calls(monkeypatch):
    """Calls of the sympgroup validate_* functions."""
    return _count_calls(
        monkeypatch, "weylsym.sympgroup", ("validate_sp", "validate_su", "validate_sp_lie", "validate_su_lie")
    )


@pytest.fixture
def as_matrix_calls(monkeypatch):
    """Calls of matcore.as_matrix, the check of an array from outside."""
    return _count_calls(monkeypatch, "weylsym.matcore", ("as_matrix",))


@pytest.fixture
def as_vector_calls(monkeypatch):
    """Calls of matcore.as_vector, the check of a vector from outside."""
    return _count_calls(monkeypatch, "weylsym.matcore", ("as_vector",))


@pytest.fixture
def cayley_calls(monkeypatch):
    """Calls of matcore.cayley, the factorisation under every σ symbol."""
    return _count_calls(monkeypatch, "weylsym.matcore", ("cayley",))
