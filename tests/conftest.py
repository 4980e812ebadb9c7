import pytest

import weylsym


@pytest.fixture
def validator_calls(monkeypatch):
    """Every binding of a sympgroup validate_* function in the package,
    wrapped to append to the returned list on each call."""
    calls = []
    for mod in vars(weylsym).values():
        for name in ("validate_sp", "validate_su", "validate_sp_lie", "validate_su_lie"):
            fn = getattr(mod, name, None)
            if getattr(fn, "__module__", None) == "weylsym.sympgroup":
                monkeypatch.setattr(mod, name, lambda x, _fn=fn: calls.append(1) or _fn(x))
    return calls
