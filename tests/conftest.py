import numpy as np
import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name, *modules)`` returns a list that grows by one entry
    on every call of ``name`` made through one of the modules' bindings:
    the name, or with ``first_arg=True`` a copy of the call's first argument.

    Modules bind library functions with ``from .x import name``, so each
    binding is wrapped; an owner without the name fails the test, so that
    a counter never counts nothing because the name moved.
    """

    def install(name, *modules, first_arg=False):
        calls = []
        for mod in modules:
            orig = getattr(mod, name, None)
            if orig is None:
                pytest.fail(f"{mod!r} has no {name!r} to count")

            def counted(*args, _orig=orig, **kwargs):
                calls.append(np.array(args[0]) if first_arg else name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        return calls

    return install
