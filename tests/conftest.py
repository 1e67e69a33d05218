import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name, *modules)`` returns a list that grows by one entry
    on every call of ``name`` made through one of the modules' bindings.

    Modules bind library functions with ``from .x import name``, so each
    binding is wrapped; a module without the name is skipped.
    """

    def install(name, *modules):
        calls = []
        for mod in modules:
            orig = getattr(mod, name, None)
            if orig is None:
                continue

            def counted(*args, _orig=orig, **kwargs):
                calls.append(name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        return calls

    return install
