"""Each ``spherecp`` module's ``__all__`` names what it defines, and only that."""

import importlib
import inspect

import pytest

LIBRARY = ["bundles", "classify", "cuntz_words", "fgab", "ktheory", "pimsner"]


@pytest.mark.parametrize("name", ["spherecp", "spherecp.cli"] + [f"spherecp.{m}" for m in LIBRARY])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", [f"spherecp.{m}" for m in LIBRARY])
def test_public_definitions_are_exported(name):
    # the CLI module is left out: its __all__ lists only its entry points
    module = importlib.import_module(name)
    public = [
        n for n, v in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == name
    ]
    assert [n for n in public if n not in module.__all__] == []
