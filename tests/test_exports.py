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


def test_package_all_is_the_modules_all():
    import spherecp

    modules = [importlib.import_module(f"spherecp.{m}") for m in LIBRARY]
    assert spherecp.__all__ == [n for module in modules for n in module.__all__]


def test_spec_error_and_literal_budget_are_exported():
    from spherecp import LITERAL_DIGITS_BUDGET, SpecFormatError

    assert issubclass(SpecFormatError, ValueError)
    assert LITERAL_DIGITS_BUDGET == 4300
