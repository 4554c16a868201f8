"""Every name a ``qestack`` module lists in ``__all__``, and every public name
of the package itself, resolves: a deleted class left in an ``__all__``
fails here rather than at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import qestack

MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(qestack.__path__, "qestack.")
    if name != "qestack.__main__" and hasattr(importlib.import_module(name), "__all__")
)


def test_the_modules_with_an_all_are_found():
    assert "qestack.corpus" in MODULES and "qestack.labeler" in MODULES


@pytest.mark.parametrize("module_name", ["qestack", *MODULES])
def test_every_listed_name_resolves(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", None) or [name for name in vars(module) if not name.startswith("_")]
    namespace = {}
    try:
        exec(f"from {module_name} import *", namespace)
    except AttributeError as exc:
        pytest.fail(f"from {module_name} import *: {exc}")
    missing = [name for name in names if not hasattr(module, name) or name not in namespace]
    assert not missing, f"{module_name} lists {missing}"
