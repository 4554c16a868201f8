"""Every name a ``qestack`` module lists in ``__all__``, every public name
of the package itself, and every name README's library quick reference
imports resolves: a deleted class left in an ``__all__`` or in README fails
here rather than at a user's import."""

import importlib
import pkgutil
import re

from pathlib import Path

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


README = Path(__file__).resolve().parent.parent / "README.md"


def quick_reference_imports():
    """The ``from qestack... import ...`` lines of README's library quick
    reference."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick reference", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^from (qestack\S*) import (.+)$", section, re.M)


def test_the_quick_reference_has_imports():
    assert len(quick_reference_imports()) >= 5


@pytest.mark.parametrize("module_name,names", quick_reference_imports())
def test_every_name_the_readme_quick_reference_imports_resolves(module_name, names):
    module = importlib.import_module(module_name)
    missing = [name.strip() for name in names.split(",") if not hasattr(module, name.strip())]
    assert not missing, f"README imports {missing} from {module_name}"
