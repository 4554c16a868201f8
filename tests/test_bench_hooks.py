"""The benchmark's span hooks (``qebench/spans.py``) wrap library functions by
module and name, and its scripts import names from ``qestack``; a rename or
deletion under ``src/`` must fail here, not silently drop a layer from
``--trace 1`` or break a benchmark script."""

import ast
import importlib
import importlib.util
from pathlib import Path

QEBENCH = Path(__file__).resolve().parents[1] / "qebench"
SPANS_PATH = QEBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("qebench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    spans = load_spans()
    for module_name, fn_name, *_ in spans.SPECS:
        module = importlib.import_module(f"qestack.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"qestack.{module_name}.{fn_name}"


def test_instrument_installs_and_restores_the_wrappers():
    spans = load_spans()
    modules = {m: importlib.import_module(f"qestack.{m}") for m in spans.LAYERS}
    originals = {(m, f): getattr(modules[m], f) for m, f, *_ in spans.SPECS}
    with spans.instrument(spans.Tracer()):
        for (m, f), original in originals.items():
            wrapped = getattr(modules[m], f)
            assert wrapped is not original and wrapped.__wrapped__ is original, f"{m}.{f}"
        assert "open" in vars(modules["corpus"])
    for (m, f), original in originals.items():
        assert getattr(modules[m], f) is original, f"{m}.{f}"
    assert "open" not in vars(modules["corpus"])


def qestack_imports(path: Path) -> list[tuple[str, str]]:
    """The ``(module, name)`` of every ``from qestack... import name`` in a file."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "qestack"
        for alias in node.names
    ]


def test_every_name_the_benchmark_imports_from_qestack_exists():
    imports = {path.name: qestack_imports(path) for path in sorted(QEBENCH.glob("*.py"))}
    assert imports["probe_check.py"], "probe_check.py imports nothing from qestack"
    for file_name, pairs in imports.items():
        for module_name, name in pairs:
            namespace = {}
            exec(f"from {module_name} import {name}", namespace)
            assert name in namespace, f"{file_name}: from {module_name} import {name}"
