import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import pytest

import tailkit

SOURCES = sorted(Path(tailkit.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition is removed fails here
    modules = [tailkit] + [importlib.import_module(f"tailkit.{info.name}")
                           for info in pkgutil.iter_modules(tailkit.__path__)]
    exported = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(exported) > len(tailkit.__all__)
    missing = [(mod, name) for mod, name in exported
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_package_exports_exactly_its_modules_all():
    # a name imported into tailkit/__init__.py outside a module's __all__, or a name
    # in the __all__ of two modules, fails here
    public = {name for name, value in vars(tailkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(tailkit.__all__) - {"__version__"}
    assert len(tailkit.__all__) == len(set(tailkit.__all__))


def test_every_benchmark_probe_resolves():
    # perfbench patches these by name; a renamed function would fail only in traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [*spans.TIMED, *spans.COUNTED]
    assert len(names) > 20
    unresolved = []
    for name in names:
        layer, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"tailkit.{layer}"), func, None)):
            unresolved.append(name)
    assert unresolved == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_the_oldest_supported_python(path):
    # pyproject.toml declares requires-python = ">=3.10"
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
