import importlib
import pkgutil

import tailkit


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition is removed fails here
    modules = [tailkit] + [importlib.import_module(f"tailkit.{info.name}")
                           for info in pkgutil.iter_modules(tailkit.__path__)]
    exported = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(exported) > len(tailkit.__all__)
    missing = [(mod, name) for mod, name in exported
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
