import importlib
import pkgutil

import woundfill

MODULES = sorted(m.name for m in pkgutil.iter_modules(woundfill.__path__, "woundfill."))


def test_every_export_resolves():
    exporting = [m for m in map(importlib.import_module, ["woundfill", *MODULES])
                 if hasattr(m, "__all__")]
    assert len(exporting) >= 13  # every module but cli and errors declares one
    for module in exporting:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
        assert not missing, (module.__name__, missing)
