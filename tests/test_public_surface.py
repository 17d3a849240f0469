import importlib
import pkgutil
from types import ModuleType

import snchar

SUBMODULES = [m.name for m in pkgutil.iter_modules(snchar.__path__)]


def test_submodule_all_names_exist():
    for name in SUBMODULES:
        mod = importlib.import_module(f"snchar.{name}")
        missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
        assert not missing, f"snchar.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_exactly_the_library_names():
    # the command line module is an entry point, not part of the library surface
    union = set()
    for name in SUBMODULES:
        if name != "cli":
            union |= set(importlib.import_module(f"snchar.{name}").__all__)
    public = {k for k, v in vars(snchar).items() if not k.startswith("_") and not isinstance(v, ModuleType)}
    assert public == union
