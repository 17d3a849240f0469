"""Exact characters, spectra, and minimal polynomials for S_n and A_n.

The package computes ordinary irreducible characters of symmetric and
alternating groups in exact arithmetic, turns them into eigenvalue
multiplicities and minimal polynomials of permutation images, verifies the
classification of the non generic minimal polynomials exhaustively, and
certifies the analytic inequalities the theory rests on with outward rounded
enclosures in integers, at a stated number of significant bits. An
independent Specht module oracle reproduces the same spectra from integer
matrices alone. The package uses the standard library alone.

The public names are those of each library module's __all__, re-exported
here; the command line module snchar.cli is not part of the library.
Importing the package loads no library module: the first use of a public
name (or of __all__, or dir()) loads all of them (PEP 562), so a command
line query compiles only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

_LIBRARY = ("arith", "bounds", "characters_an", "characters_sn", "classify", "partitions", "specht", "spectral")


def _load() -> list[str]:
    names = []
    for module in _LIBRARY:
        mod = importlib.import_module(f".{module}", __name__)
        globals().update((name, getattr(mod, name)) for name in mod.__all__)
        names += mod.__all__
    globals()["__all__"] = names
    return names


def __getattr__(name: str):
    # submodule names and private names fail at once: `from . import bounds`
    # probes the package for the attribute before it imports the submodule
    if (name.startswith("_") and name != "__all__") or name in _LIBRARY or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if "__all__" not in globals():
        _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return list(globals().get("__all__") or _load())
