import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import snchar

SUBMODULES = [m.name for m in pkgutil.iter_modules(snchar.__path__)]
LIBRARY_NAMES = set()
for _name in SUBMODULES:
    # the command line module is an entry point, not part of the library surface
    if _name != "cli":
        LIBRARY_NAMES |= set(importlib.import_module(f"snchar.{_name}").__all__)

# child interpreters import the package from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def test_submodule_all_names_exist():
    for name in SUBMODULES:
        mod = importlib.import_module(f"snchar.{name}")
        missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
        assert not missing, f"snchar.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_exactly_the_library_names():
    # the library loads on first use of a public name; after that every name is bound
    assert snchar.chi is importlib.import_module("snchar.characters_sn").chi
    public = {k for k, v in vars(snchar).items() if not k.startswith("_") and not isinstance(v, ModuleType)}
    assert public == LIBRARY_NAMES
    assert set(snchar.__all__) == LIBRARY_NAMES


# modules (mpmath and standard ones) that the package loads only where it uses them
WATCHED = ("mpmath", "dataclasses", "json", "fractions", "decimal")


def _loaded(code: str) -> list[str]:
    """The snchar submodules and WATCHED modules that running code loads in a fresh interpreter;
    sys.modules is read before the probe imports json to print it."""
    probe = ("import sys\n_before = set(sys.modules)\n" + code + "\n"
             f"_loaded = sorted(k for k in set(sys.modules) - _before if k.startswith('snchar.') or k in {WATCHED!r})\n"
             "import json\nprint(json.dumps(_loaded))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV,
                         check=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])


def _verb_loads(*argv: str) -> set[str]:
    return set(_loaded(f"import runpy, sys\nsys.argv = ['snchar', *{list(argv)!r}]\n"
                       "try:\n    runpy.run_module('snchar.cli', run_name='__main__')\n"
                       "except SystemExit as exc:\n    assert exc.code == 0, exc.code"))


def test_package_import_loads_no_library_module():
    assert _loaded("import snchar") == []


def test_cli_import_loads_its_two_library_modules_only():
    assert _loaded("import snchar.cli") == ["snchar.characters_sn", "snchar.cli", "snchar.partitions"]


UNUSED_BY_QUERIES = {"snchar.classify", "snchar.bounds", "snchar.specht", "snchar.spectral",
                     "snchar.characters_an", *WATCHED}


@pytest.mark.parametrize("argv", [
    ("char", "--lambda", "3,2", "--shape", "2^2 1^1"),
    ("degree", "--lambda", "3,2"),
])
def test_one_shot_queries_load_only_what_they_use(argv):
    loaded = _verb_loads(*argv)
    assert "snchar.characters_sn" in loaded
    assert not loaded & UNUSED_BY_QUERIES


@pytest.mark.parametrize("verb", ["minpoly", "fixdim", "spectrum"])
def test_symmetric_group_spectral_queries_skip_the_alternating_module(verb):
    loaded = _verb_loads(verb, "--lambda", "3,2", "--shape", "2^2 1^1")
    assert "snchar.spectral" in loaded
    assert not loaded & (UNUSED_BY_QUERIES - {"snchar.spectral"})


def test_json_output_loads_json():
    # the probe sees what a verb loads: json arrives with --format json, and only then
    assert "json" in _verb_loads("degree", "--lambda", "3,2", "--format", "json")


def test_no_module_imports_dataclasses_and_json_only_inside_functions():
    found = []
    for path in sorted(Path(SRC, "snchar").glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {id(node) for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = {node.module.partition(".")[0]}
            else:
                continue
            if "dataclasses" in modules or ("json" in modules and id(node) not in in_functions):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_cli_writes_to_stdout():
    # the output formats belong to cli: no other module names sys.stdout or calls print
    found = []
    for path in sorted(Path(SRC, "snchar").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_bounds_loads_bounds_without_mpmath():
    # the enclosures are integer arithmetic: no mpmath, and no fractions (nor the decimal it loads)
    loaded = _verb_loads("bounds", "--check", "robbins", "--n", "10")
    assert "snchar.bounds" in loaded
    assert not loaded & {"snchar.classify", "snchar.specht", "snchar.spectral", "mpmath", "fractions", "decimal"}


def test_dir_lists_the_library_names():
    assert dir(snchar) == sorted(LIBRARY_NAMES)
    # from cold, dir() loads the library and lists the names of __all__
    assert _loaded("import snchar\nassert dir(snchar) == sorted(snchar.__all__)")


def test_module_and_private_names_do_not_load_the_library():
    # `from . import bounds` probes the package for the name before it imports the submodule
    names = ["bounds", "cli", "__wrapped__", "_private"]
    assert _loaded(f"import snchar\nassert not any(hasattr(snchar, n) for n in {names!r})") == []


def test_distribution_name_and_version_match_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(SRC).parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert (project["name"], project["version"]) == ("snchar", snchar.__version__)
