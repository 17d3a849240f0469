import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snchar import arith
from snchar.arith import _factorize, divisors
from snchar.spectral import MinPoly, SpectrumProfile, _Residues, ramanujan_sum

SRC = Path(__file__).resolve().parents[1] / "src" / "snchar"
# the child interpreter imports the package from this checkout, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}

# every public function of arith, and ramanujan_sum, called with q in the argument that must be >= 1;
# split_square takes any nonzero integer, so only 0 is out of range there
NONPOSITIVE_CALLS = {
    "divisors": "divisors(q)",
    "moebius": "moebius(q)",
    "euler_phi": "euler_phi(q)",
    "cyclotomic": "cyclotomic(q)",
    "kronecker_symbol": "kronecker_symbol(3, q)",
    "split_square": "split_square(0 * q)",
    "ramanujan_sum": "ramanujan_sum(q, 0)",
}


def test_every_public_function_is_probed():
    assert set(NONPOSITIVE_CALLS) == set(arith.__all__) | {"ramanujan_sum"}


@pytest.mark.parametrize("name", sorted(NONPOSITIVE_CALLS))
@pytest.mark.parametrize("q", [0, -1, -12])
def test_nonpositive_argument_raises_value_error(name, q):
    with pytest.raises(ValueError, match="positive|zero"):
        eval(NONPOSITIVE_CALLS[name], {**vars(arith), "ramanujan_sum": ramanujan_sum, "q": q})


def test_nonpositive_argument_raises_value_error_under_optimize():
    # python -O strips assert statements; the q >= 1 checks must not be asserts
    code = "\n".join([
        "from snchar.arith import *",
        "from snchar.spectral import ramanujan_sum",
        "for call in %r:" % sorted(NONPOSITIVE_CALLS.values()),
        "    for q in (0, -1, -12):",
        "        try:",
        "            eval(call)",
        "        except ValueError:",
        "            continue",
        "        raise SystemExit(f'{call} accepted q={q}')",
        "print('ok')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


# what no split pair has: a parent value other than +-1 at the distinguished class, and a surd not 1 mod 4
SURD_REFUSALS = ["_split_surd(2, (5,))", "_split_surd(-3, (7, 3))", "_split_surd(1, (3,))", "_split_surd(-1, (5,))"]


@pytest.mark.parametrize("call", SURD_REFUSALS)
def test_split_surd_refusals_raise_runtime_error(call):
    with pytest.raises(RuntimeError, match="internal bug"):
        eval(call, vars(arith))


def test_split_surd_refusals_raise_runtime_error_under_optimize():
    # as the q >= 1 checks: not asserts, which python -O would strip
    code = "\n".join([
        "from snchar.arith import _split_surd",
        "for call in %r:" % SURD_REFUSALS,
        "    try:",
        "        eval(call)",
        "    except RuntimeError:",
        "        continue",
        "    raise SystemExit(f'{call} accepted')",
        "print('ok')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_factor_cache_is_bounded():
    assert _factorize.cache_info().maxsize == divisors.cache_info().maxsize == 1024


def _package_imports(path: Path) -> list[tuple[str, list[str]]]:
    """(module, imported names) for every package-relative import of one source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.append((node.module or "", [alias.name for alias in node.names]))
        elif isinstance(node, ast.Import):
            out.extend((alias.name, []) for alias in node.names if alias.name.startswith("snchar"))
    return out


def test_arith_imports_no_package_module():
    assert _package_imports(SRC / "arith.py") == []


def test_specht_oracle_is_independent_of_the_character_routes():
    imports = dict(_package_imports(SRC / "specht.py"))
    assert not set(imports) & {"characters_sn", "characters_an", "classify", "bounds"}
    assert set(imports.get("spectral", ())) <= {"SpectrumProfile", "MinPoly", "min_poly"}


def test_no_module_imports_a_private_name_of_characters_an():
    for path in SRC.glob("*.py"):
        for module, names in _package_imports(path):
            if module == "characters_an":
                assert not [n for n in names if n.startswith("_")], path.name


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(path: Path) -> dict[str, set[str]]:
    """The names each function and method of one source file calls, by qualified name."""
    out = {}
    for stmt in ast.parse(path.read_text()).body:
        prefix, body = (f"{stmt.name}.", stmt.body) if isinstance(stmt, ast.ClassDef) else ("", [stmt])
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[prefix + node.name] = {_name(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
    return out


def test_the_split_pair_surd_is_formed_once():
    # eps * prod(hooks) is split and checked by _split_surd alone, for chi_an and the split spectra
    callers = {f"{path.stem}.{func}" for path in SRC.glob("*.py")
               for func, names in _calls(path).items() if "split_square" in names}
    assert callers == {"arith._split_surd", "characters_an.AlgebraicValue.__init__"}
    imported = {name for _, names in _package_imports(SRC / "spectral.py") for name in names}
    assert not {"split_square", "diagonal_hooks"} & imported
    # the Gauss-sum route stays an independent check of the closed form of T
    calls = _calls(SRC / "spectral.py")
    reached, todo = set(), ["_gauss_correction", "_principal_sqrt_vector"]
    while todo:
        if (func := todo.pop()) not in reached:
            reached.add(func)
            todo.extend(calls.get(func, ()))
    assert {"_cyclic_mul", "_spread"} <= reached and "_split_surd" not in reached


def test_no_function_calls_itself():
    # an iterative loop has no recursion-depth ceiling on n
    recursive = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = (node.func for node in ast.walk(func) if isinstance(node, ast.Call))
                if any(_name(target) == func.name for target in calls):
                    recursive.append(f"{path.stem}.{func.name}")
    assert recursive == []


def _unbounded_cache(node) -> bool:
    """A decorator or call that is functools.cache or lru_cache with maxsize None."""
    if not isinstance(node, ast.Call):
        return _name(node) == "cache"
    if _name(node.func) != "lru_cache":
        return _name(node.func) == "cache"
    size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
    return isinstance(size, ast.Constant) and size.value is None


def test_the_only_process_wide_unbounded_cache_is_the_specht_module_data():
    # _module_data keys on shapes of n <= specht.MAX_N (97 of them); a cache made inside a
    # function lives for that call only
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(map(_unbounded_cache, node.decorator_list)):
                        found.append(f"{path.stem}.{node.name}")
                elif any(_unbounded_cache(call) for call in ast.walk(node) if isinstance(call, ast.Call)):
                    found.append(f"{path.stem}:{node.lineno}")
    assert found == ["specht._module_data"]


def test_spectrum_profile_keeps_one_compact_form():
    # profiles and minimal polynomials share one store, _Residues: beside r, one compact slot and
    # one per-residue listing slot, and at most one private constructor per class. A per-gcd
    # profile or root set is the compact form with the surd d = 1, not a form of its own
    assert _Residues.__slots__ == ("r", "_values", "_compact")
    assert SpectrumProfile.__slots__ == ("degree",) and MinPoly.__slots__ == ()
    for cls in (_Residues, SpectrumProfile, MinPoly):
        constructors = [name for name, attr in vars(cls).items()
                        if name.startswith("_") and isinstance(attr, classmethod)]
        assert len(constructors) <= 1
