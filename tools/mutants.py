"""Mutation gate: each named check of the package, broken on purpose, must fail the tests named for it.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

Run from anywhere; standard library and pytest only. For each mutant the script copies src/, tests/ and
pyproject.toml to a temporary directory (so child interpreters that the tests start load the mutant too),
replaces one exact string in one module, which must occur there exactly once so that moved code fails the
gate loudly, and runs that mutant's test files with pytest, stopping at the first failure. A failing run
kills the mutant. An unmutated copy runs every named test file first and must pass. The script prints killed
or survived with the time, then the tally, and exits 1 when a mutant survives without a reason on record for
why no test can kill it (EQUIVALENT), 2 when the unmutated copy fails or a replacement does not match exactly
once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (module under src/snchar, the exact string, its replacement, the test files that must kill it)
MUTANTS = {
    "sweep-remainder": (
        "spectral.py", "(_divide(weigh(r, [table[k] for k in cols]), r) for r, cols in plan)",
        "([s // r for s in weigh(r, [table[k] for k in cols])] for r, cols in plan)",
        ["tests/test_spectral.py", "tests/test_classify.py"]),
    "lane-bound": (
        "spectral.py", "return 0 <= q <= self.low and not ((q & self.low) + self.pad | q) & self.top",
        "return 0 <= q <= self.low", ["tests/test_spectral.py", "tests/test_classify.py"]),
    "packed-degree-sum": (
        "spectral.py", "if _dot(phis, columns) != lanes.degrees:", "if 0:",
        ["tests/test_spectral.py", "tests/test_classify.py"]),
    "pack-time-bound": (
        "spectral.py", "if max(column) > self.bound or -min(column) > self.bound:", "if 0:",
        ["tests/test_spectral.py"]),
    "divide-remainder": (  # the single queries' cells and the sweeps' packed columns alike
        "spectral.py", "if sum(sums) != r * sum(out):", "if 0:", ["tests/test_spectral.py", "tests/test_classify.py"]),
    "hook-product-divides": (
        "characters_sn.py", "    d, rem = divmod(math.factorial(n), den)\n    if rem:",
        "    d, rem = divmod(math.factorial(n), den)\n    if 0:", ["tests/test_characters_sn.py"]),
    "machin-slack": (
        "bounds.py", "slack += abs(c) * (k + 1) // 2", "slack += 0", ["tests/test_bounds.py"]),
    "split-parity": (  # the sweeps' whole-column evenness of split rows away from their distinguished class
        "classify.py", "if any(q & odd for q in by_gcd):", "if 0:", ["tests/test_classify.py"]),
    "halves-parity": (  # the same check on one parent profile, for single spectrum_an queries
        "spectral.py", "if any(m % 2 for m in by_gcd):", "if 0:", ["tests/test_spectral.py"]),
    "builder-eps-flip": (  # the column builder's sign of a level's conjugate: an even part flips it
        "characters_sn.py", "eps if part & 1 else -eps", "eps", ["tests/test_characters_sn.py"]),
    "self-conjugate-share": (  # a self-conjugate parent's children come in pairs: it adds no conjugate share
        "characters_sn.py", "ecoef = eps * coef if mask != cmask else 0", "ecoef = eps * coef",
        ["tests/test_characters_sn.py"]),
}

# name: why no finite test can kill it (none at present)
EQUIVALENT: dict[str, str] = {}


def mutate(tree: Path, module: str, old: str, new: str) -> None:
    path = tree / "src" / "snchar" / module
    text = path.read_text()
    if text.count(old) != 1:
        raise LookupError(f"{module}: the mutated string occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def run(name: str | None, tests: list[str]) -> bool:
    """Whether tests fail on the mutant name, or on the unmutated copy for None."""
    with tempfile.TemporaryDirectory(prefix="snchar-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if name:
            mutate(tree, *MUTANTS[name][:3])
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode != 0


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    if unknown := [name for name in names if name not in MUTANTS]:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    killed, unexplained = 0, []
    start = time.perf_counter()
    # the control: a copy that fails unmutated would count every mutant as killed
    if run(None, sorted({test for name in names for test in MUTANTS[name][3]})):
        print("error: the unmutated copy fails its tests", file=sys.stderr)
        return 2
    print(f"passed    {'(unmutated copy)':22s} {time.perf_counter() - start:6.1f} s", flush=True)
    for name in names:
        t = time.perf_counter()
        try:
            dead = run(name, MUTANTS[name][3])
        except LookupError as error:
            print(f"error     {name}: {error}", file=sys.stderr)
            return 2
        killed += dead
        if not dead and name not in EQUIVALENT:
            unexplained.append(name)
        note = "" if dead or name not in EQUIVALENT else f"  (equivalent: {EQUIVALENT[name]})"
        print(f"{'killed' if dead else 'survived':9s} {name:22s} {time.perf_counter() - t:6.1f} s{note}", flush=True)
    print(f"{killed} of {len(names)} killed, {len(names) - killed} survived ({len(unexplained)} without a reason), "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
