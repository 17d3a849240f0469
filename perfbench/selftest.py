"""Fast self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py      # from the repository root; about 90 s

Checks that every workload prints every metric BENCHMARK.json names, with its
unit; that a deliberately wrong expected answer is caught (failed > 0,
correct false); that per-layer counts repeat exactly; and that the benchmark
refuses to run, without printing a result, where the package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def run(workload: str, trace: int, *extra: str, cwd: str = ".") -> tuple[int, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    counts: dict[str, dict] = {}
    for workload in W.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(workload, trace)
            if code or not res:
                problems.append(f"{workload} trace={trace}: exit {code}, no result")
                continue
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace={trace}: failures on correct code: {res['failed']}")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(res)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))[:4]}")
            if trace == 0 and any(m["value"] <= 0 for m in res["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
            if trace:
                counts[workload] = {k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"}
        code, res = run(workload, 0, "--inject-fault")
        if not res or res["correct"] or res["failed"] < 1:
            problems.append(f"{workload}: a wrong expected answer was not caught: {res}")
    code, res = run("query", 1)
    if res and counts.get("query") != {k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"}:
        problems.append("query: per-layer counts did not repeat")
    bare = Path(".bench_out") / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, res = run("sweep", 0, cwd=str(bare))
    if code == 0 or res is not None:
        problems.append(f"without src/ the benchmark exited {code} with result {res}")
    shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
