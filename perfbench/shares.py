"""Traced time shares of the two profiles recorded in ROADMAP.md's Baseline.

    python3 perfbench/shares.py     # from the repository root; about a minute

Each profile runs in a fresh interpreter with the benchmark's tracer, and
prints the inclusive share of wall time of the functions the cProfile
baseline names (cProfile saw `_chi`; the tracer sees its public caller `chi`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

PROFILES = {
    "verify_minpoly_sn(16)": ("verify_minpoly_sn", 16, {
        "spectral.ramanujan_sum": 3.4 / 12.6, "classify.predict_sn": 3.2 / 12.6, "characters_sn.chi": 2.0 / 12.6}),
    "verify_eigenvalue_one(14)": ("verify_eigenvalue_one", 14, {"characters_sn.chi": 1.2 / 10.0}),
}
EXTRA = ("partitions.CycleType.power", "partitions.Partition.__post_init__", "partitions.CycleType.__post_init__",
         "spectral.fixed_space_dim", "spectral.spectrum_sn", "spectral.moebius")


def child(fn_name: str, n: int) -> None:
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    from snchar import classify
    tracer = Tracer()
    tracer.install()
    t = time.perf_counter()
    getattr(classify, fn_name)(n)
    wall = time.perf_counter() - t
    tracer.uninstall()
    print(json.dumps({"wall_s": wall, "totals": tracer.totals()}))


def main() -> int:
    if len(sys.argv) == 3:
        child(sys.argv[1], int(sys.argv[2]))
        return 0
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    for label, (fn_name, n, baseline) in PROFILES.items():
        proc = subprocess.run([sys.executable, __file__, fn_name, str(n)], capture_output=True, text=True,
                              env=env, check=True, timeout=600)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        wall = res["wall_s"]
        print(f"{label}: traced wall {wall:.2f} s")
        for name in list(baseline) + [x for x in EXTRA if x not in baseline]:
            tot = res["totals"].get(name, {"incl_s": 0.0, "calls": 0})
            base = f"cProfile {100 * baseline[name]:5.1f} %" if name in baseline else ""
            print(f"  {name:38s} traced {100 * tot['incl_s'] / wall:5.1f} %  {tot['calls']:>8d} calls  {base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
