"""The snchar benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload {sweep,query,cli,oracle} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it uses the package from src/ and nothing
else outside the standard library (mpmath is the package's own dependency).

Untraced (--trace 0): the seed fixes one list of operations, and the run
replays that list, closed loop with one client, at least MIN_REPLAYS times
and until about S seconds have passed. Each replay runs in a fresh
interpreter, so the package's caches start cold as in a user's run. The
machine is shared and its speed drifts by tens of percent over minutes, so
the gated timings are taken at a reference speed: after every operation the
replay times a fixed reference (a pure-Python computation in process, or for
cli launches a fresh interpreter importing fixed standard library modules),
and the replay's time is rescaled by the reference's nominal over measured
time (workloads.REF_*_S); the run reports the median over its replays. The
wall-clock rate over each operation's best time is printed beside it. Every
answer of the first replay is checked after its timed region, and the later
replays must give the same answers. It prints the end-to-end metrics, then
one JSON line {"correct", "attempted", "failed", "metrics"}.

Traced (--trace 1): the list runs once untraced and once traced, each in a
fresh interpreter, and the run prints the per-layer metrics and the tracing
overhead (traced minus untraced wall time). Counts repeat exactly for a seed.

Artifacts (spans, a per-run JSON record with the environment) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
DEFAULT_SEED = 1
MIN_REPLAYS = 3
SETUP_PROBES = 1  # fresh-interpreter imports timed before each replay
MIN_SETUP_PROBES = 16  # and topped up to this many after the last replay
OP_UNIT = {"sweep": "per-n sub-sweep call", "query": "single exact query",
           "cli": "one-shot CLI process", "oracle": "(lambda, class) pair"}
RATE_UNIT = {"sweep": "classification cases", "query": "queries", "cli": "launches", "oracle": "oracle pairs"}
LIMITS = "2 shared cores, no CPU pinning, no cache dropping; gated timings rescaled to reference speed"


# --- environment --------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        mpmath = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath = "missing"
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    h = hashlib.sha256()
    for path in sorted(Path("src/snchar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "mpmath": mpmath,
            "commit": commit, "src_sha256": h.hexdigest()[:16], "limits": LIMITS}


# --- child processes -------------------------------------------------------------


def worker(workload: str, seed: int, *, trace=False, tiny=False, fault=False, check=True, mode="pass",
           stdin: str | None = None) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny + ["--inject-fault"] * fault + ["--no-check"] * (not check)
    proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=_child_env(), timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_probe(modules: str, env: dict) -> tuple[float, float]:
    """(launch time, import time measured inside the child) of a fresh
    interpreter that imports `modules` and exits."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    return time.perf_counter() - t, float(proc.stdout)


def reference_launch() -> tuple[float, float]:
    return import_probe(W.REF_IMPORTS, dict(os.environ))


def setup_probes(workload: str, k: int = SETUP_PROBES, warm_up: bool = False) -> list[tuple[float, float]]:
    """(time for a fresh interpreter to import the package, snchar.cli for the
    cli workload; import time of the reference launch right after it), both
    measured inside the child. The first probe of a run is an untimed warm-up,
    so bytecode compilation is not counted."""
    module = "snchar.cli" if workload == "cli" else "snchar"
    out = [(import_probe(module, _child_env())[1], reference_launch()[1]) for _ in range(k + warm_up)]
    return out[warm_up:]


def interpreter_probes(k: int = 7) -> list[float]:
    out = []
    for _ in range(k):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        out.append(time.perf_counter() - t)
    return out


def cli_launch(argv: list[str], env: dict) -> tuple[float, dict, float]:
    """Run `python -m snchar.cli argv` to exit: (wall time, {"code", "stdout"},
    peak RSS in MB of that process alone, from wait4). Killed after 60 s."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "snchar.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=env)
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    took = time.perf_counter() - t
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return took, {"code": proc.returncode, "stdout": stdout}, usage.ru_maxrss / 1024.0


def cli_replay(ops: list) -> dict:
    """Launch each CLI command as its own process, one after another."""
    latencies, refs, results, rss = [], [], [], []
    env = _child_env()
    for _, argv, _code in ops:
        took, result, peak = cli_launch(argv, env)
        latencies.append(took)
        refs.append(reference_launch()[0])
        results.append(result)
        rss.append(peak)
    return {"ops": ops, "latencies": latencies, "refs": refs, "items": [1] * len(ops), "results": results,
            "digest": W.answer_digest(results), "failures": [], "rss_mb": max(rss)}


# --- statistics ----------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * pct // 100) - 1)]


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    for pct in range(99, 49, -1):
        if n - -(-n * pct // 100) >= 10:
            return pct
    return 100


def check_pin(args, digest: str, failures: list[str]) -> int:
    """Compare the answers of the default seed with pinned.json; returns the
    number of checks made (0 or 1)."""
    if args.seed != DEFAULT_SEED or args.tiny:
        return 0
    pin = json.loads((HERE / "pinned.json").read_text())[args.workload]
    if digest != pin:
        failures.append(f"answer digest {digest[:16]} != pinned {pin[:16]}")
    return 1


# --- untraced run -----------------------------------------------------------------------


def timed_run(args) -> tuple[dict, list[str], dict]:
    ops = W.OPS[args.workload](args.seed, args.tiny)
    setup = setup_probes(args.workload, 0, warm_up=True)  # doubles as the cli warm-up launch
    replays = []
    start = time.perf_counter()
    while True:
        setup += setup_probes(args.workload)
        t = time.perf_counter()
        if args.workload == "cli":
            replays.append(cli_replay(ops))
        else:
            # the first replay's answers are checked; later ones must match its digest
            replays.append(worker(args.workload, args.seed, tiny=args.tiny, fault=args.inject_fault,
                                  check=not replays))
        took = time.perf_counter() - t
        if len(replays) >= MIN_REPLAYS and time.perf_counter() - start + took > args.seconds:
            break
    setup += setup_probes(args.workload, max(0, MIN_SETUP_PROBES - len(setup)))
    failures = [msg for res in replays for msg in res["failures"]]
    if args.workload == "cli":
        # expected outputs from in-process main(argv), after the timed region
        exp = worker("cli", args.seed, mode="cli-expect", fault=args.inject_fault, stdin=json.dumps(ops))
        failures += exp["failures"]
        for res in replays:
            for op, got, want in zip(ops, res["results"], exp["expected"]):
                if got != want:
                    failures.append(f"{op[1]}: process gave exit {got['code']} stdout {got['stdout'][:80]!r}, "
                                    f"in-process main gave exit {want['code']} stdout {want['stdout'][:80]!r}")
    digest = replays[0]["digest"]
    if any(res["digest"] != digest for res in replays):
        failures.append("answers differ between replays of the same operations")
    attempted = len(ops) * len(replays) + check_pin(args, digest, failures)
    summary = summarize(args.workload, ops, replays)
    summary["peak_rss_mb"] = max(res["rss_mb"] for res in replays)
    summary["setup"] = setup
    info = {"attempted": attempted, "replays": len(replays), "digest": digest, "ref_ms": summary["ref_ms"],
            "wall_rate": summary["wall_rate"], "wall_setup_s": statistics.median(p for p, _ in setup)}
    return summary, failures, info


def scaled_time(res: dict, idx: list[int], nominal: float) -> float:
    """A replay's time for the operations idx, rescaled to the reference speed:
    their wall time times the reference's nominal time over the mean time of
    the references timed right after each of them."""
    return sum(res["latencies"][i] for i in idx) * len(idx) * nominal / sum(res["refs"][i] for i in idx)


def rates(replays: list[dict], idx: list[int], best: list[float], nominal: float) -> tuple[float, float, int]:
    """(the gated rate: work items per second at the reference speed, median
    over replays; the wall rate: items per second over the per-operation best
    times; items)."""
    items = sum(replays[0]["items"][i] for i in idx)
    scaled = statistics.median(scaled_time(res, idx, nominal) for res in replays)
    return items / scaled, items / sum(best[i] for i in idx), items


def summarize(workload: str, ops: list, replays: list[dict]) -> dict:
    """Rates of one run; `rate` is the gated throughput."""
    best = [min(res["latencies"][i] for res in replays) for i in range(len(ops))]
    nominal = W.REF_LAUNCH_NOMINAL_S if workload == "cli" else W.REF_NOMINAL_S
    out = {"best": best, "ref_ms": 1000 * statistics.median(r for res in replays for r in res["refs"]),
           "ref_nominal_ms": 1000 * nominal}
    if workload == "sweep":
        cls = [i for i, op in enumerate(ops) if op[0] in W.CLASSIFY_KINDS]
        bnd = [i for i, op in enumerate(ops) if op[0] not in W.CLASSIFY_KINDS]
        out["rate"], out["wall_rate"], out["cases"] = rates(replays, cls, best, nominal)
        out["bound_checks_per_s"], out["bound_wall_rate"], out["bound_checks"] = rates(replays, bnd, best, nominal)
    else:
        out["rate"], out["wall_rate"], _ = rates(replays, list(range(len(ops))), best, nominal)
    return out


def setup_seconds(setup: list[tuple[float, float]]) -> float:
    """Median import time of the package, rescaled to the reference speed by
    the median import time of the reference launches."""
    return statistics.median(p for p, _ in setup) * W.REF_IMPORT_NOMINAL_S / statistics.median(r for _, r in setup)


# --- traced run ---------------------------------------------------------------------------


def layer_metrics(tr: dict, extra: dict) -> dict[str, tuple[float, str]]:
    tot = tr["totals"]
    calls = lambda *ns: sum(tot.get(n, {}).get("calls", 0) for n in ns)
    incl = lambda *ns: sum(tot.get(n, {}).get("incl_s", 0.0) for n in ns)
    self_ = lambda *ns: sum(tot.get(n, {}).get("self_s", 0.0) for n in ns)
    post = ("partitions.Partition.__post_init__", "partitions.CycleType.__post_init__")
    predict = ("classify.predict_sn", "classify.predict_an", "classify.predict_no_eigenvalue_one")
    verify = ("classify.verify_minpoly_sn", "classify.verify_minpoly_an", "classify.verify_eigenvalue_one")
    checks = ("bounds.fomin_lulov_check", "bounds.estimate_check", "bounds.robbins_check",
              "bounds.tail_inequalities_check", "bounds.min_degree_check")
    chi_calls = calls("characters_sn.chi")
    main_calls = calls("cli.main")
    return {
        "partitions.objects_built": (calls(*post), "count"),
        "partitions.validate_s": (incl(*post), "s"),
        "partitions.power_calls": (calls("partitions.CycleType.power"), "count"),
        "partitions.power_s": (incl("partitions.CycleType.power"), "s"),
        "partitions.enumerate_s": (incl("partitions.enumerate_partitions"), "s"),
        "classify.cases": (extra.get("cases", 0), "count"),
        "classify.predict_calls": (calls(*predict), "count"),
        "classify.predict_s": (incl(*predict), "s"),
        "classify.sweep_self_s": (self_(*verify), "s"),
        "classify.largest_n_share": (extra.get("largest_n_share", 0.0), "ratio"),
        "classify.t2_speedup": (extra.get("t2_speedup", 0.0), "x"),
        "characters_sn.chi_calls": (chi_calls, "count"),
        "characters_sn.chi_s": (incl("characters_sn.chi"), "s"),
        "characters_sn.chi_hit_ratio": (tr["memo_hits"] / chi_calls if chi_calls else 0.0, "ratio"),
        "characters_sn.memo_entries": (tr["memo_entries"], "count"),
        "characters_sn.degree_s": (incl("characters_sn.degree"), "s"),
        "characters_an.chi_an_calls": (calls("characters_an.chi_an"), "count"),
        "characters_an.chi_an_s": (incl("characters_an.chi_an"), "s"),
        "spectral.spectrum_sn_calls": (calls("spectral.spectrum_sn"), "count"),
        "spectral.spectrum_sn_s": (incl("spectral.spectrum_sn"), "s"),
        "spectral.spectrum_an_s": (incl("spectral.spectrum_an"), "s"),
        "spectral.ramanujan_calls": (calls("spectral.ramanujan_sum"), "count"),
        "spectral.ramanujan_s": (incl("spectral.ramanujan_sum"), "s"),
        "spectral.fixdim_s": (incl("spectral.fixed_space_dim"), "s"),
        "spectral.min_poly_s": (incl("spectral.min_poly"), "s"),
        "specht.oracle_calls": (calls("specht.oracle_spectrum"), "count"),
        "specht.sigma_matrix_s": (incl("specht.sigma_matrix"), "s"),
        "specht.oracle_self_s": (self_("specht.oracle_spectrum", "specht.oracle_min_poly"), "s"),
        "bounds.checks": (calls(*checks), "count"),
        "bounds.fomin_lulov_s": (incl("bounds.fomin_lulov_check"), "s"),
        "bounds.estimate_s": (incl("bounds.estimate_check"), "s"),
        "bounds.robbins_s": (incl("bounds.robbins_check"), "s"),
        "bounds.tail_s": (incl("bounds.tail_inequalities_check"), "s"),
        "bounds.min_degree_s": (incl("bounds.min_degree_check"), "s"),
        "cli.import_s": (extra.get("cli_import_s", 0.0), "s"),
        "cli.interpreter_s": (extra.get("cli_interpreter_s", 0.0), "s"),
        "cli.main_ms": (1000 * incl("cli.main") / main_calls if main_calls else 0.0, "ms"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
        "trace.traced_wall_s": (tr["wall_s"], "s"),
    }


def traced_run(args) -> tuple[dict, list[str], dict]:
    plain = worker(args.workload, args.seed, tiny=args.tiny, fault=args.inject_fault)
    traced = worker(args.workload, args.seed, trace=True, tiny=args.tiny, fault=args.inject_fault)
    failures = plain["failures"] + traced["failures"]
    if traced["digest"] != plain["digest"]:
        failures.append("traced answers differ from untraced answers")
    extra = {"overhead_s": traced["wall_s"] - plain["wall_s"]}
    if args.workload == "sweep":
        cls = {tuple(op): t for op, t in zip(plain["ops"], plain["latencies"]) if op[0] in W.CLASSIFY_KINDS}
        largest = sum(max(((op[2], t) for op, t in cls.items() if op[0] == kind))[1] for kind in W.CLASSIFY_KINDS)
        extra["largest_n_share"] = largest / sum(cls.values())
        extra["cases"] = sum(k for op, k in zip(traced["ops"], traced["items"]) if op[0] in W.CLASSIFY_KINDS)
        t2 = worker("sweep", args.seed, mode="t2", tiny=args.tiny)
        extra["t2_speedup"] = t2["t1_s"] / t2["t2_s"]
        if not (t2["t1_ok"] and t2["t2_ok"]):
            failures.append("the threads=1 or threads=2 classification sweep reported mismatches")
    if args.workload == "cli":
        extra["cli_import_s"] = statistics.median(p for p, _ in setup_probes("cli", 7, warm_up=True))
        extra["cli_interpreter_s"] = statistics.median(interpreter_probes())
    pinned = check_pin(args, plain["digest"], failures)
    info = {"attempted": len(plain["latencies"]) + len(traced["latencies"]) + pinned,
            "spans_kept": traced["spans_kept"], "untraced_wall_s": plain["wall_s"]}
    return layer_metrics(traced, extra), failures, info


# --- output ----------------------------------------------------------------------------------


def report_untraced(workload: str, summary: dict, failures: list[str], info: dict) -> dict:
    best, setup = summary["best"], summary["setup"]
    n, k = len(best), info["replays"]
    pct = tail_pct(n)
    p50, tail = 1000 * statistics.median(best), 1000 * percentile(best, pct)
    samples = f"{n} ops, best of {k} replays"
    scaled = f"at reference speed, median of {k} replays"
    if workload == "sweep":
        named = [("sweep_cases_per_s", summary["rate"], "1/s", f"{summary['cases']} cases per replay, {scaled}"),
                 ("bound_checks_per_s", summary["bound_checks_per_s"], "1/s",
                  f"{summary['bound_checks']} reports per replay, {scaled}"),
                 ("wall_sweep_cases_per_s", summary["wall_rate"], "1/s", f"wall clock, {samples}"),
                 ("wall_bound_checks_per_s", summary["bound_wall_rate"], "1/s", f"wall clock, {samples}")]
    else:
        name = {"query": "queries_per_s", "cli": "launches_per_s", "oracle": "oracle_cases_per_s"}[workload]
        named = [(name, summary["rate"], "1/s", f"{n} ops per replay, {scaled}"),
                 (f"wall_{name}", summary["wall_rate"], "1/s", f"wall clock, {samples}")]
    prefix = "op" if workload in ("sweep", "oracle") else workload
    named += [(f"{prefix}_p50_ms", p50, "ms", samples), (f"{prefix}_tail_ms", tail, "ms", f"p{pct}, {samples}")]
    named += [("setup_s", setup_seconds(setup), "s", f"median of {len(setup)} fresh imports, at reference speed"),
              ("wall_setup_s", statistics.median(p for p, _ in setup), "s", f"wall clock, median of {len(setup)}"),
              ("peak_rss_mb", summary["peak_rss_mb"], "MB", f"max over {k} replays"),
              ("fail_ratio", len(failures) / info["attempted"], "ratio", f"{len(failures)}/{info['attempted']}")]
    for name, value, unit, note in named:
        print(f"metric {name} = {value:.6g} {unit}  ({note})")
    ref = "reference launch" if workload == "cli" else "reference"
    print(f"op = {OP_UNIT[workload]}; throughput_per_s counts {RATE_UNIT[workload]} at reference speed: the {ref} "
          f"took {summary['ref_ms']:.4f} ms (median), nominal {summary['ref_nominal_ms']:g} ms; reference imports took "
          f"{1000 * statistics.median(r for _, r in setup):.2f} ms (median), nominal {1000 * W.REF_IMPORT_NOMINAL_S:g} ms; "
          f"wall rates, p50 and tail latencies are printed, not gated (see perfbench/README.md)")
    return {
        "throughput_per_s": (summary["rate"], "1/s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "setup_s": (setup_seconds(setup), "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="perturb one expected answer, to prove the checks catch errors")
    args = ap.parse_args()
    if not Path("src/snchar/__init__.py").is_file():
        print("error: run from the repository root; src/snchar not found", file=sys.stderr)
        return 2
    env = environment()
    print(f"snchar benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tiny={args.tiny}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, failures, info = traced_run(args)
            for name, (value, unit) in metrics.items():
                print(f"layer {name} = {value:.6g} {unit}")
            print(f"trace overhead {metrics['trace.overhead_s'][0]:.3f} s (traced {metrics['trace.traced_wall_s'][0]:.3f} s,"
                  f" untraced {info['untraced_wall_s']:.3f} s); spans kept {info['spans_kept']}")
        else:
            summary, failures, info = timed_run(args)
            metrics = report_untraced(args.workload, summary, failures, info)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    result = {"correct": not failures, "attempted": info["attempted"], "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "args": vars(args), "info": info, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
