"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S [--trace] [--tiny]
        [--inject-fault] [--no-check] [--mode pass|cli-expect|t2]

Run from the repository root with src/ on PYTHONPATH (run.py does this). The
pass executes its operations closed loop and times each one; afterwards,
outside the timed region and with tracing removed, it checks every answer.
The last stdout line is one JSON object for run.py. With --no-check only
operations that raised are reported; run.py uses it for the replays after the
first, whose answers it compares with the checked first replay by digest.

Modes: "pass" runs the operations (for the cli workload: in-process
`snchar.cli.main(argv)`); "cli-expect" reads cli operations as JSON on stdin
and answers the expected (exit code, stdout) of each; "t2" times the
classification sweeps at threads=2 and then threads=1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Program:
    """The package's public surface, looked up at call time so that the
    tracer's wrappers (installed by rebinding module attributes) are used."""

    def __init__(self) -> None:
        from snchar import bounds, characters_an, characters_sn, classify, partitions, specht, spectral
        self.bounds, self.an, self.sn = bounds, characters_an, characters_sn
        self.classify, self.parts, self.specht, self.spectral = classify, partitions, specht, spectral

    def lam(self, parts):
        return self.parts.Partition(tuple(parts))

    def cls(self, lengths):
        return self.parts.CycleType.from_lengths(lengths)

    # --- operations: each returns (answer as plain data, work items) ---------

    def sweep(self, op):
        kind, lo, hi = op
        c, b = self.classify, self.bounds
        if kind in W.CLASSIFY_KINDS:
            fn = {"minpoly-sn": c.verify_minpoly_sn, "minpoly-an": c.verify_minpoly_an,
                  "eigenvalue-one": c.verify_eigenvalue_one}[kind]
            rep = fn(hi, min_n=lo, threads=1)
            return rep.to_json_dict(), rep.cases
        if kind == "min-degree":
            reports = [b.min_degree_check(lo)]
        else:
            fn = {"fomin-lulov": b.sweep_fomin_lulov, "estimate": b.sweep_estimate,
                  "robbins": b.sweep_robbins, "tail": b.sweep_tail}[kind]
            reports = fn(hi, min_n=lo)
        return [r.to_json_dict() for r in reports], len(reports)

    def query(self, op):
        sp = self.spectral
        if op[0] == "spectrum":
            prof = sp.spectrum_sn(self.lam(op[1]), self.cls(op[2]))
            poly = sp.min_poly(prof)
            return {"r": prof.r, "mult": list(prof.mult), "roots": sorted(poly.roots), "rendered": poly.rendered}, 1
        if op[0] == "fixdim":
            return sp.fixed_space_dim(self.lam(op[1]), self.cls(op[2])), 1
        if op[0] == "chi_an":
            _, parts, variant, mu = op
            label = self.an.AnCharacterLabel(self.lam(parts), variant)
            return self.an.chi_an(label, self.cls(mu)).to_json_dict(), 1
        _, parts, hooks = op
        sigma = self.cls(hooks)
        plus, minus = self.an.AnCharacterLabel.split_pair(self.lam(parts))
        return [list(sp.spectrum_an(plus, sigma).mult), list(sp.spectrum_an(minus, sigma).mult)], 1

    def oracle(self, op):
        lam, sigma = self.lam(op[1]), self.cls(op[2])
        prof = self.specht.oracle_spectrum(lam, sigma)
        mat = self.specht.sigma_matrix(lam, sigma)
        return {"mult": list(prof.mult), "trace": sum(mat[i][i] for i in range(len(mat)))}, 1

    def cli(self, op):
        from snchar import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op[1]))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return {"code": code, "stdout": out.getvalue()}, 1

    # --- checks: outside the timed region, tracing removed -----------------
    # `wrong` perturbs the reference so the self-test can prove a check bites.

    def check_sweep(self, op, ans, wrong):
        exp = W.expected_sweep(op)
        want = exp["count"] + wrong
        if op[0] in W.CLASSIFY_KINDS:
            if not ans["ok"]:
                return f"{op}: {len(ans['mismatches'])} mismatches"
            if ans["cases"] != want:
                return f"{op}: {ans['cases']} cases, expected {want}"
            got = {tuple(e) for e in ans["exceptional"]}
            if got != exp["exceptional"]:
                return f"{op}: exceptional set differs: extra {sorted(got - exp['exceptional'])[:3]}, " \
                       f"missing {sorted(exp['exceptional'] - got)[:3]}"
            return None
        if not all(r["holds"] for r in ans):
            return f"{op}: a bound failed to certify"
        got = len(ans[0]["clauses"]) if op[0] == "min-degree" else len(ans)
        return None if got == want else f"{op}: {got} reports/clauses, expected {want}"

    def check_query(self, op, ans, wrong):
        sp = self.spectral
        if op[0] == "chi_an":
            _, parts, variant, mu = op
            x = self.sn.chi(self.lam(parts), self.cls(mu)) + wrong
            a = ans["a_num"] / ans["a_den"]
            b2d = (ans["b_num"] / ans["b_den"]) ** 2 * ans["D"]
            if variant == "restricted":
                ok = a == x and ans["b_num"] == 0
            elif ans["b_num"]:
                hooks = self.parts.diagonal_hooks(self.lam(parts))
                ok = 2 * a == x and tuple(sorted(mu, reverse=True)) == hooks and 4 * b2d == x * math.prod(hooks)
            else:
                ok = 2 * a == x
            return None if ok else f"{op}: chi_an {ans} disagrees with chi = {x}"
        lam = self.lam(op[1])
        sigma = self.cls(op[2])
        ref = list(sp.spectrum_sn(lam, sigma).mult)
        ref[0] += wrong
        if op[0] == "fixdim":
            return None if ans == ref[0] else f"{op}: fixdim {ans} != mult[0] {ref[0]}"
        if op[0] == "spectrum":
            if ans["mult"] != ref:
                return f"{op}: spectrum differs from a fresh spectrum_sn"
            if ans["roots"] != [j for j, m in enumerate(ans["mult"]) if m]:
                return f"{op}: min_poly support differs from the spectrum support"
            if ans["r"] <= W.SMALL_R and list(sp.spectrum_sn_direct(lam, sigma).mult) != ref:
                return f"{op}: spectrum_sn_direct disagrees"
            return None
        plus_m, minus_m = ans
        if [p + m for p, m in zip(plus_m, minus_m)] != ref:
            return f"{op}: split halves do not sum to the restricted profile"
        if W.hook_degree(op[1]) > W.NUMERIC_DEGREE_CAP:
            return None  # beyond what the floating point route resolves
        plus, minus = self.an.AnCharacterLabel.split_pair(lam)
        for label, got in ((plus, plus_m), (minus, minus_m)):
            if list(sp.spectrum_an_numeric(label, sigma).mult) != got:
                return f"{op}: spectrum_an_numeric disagrees for {label}"
        return None

    def check_oracle(self, op, ans, wrong):
        lam, sigma = self.lam(op[1]), self.cls(op[2])
        ref = list(self.spectral.spectrum_sn(lam, sigma).mult)
        x = self.sn.chi(lam, sigma) + wrong
        if ans["mult"] != ref:
            return f"{op}: oracle spectrum {ans['mult']} != Ramanujan route {ref}"
        return None if ans["trace"] == x else f"{op}: trace {ans['trace']} != chi {x}"

    def check_cli(self, op, ans, wrong):
        _, argv, code = op
        if ans["code"] != code + wrong:
            return f"{argv}: exit {ans['code']}, expected {code + wrong}"
        if code == 2:
            return None if ans["stdout"] == "" else f"{argv}: stdout on a rejected input"
        if argv[0] == "degree":
            want = f"{W.hook_degree(_expand(argv[2]))}\n"
            return None if ans["stdout"] == want else f"{argv}: degree {ans['stdout']!r}, hook formula {want!r}"
        if argv[0] == "bounds":
            return None if ans["stdout"].endswith("1 report(s): all hold\n") else f"{argv}: bound did not hold"
        return None


def _expand(text: str) -> tuple[int, ...]:
    parts: list[int] = []
    for atom in text.split(","):
        base, _, exp = atom.partition("^")
        parts.extend([int(base)] * int(exp or 1))
    return tuple(parts)


def run_pass(args) -> dict:
    prog = Program()
    ops = W.OPS[args.workload](args.seed, args.tiny)
    run_op = getattr(prog, args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    answers, latencies, refs, items, errors = [], [], [], [], {}
    wall0 = time.perf_counter()
    for i, op in enumerate(ops):
        frame = tracer.begin_op(f"op.{args.workload}.{op[0]}") if tracer else None
        t = time.perf_counter()
        try:
            ans, k = run_op(op)
        except Exception as exc:  # an operation that raises is a counted failure
            ans, k, errors[i] = None, 0, f"{op}: raised {exc!r}"
        latencies.append(time.perf_counter() - t)
        if tracer:
            tracer.end_op(frame)
        refs.append(W.time_reference())
        answers.append(ans)
        items.append(k)
    wall = time.perf_counter() - wall0 - sum(refs)
    rss = _rss_mb()
    out = {"ops": [list(op) for op in ops], "latencies": latencies, "refs": refs, "items": items,
           "wall_s": wall, "rss_mb": rss, "digest": W.answer_digest(answers)}
    if tracer:
        tracer.uninstall()
        memo = getattr(prog.sn, "_MN_CACHE", None)
        out["totals"] = tracer.totals()
        out["memo_hits"] = tracer.memo_hits
        out["memo_entries"] = len(memo) if memo is not None else 0
        os.makedirs(".bench_out", exist_ok=True)
        out["spans_kept"] = tracer.dump(os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.json.gz"))
    check = getattr(prog, f"check_{args.workload}")
    failures = []
    for i, (op, ans) in enumerate(zip(ops, answers)):
        if i in errors:
            failures.append(errors[i])
            continue
        if args.no_check:
            continue
        try:
            msg = check(op, ans, int(args.inject_fault and i == 0))
        except Exception as exc:
            msg = f"{op}: check raised {exc!r}"
        if msg:
            failures.append(msg)
    out["failures"] = failures
    return out


def cli_expect(args) -> dict:
    """Expected (exit code, stdout) of each cli operation, from in-process
    main(argv), plus the checks that need no reference run."""
    prog = Program()
    ops = [tuple(op) for op in json.load(sys.stdin)]
    expected, failures = [], []
    for i, op in enumerate(ops):
        ans, _ = prog.cli(op)
        msg = prog.check_cli(op, ans, int(args.inject_fault and i == 0))
        if msg:
            failures.append(msg)
        expected.append(ans)
    return {"expected": expected, "failures": failures}


def t2(args) -> dict:
    """Wall time of the classification sweeps at threads=2, then threads=1.
    threads=2 runs first, while this process's memo is still cold, so both
    sides start from the same state."""
    prog = Program()
    c = prog.classify
    sizes = (6, 7, 6) if args.tiny else (W.SWEEP_SN_MAX, W.SWEEP_AN_MAX, W.SWEEP_EIG_MAX)
    fns = (c.verify_minpoly_sn, c.verify_minpoly_an, c.verify_eigenvalue_one)
    out = {}
    for threads in (2, 1):
        t = time.perf_counter()
        reports = [fn(n, threads=threads) for fn, n in zip(fns, sizes)]
        out[f"t{threads}_s"] = time.perf_counter() - t
        out[f"t{threads}_ok"] = all(r.ok for r in reports)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--no-check", action="store_true")
    ap.add_argument("--mode", choices=("pass", "cli-expect", "t2"), default="pass")
    args = ap.parse_args()
    result = {"pass": run_pass, "cli-expect": cli_expect, "t2": t2}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
