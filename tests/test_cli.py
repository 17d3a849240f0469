import ast
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from snchar import cli, spectral
from snchar.characters_sn import degree
from snchar.cli import main
from snchar.partitions import parse_cycle_type, parse_partition
from snchar.spectral import spectrum_sn


# child interpreters import the package from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_sn_text(capsys):
    code, out, err = run_cli(capsys, "char", "--lambda", "3,3", "--shape", "2^3")
    assert code == 0 and err == ""
    assert out.strip() == "-3"


def test_char_an_split_value(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--lambda", "3,1,1", "--group", "an",
        "--variant", "plus", "--shape", "5^1",
    )
    assert code == 0
    assert out.strip() == "1/2+1/2√5"


def test_char_an_both_halves_when_variant_omitted(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--lambda", "3,1,1", "--group", "an", "--shape", "5^1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert any("+" in line.split()[0] for line in lines)


def test_degree(capsys):
    code, out, _ = run_cli(capsys, "degree", "--lambda", "5,4,3,2,1")
    assert code == 0
    assert out.strip() == "292864"


def test_minpoly_text(capsys):
    code, out, _ = run_cli(capsys, "minpoly", "--lambda", "2,2,2", "--shape", "6^1")
    assert code == 0
    assert out.strip() == "(x^6-1)/(x^2-x+1)"


def test_minpoly_an_split_pair(capsys):
    code, out, _ = run_cli(
        capsys, "minpoly", "--lambda", "3,1,1", "--group", "an", "--shape", "5^1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "[3,1^2]+ (x^5-1)/((x-z5^2)(x-z5^3))",
        "[3,1^2]- (x^5-1)/((x-z5^1)(x-z5^4))",
    ]


def test_spectrum_json(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--lambda", "3,3", "--shape", "6^1", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mult"] == [1, 1, 0, 2, 0, 1]
    assert obj["r"] == 6
    assert obj["degree"] == 5
    # printed partition and shape parse back to the inputs
    assert parse_partition(obj["lambda"]) == parse_partition("3,3")
    assert parse_cycle_type(obj["shape"]) == parse_cycle_type("6^1")


HALVES = [("[3,1^2]+", "(x^5-1)/((x-z5^2)(x-z5^3))", [0, 1, 4], [1, 1, 0, 0, 1]),
          ("[3,1^2]-", "(x^5-1)/((x-z5^1)(x-z5^4))", [0, 2, 3], [1, 0, 1, 1, 0])]

# verify minpoly-sn --max-n 5: (n, lambda, cycle length, multiplicity, family) of each exceptional case
EXCEPTIONAL_TO_5 = [
    [3, "2,1", 3, 1, "standard"], [3, "1^3", 2, 1, "sign"], [3, "1^3", 3, 1, "sign"],
    [4, "3,1", 4, 1, "standard"], [4, "2^2", 2, 2, "2,2@4"], [4, "2^2", 3, 1, "2,2@4"],
    [4, "2^2", 4, 1, "2,2@4"], [4, "2,1^2", 4, 1, "standard-twist"], [4, "1^4", 2, 1, "sign"],
    [4, "1^4", 2, 2, "sign"], [4, "1^4", 3, 1, "sign"], [4, "1^4", 4, 1, "sign"],
    [5, "4,1", 5, 1, "standard"], [5, "2,1^3", 5, 1, "standard-twist"], [5, "1^5", 2, 1, "sign"],
    [5, "1^5", 2, 2, "sign"], [5, "1^5", 3, 1, "sign"], [5, "1^5", 4, 1, "sign"], [5, "1^5", 5, 1, "sign"],
]


@pytest.mark.parametrize("argv, expected", [
    (("char", "--lambda", "3,3", "--shape", "2^3"),
     {"group": "sn", "lambda": "3^2", "shape": "2^3", "value": "-3"}),
    (("char", "--group", "an", "--lambda", "2,1", "--shape", "3^1"),
     {"group": "an", "lambda": "2,1", "shape": "3^1",
      "values": [{"label": f"[2,1]{tag}", "rendered": f"-1/2{tag}1/2√-3",
                  "value": {"D": -3, "a_den": 2, "a_num": -1, "b_den": 2, "b_num": sign}}
                 for tag, sign in (("+", 1), ("-", -1))]}),
    (("degree", "--lambda", "3,2"), {"degree": "5", "lambda": "3,2"}),
    (("fixdim", "--lambda", "3,2", "--shape", "2^2 1^1"), {"fixdim": "3", "lambda": "3,2", "shape": "2^2 1^1"}),
    (("spectrum", "--lambda", "3,3", "--shape", "6^1"),
     {"group": "sn", "lambda": "3^2", "shape": "6^1", "r": 6, "degree": 5, "mult": [1, 1, 0, 2, 0, 1]}),
    (("verify", "minpoly-sn", "--max-n", "5"),
     {"cases": 50, "exceptional": EXCEPTIONAL_TO_5, "kind": "minpoly-sn", "mismatches": [], "n_max": 5,
      "n_min": 3, "ok": True}),
    (("bounds", "--check", "robbins", "--n", "10"),
     [{"check": "robbins", "context": "n=10", "holds": True, "precision_bits": 128,
       "clauses": [{"holds": True, "lhs": "3628560.14199", "margin": "239.85801489", "name": "lower",
                    "rhs": "3628800"},
                   {"holds": True, "lhs": "3628800", "margin": "10.0514269335", "name": "upper",
                    "rhs": "3628810.05143"}]}]),
    (("minpoly", "--lambda", "2,2,2", "--shape", "6^1"),
     {"group": "sn", "lambda": "2^3", "shape": "6^1", "r": 6, "roots": [0, 2, 3, 4],
      "rendered": "(x^6-1)/(x^2-x+1)"}),
    (("minpoly", "--group", "an", "--lambda", "3,1^2", "--shape", "5^1"),
     {"group": "an", "lambda": "3,1^2", "shape": "5^1",
      "minpolys": [{"label": label, "r": 5, "roots": roots, "rendered": rendered}
                   for label, rendered, roots, _ in HALVES]}),
    (("spectrum", "--group", "an", "--lambda", "3,1^2", "--shape", "5^1"),
     {"group": "an", "lambda": "3,1^2", "shape": "5^1",
      "spectra": [{"label": label, "r": 5, "degree": 3, "mult": mult} for label, _, _, mult in HALVES]}),
], ids=["char-sn", "char-an", "degree", "fixdim", "spectrum-sn", "verify", "bounds", "minpoly-sn", "minpoly-an",
        "spectrum-an"])
def test_json_outputs_are_the_sorted_indented_dump(capsys, argv, expected):
    # the split pair 3,1^2 at 5^1 has the surd sqrt(5) (d = 5) in its values
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_fixdim(capsys):
    code, out, _ = run_cli(capsys, "fixdim", "--lambda", "2,2,1", "--shape", "3^1 2^1")
    assert code == 0
    assert out.strip() == "0"


def test_table_csv_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "partition"
    assert len(rows) == 6  # header + p(4) rows
    values = [[int(x) for x in row[1:]] for row in rows[1:]]
    assert values[0] == [1, 1, 1, 1, 1]
    for row in rows[1:]:
        parse_partition(row[0])
    for col in rows[0][1:]:
        parse_cycle_type(col)


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["values"][1][2] == "2"


def test_table_size_cap(capsys):
    code, out, err = run_cli(capsys, "table", "--n", "17", "--format", "csv")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 297  # header and one row per partition of 17
    code, out, err = run_cli(capsys, "table", "--n", "21")
    assert (code, out, err) == (2, "", "error: n=21 above limit=20\n")
    # the cap is fixed: there is no option to raise it
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "4", "--limit", "4"])
    assert exc.value.code == 2


def test_table_text(capsys):
    code, out, err = run_cli(capsys, "table", "--n", "4")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "partition  4^1  3^1 1^1  2^2  2^1 1^2  1^4",
        "        4    1        1    1        1    1",
        "      3,1   -1        0   -1        1    3",
        "      2^2    0       -1    2        0    2",
        "    2,1^2    1        0   -1       -1    3",
        "      1^4   -1        1    1       -1    1",
    ]


def test_verify_min_n(capsys):
    code, out, err = run_cli(capsys, "verify", "minpoly-sn", "--min-n", "6", "--max-n", "7", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert (obj["n_min"], obj["n_max"], obj["cases"]) == (6, 7, 206)
    assert {entry[0] for entry in obj["exceptional"]} == {6, 7}


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "minpoly-an", "--max-n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "minpoly-an n=5..6: 29 cases, 0 mismatches, 2 exceptional"
    assert lines[1] == "exceptional: 5 [4,1] 5 1 standard"
    assert lines[2] == "exceptional: 5 [3,1^2]+/- 5 1 3,1,1@5"


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "minpoly-sn", "--max-n", "5", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["cases"] == 50
    assert [3, "1^3", 2, 1, "sign"] in obj["exceptional"]


def test_verify_threads_identical_output(capsys):
    code1, out1, _ = run_cli(
        capsys, "verify", "eigenvalue-one", "--max-n", "7", "--format", "json",
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "eigenvalue-one", "--max-n", "7", "--threads", "3",
        "--format", "json",
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_bounds_single_check(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--check", "robbins", "--n", "10")
    assert code == 0
    assert "robbins n=10" in out
    assert "holds" in out
    assert "all hold" in out


def test_bounds_min_degree_json(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--check", "min-degree", "--n", "15", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    clauses = reports[0]["clauses"]
    assert clauses[0]["rhs"] == "14"
    assert clauses[-1]["name"] == "separation"


def test_bounds_min_degree_above_the_cap_exits_2_at_once(capsys):
    # the walk streams, so time binds: p(100) is about 1.9e8 partitions, and at the 16 us per
    # partition measured at n = 50 (3.2 s for 204 226) the walk would take about 50 minutes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--check", "min-degree", "--n", "100")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: min-degree walks every partition of n, and n = 100 > MAX_MIN_DEGREE_N = 50\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "minpoly-sn", "--max-n", "70", "--min-n", "70"),
     "minpoly-sn sweeps are capped by memory or time, and n = 70 > MAX_SWEEP_N = 34"),
    (("verify", "minpoly-an", "--max-n", "37"),
     "minpoly-an sweeps are capped by memory or time, and n = 37 > MAX_SWEEP_N = 36"),
    (("verify", "eigenvalue-one", "--max-n", "29", "--threads", "2"),
     "eigenvalue-one sweeps are capped by memory or time, and n = 29 > MAX_SWEEP_N = 28"),
    (("bounds", "--check", "sweep-fomin-lulov", "--max-n", "41"),
     "fomin-lulov sweeps are capped by memory or time, and n = 41 > MAX_SWEEP_N = 40"),
    (("bounds", "--check", "sweep-estimate", "--max-n", "70"),
     "estimate sweeps are capped by memory or time, and n = 70 > MAX_SWEEP_N = 40"),
    (("bounds", "--check", "sweep-robbins", "--max-n", "1" + "0" * 30),
     f"robbins sweeps are capped by memory or time, and n = {10**30} > MAX_SWEEP_N = 10000"),
    (("bounds", "--check", "sweep-tail", "--max-n", "250001"),
     "tail sweeps are capped by memory or time, and n = 250001 > MAX_SWEEP_N = 250000"),
])
def test_sweeps_above_their_cap_exit_2_at_once(capsys, argv, message):
    # verify minpoly-sn --max-n 70 --min-n 70 used to grow until memory ran out (72 s under a 1.5 GB ulimit -v)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n", ["10001", "1000000000000"])
def test_one_robbins_check_above_the_sweep_cap_exits_2_at_once(capsys, n):
    # each check slows as about n^1.7 (80 s at 1.6 * 10^6), so one check obeys the sweep's cap
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--check", "robbins", "--n", n)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: robbins checks are capped by time, and n = {n} > MAX_SWEEP_N = 10000\n")


def test_bounds_sweep(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--check", "sweep-robbins", "--max-n", "20")
    assert code == 0
    assert out.strip().endswith("20 report(s): all hold")


def _listed_then_dumped(check, max_n, bits, fmt):
    """A bound sweep's output as printed from the whole list of its reports."""
    from snchar import bounds

    reports = getattr(bounds, "sweep_" + check.replace("-", "_"))(max_n, **({"bits": bits} if bits else {}))
    if fmt == "json":
        return json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True, indent=2) + "\n"
    lines = [f"{rep.check} {rep.context} [{c.name}] lhs={c.lhs} rhs={c.rhs} margin={c.margin}: "
             f"{'holds' if c.holds else 'FAILS'}"
             for rep in reports if len(reports) == 1 or not rep.holds for c in rep.clauses]
    verdict = "all hold" if all(rep.holds for rep in reports) else "FAILURES above"
    return "".join(line + "\n" for line in lines) + f"{len(reports)} report(s): {verdict}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("check, max_n, bits", [
    ("fomin-lulov", 1, None),  # one report: printed whole
    ("fomin-lulov", 12, None),
    ("estimate", 12, 8),  # 8 bits fail two reports at n = 12
    ("robbins", 12, 8),
    ("robbins", 1, None),
    ("tail", 23, None),
])
def test_streamed_bound_sweeps_match_the_listed_output(capsys, fmt, check, max_n, bits):
    # the CLI writes each n's reports before building the next; the bytes are those of the whole list
    argv = ["bounds", "--check", f"sweep-{check}", "--max-n", str(max_n), "--format", fmt]
    code, out, err = run_cli(capsys, *argv, *(["--precision-bits", str(bits)] if bits else []))
    expected = _listed_then_dumped(check, max_n, bits, fmt)
    assert (out, err) == (expected, "")
    assert code == (1 if "FAILS" in expected or '"holds": false' in expected else 0)


def test_bounds_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--check", "robbins", "--n", "200", "--precision-bits", "8",
    )
    assert code == 1
    assert "FAILURES above" in out


def test_bounds_precision_checked_on_the_exact_branch(capsys):
    # at r = 1 the two sides are equal and no interval is evaluated
    code, out, err = run_cli(
        capsys, "bounds", "--check", "fomin-lulov", "--lambda", "2,1", "--shape", "1^3", "--precision-bits", "-7",
    )
    assert (code, out, err) == (2, "", "error: precision too small: -7\n")


@pytest.mark.parametrize("bits", ["65537", "100000000"])
def test_bounds_precision_above_the_cap_exits_2(capsys, bits):
    message = f"error: precision too large: {bits} > MAX_PRECISION_BITS = 65536\n"
    argv = ("bounds", "--check", "fomin-lulov", "--lambda", "3,2", "--shape", "5^1")
    assert run_cli(capsys, *argv, "--precision-bits", bits) == (2, "", message)
    assert run_cli(capsys, "bounds", "--check", "robbins", "--n", "10", "--precision-bits", bits) == (2, "", message)


@pytest.mark.parametrize("bits", ["-7", "64", "65537"])
def test_bounds_min_degree_refuses_a_precision(capsys, bits):
    # min-degree compares integers exactly, so any --precision-bits is refused rather than ignored
    code, out, err = run_cli(capsys, "bounds", "--check", "min-degree", "--n", "15", "--precision-bits", bits)
    assert (code, out, err) == (2, "", "error: --check min-degree is exact and takes no --precision-bits\n")


def test_bounds_precision_comes_from_the_option_alone(capsys, monkeypatch):
    # the precision is set by --precision-bits or the library default; no environment variable is read
    monkeypatch.setenv("SNCHAR_PRECISION_BITS", "abc")
    code, out, err = run_cli(capsys, "bounds", "--check", "robbins", "--n", "10")
    assert (code, err) == (0, "") and out.endswith("1 report(s): all hold\n")


BOUND_CHECKS = [
    ("fomin-lulov", ["--lambda", "3,3", "--shape", "2^3"], 1),
    ("estimate", ["--lambda", "4,2", "--shape", "3^2"], 1),
    ("robbins", ["--n", "10"], 1),
    ("tail", ["--n", "30"], 1),
    ("min-degree", ["--n", "15"], 1),
    ("sweep-fomin-lulov", ["--max-n", "6"], 84),  # sum of d(n) * p(n) over n <= 6
    ("sweep-estimate", ["--max-n", "6"], 84),
    ("sweep-robbins", ["--max-n", "20"], 20),
    ("sweep-tail", ["--max-n", "30"], 8),
]


@pytest.mark.parametrize("check, args, count", BOUND_CHECKS, ids=[c for c, _, _ in BOUND_CHECKS])
def test_every_bounds_check(capsys, check, args, count):
    code, out, err = run_cli(capsys, "bounds", "--check", check, *args)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"{count} report(s): all hold"
    # dropping the arguments gives the check's own usage message
    code, out, err = run_cli(capsys, "bounds", "--check", check)
    assert code == 2 and out == ""
    needs = {"--lambda": "this check needs --lambda and --shape", "--n": "this check needs --n",
             "--max-n": "sweeps need --max-n"}[args[0]]
    assert err == f"error: {needs}\n"


@pytest.mark.parametrize("check, max_n, floor", [
    ("sweep-fomin-lulov", "-3", 1),
    ("sweep-estimate", "0", 1),
    ("sweep-robbins", "0", 1),
    ("sweep-tail", "22", 23),
])
def test_empty_bound_sweep_exits_2(capsys, check, max_n, floor):
    code, out, err = run_cli(capsys, "bounds", "--check", check, "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err == f"error: need {floor} <= min_n <= max_n; got {floor}..{max_n}\n"


def test_bounds_check_choices_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(c for c, _, _ in BOUND_CHECKS) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--check", "nope"])
    assert exc.value.code == 2


def test_bounds_needs_a_uniform_shape(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--check", "fomin-lulov", "--lambda", "3,3", "--shape", "2^2 1^2",
    )
    assert (code, out) == (2, "")
    assert err == "error: bound checks need a uniform shape r^m, got 2^2 1^2\n"


def test_alternating_group_on_one_point(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--group", "an", "--lambda", "1", "--shape", "1^1")
    assert (code, out, err) == (0, "[1] r=1 degree=1 mult=1\n", "")
    code, out, err = run_cli(capsys, "char", "--group", "an", "--lambda", "1", "--shape", "1^1")
    assert (code, out, err) == (0, "1\n", "")
    code, out, err = run_cli(capsys, "minpoly", "--group", "an", "--lambda", "1", "--shape", "1^1")
    assert (code, out, err) == (0, "x-1\n", "")


def test_internal_error_exits_3(capsys, monkeypatch):
    import snchar.cli as cli

    def broken(lam):
        raise RuntimeError("hook product must divide n! (internal bug)")

    monkeypatch.setattr(cli, "degree", broken)
    code, out, err = run_cli(capsys, "degree", "--lambda", "3,2")
    assert (code, out) == (3, "")
    assert err == "internal error: hook product must divide n! (internal bug)\n"


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    from snchar import classify

    def exhausted(max_n, **kwargs):
        raise MemoryError

    monkeypatch.setattr(classify, "verify_minpoly_sn", exhausted)
    code, out, err = run_cli(capsys, "verify", "minpoly-sn", "--max-n", "70", "--min-n", "70")
    assert (code, out) == (2, "")
    assert err == "error: out of memory: the input is too large for this machine\n"


def test_query_n_cross_check(capsys):
    query = ("char", "--lambda", "3,2", "--shape", "2^2 1^1")
    code, out, err = run_cli(capsys, *query[:3], "--n", "6", *query[3:])
    assert (code, out, err) == (2, "", "error: --n 6 does not match |lambda| = 5\n")
    assert run_cli(capsys, *query[:3], "--n", "5", *query[3:]) == run_cli(capsys, *query) == (0, "1\n", "")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_rejects_thread_count_below_one(capsys, threads):
    code, out, err = run_cli(capsys, "verify", "minpoly-sn", "--max-n", "5", "--threads", threads)
    assert (code, out) == (2, "")
    assert err.startswith("error: threads must be at least 1")


def test_deep_class_exits_2(capsys):
    # 1100 transpositions: no recursion ceiling, the value of 1100,1100 is binom(1100, 550)
    code, out, err = run_cli(capsys, "char", "--lambda", "1100,1100", "--shape", "2^1100")
    assert (code, out, err) == (0, f"{math.comb(1100, 550)}\n", "")
    # fixed points cost no level: the value is the degree
    code, out, _ = run_cli(capsys, "char", "--lambda", "1500,1500", "--shape", "1^3000")
    assert code == 0
    assert out == run_cli(capsys, "degree", "--lambda", "1500,1500")[1]


# 3002,1 at 3^1001 has value i1 - 1 = -1 (chi_closed_form) after 1001 levels of one or two states
STANDARD_VALUE = -1


@pytest.mark.parametrize("command, lam, shape", [
    pytest.param("fixdim", "1100,1100", "2^1100", id="fixdim"),
    pytest.param("minpoly", "3002,1", "3^1001", id="minpoly"),
    pytest.param("spectrum", "3002,1", "3^1001", id="spectrum"),
])
def test_deep_class_exits_2_on_spectrum_path(capsys, command, lam, shape):
    # the spectrum path reads the powers sigma^d through the same level-by-level rows as char
    code, out, err = run_cli(capsys, command, "--lambda", lam, "--shape", shape)
    assert (code, err) == (0, "")
    deg = int(run_cli(capsys, "degree", "--lambda", lam)[1])
    if command == "fixdim":
        assert out == f"{(math.comb(1100, 550) + deg) // 2}\n"
    elif command == "minpoly":
        assert out == "x^3-1\n"
    else:  # sigma and sigma^2 have the value -1, sigma^3 = 1 has the degree
        one, other = (deg + 2 * STANDARD_VALUE) // 3, (deg - STANDARD_VALUE) // 3
        assert out == f"r=3 degree={deg} mult={one},{other},{other}\n"


def test_oversized_input_exits_2(capsys):
    code, out, err = run_cli(capsys, "degree", "--lambda", "1^1000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: partition too large")


@pytest.mark.parametrize("verb", ["char", "spectrum", "minpoly"])
def test_variant_without_group_an_exits_2(capsys, verb):
    # the symmetric group has no plus or minus label: the variant is refused, not ignored
    code, out, err = run_cli(capsys, verb, "--lambda", "3,1,1", "--shape", "5^1", "--variant", "plus")
    assert (code, out) == (2, "")
    assert err == "error: --variant names an alternating group label; it needs --group an\n"


def test_variant_choices_are_the_label_variants():
    from snchar.characters_an import MINUS, PLUS, RESTRICTED

    verbs = next(a for a in cli._build_parser()._actions if a.dest == "verb").choices
    for verb in ("char", "spectrum", "minpoly"):
        (variant,) = [a for a in verbs[verb]._actions if a.dest == "variant"]
        assert variant.choices == (RESTRICTED, PLUS, MINUS)


# (lambda, class) pairs of the labelled queries: split pairs on and off their distinguished class, plain
# labels, an odd class, a bad partition, a size mismatch, and both listing prechecks at r = 1 441 440
QUERY_PAIRS = [
    ("3,1,1", "5^1"), ("3,1,1", "3^1 1^2"), ("2,2", "2^2"), ("2,2", "3^1 1^1"), ("3,2,1", "5^1 1^1"),
    ("3,2,1", "3^2"), ("4,2", "3^1 1^3"), ("4,2", "2^2 1^2"), ("4,2", "2^1 1^4"), ("1", "1^1"),
    ("junk", "3^1"), ("3,1", "3^1"), ("76,1", "32^1 13^1 11^1 9^1 7^1 5^1"), ("76,1", "13^1 11^1 9^1 7^1 5^1 1^32"),
]
# sha256 of json.dumps of (argv, exit status, stdout, stderr) per query in order: the bytes must not drift
QUERY_CORPUS_DIGEST = "12a6c8788af39a6450ade76bcba1c6e3dddf81c13e916291dd150d0a6f2181d7"


def test_labelled_query_corpus_is_byte_identical(capsys):
    answers = []
    for verb in ("char", "spectrum", "minpoly"):
        for lam, shape in QUERY_PAIRS:
            for group in ("sn", "an"):
                for variant in (None, "restricted", "plus", "minus"):
                    for fmt in ("text", "json"):
                        argv = [verb, "--lambda", lam, "--shape", shape, "--group", group, "--format", fmt]
                        argv += [] if variant is None else ["--variant", variant]
                        answers.append([argv, *run_cli(capsys, *argv)])
    assert hashlib.sha256(json.dumps(answers).encode()).hexdigest() == QUERY_CORPUS_DIGEST


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("verb, module, name", [("char", "characters_an", "chi_an"),
                                                ("spectrum", "spectral", "spectrum_an"),
                                                ("minpoly", "spectral", "spectrum_an")])
def test_a_failing_second_label_writes_nothing(capsys, monkeypatch, verb, module, name, fmt):
    # every result of a split pair is computed before the first byte is written
    import importlib

    mod = importlib.import_module(f"snchar.{module}")
    real, calls = getattr(mod, name), []

    def second_fails(label, sigma):
        calls.append(label)
        if len(calls) == 2:
            raise RuntimeError("second half (internal bug)")
        return real(label, sigma)

    monkeypatch.setattr(mod, name, second_fails)
    code, out, err = run_cli(capsys, verb, "--group", "an", "--lambda", "3,1,1", "--shape", "5^1", "--format", fmt)
    assert (code, out, err) == (3, "", "internal error: second half (internal bug)\n")
    assert len(calls) == 2


def test_broken_diagonal_hooks_exit_3_on_the_an_path(capsys, monkeypatch):
    # special_class checks its hooks with a RuntimeError, not an assert that python -O would skip
    from snchar import characters_an

    monkeypatch.setattr(characters_an, "diagonal_hooks", lambda lam: (2, 1))
    code, out, err = run_cli(capsys, "char", "--lambda", "2,1", "--shape", "3^1", "--group", "an")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_minpoly_rendering_above_max_listed_r_exits_2(capsys):
    # r = 9699690 on 77 points: the rendering would divide out cyclotomic factors of degree up to 1658880
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minpoly", "--lambda", "75,2", "--shape", "19^1 17^1 13^1 11^1 7^1 5^1 3^1 2^1")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == ("error: the minimal polynomial at r = 9699690 lacks 9697680 of the r-th roots of unity, "
                   "more than its rendering may list (MAX_LISTED_R = 1048576)\n")


# 19*17*13*11*7*5 = 1616615, above MAX_LISTED_R = 2^20, on 72 points
BIG_ORDER_SHAPE = "19^1 17^1 13^1 11^1 7^1 5^1"


@pytest.mark.parametrize("argv, what", [
    (("spectrum",), "spectrum"),
    (("spectrum", "--format", "json"), "spectrum"),
    (("spectrum", "--group", "an"), "spectrum"),
    (("minpoly", "--format", "json"), "minpoly --format json"),
    (("minpoly", "--format", "json", "--group", "an"), "minpoly --format json"),
])
def test_listing_above_max_listed_r_exits_2(capsys, argv, what):
    code, out, err = run_cli(capsys, *argv, "--lambda", "71,1", "--shape", BIG_ORDER_SHAPE)
    assert (code, out) == (2, "")
    assert err == (f"error: {what} lists one entry per r-th root of unity, and class {BIG_ORDER_SHAPE} has "
                   "order r = 1616615 > MAX_LISTED_R = 1048576; use minpoly (text format) or fixdim\n")
    # the per-divisor answers are not listings
    assert run_cli(capsys, "fixdim", "--lambda", "71,1", "--shape", BIG_ORDER_SHAPE)[:2] == (0, "5\n")


# the first ten and twelve primes, on 129 and 197 points: d(r) = 2^10 and 2^12 divisors
TEN_PRIMES = "2^1 3^1 5^1 7^1 11^1 13^1 17^1 19^1 23^1 29^1"
TWELVE_PRIMES = TEN_PRIMES + " 31^1 37^1"


# the first nineteen primes, on 568 points: d(r) = 2^19 divisors
NINETEEN_PRIMES = TWELVE_PRIMES + " 41^1 43^1 47^1 53^1 59^1 61^1 67^1"


def test_many_prime_cycles_answer_up_to_max_divisors(capsys):
    # d(r) = 1 152 divisors: the spectrum weighs them prime by prime, with no d(r)^2 table
    start = time.perf_counter()
    argv = ("minpoly", "--lambda", "60,48", "--shape", "23^1 19^1 17^1 13^1 11^1 9^1 7^1 5^1 4^1")
    assert run_cli(capsys, *argv) == (0, "x^1338557220-1\n", "")
    assert time.perf_counter() - start < 1
    # d(r) = 4 096: the spectrum is built, and its rendering is refused
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minpoly", "--lambda", "195,2", "--shape", TWELVE_PRIMES)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == ("error: the minimal polynomial at r = 7420738134810 lacks 7420738119684 of the r-th roots of unity, "
                   "more than its rendering may list (MAX_LISTED_R = 1048576)\n")
    assert run_cli(capsys, "fixdim", "--lambda", "195,2", "--shape", TWELVE_PRIMES)[:2] == (0, "147\n")
    assert run_cli(capsys, "minpoly", "--lambda", "65,64", "--shape", TEN_PRIMES) == (0, "x^6469693230-1\n", "")
    # d(r) = 2^19 > MAX_DIVISORS: fixdim and text minpoly exit 2 before any character work (spectrum is
    # refused sooner, by its listing cap)
    for verb in ("fixdim", "minpoly"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, verb, "--lambda", "566,2", "--shape", NINETEEN_PRIMES)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: class {' '.join(reversed(NINETEEN_PRIMES.split()))} has d(r) = 524288 divisors of "
                       "its order, over MAX_DIVISORS = 262144\n")


def test_max_listed_r_admits_order_1021020():
    assert spectral.MAX_LISTED_R == 1 << 20
    assert not hasattr(cli, "MAX_LISTED_R")  # the command line reads spectral's cap, keeps no copy
    cli._check_listed("spectrum", parse_cycle_type("17^1 13^1 11^1 7^1 5^1 4^1 3^1"))


# 13*11*9*7*5 = 45045: the distinguished class of the split pair 7^5,5^2
SPLIT_45045 = ("--group", "an", "--lambda", "7^5,5^2", "--shape", "13^1 11^1 9^1 7^1 5^1")


def test_split_class_at_order_45045_answers_minpoly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minpoly", *SPLIT_45045)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == "[7^5,5^2]+ x^45045-1\n[7^5,5^2]- x^45045-1\n"


def test_split_class_at_order_45045_answers_spectrum(capsys, monkeypatch):
    # both halves are printed from one parent spectrum: one character row in all
    rows = []
    real = spectral._chi_row
    monkeypatch.setattr(spectral, "_chi_row", lambda mask, columns: rows.append(mask) or real(mask, columns))
    spectral._split_pair.cache_clear()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", *SPLIT_45045)
    assert time.perf_counter() - start < 1
    assert (code, err, len(rows)) == (0, "", 1)
    lam, sigma = parse_partition("7^5,5^2"), parse_cycle_type(SPLIT_45045[-1])
    halves = []
    for line, tag in zip(out.splitlines(), "+-", strict=True):
        head, mult = line.rsplit(" mult=", 1)
        assert head == f"[7^5,5^2]{tag} r=45045 degree={degree(lam) // 2}"
        halves.append([int(m) for m in mult.split(",")])
    assert halves[0] != halves[1]
    assert [a + b for a, b in zip(*halves, strict=True)] == list(spectrum_sn(lam, sigma).mult)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_split_class_spectrum_streams_its_text(fmt):
    # r = 1021 * 1019 = 1 040 399 <= MAX_LISTED_R: both halves list 1 211-digit multiplicities, 2.5 GB of
    # text in either format. A fresh interpreter, its address space capped at 1 GB, so that a build which
    # holds the text whole fails with exit 2 instead of exhausting the machine
    code = "\n".join([
        "import resource, sys",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
        "from snchar.cli import main",
        "status = main(['spectrum', '--group', 'an', '--lambda', '511^2,2^509', '--shape', '1021^1 1019^1',",
        f"               '--format', '{fmt}'])",
        "peak = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))",
        "print(peak, file=sys.stderr)",
        "sys.exit(status)",
    ])
    with open(os.devnull, "w") as devnull:
        proc = subprocess.run([sys.executable, "-c", code], stdout=devnull, stderr=subprocess.PIPE, text=True,
                              env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) < 200 * 1024


def test_split_class_above_max_listed_r_answers_text_minpoly_only(capsys):
    # 19*17*13*11*7*5 = 1616615 > 2^20: the hooks of the self conjugate 10^2,9^2,8^2,6^2,4,2 (n = 72);
    # the halves' minimal polynomials are read per divisor, only their listings are refused
    argv = ("--group", "an", "--lambda", "10^2,9^2,8^2,6^2,4,2", "--shape", BIG_ORDER_SHAPE)
    code, out, err = run_cli(capsys, "minpoly", *argv)
    assert (code, err) == (0, "")
    assert out == "[10^2,9^2,8^2,6^2,4,2]+ x^1616615-1\n[10^2,9^2,8^2,6^2,4,2]- x^1616615-1\n"
    for verb, what in (("spectrum",), "spectrum"), (("minpoly", "--format", "json"), "minpoly --format json"):
        code, out, err = run_cli(capsys, *verb, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {what} lists one entry per r-th root of unity, and class {BIG_ORDER_SHAPE} has "
                       "order r = 1616615 > MAX_LISTED_R = 1048576; use minpoly (text format) or fixdim\n")


def test_split_class_at_order_1040399_answers_minpoly_at_once(capsys):
    # 1021*1019, the distinguished class of 511^2,2^509 (n = 2040): both minimal polynomials are
    # read from 2 * d(r) = 8 entries per half, with no listing of the r residues
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minpoly", "--group", "an", "--lambda", "511^2,2^509", "--shape", "1021^1 1019^1")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == "[511^2,2^509]+ x^1040399-1\n[511^2,2^509]- x^1040399-1\n"


def test_max_split_r_is_the_listing_cap():
    assert spectral.MAX_LISTED_R == 1 << 20
    assert not hasattr(cli, "MAX_LISTED_R")


def test_split_class_below_max_split_r_answers(capsys):
    # 11*9*7*5 = 3465, the distinguished class of 6^4,4^2
    code, out, err = run_cli(capsys, "minpoly", "--group", "an", "--lambda", "6^4,4^2", "--shape", "11^1 9^1 7^1 5^1")
    assert (code, err) == (0, "")
    assert out == "[6^4,4^2]+ x^3465-1\n[6^4,4^2]- x^3465-1\n"


def test_minpoly_renders_every_cyclotomic_factor_of_order_30030(capsys):
    # the trivial character keeps only the root 1: x^30030 - 1 over its 63 other cyclotomic factors
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minpoly", "--lambda", "41", "--shape", "13^1 11^1 7^1 5^1 3^1 2^1")
    assert time.perf_counter() - start < 30
    assert (code, err) == (0, "")
    assert out.startswith("(x^30030-1)/((x+1)(x^2+x+1)(x^4+x^3+x^2+x+1)(x^2-x+1)(x^6+x^5+x^4+x^3+x^2+x+1)(")
    assert out.endswith("+1))\n") and out.count(")(") == 62


def test_bad_partition_exits_2(capsys):
    code, _, err = run_cli(capsys, "char", "--lambda", "junk", "--shape", "3^1")
    assert code == 2
    assert err.startswith("error:")


def test_size_mismatch_exits_2(capsys):
    code, _, err = run_cli(capsys, "char", "--lambda", "3,1", "--shape", "3^1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(
        capsys, "char", "--lambda", "3,1", "--n", "5", "--shape", "3^1 1^1",
    )
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["char", "--lambda", "3,1"])  # missing --shape
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "snchar.cli", "char", "--lambda", "3,3",
         "--shape", "6^1"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


def test_import_does_not_load_mpmath():
    # the package is stdlib only: no module under src/snchar imports mpmath, at any level
    found = []
    for path in sorted(Path(SRC, "snchar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.partition(".")[0] == "mpmath"]
    assert found == []


def test_import_does_not_load_the_process_pool():
    code = "import sys, snchar, snchar.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("argv", [["char", "--lambda", "3", "--shape", "3^1"], ["table", "--n", "12"]],
                         ids=["small", "large"])
def test_closed_stdout_exits_2_with_one_line(argv):
    # the reader of the child's stdout is gone before the child writes: a one-line output fails in
    # the flush, a long one in the first print, and neither ends in a traceback or exit 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "snchar.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout was closed before all output was written\n"
    assert "Traceback" not in proc.stderr


def test_verify_mismatches_exit_1(capsys, monkeypatch):
    from snchar import classify
    from snchar.spectral import MinPoly

    monkeypatch.setattr(classify, "_without", lambda r, removed: MinPoly(r, frozenset(range(r))))
    code, out, _ = run_cli(capsys, "verify", "minpoly-sn", "--max-n", "6")
    assert code == 1
    lines = out.splitlines()
    mismatches = [line for line in lines if line.startswith("mismatch:")]
    assert lines[0].startswith("minpoly-sn n=3..6: ") and f", {len(mismatches)} mismatches, " in lines[0]
    assert "mismatch: 3 2,1 3 1 x^3-1 (x^3-1)/(x-1)" in mismatches
    assert "mismatch: 6 3^2 6 1 x^6-1 (x^6-1)/(x^2+x+1)" in mismatches


def test_runs_are_byte_identical():
    argv = [sys.executable, "-m", "snchar.cli", "verify", "minpoly-sn",
            "--max-n", "6", "--format", "json"]
    first = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV)
    second = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("snchar ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_line_examples(capsys, line):
    # each example exits 0 and, where a "# ..." comment follows, prints exactly that
    argv = shlex.split(line, comments=True)
    code, out, err = run_cli(capsys, *argv[1:])
    assert (code, err) == (0, "")
    if "#" in line:
        assert out == line.split("#", 1)[1].strip() + "\n"
