import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snchar.cli import main
from snchar.partitions import parse_cycle_type, parse_partition


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


def test_bounds_sweep(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--check", "sweep-robbins", "--max-n", "20")
    assert code == 0
    assert out.strip().endswith("20 report(s): all hold")


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


def test_bounds_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("SNCHAR_PRECISION_BITS", "8")
    code, _, _ = run_cli(capsys, "bounds", "--check", "robbins", "--n", "200")
    assert code == 1
    monkeypatch.setenv("SNCHAR_PRECISION_BITS", "128")
    code, _, _ = run_cli(capsys, "bounds", "--check", "robbins", "--n", "200")
    assert code == 0


def test_bounds_precision_env_read_only_by_bounds(capsys, monkeypatch):
    monkeypatch.setenv("SNCHAR_PRECISION_BITS", "abc")
    code, out, err = run_cli(capsys, "degree", "--lambda", "3,2")
    assert (code, out, err) == (0, "5\n", "")
    code, out, err = run_cli(capsys, "bounds", "--check", "robbins", "--n", "10")
    assert code == 2 and out == ""
    assert err == "error: SNCHAR_PRECISION_BITS must be an integer, got 'abc'\n"
    # an explicit --precision-bits wins over the variable
    code, _, _ = run_cli(capsys, "bounds", "--check", "robbins", "--n", "10", "--precision-bits", "64")
    assert code == 0


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_rejects_thread_count_below_one(capsys, threads):
    code, out, err = run_cli(capsys, "verify", "minpoly-sn", "--max-n", "5", "--threads", threads)
    assert (code, out) == (2, "")
    assert err.startswith("error: threads must be at least 1")


def test_deep_class_exits_2(capsys):
    # one recursion level per non-fixed cycle: 1500 transpositions are too deep
    code, out, err = run_cli(capsys, "char", "--lambda", "1500,1500", "--shape", "2^1500")
    assert (code, out) == (2, "")
    assert err.startswith("error: class 2^1500 has 1500 cycles, too many for the character recursion")
    # fixed points end the recursion at once: the value is the degree
    code, out, _ = run_cli(capsys, "char", "--lambda", "1500,1500", "--shape", "1^3000")
    assert code == 0
    assert out == run_cli(capsys, "degree", "--lambda", "1500,1500")[1]


def test_oversized_input_exits_2(capsys):
    code, out, err = run_cli(capsys, "degree", "--lambda", "1^1000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: partition too large")


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
    code = "import sys, snchar, snchar.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


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
