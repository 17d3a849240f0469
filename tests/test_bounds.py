import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from snchar.bounds import (
    DEFAULT_PRECISION_BITS,
    MAX_MIN_DEGREE_N,
    _inf,
    _interval_precision,
    _sup,
    estimate_check,
    fomin_lulov_check,
    min_degree_check,
    robbins_check,
    sweep_estimate,
    sweep_fomin_lulov,
    sweep_robbins,
    sweep_tail,
    tail_inequalities_check,
)
from snchar.partitions import enumerate_partitions, parse_partition

# child interpreters import the package from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def test_interval_endpoints_bracket():
    with _interval_precision(64) as iv:
        x = iv.mpf(1) / iv.mpf(3)
        lo, hi = _inf(x), _sup(x)
    assert lo < Fraction(1, 3) < hi
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert hi - lo < Fraction(1, 10**15)


def test_interval_precision_guard():
    with pytest.raises(ValueError):
        with _interval_precision(4):
            pass


def test_precision_checked_without_intervals():
    # r = 1 is decided exactly, with no interval evaluation, yet bits is still checked
    with pytest.raises(ValueError, match="precision too small: -7"):
        fomin_lulov_check(parse_partition("2,1"), 1, 3, bits=-7)
    with pytest.raises(ValueError, match="precision too small: -7"):
        sweep_fomin_lulov(1, bits=-7)


def test_fomin_lulov_r1_is_equality():
    report = fomin_lulov_check(parse_partition("3,2"), 1, 5)
    assert report.holds
    clause = report.clauses[0]
    assert clause.margin == "0"
    assert clause.lhs == clause.rhs == "5"


def test_fomin_lulov_known():
    report = fomin_lulov_check(parse_partition("6"), 6, 1)
    assert report.holds
    assert report.check == "fomin-lulov"
    assert "6^1" in report.context
    report2 = fomin_lulov_check(parse_partition("3,3"), 2, 3)
    assert report2.holds


def test_fomin_lulov_shape_guard():
    with pytest.raises(ValueError):
        fomin_lulov_check(parse_partition("3,2"), 2, 2)


def test_estimate_known():
    report = estimate_check(parse_partition("3,3"), 2, 3)
    assert report.holds
    clause = report.clauses[0]
    assert clause.name == "normalized-value"
    assert clause.holds


def test_robbins_structure():
    report = robbins_check(10)
    assert report.holds
    names = [c.name for c in report.clauses]
    assert names == ["lower", "upper"]
    with pytest.raises(ValueError):
        robbins_check(0)


def test_tail_known():
    report = tail_inequalities_check(23)
    assert report.holds
    assert [c.name for c in report.clauses] == ["factor-54", "factor-4608"]
    with pytest.raises(ValueError):
        tail_inequalities_check(22)


def test_min_degree_n15():
    report = min_degree_check(15)
    assert report.holds
    assert report.precision_bits == 0
    values = [c.rhs for c in report.clauses[:-1]]
    assert values == ["14", "90", "91", "350", "364", "715"]
    sep = report.clauses[-1]
    assert sep.name == "separation"
    assert sep.lhs == "910" and sep.rhs == "715"


def test_min_degree_n22():
    report = min_degree_check(22)
    assert report.holds
    values = [c.rhs for c in report.clauses[:-1]]
    assert values == [
        "21", "209", "210", "1309", "1330", "2640",
        "5775", "5985", "11781", "17556", "17765",
    ]
    names = [c.name for c in report.clauses]
    assert names[:6] == ["d1", "d2", "d3", "d4", "d5", "d6"]
    assert names[6:11] == ["d7", "d8", "d9", "d10", "d11"]
    assert names[-1] == "separation"


# sha256 of json.dumps(report.to_json_dict(), sort_keys=True): the report bytes must not drift
MIN_DEGREE_DIGESTS = {
    15: "7a96fbe5374fdefd9813a01ae0f573ea26b5fd7394be024305d952323e9c588a",
    22: "a2e9f8fb1c2f467404190216eb34fb964583c33f1027f5701aa1499b51cce4bc",
    30: "620f6236f110342fed5cd8d4c7b26131c69e5adf73eb98d543ef9de17f52274d",
    50: "6919da6eb10319d8dcde5d3d70dc72d0f09a8147840ff5d1fd6c6df9c4fb9cfe",
}


@pytest.mark.parametrize("n", sorted(MIN_DEGREE_DIGESTS))
def test_min_degree_report_bytes_are_pinned(n):
    text = json.dumps(min_degree_check(n).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MIN_DEGREE_DIGESTS[n]


def test_fomin_lulov_sweep_report_bytes_are_pinned():
    # every partition of 16 at each [r^(16/r)], read from one class-major table
    reports = sweep_fomin_lulov(16, min_n=16)
    assert len(reports) == 1155
    text = json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "93c7a9a466ce544783a29eff4df3121eded720007107bf00d5c69b9bdb6873d8"


def test_min_degree_keeps_no_partition_after_the_call():
    # n = 30 has 5 604 partitions, each at least two live blocks (object and parts tuple)
    # if kept; live small-object blocks are counted, as in the degree cache test
    min_degree_check(15)
    gc.collect()
    before = sys.getallocatedblocks()
    assert min_degree_check(30).holds
    gc.collect()
    assert sys.getallocatedblocks() - before < 2048


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_min_degree_at_the_cap_streams_its_partitions():
    # a fresh interpreter, so the peak is this call's: the list of all 204 226 partitions of 50 took 50 MB
    code = "\n".join([
        "from snchar.bounds import min_degree_check",
        "def peak_kb():",
        "    return next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))",
        "before = peak_kb()",
        "assert min_degree_check(50).holds",
        "print(peak_kb() - before)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 1024


def test_min_degree_guard():
    with pytest.raises(ValueError):
        min_degree_check(14)


def test_min_degree_refuses_n_above_the_cap():
    assert min_degree_check(MAX_MIN_DEGREE_N - 10).holds
    with pytest.raises(ValueError, match="MAX_MIN_DEGREE_N = 50"):
        min_degree_check(MAX_MIN_DEGREE_N + 1)
    with pytest.raises(ValueError, match=r"n = 100 > MAX_MIN_DEGREE_N"):
        min_degree_check(100)


def test_report_json_schema():
    report = robbins_check(7)
    obj = report.to_json_dict()
    text = json.dumps(obj)
    parsed = json.loads(text)
    assert parsed["check"] == "robbins"
    assert parsed["holds"] is True
    assert parsed["precision_bits"] == DEFAULT_PRECISION_BITS
    for clause in parsed["clauses"]:
        assert set(clause) == {"name", "lhs", "rhs", "margin", "holds"}


def test_report_json_is_every_field_copied():
    report = robbins_check(7)
    obj = report.to_json_dict()
    assert set(obj) == {"check", "context", "clauses", "precision_bits", "holds"}
    assert [set(c) for c in obj["clauses"]] == [{"name", "lhs", "rhs", "margin", "holds"}] * 2
    obj["check"] = obj["clauses"][0]["lhs"] = "changed"
    assert report.check == "robbins" and report.clauses[0].lhs != "changed"


@pytest.mark.parametrize("sweep, floor", [
    (sweep_fomin_lulov, 1), (sweep_estimate, 1), (sweep_robbins, 1), (sweep_tail, 23),
])
def test_sweeps_refuse_empty_ranges(sweep, floor):
    # the range check of the verify sweeps, before any report is built
    with pytest.raises(ValueError, match=rf"^need {floor} <= min_n <= max_n; got {floor}\.\.{floor - 1}$"):
        sweep(floor - 1)
    with pytest.raises(ValueError, match=rf"^need {floor} <= min_n <= max_n; got {floor - 1}\.\.30$"):
        sweep(30, min_n=floor - 1)


def test_sweeps_small_all_hold():
    fl = sweep_fomin_lulov(6)
    assert fl and all(rep.holds for rep in fl)
    # one report per (n, r | n, lam)
    expected = 0
    for n in range(1, 7):
        divs = [r for r in range(1, n + 1) if n % r == 0]
        expected += len(divs) * len(enumerate_partitions(n))
    assert len(fl) == expected
    est = sweep_estimate(6)
    assert est and all(rep.holds for rep in est)
    rb = sweep_robbins(30)
    assert len(rb) == 30 and all(rep.holds for rep in rb)
    tl = sweep_tail(30)
    assert len(tl) == 8 and all(rep.holds for rep in tl)


def test_verdicts_stable_under_doubled_precision():
    samples = [
        (parse_partition("4,3,2,1"), 2, 5),
        (parse_partition("5,5"), 5, 2),
        (parse_partition("2,2,2"), 3, 2),
    ]
    for lam, r, m in samples:
        a = fomin_lulov_check(lam, r, m, bits=128).holds
        b = fomin_lulov_check(lam, r, m, bits=256).holds
        assert a == b
        a = estimate_check(lam, r, m, bits=128).holds
        b = estimate_check(lam, r, m, bits=256).holds
        assert a == b
    assert robbins_check(200, bits=128).holds == robbins_check(200, bits=256).holds


def test_low_precision_fails_honestly():
    # 8 bits cannot separate the Robbins envelope at n = 200
    report = robbins_check(200, bits=8)
    assert not report.holds
