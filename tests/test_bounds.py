import json
from fractions import Fraction

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
