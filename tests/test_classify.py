import dataclasses
import json

import pytest

from snchar import classify
from snchar.characters_an import AnCharacterLabel
from snchar.classify import (
    Prediction,
    predict_an,
    predict_no_eigenvalue_one,
    predict_sn,
    verify_eigenvalue_one,
    verify_minpoly_an,
    verify_minpoly_sn,
)
from snchar.partitions import CycleType, Partition, parse_cycle_type, parse_partition
from snchar.spectral import MinPoly, min_poly, spectrum_sn


def test_predict_sn_sign():
    odd = predict_sn(parse_partition("1^6"), 2, 1)
    assert odd.clause == "sign"
    assert odd.polys == (MinPoly(2, frozenset({1})),)
    even = predict_sn(parse_partition("1^6"), 2, 2)
    assert even.polys[0].roots == {0}
    assert predict_sn(parse_partition("1^8"), 4, 1).polys[0].roots == {2}
    assert predict_sn(parse_partition("1^8"), 4, 2).polys[0].roots == {0}
    assert predict_sn(parse_partition("1^7"), 3, 2).polys[0].roots == {0}


def test_predict_sn_standard():
    pred = predict_sn(parse_partition("7,1"), 8, 1)
    assert pred.clause == "standard"
    assert pred.polys[0].rendered == "(x^8-1)/(x-1)"
    # any other shape is generic for the standard character
    assert predict_sn(parse_partition("7,1"), 4, 2).clause is None


def test_predict_sn_standard_twist():
    odd = predict_sn(parse_partition("2,1^5"), 7, 1)
    assert odd.clause == "standard-twist"
    assert odd.polys[0].roots == frozenset(range(7)) - {0}
    even = predict_sn(parse_partition("2,1^6"), 8, 1)
    assert even.polys[0].roots == frozenset(range(8)) - {4}
    assert even.polys[0].rendered == "(x^8-1)/(x+1)"


def test_predict_sn_exceptional_n6():
    a = predict_sn(parse_partition("3,3"), 6, 1)
    assert a.clause == "3,3@6"
    assert a.polys[0].rendered == "(x^6-1)/(x^2+x+1)"
    b = predict_sn(parse_partition("2,2,2"), 6, 1)
    assert b.clause == "2,2,2@6"
    assert b.polys[0].rendered == "(x^6-1)/(x^2-x+1)"


def test_predict_sn_n4_table():
    cases = {
        (4, 1): {0, 2},
        (3, 1): {1, 2},
        (2, 2): {0},
    }
    for (r, m), roots in cases.items():
        pred = predict_sn(parse_partition("2,2"), r, m)
        assert pred.clause == "2,2@4"
        assert pred.polys[0].roots == frozenset(roots)
    generic = predict_sn(parse_partition("2,2"), 2, 1)
    assert generic.clause is None
    assert generic.polys[0].rendered == "x^2-1"


def test_predict_sn_guards():
    with pytest.raises(ValueError):
        predict_sn(parse_partition("6"), 6, 1)
    with pytest.raises(ValueError):
        predict_sn(parse_partition("2,1"), 2, 2)
    with pytest.raises(ValueError):
        predict_sn(parse_partition("2"), 2, 1)
    with pytest.raises(ValueError):
        predict_sn(parse_partition("3,2"), 1, 5)


def test_predictions_match_spectra_spot():
    cases = [
        ("5,1", 6, 1),
        ("2,1^4", 6, 1),
        ("1^6", 2, 2),
        ("3,3", 6, 1),
        ("2,2,2", 6, 1),
        ("2,2", 4, 1),
        ("3,2", 5, 1),
        ("4,2", 3, 2),
    ]
    for text, r, m in cases:
        lam = parse_partition(text)
        pred = predict_sn(lam, r, m)
        got = min_poly(spectrum_sn(lam, CycleType.uniform(r, m, lam.n)))
        assert pred.polys == (got,), (text, r, m)


def test_predict_an_restricted():
    label = AnCharacterLabel.restricted(parse_partition("6,1"))
    pred = predict_an(label, 7, 1)
    assert pred.clause == "standard"
    assert pred.polys[0].rendered == "(x^7-1)/(x-1)"
    assert predict_an(label, 3, 2).clause is None


def test_predict_an_split_pair():
    plus, _ = AnCharacterLabel.split_pair(parse_partition("3,1,1"))
    pred = predict_an(plus, 5, 1)
    assert pred.clause == "3,1,1@5"
    assert pred.label == "[3,1^2]+/-"
    roots = {tuple(sorted(p.roots)) for p in pred.polys}
    assert roots == {(0, 2, 3), (0, 1, 4)}
    generic = predict_an(plus, 3, 1)
    assert generic.clause is None
    assert len(generic.polys) == 2


def test_predict_an_guards():
    label = AnCharacterLabel.restricted(parse_partition("6,1"))
    with pytest.raises(ValueError):
        predict_an(label, 2, 1)  # odd shape
    with pytest.raises(ValueError):
        predict_an(AnCharacterLabel.restricted(parse_partition("3,1")), 2, 2)  # n < 5
    with pytest.raises(ValueError):
        predict_an(AnCharacterLabel.restricted(parse_partition("7")), 7, 1)


def test_predict_no_eigenvalue_one_counts():
    # beyond the sign character rows: 1 entry at even n (plus sporadics),
    # 3 at odd n >= 5 (two single cycle rows and the near uniform row)
    expected_rest = {5: 3, 6: 2, 7: 3, 8: 3, 9: 3, 10: 2, 11: 3, 12: 1}
    for n, count in expected_rest.items():
        listed = predict_no_eigenvalue_one(n)
        odd_classes = sum(
            1
            for lam, ct in listed
            if lam == Partition((1,) * n) and not ct.is_even()
        )
        rest = {(lam, ct) for lam, ct in listed if lam != Partition((1,) * n)}
        # full cycle under the standard character is always there
        assert (Partition((n - 1, 1)), CycleType.from_lengths([n])) in rest
        assert len(rest) == count
        assert odd_classes > 0


def test_predict_no_eigenvalue_one_members():
    six = predict_no_eigenvalue_one(6)
    assert (parse_partition("2,2,2"), parse_cycle_type("3^1 2^1 1^1")) in six
    eight = predict_no_eigenvalue_one(8)
    assert (parse_partition("4,4"), parse_cycle_type("5^1 3^1")) in eight
    assert (parse_partition("2,2,2,2"), parse_cycle_type("5^1 3^1")) in eight
    ten = predict_no_eigenvalue_one(10)
    assert (parse_partition("2^5"), parse_cycle_type("5^1 3^1 2^1")) in ten
    seven = predict_no_eigenvalue_one(7)
    assert (parse_partition("2,1^5"), parse_cycle_type("7^1")) in seven
    assert (parse_partition("2,2,1^3"), parse_cycle_type("5^1 2^1")) in seven


def test_verify_minpoly_sn_small():
    report = verify_minpoly_sn(8)
    assert report.ok
    assert report.kind == "minpoly-sn"
    assert report.n_min == 3 and report.n_max == 8
    assert report.cases > 0
    clauses = {entry[4] for entry in report.exceptional}
    assert {"sign", "standard", "standard-twist", "3,3@6", "2,2,2@6", "2,2@4"} <= clauses


def test_verify_minpoly_an_small():
    report = verify_minpoly_an(8)
    assert report.ok
    assert report.kind == "minpoly-an"
    tags = {(entry[0], entry[1], entry[4]) for entry in report.exceptional}
    assert tags == {
        (5, "[4,1]", "standard"),
        (5, "[3,1^2]+/-", "3,1,1@5"),
        (7, "[6,1]", "standard"),
    }


def test_verify_eigenvalue_one_small():
    report = verify_eigenvalue_one(8)
    assert report.ok
    assert report.kind == "eigenvalue-one"
    triples = set(report.exceptional)
    assert (6, "2^3", "3^1 2^1 1^1") in triples
    assert (8, "4^2", "5^1 3^1") in triples
    assert (8, "2^4", "5^1 3^1") in triples
    assert (5, "2^2,1", "3^1 2^1") in triples
    assert (7, "2^2,1^3", "5^1 2^1") in triples


def test_verify_threads_deterministic():
    serial = verify_minpoly_sn(7)
    threaded = verify_minpoly_sn(7, threads=2)
    assert serial == threaded
    serial_e = verify_eigenvalue_one(6)
    threaded_e = verify_eigenvalue_one(6, threads=3)
    assert serial_e == threaded_e


@pytest.mark.parametrize("verify, floor", [
    (verify_minpoly_sn, 3), (verify_minpoly_an, 5), (verify_eigenvalue_one, 3),
])
def test_verify_rejects_min_n_below_floor(verify, floor):
    with pytest.raises(ValueError, match=f"need {floor} <= min_n"):
        verify(floor + 1, min_n=floor - 1)
    with pytest.raises(ValueError):
        verify(floor - 1, min_n=floor)  # max_n below min_n
    assert verify(floor, min_n=floor).n_min == floor


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records the worker count, starts nothing."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, cpus, max_n, workers", [
    (5, 3, 6, 3),     # clamped to the core count
    (5, 8, 4, 2),     # clamped to the number of n (3 and 4)
    (2, 8, 6, 2),
    (2, None, 6, None),  # unknown core count counts as one: sequential
    (1, 8, 6, None),
])
def test_verify_worker_count_is_clamped(monkeypatch, threads, cpus, max_n, workers):
    monkeypatch.setattr(classify, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: cpus)
    _InlineExecutor.started = []
    report = verify_minpoly_sn(max_n, threads=threads)
    assert _InlineExecutor.started == ([] if workers is None else [workers])
    assert report == verify_minpoly_sn(max_n)


def test_report_json_schema():
    report = verify_minpoly_an(6)
    obj = report.to_json_dict()
    parsed = json.loads(json.dumps(obj, sort_keys=True))
    assert parsed["kind"] == "minpoly-an"
    assert parsed["ok"] is True
    assert parsed["cases"] == report.cases
    assert isinstance(parsed["exceptional"], list)


def test_prediction_is_generic():
    generic = predict_sn(parse_partition("4,2"), 3, 2)
    assert generic.is_generic
    special = predict_sn(parse_partition("5,1"), 6, 1)
    assert not special.is_generic
    assert isinstance(special, Prediction)


def test_mismatches_report_prediction_then_computation(monkeypatch):
    # predict the full x^r - 1 wherever a clause removes factors, and swap
    # the two polynomials of every split prediction
    monkeypatch.setattr(classify, "_without", lambda r, removed: MinPoly(r, frozenset(range(r))))
    real = classify.predict_an

    def swapped(label, r, m):
        pred = real(label, r, m)
        return dataclasses.replace(pred, polys=pred.polys[::-1])

    monkeypatch.setattr(classify, "predict_an", swapped)
    sn = verify_minpoly_sn(4)
    assert not sn.ok
    assert sn.mismatches == (
        (3, "2,1", 3, 1, "x^3-1", "(x^3-1)/(x-1)"),
        (4, "3,1", 4, 1, "x^4-1", "(x^4-1)/(x-1)"),
        (4, "2,1^2", 4, 1, "x^4-1", "(x^4-1)/(x+1)"),
    )
    an = verify_minpoly_an(5)
    # the halves keep the roots 0,1,4 and 0,2,3; that order is the computed one
    keep_014, keep_023 = "(x^5-1)/((x-z5^2)(x-z5^3))", "(x^5-1)/((x-z5^1)(x-z5^4))"
    assert an.mismatches == (
        (5, "[4,1]", 5, 1, "x^5-1", "(x^5-1)/(x-1)"),
        (5, "[3,1^2]+/-", 5, 1, f"{keep_023} | {keep_014}", f"{keep_014} | {keep_023}"),
    )
    # the clauses are still reported, mismatched or not
    assert {e[1] for e in an.exceptional} == {"[4,1]", "[3,1^2]+/-"}
