import concurrent.futures
import hashlib
import json

import pytest

from snchar import classify, partitions, spectral
from snchar.bounds import sweep_estimate, sweep_fomin_lulov, sweep_robbins, sweep_tail
from snchar.characters_an import RESTRICTED, AnCharacterLabel, an_irreducible_labels
from snchar.classify import (
    Prediction,
    predict_an,
    predict_no_eigenvalue_one,
    predict_sn,
    verify_eigenvalue_one,
    verify_minpoly_an,
    verify_minpoly_sn,
)
from snchar.partitions import CycleType, Partition, enumerate_partitions, parse_cycle_type, parse_partition
from snchar.spectral import (MinPoly, SpectrumProfile, _full_min_poly, divisors, min_poly, spectrum_an, spectrum_sn,
                             spectrum_sn_direct)


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


def test_predict_no_eigenvalue_one_overlaps_the_uniform_predictions():
    # every uniform exception without the root 1 is listed again, but for one pair at n = 4
    for n in range(3, 21):
        uniform = {(Partition(key), CycleType.uniform(r, m, n)) for r, m in classify._uniform_shapes(n)
                   for key, (polys, _) in classify._exceptions_sn(n, r, m).items()
                   if all(0 not in p.roots for p in polys)}
        assert uniform - predict_no_eigenvalue_one(n) == (
            {(parse_partition("2,2"), parse_cycle_type("3^1 1^1"))} if n == 4 else set())


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


def test_eigenvalue_one_kernel_matches_cyclotomic_ring_route():
    # the table-first kernel against spectrum_sn_direct, which reduces the
    # eigenvalue counts in the cyclotomic ring and shares no Ramanujan sum with it
    report = verify_eigenvalue_one(8)
    expected = {
        (n, str(lam), str(sigma))
        for n in range(3, 9)
        for lam in enumerate_partitions(n)
        for sigma in map(CycleType.from_partition, enumerate_partitions(n))
        if spectrum_sn_direct(lam, sigma).mult[0] == 0
    }
    assert set(report.exceptional) == expected
    assert len(report.exceptional) == len(expected)


def test_eigenvalue_one_kernel_powers_each_class_once(monkeypatch):
    classes = [CycleType.from_partition(mu) for mu in enumerate_partitions(10)]
    bound = sum(len(divisors(sigma.order())) for sigma in classes)
    calls = []
    real = partitions._power_cycles

    def counted(cycles, i):
        calls.append(i)
        return real(cycles, i)

    # the power plan reads the helper directly, CycleType.power through its module
    monkeypatch.setattr(partitions, "_power_cycles", counted)
    monkeypatch.setattr(spectral, "_power_cycles", counted)
    assert verify_eigenvalue_one(10, min_n=10).ok
    assert 0 < len(calls) <= bound


def test_minpoly_sweep_evaluates_each_character_column_once(monkeypatch):
    # one class-major column per distinct power class of the uniform classes, each serving every
    # nontrivial partition: (p(n) - 1) values per column, not one evaluation per (label, class)
    n = 10
    classes = [CycleType.uniform(r, m, n) for r in range(2, n + 1) for m in range(1, n // r + 1)]
    columns = {sigma.power(d).lengths() for sigma in classes for d in divisors(sigma.order())}
    bound = (len(enumerate_partitions(n)) - 1) * len(columns)
    calls = []
    real = spectral._columns

    def counted(size, types):
        calls.extend(types)
        return real(size, types)

    def no_rows(mask, cols):
        raise AssertionError("a sweep evaluated a single-query row")

    monkeypatch.setattr(spectral, "_columns", counted)
    monkeypatch.setattr(spectral, "_chi_row", no_rows)
    assert verify_minpoly_sn(n, min_n=n).ok
    assert 0 < len(calls) * (len(enumerate_partitions(n)) - 1) <= bound
    assert not {"spectrum_sn", "spectrum_an"} & set(vars(classify))


@pytest.mark.parametrize("verify, n", [(verify_minpoly_sn, 8), (verify_minpoly_an, 9)])
@pytest.mark.parametrize("corrupt", [lambda m: -1, lambda m: m + 1], ids=["negative", "off-degree"])
def test_sweep_column_checks_fire(monkeypatch, verify, n, corrupt):
    # one multiplicity of one class column, at (n - 1, 1): -1 is negative, +1 breaks the degree sum
    real = classify._sweep_sums

    def corrupted(size, classes, weights):
        sums = list(real(size, classes, weights))
        sums[0][0][1] = corrupt(sums[0][0][1])
        return sums

    monkeypatch.setattr(classify, "_sweep_sums", corrupted)
    with pytest.raises(RuntimeError, match="internal bug"):
        verify(n, min_n=n)


def test_sweep_builds_profiles_only_where_a_multiplicity_is_zero(monkeypatch):
    # every other case is the shared x^r - 1; at n = 12 those are exactly the classified clauses
    calls = []
    real = SpectrumProfile._from_gcd.__func__

    def counted(cls, r, pos, degree, neg=None, d=1):
        calls.append(r)
        return real(cls, r, pos, degree, neg, d)

    monkeypatch.setattr(SpectrumProfile, "_from_gcd", classmethod(counted))
    report = verify_minpoly_sn(12, min_n=12)
    assert report.ok
    assert len(calls) == len(report.exceptional) == 25


def _uniform_cases(n, even_only=False):
    return [(r, m, CycleType.uniform(r, m, n)) for r in range(2, n + 1) for m in range(1, n // r + 1)
            if not (even_only and m * (r - 1) % 2)]


def test_column_verdicts_match_single_queries(monkeypatch):
    # predict x^r - 1 everywhere: the mismatches are then every case whose single-query
    # minimal polynomial is not full, found by the sweep from its class columns
    monkeypatch.setattr(classify, "_exceptions_sn", lambda n, r, m: {})
    counts = []
    for n in range(3, 10):
        expected = {
            (str(lam), r, m, mp.rendered)
            for lam in enumerate_partitions(n)[1:]
            for r, m, sigma in _uniform_cases(n)
            if not (mp := min_poly(spectrum_sn(lam, sigma))).is_full()
        }
        mismatches = verify_minpoly_sn(n, min_n=n).mismatches
        assert all(t[0] == n and t[4] == f"x^{t[2]}-1" for t in mismatches)
        assert {(t[1], t[2], t[3], t[5]) for t in mismatches} == expected
        assert len(mismatches) == len(expected)
        counts.append(len(expected))
    assert counts == [3, 9, 7, 12, 11, 14, 16]


def test_column_verdicts_match_single_queries_an(monkeypatch):
    # the same for restricted A_n labels; split pairs are checked through their halves elsewhere
    monkeypatch.setattr(classify, "_exceptions_an", lambda n, r, m: {})
    counts = []
    for n in range(5, 10):
        restricted = [label for label in an_irreducible_labels(n)[1:] if label.variant == RESTRICTED]
        expected = {
            (str(label), r, m, mp.rendered)
            for label in restricted
            for r, m, sigma in _uniform_cases(n, even_only=True)
            if not (mp := min_poly(spectrum_an(label, sigma))).is_full()
        }
        texts = {str(label) for label in restricted}
        found = {(t[1], t[2], t[3], t[5]) for t in verify_minpoly_an(n, min_n=n).mismatches if t[1] in texts}
        assert found == expected
        counts.append(len(expected))
    assert counts == [1, 0, 1, 0, 1]  # [n - 1, 1] at the n-cycle, for odd n


# sha256 of json.dumps(report.to_json_dict(), sort_keys=True): the report bytes must not drift
# (sweep, max_n, min_n or None for the sweep's floor, digest)
REPORT_DIGESTS = [
    (verify_minpoly_sn, 10, None, "bc0657065cb7d57cc30ff2e5a04bc9d44528cf42e2ccfbbdd05bf8cd861ef26c"),
    (verify_minpoly_an, 11, None, "7dcc4ad81183a13514d7d10eec6cd0f6edf67032d34330d74ea7fc2666b8e8a1"),
    (verify_eigenvalue_one, 9, None, "da9697815d2368f8a588465632a0ff0ebd96dc87affea1bdb84b4aaade67a5e9"),
    # the largest n of each classification sweep in the benchmark's sweep workload
    (verify_minpoly_sn, 14, 14, "ad2d9fe8a773a13c759f50b0c82d4907452587545fcd833dbeea4a57bf0f6312"),
    (verify_minpoly_an, 15, 15, "47eeadbd8ae386295b25cdc7cb47118765a3d619fa8662d0b3c6e891b43daa53"),
    (verify_eigenvalue_one, 12, 12, "3d8714955e8492af9959d109f0092db57172343164dfc07a8f0ea3350ed207e8"),
    # beyond the benchmark sizes, where the column builder meets more conjugate pairs
    (verify_minpoly_sn, 20, 20, "bc30a5b362c02eeead77e4bee6f8c5a8ed29291098f2e47232061ccf4372094e"),
    (verify_minpoly_an, 20, 20, "9327da5b2a426e8f72035fdd746020dcc7b941a474e42b78af7cb8baa33464f2"),
    (verify_eigenvalue_one, 16, 16, "4a60e842b6acc19108880da9c877ff2babec255ccc70219aed5d9c18e1b46725"),
]


@pytest.mark.parametrize("verify, n, min_n, digest", REPORT_DIGESTS,
                         ids=[v.__name__ + (f"-at-{n}" if min_n else "") for v, n, min_n, _ in REPORT_DIGESTS])
def test_report_bytes_are_pinned(verify, n, min_n, digest):
    report = verify(n) if min_n is None else verify(n, min_n=min_n)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(partitions.os, "cpu_count", lambda: cpus)
    _InlineExecutor.started = []
    report = verify_minpoly_sn(max_n, threads=threads)
    assert _InlineExecutor.started == ([] if workers is None else [workers])
    assert report == verify_minpoly_sn(max_n)


# the seven public sweeps: (function, its kind in MAX_SWEEP_N, the floor of min_n)
_SWEEPS = [(verify_minpoly_sn, "minpoly-sn", 3), (verify_minpoly_an, "minpoly-an", 5),
           (verify_eigenvalue_one, "eigenvalue-one", 3), (sweep_fomin_lulov, "fomin-lulov", 1),
           (sweep_estimate, "estimate", 1), (sweep_robbins, "robbins", 1), (sweep_tail, "tail", 23)]


@pytest.mark.parametrize("sweep, kind, floor", _SWEEPS, ids=lambda x: getattr(x, "__name__", None))
def test_every_sweep_checks_its_range_and_cap_in_one_table(monkeypatch, sweep, kind, floor):
    for min_n, max_n in ((floor, floor - 1), (floor - 1, floor + 1)):
        with pytest.raises(ValueError, match=rf"^need {floor} <= min_n <= max_n; got {min_n}\.\.{max_n}$"):
            sweep(max_n, min_n=min_n)
    assert set(partitions.MAX_SWEEP_N) == {kind for _, kind, _ in _SWEEPS}
    # lowering one entry makes exactly its sweep refuse
    monkeypatch.setitem(partitions.MAX_SWEEP_N, kind, floor)
    for other, _, other_floor in _SWEEPS:
        if other is not sweep:
            other(other_floor + 1, min_n=other_floor + 1)
    n = floor + 1
    with pytest.raises(ValueError, match=rf"^{kind} sweeps are capped by memory or time, and n = {n} > MAX_SWEEP_N = "):
        sweep(n, min_n=n)


def test_report_json_schema():
    report = verify_minpoly_an(6)
    obj = report.to_json_dict()
    parsed = json.loads(json.dumps(obj, sort_keys=True))
    assert parsed["kind"] == "minpoly-an"
    assert parsed["ok"] is True
    assert parsed["cases"] == report.cases
    assert isinstance(parsed["exceptional"], list)


def test_report_json_is_every_field_copied():
    report = verify_minpoly_sn(7)
    obj = report.to_json_dict()
    assert set(obj) == {"kind", "n_min", "n_max", "cases", "mismatches", "exceptional", "ok"}
    obj["cases"] = -1
    assert report.cases != -1 and report.to_json_dict() is not obj


def test_prediction_is_generic():
    generic = predict_sn(parse_partition("4,2"), 3, 2)
    assert generic.is_generic
    special = predict_sn(parse_partition("5,1"), 6, 1)
    assert not special.is_generic
    assert isinstance(special, Prediction)


def test_generic_prediction_shares_the_computed_full_polynomial():
    # one x^r - 1 object per r, so the sweep's comparison is an identity check
    lam = parse_partition("4,2")
    pred = predict_sn(lam, 3, 2)
    got = min_poly(spectrum_sn(lam, CycleType.uniform(3, 2, 6)))
    assert pred.polys[0] is got and got.is_full()
    assert got == MinPoly(3, frozenset(range(3)))


def test_mismatches_report_prediction_then_computation(monkeypatch):
    # predict the full x^r - 1 wherever a clause removes factors, and swap
    # the two polynomials of every split prediction
    monkeypatch.setattr(classify, "_without", lambda r, removed: MinPoly(r, frozenset(range(r))))
    # the sweep predicts from the private table of exceptions, label parts -> (polys, clause)
    real = classify._exceptions_an

    def swapped(n, r, m):
        return {key: (polys[::-1], clause) for key, (polys, clause) in real(n, r, m).items()}

    monkeypatch.setattr(classify, "_exceptions_an", swapped)
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


def test_sweeps_build_no_prediction(monkeypatch):
    # the sweeps read plain (polys, clause) pairs; only predict_sn/predict_an build a Prediction
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built a Prediction")

    monkeypatch.setattr(classify, "Prediction", refuse)
    assert verify_minpoly_sn(8).ok
    assert verify_minpoly_an(9).ok
    assert verify_eigenvalue_one(8).ok


def test_predictions_are_pinned():
    # every prediction over n <= 12 and every valid uniform shape, as label,
    # clause, is_generic and rendered polys
    def answer(p):
        return [p.label, p.clause, p.is_generic, [q.rendered for q in p.polys]]

    answers = []
    for n in range(3, 13):
        shapes = [(r, m) for r in range(2, n + 1) for m in range(1, n // r + 1)]
        for lam in enumerate_partitions(n)[1:]:
            answers += [answer(predict_sn(lam, r, m)) for r, m in shapes]
        if n >= 5:
            for label in an_irreducible_labels(n)[1:]:
                answers += [answer(predict_an(label, r, m)) for r, m in shapes if m * (r - 1) % 2 == 0]
    assert len(answers) == 5817
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == "11a621dfa1f5ca010b3b30d564bf88792e0b8c0d8b4a60dac0ec7f49b7cb8566"


def test_eigenvalue_one_mismatches_name_both_directions(monkeypatch):
    # drop a listed pair that no uniform class covers (sign character at the odd class 3^1 2^1)
    # and list a pair that has eigenvalue 1 (the identity under 3,1)
    real = classify.predict_no_eigenvalue_one
    dropped = (Partition((1,) * 5), CycleType.from_lengths([3, 2]))
    added = (Partition((3, 1)), CycleType.from_lengths([1, 1, 1, 1]))

    def edited(n):
        pairs = real(n)
        if n == 5:
            pairs.remove(dropped)
        if n == 4:
            pairs.add(added)
        return pairs

    monkeypatch.setattr(classify, "predict_no_eigenvalue_one", edited)
    report = verify_eigenvalue_one(5)
    assert not report.ok
    assert report.mismatches == (
        (4, "3,1", "1^4", "predicted-but-eigenvalue-1-present"),
        (5, "1^5", "3^1 2^1", "unpredicted"),
    )
    assert report.exceptional == verify_eigenvalue_one(5).exceptional


def test_one_table_feeds_the_predictions_and_the_sweeps(monkeypatch):
    # drop the 2,2@4 clause from the S_n table: predict_sn, the minimal polynomial sweep and the
    # eigenvalue-1 sweep all lose it at once, so the classification has one encoding
    real = classify._exceptions_sn

    def without_2_2(n, r, m):
        return {key: entry for key, entry in real(n, r, m).items() if key != (2, 2)}

    monkeypatch.setattr(classify, "_exceptions_sn", without_2_2)
    pred = predict_sn(parse_partition("2,2"), 3, 1)
    assert pred.clause is None and pred.polys == (_full_min_poly(3),)
    assert predict_sn(parse_partition("1^4"), 3, 1).clause == "sign"
    minpoly = verify_minpoly_sn(4, min_n=4)
    assert {(t[1], t[2], t[3], t[4]) for t in minpoly.mismatches} == {
        ("2^2", 4, 1, "x^4-1"), ("2^2", 3, 1, "x^3-1"), ("2^2", 2, 2, "x^2-1")}
    assert "2,2@4" not in {e[4] for e in minpoly.exceptional}
    assert verify_eigenvalue_one(4, min_n=4).mismatches == ((4, "2^2", "3^1 1^1", "unpredicted"),)
