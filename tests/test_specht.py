import hashlib
import json
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snchar.characters_sn import chi, degree
from snchar.partitions import (
    CycleType,
    Partition,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)
from snchar.specht import (
    MAX_TABLEAUX_CELLS,
    _coefficients,
    _module_data,
    _row_words,
    oracle_min_poly,
    oracle_spectrum,
    polytabloid,
    sigma_matrix,
    standard_tableaux,
)
from snchar.spectral import min_poly, spectrum_sn

# child interpreters import the package from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def test_standard_tableaux_counts_match_degree():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            tabs = standard_tableaux(lam)
            assert len(tabs) == degree(lam)
            assert len(set(tabs)) == len(tabs)


def test_standard_tableaux_known():
    tabs = standard_tableaux(parse_partition("2,1"))
    assert sorted(tabs) == [((1, 2), (3,)), ((1, 3), (2,))]
    for tab in standard_tableaux(parse_partition("3,2")):
        for row in tab:
            assert all(a < b for a, b in zip(row, row[1:]))
        for j in range(2):
            assert tab[0][j] < tab[1][j]


# sha256 of json.dumps([standard_tableaux(lam), ...]) over every lambda with 1 <= n <= 9, in
# enumeration order; the unitriangular basis depends on the tableau order
TABLEAUX_DIGEST = "a83c7e2b46f1c1ecf7943c1b9a1e22eee9613a34da5b60e496eb454257b61e90"


def test_standard_tableaux_are_pinned():
    tableaux = [standard_tableaux(lam) for n in range(1, 10) for lam in enumerate_partitions(n)]
    assert hashlib.sha256(json.dumps(tableaux).encode()).hexdigest() == TABLEAUX_DIGEST


def test_standard_tableaux_of_long_shapes():
    # one row or column of 600 points has no recursion-depth ceiling; a word
    # entry is a row index, which passes 255 in the column
    assert standard_tableaux(Partition((600,))) == [(tuple(range(1, 601)),)]
    assert standard_tableaux(Partition((1,) * 600)) == [tuple((x,) for x in range(1, 601))]
    hooks = standard_tableaux(Partition((599, 1)))
    assert [tab[1] for tab in hooks] == [(x,) for x in range(2, 601)]
    assert len(standard_tableaux(Partition((1,) * 300))) == 1


def test_tableaux_count_is_the_degree():
    # specht's own count, the corner walk's, against the hook length formula in characters_sn;
    # given a limit, the walk gives up exactly when the count passes it
    for n in range(12):
        for lam in enumerate_partitions(n):
            d = degree(lam)
            assert len(_row_words(lam.parts, d)) == d and _row_words(lam.parts, d - 1) is None


def test_standard_tableaux_walk_only_corners_and_share_prefixes():
    # a hook has n - 1 tableaux; placing points only at corners and filling a last row or column
    # at once keeps each under 0.3 s on a slow core (a walk over every row took 1.2 s and 0.74 s)
    for parts, count in [((2,) + (1,) * 298, 299), ((599, 1), 599)]:
        start = time.perf_counter()
        assert len(standard_tableaux(Partition(parts))) == count
        assert time.perf_counter() - start < 0.3


def test_standard_tableaux_of_a_row_at_the_cap_in_bounded_time():
    # 2^20 points in one row: the count needs no factorial of n, and the walk fills the row at once
    start = time.perf_counter()
    assert standard_tableaux(Partition((1 << 20,))) == [(tuple(range(1, (1 << 20) + 1)),)]
    assert time.perf_counter() - start < 2


def test_standard_tableaux_refuse_above_the_cap_before_listing():
    # Catalan(150), about 10^87 tableaux, are counted, not listed
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"MAX_TABLEAUX_CELLS = {MAX_TABLEAUX_CELLS}"):
        standard_tableaux(Partition((150, 150)))
    assert time.perf_counter() - start < 1
    # the cap is on points, not tableaux: 9 999 tableaux of 10 000 points each
    with pytest.raises(ValueError, match="9999,1"):
        standard_tableaux(Partition((9999, 1)))


def test_long_shapes_answer_in_a_fresh_interpreter():
    code = (
        "from snchar.partitions import Partition, partition_count\n"
        "from snchar.specht import standard_tableaux\n"
        "print(partition_count(1000), len(standard_tableaux(Partition((600,)))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV,
                          check=True, timeout=60)
    assert proc.stdout == "24061467864032622473692149727991 1\n"


def test_polytabloid_known():
    tab = ((1, 2), (3,))
    poly = polytabloid(tab)
    up = (frozenset({1, 2}), frozenset({3}))
    swapped = (frozenset({3, 2}), frozenset({1}))
    assert poly == {up: 1, swapped: -1}


def _tabloid_rows(tabloid: tuple[frozenset, ...]) -> bytes:
    rows = bytearray(sum(map(len, tabloid)))
    for i, points in enumerate(tabloid):
        for x in points:
            rows[x - 1] = i
    return bytes(rows)


def test_column_rule_matches_the_polytabloid_expansion():
    # the rule gives every tabloid of e_t its coefficient in e_t, and no pivot
    # tabloid outside e_t gets t
    for n in range(8):
        for lam in enumerate_partitions(n):
            pivots, rule, _ = _module_data(lam.parts)
            tabs = standard_tableaux(lam)
            for t, tab in enumerate(tabs):
                poly = polytabloid(tab)
                for tabloid, c in poly.items():
                    assert dict(_coefficients(rule, _tabloid_rows(tabloid))).get(t) == c, (tab, tabloid)
                held = {_tabloid_rows(tabloid) for tabloid in poly}
                for pivot in pivots:
                    if pivot not in held:
                        assert t not in dict(_coefficients(rule, pivot)), (tab, pivot)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_module_data_memory_is_not_exponential():
    # the column rule is a few bitsets per point pair; an index of every
    # tabloid of every polytabloid took 23.5 MB at n = 8. VmHWM is the peak
    # RSS of the child's own memory: ru_maxrss would start at this process's
    # peak, which a child inherits across fork and exec
    code = (
        "from snchar.partitions import enumerate_partitions\n"
        "from snchar.specht import _module_data\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(next(line for line in fh if line.startswith('VmHWM:')).split()[1])\n"
        "lams = enumerate_partitions(8)\n"
        "before = peak_kb()\n"
        "for lam in lams:\n"
        "    _module_data(lam.parts)\n"
        "print(peak_kb() - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV,
                          check=True, timeout=60)
    assert int(proc.stdout) < 5 * 1024, proc.stdout


def test_sigma_matrix_identity_and_homomorphism():
    cases = [
        ("3,2", (2, 3, 1, 5, 4), (1, 3, 5, 2, 4)),
        # degree 90 at n = 8: a long back-substitution chain
        ("4,2,1,1", (3, 1, 2, 5, 6, 4, 8, 7), (2, 4, 6, 8, 1, 3, 5, 7)),
    ]
    for text, p, q in cases:
        lam = parse_partition(text)
        n = lam.n
        ident = sigma_matrix(lam, tuple(range(1, n + 1)))
        d = degree(lam)
        assert ident == [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        # composition: the matrix of p∘q is M(p)·M(q)
        pq = tuple(p[q[i] - 1] for i in range(n))
        mp = sigma_matrix(lam, p)
        mq = sigma_matrix(lam, q)
        prod = [
            [sum(mp[i][k] * mq[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        assert sigma_matrix(lam, pq) == prod


def test_polytabloid_basis_matrix_is_upper_unitriangular():
    # entry [s][t] is the coefficient of the tabloid of tableau s in the
    # polytabloid of tableau t; sigma_matrix back-substitutes through it
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            tabs = standard_tableaux(lam)
            tabloids = [tuple(frozenset(row) for row in tab) for tab in tabs]
            for t, tab in enumerate(tabs):
                poly = polytabloid(tab)
                column = [poly.get(tabloid, 0) for tabloid in tabloids]
                assert column[t] == 1, (lam, t)
                assert not any(column[t + 1 :]), (lam, t)


def test_sigma_matrix_traces_match_character():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                sigma = CycleType.from_partition(mu)
                mat = sigma_matrix(lam, sigma)
                trace = sum(mat[i][i] for i in range(len(mat)))
                assert trace == chi(lam, sigma)


def test_oracle_at_n9():
    sigma = parse_cycle_type("3^3")
    for lam in enumerate_partitions(9):
        assert oracle_spectrum(lam, sigma) == spectrum_sn(lam, sigma), lam
    # degree 216: the matrix of p∘q is M(p)·M(q)
    lam = parse_partition("4,3,1^2")
    p, q = (2, 3, 1, 5, 6, 4, 8, 9, 7), (2, 4, 6, 8, 1, 3, 5, 7, 9)
    pq = tuple(p[q[i] - 1] for i in range(9))
    columns = list(zip(*sigma_matrix(lam, q)))
    prod = [[sum(map(operator.mul, row, col)) for col in columns] for row in sigma_matrix(lam, p)]
    assert len(prod) == 216
    assert sigma_matrix(lam, pq) == prod


def test_oracle_takes_an_explicit_permutation():
    cases = [("2,1", (2, 3, 1), "3^1"), ("3,2,1", (2, 1, 4, 5, 6, 3), "4^1 2^1"), ("4,2", (1, 2, 3, 4, 5, 6), "1^6")]
    for text, perm, cls in cases:
        lam, sigma = parse_partition(text), parse_cycle_type(cls)
        assert oracle_spectrum(lam, perm) == oracle_spectrum(lam, sigma) == spectrum_sn(lam, sigma)
        assert oracle_min_poly(lam, perm) == oracle_min_poly(lam, sigma)


def test_sigma_matrix_rejects_bad_input():
    lam = parse_partition("3,2")
    with pytest.raises(ValueError):
        sigma_matrix(lam, (1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        sigma_matrix(lam, (1, 2, 3))
    with pytest.raises(ValueError):
        sigma_matrix(parse_partition("5,5"), parse_cycle_type("10^1"))


# sha256 of json.dumps([[mult, sigma_matrix], ...]) over every (lambda, class) pair with n <= 7,
# in enumeration order: the oracle's matrices and spectra must not drift
ORACLE_DIGEST = "2a2fc87b9360e76e87b6ef3fbd268ef60054f022da365fc3d12c47d767c527c3"


def test_oracle_answers_are_pinned():
    answers = []
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                sigma = CycleType.from_partition(mu)
                answers.append([oracle_spectrum(lam, sigma).mult, sigma_matrix(lam, sigma)])
    assert hashlib.sha256(json.dumps(answers).encode()).hexdigest() == ORACLE_DIGEST


@st.composite
def small_cases(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lam = draw(st.sampled_from(enumerate_partitions(n)))
    mu = draw(st.sampled_from(enumerate_partitions(n)))
    return lam, CycleType.from_partition(mu)


@given(small_cases())
def test_oracle_spectrum_matches_arithmetic_route(case):
    lam, sigma = case
    assert oracle_spectrum(lam, sigma) == spectrum_sn(lam, sigma)


def test_oracle_min_poly_flagship():
    lam = parse_partition("3,3")
    sigma = parse_cycle_type("6^1")
    got = oracle_min_poly(lam, sigma)
    assert got == min_poly(spectrum_sn(lam, sigma))
    assert got.rendered == "(x^6-1)/(x^2+x+1)"


def test_oracle_confirms_sporadic_eigenvalue_one_pairs_n8():
    # the paper's sporadic pairs at n = 8: at the class 5*3 the images of
    # (4,4) and (2^4) have no eigenvalue 1, those of (5,3) and (3^2,2) do;
    # this route shares no code with the Ramanujan sums
    sigma = parse_cycle_type("5^1 3^1")
    fixed = {
        text: oracle_spectrum(parse_partition(text), sigma).mult[0]
        for text in ("4,4", "2^4", "5,3", "3^2,2")
    }
    assert fixed["4,4"] == 0
    assert fixed["2^4"] == 0
    assert fixed["5,3"] > 0
    assert fixed["3^2,2"] > 0


def test_oracle_spectrum_spot_n7():
    lam = parse_partition("4,2,1")
    sigma = parse_cycle_type("7^1")
    assert oracle_spectrum(lam, sigma) == spectrum_sn(lam, sigma)
