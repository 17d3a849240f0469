import csv
import io
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snchar import characters_sn
from snchar.characters_sn import (
    branch,
    chi,
    chi_closed_form,
    chi_frobenius,
    chi_hook_on_uniform,
    clear_character_cache,
    degree,
    full_table,
    sign_twist_check,
)
from snchar.partitions import (
    CycleType,
    Partition,
    conjugate,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)
from snchar.spectral import spectrum_sn


@st.composite
def labeled_pairs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lam = draw(st.sampled_from(enumerate_partitions(n)))
    mu = draw(st.sampled_from(enumerate_partitions(n)))
    return lam, CycleType.from_partition(mu)


def test_chi_known_3_3():
    lam = parse_partition("3,3")
    expected = {"1^6": 5, "3^2": 2, "2^3": -3, "6^1": 0}
    for text, value in expected.items():
        assert chi(lam, parse_cycle_type(text)) == value


def test_chi_full_table_s3():
    table = full_table(3)
    # rows (3), (2,1), (1^3); columns [3], [2 1], [1^3]
    assert table.values == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))


def test_chi_full_table_s4():
    table = full_table(4)
    assert [p.parts for p in table.partitions] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert table.values == (
        (1, 1, 1, 1, 1),
        (-1, 0, -1, 1, 3),
        (0, -1, 2, 0, 2),
        (1, 0, -1, -1, 3),
        (-1, 1, 1, -1, 1),
    )


def test_full_table_limit():
    with pytest.raises(ValueError):
        full_table(17)
    full_table(17, limit=17)  # explicit override works


def test_chi_size_mismatch():
    with pytest.raises(ValueError):
        chi(parse_partition("3,1"), parse_cycle_type("3^1"))


def test_degree_known():
    assert degree(parse_partition("3,3")) == 5
    assert degree(parse_partition("4,2,1")) == 35
    assert degree(parse_partition("5,4,3,2,1")) == 292864
    assert degree(Partition(())) == 1


def test_degree_hook_product():
    # the branching rule counts standard tableaux by their largest entry
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert degree(lam) == sum(degree(mu) for mu in branch(lam))


@given(labeled_pairs())
def test_standard_character_counts_fixed_points(pair):
    lam, sigma = pair
    n = lam.n
    if n >= 2 and lam.parts == (n - 1, 1):
        assert chi(lam, sigma) == sigma.count_of(1) - 1


@given(labeled_pairs())
def test_sign_twist(pair):
    lam, sigma = pair
    assert sign_twist_check(lam, sigma)
    assert chi(conjugate(lam), sigma) == sigma.sign() * chi(lam, sigma)


@given(labeled_pairs(max_n=8))
def test_branching_rule(pair):
    # adding a fixed point restricts along corner removals
    lam, _ = pair
    if lam.n < 2:
        return
    for mu_small in enumerate_partitions(lam.n - 1):
        tau = CycleType.from_partition(mu_small)
        extended = CycleType.from_lengths(tau.lengths() + (1,))
        total = sum(chi(nu, tau) for nu in branch(lam))
        assert chi(lam, extended) == total


def test_branch_known():
    assert [m.parts for m in branch(parse_partition("3,2"))] == [(2, 2), (3, 1)]
    assert [m.parts for m in branch(parse_partition("2,2"))] == [(2, 1)]


def test_frobenius_matches_recurrence():
    for n in range(1, 8):
        classes = [CycleType.from_partition(m) for m in enumerate_partitions(n)]
        for lam in enumerate_partitions(n):
            if len(lam.parts) > 4:
                continue
            for sigma in classes:
                assert chi_frobenius(lam, sigma) == chi(lam, sigma)


def test_frobenius_row_cap():
    with pytest.raises(ValueError):
        chi_frobenius(parse_partition("2,1,1,1,1"), parse_cycle_type("6^1"))
    assert chi_frobenius(
        parse_partition("2,1,1,1,1"), parse_cycle_type("6^1"), max_rows=5
    ) == chi(parse_partition("2,1,1,1,1"), parse_cycle_type("6^1"))


def test_closed_form_domain():
    assert chi_closed_form(parse_partition("4,4"), parse_cycle_type("8^1")) is None
    assert chi_closed_form(parse_partition("3,3,2"), parse_cycle_type("8^1")) is None
    # all six covered shapes answer
    for text in ["7,1", "6,2", "6,1,1", "5,3", "5,1,1,1", "5,2,1"]:
        lam = parse_partition(text)
        for mu in enumerate_partitions(8):
            sigma = CycleType.from_partition(mu)
            got = chi_closed_form(lam, sigma)
            assert got is not None
            assert got == chi(lam, sigma)


def test_closed_form_matches_recurrence():
    for n in range(3, 11):
        classes = [CycleType.from_partition(m) for m in enumerate_partitions(n)]
        for lam in enumerate_partitions(n):
            for sigma in classes:
                got = chi_closed_form(lam, sigma)
                if got is not None:
                    assert got == chi(lam, sigma)


def test_hook_on_uniform_known():
    # a=2, r=3, k=0, l=0: lam = (2,1) on [3], value -C(0,0) = -1
    assert chi_hook_on_uniform(2, 3, 0, 0) == -1
    assert chi(parse_partition("2,1"), parse_cycle_type("3^1")) == -1
    # a=2, r=3, k=1, l=1: lam = (5,1^4) on [3^3], value -C(2,1) = -2
    assert chi_hook_on_uniform(2, 3, 1, 1) == -2
    assert chi(parse_partition("5,1^4"), parse_cycle_type("3^3")) == -2
    with pytest.raises(ValueError):
        chi_hook_on_uniform(2, 3, 1, 0)  # n = 6 is even
    with pytest.raises(ValueError):
        chi_hook_on_uniform(4, 3, 0, 0)  # a outside 1..r


def test_hook_on_uniform_matches_recurrence():
    for r in (1, 3, 5, 7):
        for k in range(0, 4):
            for l in range(0, 4):
                n = r * (k + l + 1)
                if n % 2 == 0 or n > 15:
                    continue
                for a in range(1, r + 1):
                    lam = Partition((a + r * k,) + (1,) * (r - a + r * l))
                    sigma = CycleType.uniform(r, k + l + 1, n)
                    assert chi_hook_on_uniform(a, r, k, l) == chi(lam, sigma)


def _table_rows(n):
    table = full_table(n)
    sizes = [c.class_size() for c in table.classes]
    return table, sizes


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_row_orthogonality(n):
    table, sizes = _table_rows(n)
    fact = math.factorial(n)
    for i, row_i in enumerate(table.values):
        for j, row_j in enumerate(table.values):
            dot = sum(s * a * b for s, a, b in zip(sizes, row_i, row_j))
            assert dot == (fact if i == j else 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_column_orthogonality(n):
    table, sizes = _table_rows(n)
    fact = math.factorial(n)
    cols = list(zip(*table.values))
    for i, col_i in enumerate(cols):
        for j, col_j in enumerate(cols):
            dot = sum(a * b for a, b in zip(col_i, col_j))
            expected = fact // sizes[i] if i == j else 0
            assert dot == expected


@pytest.mark.parametrize("n", [3, 5, 7, 8])
def test_sum_of_squared_degrees(n):
    total = sum(degree(lam) ** 2 for lam in enumerate_partitions(n))
    assert total == math.factorial(n)


def test_table_serialization_roundtrip():
    table = full_table(5)
    obj = json.loads(table.to_json())
    assert obj["n"] == 5
    assert obj["partitions"][0] == "5"
    assert obj["values"][2][4] == str(table.values[2][4])
    rows = list(csv.reader(io.StringIO(table.to_csv())))
    assert rows[0][0] == "partition"
    assert len(rows) == len(table.partitions) + 1
    for row, vals in zip(rows[1:], table.values):
        assert [int(x) for x in row[1:]] == list(vals)
    # value() agrees with the grid
    lam = parse_partition("3,2")
    sigma = parse_cycle_type("2^2 1^1")
    assert table.value(lam, sigma) == chi(lam, sigma)


def test_cache_clear_is_safe():
    lam = parse_partition("4,3,1")
    sigma = parse_cycle_type("5^1 3^1")
    before = chi(lam, sigma)
    clear_character_cache()
    assert not characters_sn._MN_CACHE
    assert characters_sn._standard_count.cache_info().currsize == 0
    assert chi(lam, sigma) == before


def test_memo_holds_no_fixed_point_tails():
    # a class that has shrunk to 1^k is answered by the hook product, unstored
    clear_character_cache()
    full_table(10)
    spectrum_sn(parse_partition("7,5,4,3,2^2,1"), parse_cycle_type("7^1 5^1 3^1 2^1 1^7"))
    assert characters_sn._MN_CACHE
    assert all(cycles and cycles[0] != 1 for _, cycles in characters_sn._MN_CACHE)
