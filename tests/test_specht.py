import pytest
from hypothesis import given
from hypothesis import strategies as st

from snchar.characters_sn import chi, degree
from snchar.partitions import (
    CycleType,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)
from snchar.specht import (
    oracle_min_poly,
    oracle_spectrum,
    polytabloid,
    sigma_matrix,
    standard_tableaux,
)
from snchar.spectral import min_poly, spectrum_sn


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


def test_polytabloid_known():
    tab = ((1, 2), (3,))
    poly = polytabloid(tab)
    up = (frozenset({1, 2}), frozenset({3}))
    swapped = (frozenset({3, 2}), frozenset({1}))
    assert poly == {up: 1, swapped: -1}


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


def test_sigma_matrix_rejects_bad_input():
    lam = parse_partition("3,2")
    with pytest.raises(ValueError):
        sigma_matrix(lam, (1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        sigma_matrix(lam, (1, 2, 3))
    with pytest.raises(ValueError):
        sigma_matrix(parse_partition("5,4"), parse_cycle_type("9^1"))
    sigma_matrix(parse_partition("5,4"), parse_cycle_type("9^1"), limit=9)


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
