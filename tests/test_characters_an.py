import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snchar.characters_an import (
    MINUS,
    PLUS,
    RESTRICTED,
    AlgebraicValue,
    AnCharacterLabel,
    an_class_size,
    an_classes,
    an_irreducible_labels,
    chi_an,
    is_split,
    special_class,
    split_square,
)
from snchar.characters_sn import chi, degree
from snchar.partitions import (
    CycleType,
    conjugate,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)


def test_split_square_known():
    assert split_square(45) == (3, 5)
    assert split_square(-12) == (2, -3)
    assert split_square(1) == (1, 1)
    assert split_square(49) == (7, 1)
    assert split_square(-1) == (1, -1)
    with pytest.raises(ValueError):
        split_square(0)


@given(st.integers(min_value=-4000, max_value=4000).filter(lambda c: c != 0))
def test_split_square_reconstructs(c):
    b, d = split_square(c)
    assert b > 0
    assert b * b * d == c
    # d squarefree
    for p in range(2, 64):
        assert d % (p * p) != 0


def test_algebraic_value_normalization():
    v = AlgebraicValue(Fraction(0), Fraction(1), 8)
    assert (v.a, v.b, v.d) == (Fraction(0), Fraction(2), 2)
    r = AlgebraicValue(Fraction(3), Fraction(5), 1)
    assert r.is_rational and r.as_fraction() == 8
    z = AlgebraicValue(Fraction(2), Fraction(0), 7)
    assert z.d == 1
    with pytest.raises(ValueError):
        AlgebraicValue(Fraction(1), Fraction(1), 0)


def test_algebraic_value_arithmetic():
    phi = AlgebraicValue(Fraction(1, 2), Fraction(1, 2), 5)
    psi = phi.conjugate()
    assert str(phi) == "1/2+1/2√5"
    assert str(psi) == "1/2-1/2√5"
    assert (phi * psi).as_fraction() == Fraction(-1)
    assert (phi + psi).as_fraction() == Fraction(1)
    assert (phi - psi) == AlgebraicValue(Fraction(0), Fraction(1), 5)
    assert phi + Fraction(1, 2) == AlgebraicValue(Fraction(1), Fraction(1, 2), 5)
    assert 2 * phi == AlgebraicValue(Fraction(1), Fraction(1), 5)
    with pytest.raises(ValueError):
        phi + AlgebraicValue(Fraction(0), Fraction(1), 2)
    with pytest.raises(ValueError):
        phi * AlgebraicValue(Fraction(0), Fraction(1), -3)


def test_algebraic_value_complex_conjugate():
    v = AlgebraicValue(Fraction(1, 2), Fraction(3, 2), -7)
    assert v.complex_conjugate() == AlgebraicValue(Fraction(1, 2), Fraction(-3, 2), -7)
    w = AlgebraicValue(Fraction(1, 2), Fraction(3, 2), 7)
    assert w.complex_conjugate() == w
    assert abs(v.approx().imag - 1.5 * math.sqrt(7)) < 1e-12


def test_algebraic_value_json():
    v = AlgebraicValue(Fraction(1, 2), Fraction(-1, 2), 5)
    assert v.to_json_dict() == {
        "a_num": 1, "a_den": 2, "b_num": -1, "b_den": 2, "D": 5,
    }


def test_is_split_and_special_class():
    assert is_split(parse_partition("3,1,1"))
    assert not is_split(parse_partition("3,1"))
    assert special_class(parse_partition("3,1,1")) == parse_cycle_type("5^1")
    assert special_class(parse_partition("3,2,1")) == parse_cycle_type("5^1 1^1")
    assert special_class(parse_partition("4,3,2,1")) == parse_cycle_type("7^1 3^1")
    assert special_class(parse_partition("4,1")) is None


def test_trivial_alternating_groups_do_not_split():
    # () and (1) are self conjugate, but A_0 and A_1 have one irreducible
    for lam in (parse_partition(""), parse_partition("1")):
        assert not is_split(lam)
        assert special_class(lam) is None
        with pytest.raises(ValueError, match="does not split"):
            AnCharacterLabel(lam, PLUS)
    assert an_irreducible_labels(1) == [AnCharacterLabel.restricted(parse_partition("1"))]
    assert an_irreducible_labels(0) == [AnCharacterLabel.restricted(parse_partition(""))]


def test_label_normalization():
    lab = AnCharacterLabel.restricted(parse_partition("2,1,1"))
    assert lab.partition == parse_partition("3,1")
    assert str(lab) == "[3,1]"
    plus, minus = AnCharacterLabel.split_pair(parse_partition("3,1,1"))
    assert str(plus) == "[3,1^2]+"
    assert str(minus) == "[3,1^2]-"
    with pytest.raises(ValueError):
        AnCharacterLabel.restricted(parse_partition("3,1,1"))
    with pytest.raises(ValueError):
        AnCharacterLabel(parse_partition("3,1"), PLUS)
    with pytest.raises(ValueError):
        AnCharacterLabel(parse_partition("3,1"), "bogus")


def test_chi_an_split_known():
    plus, minus = AnCharacterLabel.split_pair(parse_partition("3,1,1"))
    five = parse_cycle_type("5^1")
    assert chi_an(plus, five) == AlgebraicValue(Fraction(1, 2), Fraction(1, 2), 5)
    assert chi_an(minus, five) == AlgebraicValue(Fraction(1, 2), Fraction(-1, 2), 5)
    # swapping the class half swaps the two values
    assert chi_an(plus, five, other_half=True) == chi_an(minus, five)
    assert chi_an(minus, five, other_half=True) == chi_an(plus, five)


def test_chi_an_negative_radicand():
    # diagonal hooks (5, 1) multiply to 5; parent value on [5 1] decides sign
    lam = parse_partition("3,2,1")
    plus, _ = AnCharacterLabel.split_pair(lam)
    sigma = parse_cycle_type("5^1 1^1")
    val = chi_an(plus, sigma)
    assert val.d in (5, -5)
    assert 2 * val.a == chi(lam, sigma)


def test_chi_an_rejects_odd_class():
    lab = AnCharacterLabel.restricted(parse_partition("4,1"))
    with pytest.raises(ValueError):
        chi_an(lab, parse_cycle_type("4^1 1^1"))
    with pytest.raises(ValueError):
        chi_an(lab, parse_cycle_type("3^1"))  # size mismatch


@st.composite
def split_cases(draw, max_n=9):
    n = draw(st.integers(min_value=4, max_value=max_n))
    lams = [lam for lam in enumerate_partitions(n) if is_split(lam)]
    if not lams:
        n = 4
        lams = [lam for lam in enumerate_partitions(4) if is_split(lam)]
    lam = draw(st.sampled_from(lams))
    evens = [
        CycleType.from_partition(mu)
        for mu in enumerate_partitions(n)
        if CycleType.from_partition(mu).is_even()
    ]
    return lam, draw(st.sampled_from(evens))


@given(split_cases())
def test_split_halves_sum_to_parent(case):
    lam, sigma = case
    plus, minus = AnCharacterLabel.split_pair(lam)
    total = chi_an(plus, sigma) + chi_an(minus, sigma)
    assert total.is_rational
    assert total.as_fraction() == chi(lam, sigma)
    # and on the companion half of a split class
    if sigma.splits_in_alternating():
        total2 = chi_an(plus, sigma, other_half=True) + chi_an(
            minus, sigma, other_half=True
        )
        assert total2.as_fraction() == chi(lam, sigma)


@given(split_cases())
def test_split_half_degrees(case):
    lam, _ = case
    plus, minus = AnCharacterLabel.split_pair(lam)
    ident = CycleType.uniform(1, lam.n, lam.n)
    d = chi_an(plus, ident)
    assert d.is_rational and 2 * d.as_fraction() == degree(lam)
    assert chi_an(minus, ident) == d


@pytest.mark.parametrize("n", range(0, 11))
def test_label_and_class_counts_match(n):
    labels = an_irreducible_labels(n)
    classes = an_classes(n)
    assert len(labels) == len(classes)
    total = sum(an_class_size(sigma, half) for sigma, half in classes)
    assert total == max(1, math.factorial(n) // 2)


def test_an_class_size_split():
    five = parse_cycle_type("5^1")
    assert an_class_size(five, 1) == five.class_size() // 2 == 12
    assert an_class_size(five, 0) == 24
    with pytest.raises(ValueError):
        an_class_size(parse_cycle_type("3^1 1^2"), 1)


def _an_value(label, sigma, half):
    return chi_an(label, sigma, other_half=(half == -1))


def _accumulate(acc, value):
    acc[1] = acc.get(1, Fraction(0)) + value.a
    if value.b:
        acc[value.d] = acc.get(value.d, Fraction(0)) + value.b


@pytest.mark.parametrize("n", [5, 6, 7])
def test_an_row_orthogonality(n):
    labels = an_irreducible_labels(n)
    classes = an_classes(n)
    order = math.factorial(n) // 2
    for i, li in enumerate(labels):
        for lj in labels[: i + 1]:
            acc: dict[int, Fraction] = {}
            for sigma, half in classes:
                size = an_class_size(sigma, half)
                prod = _an_value(li, sigma, half) * _an_value(
                    lj, sigma, half
                ).complex_conjugate()
                _accumulate(acc, size * prod)
            acc = {d: c for d, c in acc.items() if c}
            if li == lj:
                assert acc == {1: Fraction(order)}
            else:
                assert acc == {}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_an_column_orthogonality(n):
    labels = an_irreducible_labels(n)
    classes = an_classes(n)
    order = math.factorial(n) // 2
    for sigma1, half1 in classes:
        for sigma2, half2 in classes:
            acc: dict[int, Fraction] = {}
            for lab in labels:
                prod = _an_value(lab, sigma1, half1) * _an_value(
                    lab, sigma2, half2
                ).complex_conjugate()
                _accumulate(acc, prod)
            acc = {d: c for d, c in acc.items() if c}
            if (sigma1, half1) == (sigma2, half2):
                expected = Fraction(order, an_class_size(sigma1, half1))
                assert acc == {1: expected}
            else:
                assert acc == {}


def test_restricted_label_value_is_parent():
    lab = AnCharacterLabel.restricted(parse_partition("4,1"))
    for mu in enumerate_partitions(5):
        sigma = CycleType.from_partition(mu)
        if not sigma.is_even():
            continue
        val = chi_an(lab, sigma)
        assert val.is_rational
        assert val.as_fraction() == chi(parse_partition("4,1"), sigma)
        assert val.as_fraction() == chi(parse_partition("2,1,1,1"), sigma)


def test_variant_constants_distinct():
    assert len({RESTRICTED, PLUS, MINUS}) == 3
