import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snchar.characters_an import AnCharacterLabel, is_split, special_class
from snchar.characters_sn import chi, degree
from snchar.partitions import (
    CycleType,
    conjugate,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)
from snchar.spectral import (
    MinPoly,
    SpectrumProfile,
    _principal_sqrt_vector,
    cyclotomic,
    divisors,
    euler_phi,
    fixed_space_dim,
    kronecker_symbol,
    min_poly,
    moebius,
    ramanujan_sum,
    render_min_poly,
    spectrum_an,
    spectrum_an_numeric,
    spectrum_sn,
    spectrum_sn_direct,
)


def test_divisors_moebius_phi_known():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert [moebius(q) for q in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert [euler_phi(q) for q in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@given(st.integers(min_value=1, max_value=300))
def test_phi_divisor_sum(q):
    assert sum(euler_phi(d) for d in divisors(q)) == q


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=48))
def test_ramanujan_sum_matches_root_sum(q, j):
    brute = sum(
        cmath.exp(2j * cmath.pi * a * j / q)
        for a in range(1, q + 1)
        if math.gcd(a, q) == 1
    )
    assert abs(brute.imag) < 1e-9
    assert ramanujan_sum(q, j) == round(brute.real)


def test_ramanujan_sum_known():
    assert ramanujan_sum(6, 0) == euler_phi(6) == 2
    assert ramanujan_sum(6, 1) == moebius(6) == 1
    assert [ramanujan_sum(5, j) for j in range(5)] == [4, -1, -1, -1, -1]


def test_cyclotomic_known():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@given(st.integers(min_value=1, max_value=30))
def test_cyclotomic_product_is_xn_minus_1(n):
    prod = [1]
    for d in divisors(n):
        phi_d = cyclotomic(d)
        out = [0] * (len(prod) + len(phi_d) - 1)
        for i, a in enumerate(prod):
            for k, b in enumerate(phi_d):
                out[i + k] += a * b
        prod = out
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_kronecker_symbol_known():
    assert [kronecker_symbol(j, 5) for j in range(1, 5)] == [1, -1, -1, 1]
    assert kronecker_symbol(0, 5) == 0
    assert kronecker_symbol(3, 1) == 1


@given(st.integers(min_value=1, max_value=200))
def test_kronecker_matches_euler_criterion(a):
    for p in (3, 5, 7, 11, 13):
        if a % p == 0:
            assert kronecker_symbol(a, p) == 0
            continue
        euler = pow(a, (p - 1) // 2, p)
        assert kronecker_symbol(a, p) == (1 if euler == 1 else -1)


def test_spectrum_profile_validation():
    with pytest.raises(ValueError):
        SpectrumProfile(2, (1,), 1)
    with pytest.raises(RuntimeError):
        SpectrumProfile(2, (1, 2), 2)
    prof = SpectrumProfile(3, (1, 0, 2), 3)
    assert prof.support() == frozenset({0, 2})
    assert prof.to_json_dict() == {"r": 3, "degree": 3, "mult": [1, 0, 2]}


def test_min_poly_validation():
    with pytest.raises(ValueError):
        MinPoly(4, frozenset())
    with pytest.raises(ValueError):
        MinPoly(4, frozenset({4}))
    assert MinPoly(4, frozenset(range(4))).is_full()


def test_spectrum_known_vectors():
    cases = [
        ("3,3", "6^1", (1, 1, 0, 2, 0, 1)),
        ("2,2,2", "6^1", (2, 0, 1, 1, 1, 0)),
        ("4,1", "5^1", (0, 1, 1, 1, 1)),
        ("2,2", "2^2", (2, 0)),
        ("2,1,1", "4^1", (1, 1, 0, 1)),
    ]
    for lam_text, sig_text, mult in cases:
        prof = spectrum_sn(parse_partition(lam_text), parse_cycle_type(sig_text))
        assert prof.mult == mult
        assert prof.degree == degree(parse_partition(lam_text))


def test_min_poly_renderings():
    flag = spectrum_sn(parse_partition("3,3"), parse_cycle_type("6^1"))
    assert min_poly(flag).rendered == "(x^6-1)/(x^2+x+1)"
    twist = spectrum_sn(parse_partition("2,2,2"), parse_cycle_type("6^1"))
    assert min_poly(twist).rendered == "(x^6-1)/(x^2-x+1)"
    std = spectrum_sn(parse_partition("4,1"), parse_cycle_type("5^1"))
    assert min_poly(std).rendered == "(x^5-1)/(x-1)"
    full = spectrum_sn(parse_partition("3,2"), parse_cycle_type("5^1"))
    assert min_poly(full).rendered == "x^5-1"
    ident = spectrum_sn(parse_partition("3,2"), parse_cycle_type("1^5"))
    assert min_poly(ident).rendered == "x-1"
    # sign character at an even class of order 4: two cyclotomic factors
    sign4 = spectrum_sn(parse_partition("1^8"), parse_cycle_type("4^2"))
    assert min_poly(sign4).rendered == "(x^4-1)/((x+1)(x^2+1))"


def test_render_min_poly_atom_forms():
    assert render_min_poly(MinPoly(5, frozenset({0, 1, 4}))) == (
        "(x^5-1)/((x-z5^2)(x-z5^3))"
    )
    assert render_min_poly(MinPoly(5, frozenset({0, 2, 3}))) == (
        "(x^5-1)/((x-z5^1)(x-z5^4))"
    )
    assert render_min_poly(MinPoly(4, frozenset({0, 1, 2}))) == "(x^4-1)/(x-z4^3)"


@st.composite
def sn_cases(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lam = draw(st.sampled_from(enumerate_partitions(n)))
    mu = draw(st.sampled_from(enumerate_partitions(n)))
    return lam, CycleType.from_partition(mu)


@given(sn_cases())
def test_spectrum_multiplicity_depends_on_gcd(case):
    # rational character table: multiplicities are constant on Galois orbits
    lam, sigma = case
    prof = spectrum_sn(lam, sigma)
    r = prof.r
    for j in range(r):
        mate = next(k for k in range(r) if math.gcd(k, r) == math.gcd(j, r))
        assert prof.mult[j] == prof.mult[mate]
        assert prof.mult[j] == prof.mult[(r - j) % r]


@given(sn_cases())
def test_spectrum_sign_twist(case):
    lam, sigma = case
    prof = spectrum_sn(lam, sigma)
    twisted = spectrum_sn(conjugate(lam), sigma)
    if sigma.is_even():
        assert twisted.mult == prof.mult
    else:
        r = prof.r
        assert r % 2 == 0
        shift = r // 2
        assert twisted.mult == tuple(prof.mult[(j - shift) % r] for j in range(r))


@given(sn_cases())
def test_fixed_space_is_zeroth_multiplicity(case):
    lam, sigma = case
    assert fixed_space_dim(lam, sigma) == spectrum_sn(lam, sigma).mult[0]


def test_fixed_space_known():
    assert fixed_space_dim(parse_partition("2,2,1"), parse_cycle_type("3^1 2^1")) == 0
    assert fixed_space_dim(parse_partition("4,1"), parse_cycle_type("5^1")) == 0
    assert fixed_space_dim(parse_partition("5"), parse_cycle_type("3^1 2^1")) == 1


def test_spectrum_direct_full_grid():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                sigma = CycleType.from_partition(mu)
                assert spectrum_sn(lam, sigma) == spectrum_sn_direct(lam, sigma)


def test_principal_sqrt_vector_known():
    # Gauss sum for a single 5-hook: 1 + 2*z5 + 2*z5^4 squares to 5
    assert _principal_sqrt_vector((5,), 5) == [1, 2, 0, 0, 2]


def test_spectrum_an_known_vectors():
    cases = [
        ("3,1,1", "5^1", (1, 1, 0, 0, 1), (1, 0, 1, 1, 0)),
        ("4,1,1,1", "7^1", (1, 2, 2, 1, 2, 1, 1), (1, 1, 1, 2, 1, 2, 2)),
        ("5,1^4", "9^1", (5, 4, 4, 3, 4, 4, 3, 4, 4), (3, 4, 4, 4, 4, 4, 4, 4, 4)),
        ("3,2,1", "5^1 1^1", (2, 2, 1, 1, 2), (2, 1, 2, 2, 1)),
    ]
    for lam_text, sig_text, plus_mult, minus_mult in cases:
        lam = parse_partition(lam_text)
        sigma = parse_cycle_type(sig_text)
        plus, minus = AnCharacterLabel.split_pair(lam)
        assert spectrum_an(plus, sigma).mult == plus_mult
        assert spectrum_an(minus, sigma).mult == minus_mult


def test_spectrum_an_split_min_polys():
    plus, minus = AnCharacterLabel.split_pair(parse_partition("3,1,1"))
    five = parse_cycle_type("5^1")
    assert min_poly(spectrum_an(plus, five)).rendered == "(x^5-1)/((x-z5^2)(x-z5^3))"
    assert min_poly(spectrum_an(minus, five)).rendered == "(x^5-1)/((x-z5^1)(x-z5^4))"


def test_spectrum_an_halves_sum_to_parent():
    for n in range(4, 9):
        split_lams = [lam for lam in enumerate_partitions(n) if is_split(lam)]
        for lam in split_lams:
            plus, minus = AnCharacterLabel.split_pair(lam)
            for mu in enumerate_partitions(n):
                sigma = CycleType.from_partition(mu)
                if not sigma.is_even():
                    continue
                total_plus = spectrum_an(plus, sigma)
                total_minus = spectrum_an(minus, sigma)
                parent = spectrum_sn(lam, sigma)
                combined = tuple(
                    a + b for a, b in zip(total_plus.mult, total_minus.mult)
                )
                assert combined == parent.mult


def test_spectrum_an_matches_numeric():
    samples = [
        ("3,1,1", "5^1"),
        ("3,1,1", "3^1 1^2"),
        ("3,2,1", "5^1 1^1"),
        ("3,2,1", "3^2"),
        ("4,1^3", "7^1"),
        ("3,3,2", "3^1 2^2 1^1"),
        ("4,2,1,1", "5^1 3^1"),
        ("4,3,2,1", "7^1 3^1"),
        ("3,3,3", "9^1"),
        ("3,3,3", "5^1 3^1 1^1"),
    ]
    cases = [(parse_partition(lam_text), parse_cycle_type(sig_text)) for lam_text, sig_text in samples]
    # every split label at its distinguished class, where the Gauss-sum path runs
    cases += [
        (lam, special_class(lam))
        for n in range(2, 21)
        for lam in enumerate_partitions(n)
        if is_split(lam)
    ]
    for lam, sigma in cases:
        for label in AnCharacterLabel.split_pair(lam):
            exact = spectrum_an(label, sigma)
            numeric = spectrum_an_numeric(label, sigma)
            assert exact == numeric


def test_spectrum_an_numeric_rejects_lost_float_resolution():
    lam = parse_partition("8,7,5,4,3,2^2,1")
    sigma = special_class(lam)
    assert sigma.order() == 165
    for label in AnCharacterLabel.split_pair(lam):
        with pytest.raises(ValueError, match="float resolution"):
            spectrum_an_numeric(label, sigma)
        assert sum(spectrum_an(label, sigma).mult) == degree(lam) // 2


def test_spectrum_sn_large_order():
    # order 60060 = lcm(13, 11, 7, 5, 4, 3); the alternating sum of the
    # multiplicities is the trace at sigma^(r/2), which needs no Ramanujan sum
    lam = parse_partition("10,8,6,5,4,3,2^2,1^5")
    sigma = parse_cycle_type("13 11 7 5 4 3 1^2")
    prof = spectrum_sn(lam, sigma)
    assert prof.r == 60060
    assert sum(prof.mult) == degree(lam)
    assert fixed_space_dim(lam, sigma) == prof.mult[0]
    alternating = sum(m if j % 2 == 0 else -m for j, m in enumerate(prof.mult))
    assert alternating == chi(lam, sigma.power(prof.r // 2))


def test_fixed_space_dim_large_n():
    # n = 60, order 1021020: most powers sigma^d are rich in fixed points
    lam = parse_partition("10,9,8,7,6,5,4,3^2,2,1^3")
    sigma = parse_cycle_type("17^1 13^1 11^1 7^1 5^1 4^1 3^1")
    assert sigma.order() == 1021020
    assert fixed_space_dim(lam, sigma) == 1252728188828998435411086655244520


def test_spectrum_an_restricted_equals_parent():
    label = AnCharacterLabel.restricted(parse_partition("4,1"))
    sigma = parse_cycle_type("5^1")
    assert spectrum_an(label, sigma).mult == spectrum_sn(
        parse_partition("4,1"), sigma
    ).mult


def test_spectrum_an_rejects_odd_class():
    label = AnCharacterLabel.restricted(parse_partition("4,1"))
    with pytest.raises(ValueError):
        spectrum_an(label, parse_cycle_type("4^1 1^1"))
