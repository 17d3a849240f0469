import cmath
import functools
import hashlib
import json
import math
import operator
import random
import time
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from snchar import classify, cli, spectral
from snchar.bounds import sweep_robbins
from snchar.characters_an import AnCharacterLabel, an_irreducible_labels, is_split, special_class
from snchar.characters_sn import chi, degree
from snchar.partitions import (
    CycleType,
    Partition,
    conjugate,
    diagonal_hooks,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)
from snchar.spectral import (
    MinPoly,
    SpectrumProfile,
    _gauss_correction,
    _poly_str,
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


def _dot(weights, values):
    return sum(map(operator.mul, weights, values))


def _check_transform(r, rng, c):
    # sum_d c_{r/d}(g) * x_d per divisor g, on seeded integers: as one cell, and as columns [x_d, y_d];
    # c is ramanujan_sum memoized, read at gcd(g, q) as c_q(g) depends on g only through it
    divs = divisors(r)
    x, y = ([rng.randrange(-10**6, 10**6) for _ in divs] for _ in range(2))
    weights = [[c(q, math.gcd(q, g)) for q in (r // d for d in divs)] for g in divs]
    assert spectral._ramanujan(r, x) == [_dot(w, x) for w in weights], r
    packed = [a + (b << 64) for a, b in zip(x, y)]  # x_d and y_d in two 64-bit lanes, as the sweeps pack them
    assert spectral._ramanujan(r, packed) == [_dot(w, x) + (_dot(w, y) << 64) for w in weights], r


def test_ramanujan_transform_equals_ramanujan_sum_to_10000():
    # one (e + 1) x (e + 1) block per prime power of r must give every Ramanujan sum c_{r/d}(g)
    rng, c = random.Random(36), functools.cache(ramanujan_sum)
    for r in range(1, 10001):
        _check_transform(r, rng, c)
    # 2^3 * 3^2 * 5, the first seven primes, 2^4 * 3^2 * 5 * 7 * 11 * 13 and 2^3 * 3^2 * 5 * 7 * 11 * 13 * 19 * 23
    big = [360, 510510, 720720, 157477320]
    # seeded orders of many prime powers, up to d(r) = 768
    while len(big) < 8:
        r = math.prod(rng.choice([1, p, p * p, p**3]) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        if 10000 < r and len(divisors(r)) <= 768:
            big.append(r)
    assert len(divisors(157477320)) == 768
    for r in big:
        _check_transform(r, rng, c)


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


def _cyclotomic_by_long_division(d, memo={}):
    # reference: long division of x^d - 1 by every Phi_e, e a proper divisor of d
    if d not in memo:
        poly = [-1] + [0] * (d - 1) + [1]
        for e in divisors(d)[:-1]:
            den = _cyclotomic_by_long_division(e)
            quot = [0] * (len(poly) - len(den) + 1)
            for i in range(len(poly) - 1, len(den) - 2, -1):
                c = quot[i - len(den) + 1] = poly[i]
                for k, b in enumerate(den):
                    poly[i - len(den) + 1 + k] -= c * b
            assert not any(poly[: len(den) - 1])
            poly = quot
        memo[d] = tuple(poly)
    return memo[d]


def test_cyclotomic_matches_long_division():
    for d in range(1, 121):
        assert cyclotomic(d) == _cyclotomic_by_long_division(d)
    assert cyclotomic(210) == _cyclotomic_by_long_division(210)


def test_cyclotomic_large_squarefree_order_is_fast():
    # 30030 = 2*3*5*7*11*13 has 64 divisors; repeated long division takes about a minute.
    # 510510 = 30030*17: a Moebius product that multiplies in every numerator first took 6.5 s
    for d, deg, limit in ((30030, 5760, 20), (510510, 92160, 3)):
        start = time.perf_counter()
        phi = cyclotomic(d)
        assert time.perf_counter() - start < limit
        assert len(phi) - 1 == euler_phi(d) == deg
        assert phi[0] == phi[-1] == 1 and phi == phi[::-1]


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


def test_spectrum_profile_storage_forms_agree():
    compact = [spectrum_sn(lam, CycleType.from_partition(mu))
               for n in range(1, 8) for lam in enumerate_partitions(n) for mu in enumerate_partitions(n)]
    # every A_n label, both halves of each split pair, at every even class: the split halves at
    # their distinguished classes are the compact profiles with a surd d != 1
    for n in range(5, 10):
        classes = [CycleType.from_partition(mu) for mu in enumerate_partitions(n)]
        compact += [spectrum_an(label, sigma) for label in an_irreducible_labels(n)
                    for sigma in classes if sigma.is_even()]
    assert any(prof._compact[0] != 1 for prof in compact)
    for prof in compact:
        by_residue = SpectrumProfile(prof.r, prof.mult, prof.degree)
        assert prof == by_residue and by_residue == prof
        assert hash(prof) == hash(by_residue)
        assert prof.support() == by_residue.support()
        assert prof.to_json_dict() == by_residue.to_json_dict()
        assert min_poly(prof) == min_poly(by_residue)
    prof = spectrum_sn(parse_partition("3,3"), parse_cycle_type("6^1"))
    assert prof != SpectrumProfile(6, (1, 1, 0, 2, 1, 0), 5)
    assert prof == SpectrumProfile._from_gcd(6, (1, 0, 2, 1), 5)
    with pytest.raises(RuntimeError):
        SpectrumProfile._from_gcd(6, (1, 0, 2, 1), 6)
    with pytest.raises(RuntimeError):
        SpectrumProfile._from_gcd(2, (2, -1), 1)


def test_one_stored_form_whichever_constructor():
    # a Galois-stable profile is held per gcd however it was built, and its roots likewise
    prof = spectrum_sn(parse_partition("3,3"), parse_cycle_type("6^1"))
    by_gcd = (1, 0, 2, 1)  # g = 1, 2, 3, 6
    assert SpectrumProfile(6, prof.mult, 5)._compact == prof._compact == (1, by_gcd, by_gcd)
    # equal value lists store the surd 1, whatever surd they were built with
    same = SpectrumProfile._from_gcd(6, by_gcd, 5, by_gcd, -3)
    assert same._compact == (1, by_gcd, by_gcd)
    assert same == prof and prof == same and hash(same) == hash(prof)
    # a split half at its distinguished class is held per gcd when its surd is rational (5,1^4
    # at 9^1, where eps * 9 = 3^2), per gcd and sign of psi(j/g) otherwise (3,1^2 at 5^1)
    for lam, sigma, stable in (("5,1^4", "9^1", True), ("3,1^2", "5^1", False)):
        for half in AnCharacterLabel.split_pair(parse_partition(lam)):
            prof = spectrum_an(half, parse_cycle_type(sigma))
            assert (prof._compact[0] == 1) == (min_poly(prof)._compact[0] == 1) == stable
            assert prof == SpectrumProfile(prof.r, prof.mult, prof.degree)


def _render_by_scan(r, roots):
    # reference renderer: scan range(r) and group the missing exponents by gcd
    if len(roots) == r:
        return "x-1" if r == 1 else f"x^{r}-1"
    comp = sorted(set(range(r)) - roots)
    missing = {}
    for j in comp:
        missing[math.gcd(j, r)] = missing.get(math.gcd(j, r), 0) + 1
    whole = f"x^{r}-1"
    if all(count == euler_phi(r // g) for g, count in missing.items()):
        rendered = [_poly_str(cyclotomic(r // g)) for g in sorted(missing, reverse=True)]
        if len(rendered) == 1:
            return f"({whole})/({rendered[0]})"
        return f"({whole})/({''.join(f'({p})' for p in rendered)})"
    atoms = "".join(f"(x-z{r}^{j})" for j in comp)
    return f"({whole})/{atoms}" if len(comp) == 1 else f"({whole})/({atoms})"


def test_min_poly_storage_forms_agree():
    profiles = [
        spectrum_sn(lam, CycleType.from_partition(mu))
        for n in range(1, 10)
        for lam in enumerate_partitions(n)
        for mu in enumerate_partitions(n)
    ]
    for n in range(5, 10):
        labels = [label for lam in enumerate_partitions(n) for label in
                  (AnCharacterLabel.split_pair(lam) if is_split(lam) else (AnCharacterLabel.restricted(lam),))]
        classes = [CycleType.from_partition(mu) for mu in enumerate_partitions(n)]
        profiles += [spectrum_an(label, sigma) for label in labels for sigma in classes if sigma.is_even()]
    not_galois_closed = 0
    for prof in profiles:
        got = min_poly(prof)
        roots = frozenset(j for j, m in enumerate(prof.mult) if m)
        ref = MinPoly(prof.r, roots)
        assert got == ref and ref == got and hash(got) == hash(ref)
        assert got.roots == roots and got.is_full() == (len(roots) == prof.r)
        assert got.rendered == ref.rendered == _render_by_scan(prof.r, roots)
        not_galois_closed += ref._compact is None
    assert not_galois_closed  # the split halves at their distinguished classes


def test_min_poly_never_lists_a_compact_profile(monkeypatch):
    # the references list mult; min_poly then reads the stored form alone, with mult raising
    cases = [(label, sigma) for n in range(5, 10) for label in an_irreducible_labels(n)
             for sigma in map(CycleType.from_partition, enumerate_partitions(n)) if sigma.is_even()]
    big = parse_partition("511^2,2^509")
    cases += [(half, parse_cycle_type("1021^1 1019^1")) for half in AnCharacterLabel.split_pair(big)]
    refs = []
    for label, sigma in cases:
        prof = spectrum_an(label, sigma)
        refs.append(MinPoly(prof.r, frozenset(j for j, m in enumerate(prof.mult) if m)))

    def refuse(self):
        raise AssertionError("min_poly listed a compact profile")

    monkeypatch.setattr(SpectrumProfile, "mult", property(refuse))
    spectral._split_pair.cache_clear()
    for (label, sigma), ref in zip(cases, refs):
        assert min_poly(spectrum_an(label, sigma)) == ref
    # a split half whose pos and neg vanish apart keeps its support in the compact form
    plus, minus = (min_poly(spectrum_an(half, parse_cycle_type("5^1")))
                   for half in AnCharacterLabel.split_pair(parse_partition("3,1^2")))
    assert plus._compact == (5, (True, True), (False, True))
    assert minus._compact == (5, (False, True), (True, True))


def test_min_poly_large_order_stays_per_divisor():
    # n = 60, order 1021020: the full x^r - 1 is decided per divisor, with no r-sized list
    lam = parse_partition("10,9,8,7,6,5,4,3^2,2,1^3")
    sigma = parse_cycle_type("17^1 13^1 11^1 7^1 5^1 4^1 3^1")
    tracemalloc.start()
    try:
        rendered = min_poly(spectrum_sn(lam, sigma)).rendered
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rendered == "x^1021020-1"
    assert peak < 20 * 2**20


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


def test_rendering_more_missing_roots_than_max_listed_r_is_refused():
    # stored per residue, one atom per missing root (the CLI test covers a polynomial stored by gcd);
    # the cap counts missing roots, not r
    cap = spectral.MAX_LISTED_R
    with pytest.raises(ValueError, match=f"lacks {cap + 1} of the r-th roots of unity"):
        render_min_poly(MinPoly(cap + 2, frozenset({0})))
    assert render_min_poly(MinPoly(cap + 2, frozenset(range(cap + 1)))) == f"(x^{cap + 2}-1)/(x-z{cap + 2}^{cap + 1})"


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


def _self_conjugate(hooks):
    """The self conjugate partition with the given diagonal hook lengths."""
    arms = [(h - 1) // 2 for h in hooks]
    rows = [a + i + 1 for i, a in enumerate(arms)]
    col = len(arms) + 1
    while count := sum(1 for i, a in enumerate(arms) if a + i + 1 >= col):
        rows.append(count)
        col += 1
    return Partition(tuple(rows))


def _distinct_odd(n, top):
    """Partitions of n into distinct odd parts at most top, largest first."""
    if not n:
        yield ()
    for p in range(min(top, n), 0, -1):
        if p % 2:
            yield from ((p,) + rest for rest in _distinct_odd(n - p, p - 2))


def test_split_closed_form_matches_gauss_route():
    # every split label with n <= 40 whose distinguished class has order r <= 1000
    labels = 0
    for n in range(2, 41):
        for hooks in _distinct_odd(n, n):
            lam = _self_conjugate(hooks)
            assert diagonal_hooks(lam) == hooks
            sigma = special_class(lam)
            r = sigma.order()
            if r > 1000:
                continue
            base = spectrum_sn(lam, sigma)
            t = _gauss_correction(hooks, r)
            for label, sign in zip(AnCharacterLabel.split_pair(lam), (1, -1)):
                slow = tuple((r * m + sign * tj) // (2 * r) for m, tj in zip(base.mult, t))
                assert spectrum_an(label, sigma).mult == slow
            labels += 1
    assert labels == 388


def test_fixed_space_dim_long_hook_at_one_cycle_is_fast():
    # 501,1^500 at a 1001-cycle: long rim hooks at many equal cycles, 2.4 s on tuple partitions
    lam, sigma = parse_partition("501,1^500"), parse_cycle_type("1001^1")
    start = time.perf_counter()
    dim = fixed_space_dim(lam, sigma)
    assert time.perf_counter() - start < 0.5
    assert dim == spectrum_sn(lam, sigma).mult[0]


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


def test_split_pair_shares_one_parent_row(monkeypatch):
    # the second half of a pair reads the first one's parent spectrum: one character row in all
    rows = []
    real = spectral._chi_row
    monkeypatch.setattr(spectral, "_chi_row", lambda mask, columns: rows.append(mask) or real(mask, columns))
    spectral._split_pair.cache_clear()
    lam, sigma = parse_partition("3,2,1"), parse_cycle_type("5^1 1^1")
    plus, minus = (spectrum_an(half, sigma) for half in AnCharacterLabel.split_pair(lam))
    assert (plus.mult, minus.mult) == ((2, 2, 1, 1, 2), (2, 1, 2, 2, 1))
    assert len(rows) == 1


def test_split_pair_listing_builds_one_psi_table():
    # the halves of a pair share their surd: listing both builds (d | .) once
    spectral._split_pair.cache_clear()
    spectral._quadratic_character.cache_clear()
    sigma = parse_cycle_type("5^1")
    plus, minus = (spectrum_an(half, sigma) for half in AnCharacterLabel.split_pair(parse_partition("3,1^2")))
    assert (plus.mult, minus.mult) == ((1, 1, 0, 0, 1), (1, 0, 1, 1, 0))
    assert spectral._quadratic_character.cache_info().misses == 1


def test_split_half_above_the_listing_cap_refuses_mult():
    # 19*17*13*11*7*5 = 1616615 > 2^20: each half holds 2 * d(r) = 128 entries, and lists none
    lam = parse_partition("10^2,9^2,8^2,6^2,4,2")
    sigma = special_class(lam)
    assert sigma.order() == 1616615 > spectral.MAX_LISTED_R
    for half in AnCharacterLabel.split_pair(lam):
        prof = spectrum_an(half, sigma)
        assert len(prof._compact[1]) == len(prof._compact[2]) == len(divisors(1616615)) == 64
        assert min_poly(prof).rendered == "x^1616615-1"
        with pytest.raises(ValueError, match="lists one multiplicity per residue, and r = 1616615 > MAX_LISTED_R"):
            prof.mult
        # the roots list the residues too: each refusal comes before a 1 616 615-element set is built
        mp = min_poly(prof)
        for listing in (lambda: mp.roots, mp.to_json_dict, prof.support):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="lists its roots one residue at a time, and r = 1616615 > "):
                listing()
            assert time.perf_counter() - start < 0.1
        assert repr(mp) == f"MinPoly(r=1616615, compact={mp._compact})" and mp._values is None



def test_every_profile_above_the_listing_cap_refuses_mult_and_prints_compact():
    # at 1616615 > 2^20 a profile held per divisor lists nothing, whatever its d; repr prints the compact form
    lam = parse_partition("10^2,9^2,8^2,6^2,4,2")
    sigma = special_class(lam)
    sn = spectrum_sn(parse_partition("70,2"), sigma)
    assert sn._compact[0] == 1
    for listing in (lambda: sn.mult, sn.to_json_dict):
        with pytest.raises(ValueError, match="lists one multiplicity per residue, and r = 1616615 > MAX_LISTED_R"):
            listing()
    for prof in (sn, spectrum_an(AnCharacterLabel.split_pair(lam)[0], sigma)):
        start = time.perf_counter()
        text = repr(prof)
        assert time.perf_counter() - start < 0.1
        assert len(text) < 10_000 and text.startswith(f"SpectrumProfile(r=1616615, compact={prof._compact}")
        assert prof._values is None
    assert repr(spectrum_sn(parse_partition("3,3"), parse_cycle_type("6^1"))) == (
        "SpectrumProfile(r=6, mult=(1, 1, 0, 2, 0, 1), degree=5)")

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def test_divisor_count_above_max_divisors_is_refused_before_any_row(monkeypatch):
    # the eleven odd primes to 37, an even class on 195 points: d(r) = 2^11 powers, weighed in full
    lam, sigma = parse_partition("193,2"), CycleType.from_lengths(ODD_PRIMES[:11])
    prof = spectrum_sn(lam, sigma)
    assert len(prof._compact[1]) == 2048 and prof.degree == degree(lam)
    # orbits of sigma on 2-subsets less orbits on points: 92 within cycles + 55 between them - 11
    assert prof._compact[1][-1] == fixed_space_dim(lam, sigma) == 136
    assert spectrum_an(AnCharacterLabel.restricted(lam), sigma) == prof

    # the nineteen odd primes to 71, on 637 points: d(r) = 2^19 > MAX_DIVISORS, refused before any row
    built = []
    for name in ("_ramanujan", "_chi_row"):
        monkeypatch.setattr(spectral, name, lambda *args, name=name: built.append(name))
    lam, sigma = parse_partition("635,2"), CycleType.from_lengths(ODD_PRIMES)
    message = r"has d\(r\) = 524288 divisors of its order, over MAX_DIVISORS = 262144$"
    for query in (lambda: spectrum_sn(lam, sigma), lambda: spectrum_an(AnCharacterLabel.restricted(lam), sigma),
                  lambda: fixed_space_dim(lam, sigma)):
        with pytest.raises(ValueError, match=message):
            query()
    assert built == [] and spectral.MAX_DIVISORS == 1 << 18


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


def test_odd_parent_multiplicity_away_from_the_distinguished_class_is_an_internal_error(monkeypatch):
    # a split pair's halves are equal away from its distinguished class, each half of the parent's
    # multiplicities; move one eigenvalue of the parent 3,1,1 at 2^2 1^1 from -1 to 1, keeping the degree
    real = spectral.spectrum_sn

    def moved(lam, sigma):
        parent = real(lam, sigma)
        minus_one, one = parent._compact[1]  # at the divisors g = 1, 2 of r = 2: j = 1 and j = 0
        return SpectrumProfile._from_gcd(2, [minus_one - 1, one + 1], parent.degree)

    monkeypatch.setattr(spectral, "spectrum_sn", moved)
    spectral._split_pair.cache_clear()
    plus, _ = AnCharacterLabel.split_pair(parse_partition("3,1,1"))
    with pytest.raises(RuntimeError, match=r"^odd multiplicity away from the distinguished class \(internal bug\)$"):
        spectrum_an(plus, parse_cycle_type("2^2 1^1"))  # raises, so the cache keeps nothing


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
    cases = [(label, parse_cycle_type(sig_text))
             for lam_text, sig_text in samples for label in AnCharacterLabel.split_pair(parse_partition(lam_text))]
    # every split label at its distinguished class, where the Gauss-sum path runs
    cases += [(label, special_class(lam))
              for n in range(2, 21) for lam in enumerate_partitions(n) if is_split(lam)
              for label in AnCharacterLabel.split_pair(lam)]
    # every label, restricted and split, at every even class of n <= 10
    every = [(label, sigma)
             for n in range(2, 11) for label in an_irreducible_labels(n)
             for sigma in map(CycleType.from_partition, enumerate_partitions(n)) if sigma.is_even()]
    assert len(every) == 1137
    for label, sigma in cases + every:
        exact = spectrum_an(label, sigma)
        numeric = spectrum_an_numeric(label, sigma)
        assert exact == numeric and hash(exact) == hash(numeric)
        assert min_poly(exact) == min_poly(numeric)


def test_spectrum_an_numeric_restricted_labels():
    for n in range(2, 9):
        for label in an_irreducible_labels(n):
            if label.variant == "restricted":
                for mu in enumerate_partitions(n):
                    sigma = CycleType.from_partition(mu)
                    if sigma.is_even():
                        assert spectrum_an_numeric(label, sigma) == spectrum_an(label, sigma)


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


def test_fixed_space_dim_large_n(monkeypatch):
    # n = 60, order 1021020: most powers sigma^d are rich in fixed points
    lam = parse_partition("10,9,8,7,6,5,4,3^2,2,1^3")
    sigma = parse_cycle_type("17^1 13^1 11^1 7^1 5^1 4^1 3^1")
    assert sigma.order() == 1021020
    # the fixed space needs phi(r/d) alone, not the Ramanujan transform of a whole spectrum
    monkeypatch.setattr(spectral, "_ramanujan", None)
    assert fixed_space_dim(lam, sigma) == 1252728188828998435411086655244520


@pytest.mark.parametrize("dim", [-1, 6], ids=["negative", "above-degree"])
def test_fixed_space_dim_outside_zero_to_degree_is_an_internal_error(monkeypatch, dim):
    # 3,2 has degree 5: a fixed space of -1 or 6 dimensions is a bug of the sums, not an answer
    monkeypatch.setattr(spectral, "_sums_at", lambda lam, sigma, weigh: [dim])
    with pytest.raises(RuntimeError, match=rf"^fixed space dimension {dim} outside 0..degree \(internal bug\)$"):
        fixed_space_dim(parse_partition("3,2"), parse_cycle_type("2^2 1^1"))


def test_a_ramanujan_sum_off_by_one_is_caught_by_the_exact_division(monkeypatch):
    # one sum moved by 1 is no longer divisible by r > 1, and _divide says so, in one query and in a sweep
    real = spectral._ramanujan

    def off_by_one(r, entries):
        sums = real(r, entries)
        sums[0] += 1  # the first row's sum: in a sweep's packed column, its lowest lane
        return sums

    monkeypatch.setattr(spectral, "_ramanujan", off_by_one)
    monkeypatch.setattr(classify, "_ramanujan", off_by_one)
    message = r"^non-integer multiplicity \(internal bug\)$"
    with pytest.raises(RuntimeError, match=message):
        spectrum_sn(parse_partition("3,2"), parse_cycle_type("3^1 2^1"))
    with pytest.raises(RuntimeError, match=message):
        classify.verify_minpoly_sn(6, min_n=6)


def test_sweep_sums_agree_with_single_queries_on_every_class():
    # the sweep's plan keys each power sigma^d by its (length, count) pairs; every class of S_7
    # and S_8, as pairs, gives per partition the per-divisor multiplicities of spectrum_sn
    for n in (7, 8):
        lams = enumerate_partitions(n)
        classes = [CycleType.from_partition(mu) for mu in lams]
        lanes, sweep = spectral._sweep_sums([lam.parts for lam in lams], [sigma.cycles for sigma in classes],
                                            spectral._ramanujan)
        for sigma, by_gcd in zip(classes, sweep, strict=True):
            assert all(map(lanes.fits, by_gcd))
            assert [[lanes.lane(q, i) for q in by_gcd] for i in range(len(lams))] == [
                list(spectrum_sn(lam, sigma)._compact[1]) for lam in lams]


@pytest.mark.parametrize("sums", [[-3, 3], [1, -1], [5, 0, -1], [1], [0, 0, 3]])
def test_divide_refuses_a_remainder_on_mixed_sign_columns(sums):
    # floor quotients make every slack x - 2 * (x // 2) lie in [0, 2), so opposite remainders cannot cancel
    with pytest.raises(RuntimeError, match=r"^non-integer multiplicity \(internal bug\)$"):
        spectral._divide(sums, 2)


def test_divide_returns_the_quotients_of_exact_columns():
    assert spectral._divide([4, -6, 0, 2], 2) == [2, -3, 0, 1]
    assert spectral._divide([-9, 3, 27], 3) == [-3, 1, 9]
    assert spectral._divide([7, -5], 1) == [7, -5]
    assert spectral._divide([], 5) == []


def test_sweep_fixed_space_agrees_with_single_queries_on_every_class():
    # the eigenvalue-one sweep's weighing: per class of S_7 and S_8, each row's packed dimension is fixed_space_dim
    for n in (7, 8):
        lams = enumerate_partitions(n)
        classes = [CycleType.from_partition(mu) for mu in lams]
        lanes, sweep = spectral._sweep_sums([lam.parts for lam in lams], [sigma.cycles for sigma in classes],
                                            spectral._fixed_space)
        for sigma, (dims,) in zip(classes, sweep, strict=True):
            assert lanes.fits(dims)
            assert [lanes.lane(dims, i) for i in range(len(lams))] == [fixed_space_dim(lam, sigma) for lam in lams]


def _signed_lanes(lanes, packed, rows):
    # packed + top holds each entry v as v + 2^(w - 1), in 0 .. 2^w: one unsigned lane each
    return [lanes.lane(packed + lanes.top, i) - (1 << lanes.w - 1) for i in range(rows)]


@pytest.mark.parametrize("r, scale, w", [(3, 1 << 40, 64), (3, 1 << 100, 128), (1 << 30, 1 << 100, 192)])
def test_lanes_pack_divide_and_refuse_at_every_width(r, scale, w):
    # synthetic columns near +-scale, so r * bound takes 42, 102 or 131 bits: 64-bit lanes (from an array) or 128-
    # and 192-bit lanes (from joined bytes), which the sweeps first need at n = 34; checked as a class of order r
    degrees = [scale + 7, scale - 3, 12, 1]
    lanes = spectral._Lanes(r, [degrees], 0)
    pack = lambda column: lanes.pack([column])[0]
    assert lanes.w == w and lanes.bound == scale + 7 and lanes.degrees == pack(degrees)
    for column in (degrees, [scale + 7, -scale - 7, 0, -1], [-1, 1, -scale, scale]):
        assert _signed_lanes(lanes, pack(column), 4) == column
    # the exact sums r * degrees divide back lane by lane, and the quotient fits
    q = spectral._divide([r * lanes.degrees], r)[0]
    assert q == lanes.degrees and lanes.fits(q) and [lanes.lane(q, i) for i in range(4)] == degrees
    assert list(lanes.zeros(pack([0, 5, 0, 1]))) == [2, 0] and list(lanes.zeros(lanes.degrees)) == []
    # one column per divisor g of r, all 0 but the one at g = r, weighed by phi(1) = 1: the degrees
    columns = [0] * (len(spectral._phis(r)) - 1) + [lanes.degrees]
    spectral._check_counts(r, columns, lanes)
    bug = r" \(internal bug\)$"
    with pytest.raises(RuntimeError, match="^non-integer multiplicity" + bug):
        spectral._divide([r * lanes.degrees + 1], r)
    # a row's remainder in lane 1 leaves one in the int unless r divides 2^w; then lane 0 of the quotient takes
    # 2^w / r, far above the bound
    if (1 << w) % r:
        with pytest.raises(RuntimeError, match="^non-integer multiplicity" + bug):
            spectral._divide([r * lanes.degrees + (1 << w)], r)
    else:
        assert not lanes.fits(spectral._divide([r * lanes.degrees + (1 << w)], r)[0])
    # a negative lane; a lane just above the bound, or at 2^(w - 1) / r; a negative quotient; one past the lanes
    for wrong in (pack([0, 0, -1, 0]), scale + 8 << 2 * w, (1 << w - 1) // r << 3 * w, -1, 1 << 4 * w):
        assert not lanes.fits(wrong)
        with pytest.raises(RuntimeError, match="^negative multiplicity" + bug):
            spectral._check_counts(r, [wrong] + columns[1:], lanes)
    with pytest.raises(RuntimeError, match="^multiplicities must sum to the degree" + bug):
        spectral._check_counts(r, columns[:-1] + [lanes.degrees + (1 << w)], lanes)
    for column in ([scale + 8, 0, 0, 0], [0, 0, 0, -scale - 8]):
        with pytest.raises(RuntimeError, match="^character value above the degree bound" + bug):
            lanes.pack([column])


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


# A fixed set of single queries at n = 24..32; the split cases alternate a label's
# distinguished class with another even class
SPECTRUM_CASES = [
    ("12,4,3^2,2", "9^1 2^1 1^13"), ("4^2,3,2^3,1^8", "7^1 5^1 4^1 3^2 2^1 1^1"),
    ("4,3,2^8,1^3", "4^4 3^1 2^3 1^1"), ("23,2,1^2", "6^1 3^1 2^3 1^12"), ("20,6,2", "5^1 4^3 3^1 2^2 1^4"),
    ("8,7,6,4,1^4", "10^1 7^1 3^2 2^3"), ("9,7,3^4,1^2", "14^1 8^1 4^2"),
    ("14,4,3^3,2^2", "7^1 5^1 3^3 2^4 1^2"), ("7^2,6,3^2,1^6", "7^3 6^1 3^1 2^1"),
]
FIXDIM_CASES = [
    ("7,3,2^4,1^6", "6^3 3^1 2^1 1^1"), ("7,4^2,3^2,2^2", "7^2 3^1 2^1 1^6"), ("5^4,4,2", "3^2 2^7 1^6"),
    ("14,5,2^3,1^2", "13^1 5^1 3^1 2^1 1^4"), ("3^6,2^2,1^6", "6^3 4^1 2^1 1^4"),
    ("7,5^4,1^2", "9^1 8^1 5^1 2^2 1^3"), ("6^2,3^4,1^6", "6^4 2^1 1^4"),
    ("6,5^2,4,3,2,1^6", "6^1 5^1 3^5 2^1 1^3"), ("5^4,3,2^3,1^3", "6^2 5^2 3^2 2^1 1^2"),
]
SPLIT_CASES = [
    ("5^4,4", "9^1 7^1 5^1 3^1"), ("5^4,4", "10^1 4^2 2^3"),
    ("8,5,4,3,2,1^3", "15^1 7^1 3^1"), ("8,5,4,3,2,1^3", "5^3 3^1 1^7"),
    ("8,5,4^2,2,1^3", "15^1 7^1 3^1 1^1"), ("8,5,4^2,2,1^3", "9^1 6^2 1^5"),
    ("10,4^2,3,1^6", "19^1 5^1 3^1"), ("10,4^2,3,1^6", "7^3 3^1 1^3"),
    ("9,5,4^2,2,1^4", "17^1 7^1 3^1 1^1"), ("9,5,4^2,2,1^4", "7^1 2^4 1^13"),
    ("8,7,4,3,2^3,1", "15^1 11^1 3^1"), ("8,7,4,3,2^3,1", "14^1 5^1 2^3 1^4"),
    ("9,6,4^2,2^2,1^3", "17^1 9^1 3^1 1^1"), ("9,6,4^2,2^2,1^3", "8^1 3^3 2^1 1^11"),
    ("6^3,5^2,3", "11^1 9^1 7^1 3^1 1^1"), ("6^3,5^2,3", "19^1 8^1 4^1"),
    ("14,4,2^2,1^10", "27^1 5^1"), ("14,4,2^2,1^10", "7^1 5^1 4^2 3^3 1^3"),
]


def _spectrum_answer(lam, sigma):
    profile = spectrum_sn(lam, sigma)
    return [list(profile.mult), min_poly(profile).rendered]


def _split_answer(lam, sigma):
    return [list(spectrum_an(label, sigma).mult) for label in AnCharacterLabel.split_pair(lam)]


# sha256 of json.dumps of the answers, one per case in order: the query bytes must not drift
QUERY_DIGESTS = [
    (_spectrum_answer, SPECTRUM_CASES, "4de46756ca23d2d09869d5d05d807d6de033a5709562456e6917d90b25cda0bc"),
    (fixed_space_dim, FIXDIM_CASES, "4a54c28cc48a317cc8ac7f2c29f726a7914d802180944f2caa3ebb7ad96b9a20"),
    (_split_answer, SPLIT_CASES, "7d2dfd17325f4ccd1959c6a50e860637fe1cbfdb840a9059ff987c82ed81a3f4"),
]


@pytest.mark.parametrize("query, cases, digest", QUERY_DIGESTS, ids=["spectrum_sn", "fixdim", "spectrum_an"])
def test_query_bytes_are_pinned(query, cases, digest):
    answers = [query(parse_partition(lam), parse_cycle_type(sigma)) for lam, sigma in cases]
    assert hashlib.sha256(json.dumps(answers).encode()).hexdigest() == digest


def test_json_writer_matches_json_dumps(capsys):
    # the command line's one JSON writer: each profile stands for its mult list and each iterator for
    # the list of its items; the bytes are json.dumps(sort_keys=True, indent=2) of the plain form, on an
    # S_n profile, both halves of a pair with d != 1 (3,1^2 at 5^1), a stream of bound report dicts (as
    # bounds --format json writes them) and an empty stream
    sn = spectrum_sn(parse_partition("6,3,1"), parse_cycle_type("5^2"))
    halves = [spectrum_an(label, parse_cycle_type("5^1"))
              for label in AnCharacterLabel.split_pair(parse_partition("3,1^2"))]
    assert sn._compact[0] == 1 and all(half._compact[0] == 5 for half in halves)
    reports = [rep.to_json_dict() for rep in sweep_robbins(3)]
    objects = [
        ({"group": "sn", **sn.to_json_dict(), "mult": sn}, {"group": "sn", **sn.to_json_dict()}),
        ({"spectra": [{"label": str(i), **half.to_json_dict(), "mult": half} for i, half in enumerate(halves)]},
         {"spectra": [{"label": str(i), **half.to_json_dict()} for i, half in enumerate(halves)]}),
        ((rep for rep in reports), reports),
        (iter(()), []),
    ]
    for stand_in, plain in objects:
        cli._write_json(stand_in)
        assert capsys.readouterr().out == json.dumps(plain, sort_keys=True, indent=2) + "\n"


@st.composite
def _query_pairs(draw):
    """(lam, sigma) at n = 20..40, sigma of order at most 2000: a drawn cycle that would lift the
    order past it becomes a fixed point."""
    n = draw(st.integers(min_value=20, max_value=40))
    parts, rest = [], n
    while rest:
        parts.append(draw(st.integers(min_value=1, max_value=min(rest, parts[-1] if parts else rest))))
        rest -= parts[-1]
    lengths, order = [], 1
    while sum(lengths) < n:
        k = draw(st.integers(min_value=1, max_value=n - sum(lengths)))
        k = k if math.lcm(order, k) <= 2000 else 1
        lengths.append(k)
        order = math.lcm(order, k)
    return Partition(tuple(parts)), CycleType.from_lengths(lengths)


@seed(20)
@settings(max_examples=40, deadline=None)
@given(_query_pairs())
def test_shared_row_equals_one_row_per_power(pair):
    # spectrum_sn and fixed_space_dim read every power from one trie of removals; here each power
    # sigma^d is a separate chi call, and r * mult[j] = sum_{d | r} chi(sigma^d) * c_{r/d}(j) for every j
    lam, sigma = pair
    r = sigma.order()
    assert r <= 2000
    values = {d: chi(lam, sigma.power(d)) for d in divisors(r)}
    sums = [sum(v * ramanujan_sum(r // d, j) for d, v in values.items()) for j in range(r)]
    assert not any(total % r for total in sums)
    assert spectrum_sn(lam, sigma).mult == tuple(total // r for total in sums)
    assert fixed_space_dim(lam, sigma) == sums[0] // r


def _seeded_partition(rng, n):
    # a random composition of n, sorted: each of the n - 1 gaps is a cut with probability 1/2
    parts, run = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 0
        run += 1
    return Partition(tuple(sorted(parts + [run], reverse=True)))


def _seeded_class(rng, n, cap, even=False):
    while True:
        sigma = CycleType.from_partition(_seeded_partition(rng, n))
        if sigma.order() <= cap and (sigma.is_even() or not even):
            return sigma


def _seeded_self_conjugate(rng, n):
    # distinct odd diagonal hooks h_1 > h_2 > ... summing to n, drawn among all such sets; then row i
    # (from 1) is (h_i - 1)/2 + i on the diagonal and, below it, the number of diagonal rows that long
    sets = [[()]] + [[] for _ in range(n)]
    for h in range(1, n + 1, 2):
        for m in range(n - h, -1, -1):
            sets[m + h] += [(h,) + hooks for hooks in sets[m]]
    hooks = rng.choice(sets[n])
    rows = [(h - 1) // 2 + i for i, h in enumerate(hooks, start=1)]
    rows += [sum(row >= j for row in rows) for j in range(len(hooks) + 1, rows[0] + 1)]
    return Partition(tuple(rows)), CycleType.from_lengths(hooks)


def test_seeded_single_queries_are_pinned():
    # three times per n = 24..40: a spectrum (mult and min_poly rendering), a fixed space and both halves of a split pair,
    # at the pair's distinguished class or at another even class, all of order at most 2 000: the
    # single-query answers must not drift whatever order a row removes its cycles in
    rng = random.Random(37)
    answers = []
    for n in [n for n in range(24, 41) for _ in range(3)]:
        lam, sigma = _seeded_partition(rng, n), _seeded_class(rng, n, 2000)
        profile = spectrum_sn(lam, sigma)
        answers.append([str(lam), str(sigma), list(profile.mult), min_poly(profile).rendered])
        lam, sigma = _seeded_partition(rng, n), _seeded_class(rng, n, 2000)
        answers.append([str(lam), str(sigma), fixed_space_dim(lam, sigma)])
        lam, special = _seeded_self_conjugate(rng, n)
        sigma = special if rng.random() < 0.5 else _seeded_class(rng, n, 2000, even=True)
        answers.append([str(lam), str(sigma)] + [list(spectrum_an(label, sigma).mult)
                                                 for label in AnCharacterLabel.split_pair(lam)])
    assert len(answers) == 153
    assert hashlib.sha256(json.dumps(answers).encode()).hexdigest() == "26ccdd17f50f392ba544137e8aa7cdd84ea5a3e2a7a979e0eaa1fdee986eeac7"


def test_power_listing_matches_the_composed_permutation(monkeypatch):
    # for every d | r, the pieces a row lists for sigma^d are the cycle lengths above 1 of sigma's
    # canonical permutation composed d times, as multisets (not CycleType.power: the listing must
    # stand on its own, and power shares the helper the listing replaced)
    listed = []
    real = spectral._chi_row
    monkeypatch.setattr(spectral, "_chi_row", lambda mask, columns: listed.append(columns) or real(mask, columns))
    rng = random.Random(11)
    for n in [n for n in range(1, 41) for _ in range(3)]:
        lengths, left = [], n  # each cycle drawn uniformly from what is left: long and distinct ones, large r
        while left:
            lengths.append(rng.randint(1, left))
            left -= lengths[-1]
        sigma = CycleType.from_lengths(lengths)
        fixed_space_dim(Partition((n,)), sigma)
        image = [k - 1 for k in sigma.permutation()]
        columns = listed.pop()
        assert len(columns) == len(divisors(sigma.order()))
        for d, pieces in zip(divisors(sigma.order()), columns):
            power, square, e = list(range(n)), image, d  # image composed d times, by squaring
            while e:
                power = [square[x] for x in power] if e & 1 else power
                square, e = [square[x] for x in square], e >> 1
            lengths, seen = [], set()
            for start in range(n):
                x, length = start, 0
                while x not in seen:
                    seen.add(x)
                    x, length = power[x], length + 1
                if length > 1:
                    lengths.append(length)
            assert sorted(pieces) == sorted(lengths), (sigma, d)
