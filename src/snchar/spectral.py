"""Eigenvalue multiplicities and minimal polynomials of permutation images.

A permutation sigma of order r maps, under the irreducible representation
labeled by lam, to a matrix of finite order, hence diagonalizable with
eigenvalues among the r-th roots of unity zeta^j. Averaging characters over
the cyclic group generated by sigma gives

    r * mult[j] = sum_{i=0}^{r-1} chi(sigma^i) * zeta^{-ij}.

Since the cycle type of sigma^i only depends on gcd(i, r), the inner sums
collapse to Ramanujan sums and the whole computation stays in the integers:

    r * mult[j] = sum_{d | r} chi(type of sigma^d) * c_{r/d}(j).

A Ramanujan sum c_q(j) depends on j only through gcd(j, q), so mult[j]
depends on j only through g = gcd(j, r). Each profile is therefore computed
once per divisor g of r,

    r * mult_g = sum_{d | r} chi(type of sigma^d) * c_{r/d}(g),

from a per-r table of the integers c_{r/d}(g), and then spread over the r
residues; the fixed space dimension is the entry g = r. The divisors of r
and the cycle lengths of every sigma^d are built once per class and kept in
a bounded cache, so a sweep over the partitions at one class powers it once.

Every division is checked to be exact; a remainder signals a bug, never a
rounding problem. spectrum_sn_direct recomputes profiles by reducing the
defining sums in the cyclotomic ring (no Ramanujan sums) and is kept as an
independent slow route for tests.

For split alternating group labels the same average needs the two conjugate
character values on powers hitting the distinguished class (exactly the
powers sigma^i with gcd(i, r) = 1 when sigma itself is distinguished). Their
surd parts are assembled exactly from quadratic Gauss sums: with diagonal
hook lengths a_1 .. a_l and G_a = sum_t zeta_r^{(r/a) t^2}, the product of
the G_{a_i}, corrected by -1 when the number of hooks congruent to 3 mod 4
is 2 or 3 mod 4, is an exponent vector for the principal square root needed.
The correction term

    T(j) = sum_k g_k * c_r(k - j)

is integral and r * mult_plus/minus[j] = (r * mult_lam[j] +- T(j)) / 2.
T is evaluated at every residue j, with c_r read off the same table: it is
not confined to the primitive r-th roots (for 5,1^4 at 9^1 the two halves
already differ at j = 0, 3 and 6).
spectrum_an_numeric cross checks this path in floating point, deciding each
conjugate's sign with a quadratic residue symbol instead of Gauss sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache

from .characters_an import (
    MINUS,
    PLUS,
    RESTRICTED,
    AnCharacterLabel,
    _factorize,
    special_class,
    split_square,
)
from .characters_sn import _chi_tuples, chi, degree
from .partitions import CycleType, Partition, diagonal_hooks

__all__ = [
    "SpectrumProfile",
    "MinPoly",
    "divisors",
    "moebius",
    "euler_phi",
    "cyclotomic",
    "ramanujan_sum",
    "kronecker_symbol",
    "spectrum_sn",
    "spectrum_sn_direct",
    "spectrum_an",
    "spectrum_an_numeric",
    "min_poly",
    "render_min_poly",
    "fixed_space_dim",
]


@lru_cache(maxsize=1024)
def divisors(q: int) -> tuple[int, ...]:
    if q < 1:
        raise ValueError("q must be positive")
    divs = [1]
    for p, e in _factorize(q):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def moebius(q: int) -> int:
    if q < 1:
        raise ValueError("q must be positive")
    fac = _factorize(q)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(q: int) -> int:
    if q < 1:
        raise ValueError("q must be positive")
    out = q
    for p, _ in _factorize(q):
        out = out // p * (p - 1)
    return out


def ramanujan_sum(q: int, j: int) -> int:
    """Sum of the j-th powers of the primitive q-th roots of unity."""
    if q < 1:
        raise ValueError("q must be positive")
    g = math.gcd(j, q)
    return sum(d * moebius(q // d) for d in divisors(g))


def _polydivmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending coefficients)
    by a monic divisor."""
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        quot[i - dd] = c
        if c:
            for k in range(dd + 1):
                rem[i - dd + k] -= c * den[k]
    return quot, rem[:dd]


@cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, ascending."""
    if d < 1:
        raise ValueError("d must be positive")
    poly = [-1] + [0] * (d - 1) + [1]
    for e in divisors(d)[:-1]:
        poly, rem = _polydivmod(poly, cyclotomic(e))
        assert not any(rem), "nonzero remainder in exact division"
    return tuple(poly)


def kronecker_symbol(a: int, m: int) -> int:
    """The quadratic residue symbol (a | m) for m > 0."""
    if m <= 0:
        raise ValueError("m must be positive")
    result = 1
    while m % 2 == 0:
        m //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


@dataclass(frozen=True)
class SpectrumProfile:
    """Eigenvalue multiplicities of a permutation image: mult[j] counts the
    eigenvalue exp(2*pi*i*j/r), and r is the permutation's order."""

    r: int
    mult: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        if self.r < 1 or len(self.mult) != self.r:
            raise ValueError("mult must list one entry per r-th root")
        if any(m < 0 for m in self.mult):
            raise RuntimeError("negative multiplicity (internal bug)")
        if sum(self.mult) != self.degree:
            raise RuntimeError("multiplicities must sum to the degree (internal bug)")

    def support(self) -> frozenset[int]:
        return frozenset(j for j, m in enumerate(self.mult) if m)

    def to_json_dict(self) -> dict:
        return {"r": self.r, "degree": self.degree, "mult": list(self.mult)}


@dataclass(frozen=True)
class MinPoly:
    """Minimal polynomial of a finite order matrix, as the set of exponents j
    of its eigenvalues exp(2*pi*i*j/r)."""

    r: int
    roots: frozenset[int]

    def __post_init__(self) -> None:
        if self.r < 1 or not self.roots or any(not 0 <= j < self.r for j in self.roots):
            raise ValueError("roots must be a nonempty subset of range(r)")

    @property
    def rendered(self) -> str:
        return render_min_poly(self)

    def is_full(self) -> bool:
        return len(self.roots) == self.r

    def to_json_dict(self) -> dict:
        return {"r": self.r, "roots": sorted(self.roots), "rendered": self.rendered}


@lru_cache(maxsize=256)
def _ramanujan_table(r: int) -> tuple[tuple[int, ...], ...]:
    """Row k lists c_{r/d}(g) for the k-th divisor g of r, over the divisors d of r."""
    divs = divisors(r)
    return tuple(tuple(ramanujan_sum(r // d, g) for d in divs) for g in divs)


@lru_cache(maxsize=1024)
def _class_powers(sigma: CycleType) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The divisors d of sigma's order and, for each, the cycle lengths of
    sigma^d, longest first: the classes every spectrum at sigma reads."""
    divs = divisors(sigma.order())
    return divs, tuple(sigma.power(d).lengths() for d in divs)


def _mult_by_gcd(lam: Partition, sigma: CycleType, rows: range | tuple[int, ...]) -> list[int]:
    """Multiplicity of the eigenvalues zeta^j with gcd(j, r) = g, for the
    divisors g of r at the positions rows: r * mult_g = sum_{d | r} chi(sigma^d) * c_{r/d}(g)."""
    divs, powers = _class_powers(sigma)
    r = divs[-1]
    chis = [_chi_tuples(lam.parts, cycles) for cycles in powers]
    table = _ramanujan_table(r)
    out = []
    for k in rows:
        q, rem = divmod(sum(x * c for x, c in zip(chis, table[k])), r)
        if rem:
            raise RuntimeError("non-integer multiplicity (internal bug)")
        out.append(q)
    return out


def spectrum_sn(lam: Partition, sigma: CycleType) -> SpectrumProfile:
    """Exact eigenvalue multiplicities of a symmetric group irreducible at sigma."""
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    divs = _class_powers(sigma)[0]
    r = divs[-1]
    by_gcd = dict(zip(divs, _mult_by_gcd(lam, sigma, range(len(divs)))))
    mult = tuple(by_gcd[math.gcd(j, r)] for j in range(r))
    return SpectrumProfile(r, mult, degree(lam))


def spectrum_sn_direct(lam: Partition, sigma: CycleType) -> SpectrumProfile:
    """Independent slow route: reduce the eigenvalue counting sums in the
    cyclotomic ring and insist every Galois conjugate reduces identically."""
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    r = sigma.order()
    chis = [chi(lam, sigma.power(i)) for i in range(r)]
    phi_r = cyclotomic(r)
    units = [u for u in range(1, r + 1) if math.gcd(u, r) == 1]
    mult = []
    for j in range(r):
        vec = [0] * r
        for i in range(r):
            vec[(-i * j) % r] += chis[i]
        rem0 = _polydivmod(vec, phi_r)[1]
        for u in units:
            gvec = [0] * r
            for k, c in enumerate(vec):
                if c:
                    gvec[(k * u) % r] += c
            if _polydivmod(gvec, phi_r)[1] != rem0:
                raise RuntimeError("eigenvalue count is not Galois stable (internal bug)")
        if any(rem0[1:]):
            raise RuntimeError("eigenvalue count is not rational (internal bug)")
        const = rem0[0] if rem0 else 0
        q, rem = divmod(const, r)
        if rem:
            raise RuntimeError("non-integer multiplicity (internal bug)")
        mult.append(q)
    return SpectrumProfile(r, tuple(mult), degree(lam))


def _cyclic_mul(u: list[int], v: list[int], r: int) -> list[int]:
    out = [0] * r
    for i, ci in enumerate(u):
        if ci:
            for k, ck in enumerate(v):
                if ck:
                    out[(i + k) % r] += ci * ck
    return out


def _principal_sqrt_vector(hooks: tuple[int, ...], r: int) -> list[int]:
    """Exponent vector (over the r-th roots of unity) of the principal square
    root of chi(distinguished) * product(hooks).

    Each odd a contributes the Gauss sum G_a whose square is (-1)^((a-1)/2)*a;
    the product over all hooks is off from the principal root by -1 exactly
    when the count of hooks congruent to 3 mod 4 is 2 or 3 modulo 4.
    """
    vec = [0] * r
    vec[0] = 1
    bad = 0
    for a in hooks:
        assert a % 2 == 1 and r % a == 0
        if a % 4 == 3:
            bad += 1
        if a == 1:
            continue
        gauss = [0] * r
        step = r // a
        for t in range(a):
            gauss[(step * t * t) % r] += 1
        vec = _cyclic_mul(vec, gauss, r)
    if bad % 4 in (2, 3):
        vec = [-c for c in vec]
    return vec


def spectrum_an(label: AnCharacterLabel, sigma: CycleType) -> SpectrumProfile:
    """Exact eigenvalue multiplicities of an alternating group irreducible.

    For a split label on a class that splits, the profile belongs to the
    class of the canonical representative; the companion class has plus and
    minus swapped.
    """
    lam = label.partition
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    if not sigma.is_even():
        raise ValueError(f"class {sigma} is odd, not in the alternating group")
    base = spectrum_sn(lam, sigma)
    if label.variant == RESTRICTED:
        return base
    r = base.r
    if sigma != special_class(lam):
        if any(m % 2 for m in base.mult):
            raise RuntimeError("odd multiplicity away from the distinguished class (internal bug)")
        return SpectrumProfile(r, tuple(m // 2 for m in base.mult), base.degree // 2)
    g = _principal_sqrt_vector(diagonal_hooks(lam), r)
    sign = 1 if label.variant == PLUS else -1
    # c_r(m) depends on m only through gcd(m, r): column d = 1 of the table
    c_r = dict(zip(divisors(r), (row[0] for row in _ramanujan_table(r))))
    c_r_res = [c_r[math.gcd(m, r)] for m in range(r)]
    terms = [(k, c) for k, c in enumerate(g) if c]
    mult = []
    for j in range(r):
        t = sum(c * c_r_res[k - j] for k, c in terms)  # a negative index wraps mod r
        q, rem = divmod(r * base.mult[j] + sign * t, 2 * r)
        if rem:
            raise RuntimeError("non-integer split multiplicity (internal bug)")
        mult.append(q)
    return SpectrumProfile(r, tuple(mult), base.degree // 2)


# relative slack within which spectrum_an_numeric snaps a multiplicity to an integer
_SNAP = 1e-6


def spectrum_an_numeric(label: AnCharacterLabel, sigma: CycleType) -> SpectrumProfile:
    """Floating point cross check of spectrum_an.

    The conjugate surd values on powers hitting the distinguished class are
    resolved with a quadratic residue symbol (for squarefree d = 1 mod 4 the
    conjugation by i multiplies sqrt(d) by (d | i)), so this route shares no
    exact machinery with the Gauss sum path. Values are snapped to integers
    within the relative slack _SNAP.
    """
    lam = label.partition
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    if not sigma.is_even():
        raise ValueError(f"class {sigma} is odd, not in the alternating group")
    r = sigma.order()
    if label.variant == RESTRICTED:
        values = [complex(chi(lam, sigma.power(i))) for i in range(r)]
    else:
        sp = special_class(lam)
        sgn = 1 if label.variant == PLUS else -1
        eps = chi(lam, sp)
        b, d = split_square(eps * math.prod(diagonal_hooks(lam)))
        assert d % 4 == 1
        root = b * (math.sqrt(d) if d > 0 else 1j * math.sqrt(-d))
        values = []
        for i in range(r):
            t = sigma.power(i)
            x = chi(lam, t)
            if t == sp:
                values.append((x + sgn * kronecker_symbol(d, i) * root) / 2)
            else:
                values.append(complex(x) / 2)
    # each average sums r terms of size at most scale, with the angle reduced
    # mod r: its rounding error stays below (r + 2) * scale * ulp(1.0)
    scale = max(abs(v) for v in values)
    if (r + 2) * scale * math.ulp(1.0) > 0.25:
        raise ValueError(
            f"float resolution lost: character values up to {scale:.3g} averaged over "
            f"{r} powers cannot be snapped to integers; use spectrum_an"
        )
    mult = []
    for j in range(r):
        acc = sum(values[i] * cmath.exp(-2j * math.pi * (i * j % r) / r) for i in range(r)) / r
        nearest = round(acc.real)
        if abs(acc - nearest) > _SNAP * max(1.0, abs(acc)):
            raise RuntimeError(f"numeric multiplicity {acc} does not snap to an integer")
        mult.append(nearest)
    deg = degree(lam) if label.variant == RESTRICTED else degree(lam) // 2
    return SpectrumProfile(r, tuple(mult), deg)


def min_poly(profile: SpectrumProfile) -> MinPoly:
    """Minimal polynomial support; finite order matrices are diagonalizable,
    so the minimal polynomial is squarefree with the spectrum as root set."""
    return MinPoly(profile.r, profile.support())


def _poly_str(coeffs: tuple[int, ...]) -> str:
    """Render ascending integer coefficients as a readable polynomial in x."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            var = "x" if e == 1 else f"x^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(terms) if terms else "0"


def render_min_poly(mp: MinPoly) -> str:
    """Human readable minimal polynomial.

    Full spectrum renders as x^r-1. A missing set closed under the Galois
    action (all j of equal gcd with r together) divides out cyclotomic
    factors; anything else divides out explicit root atoms x-zr^j.
    """
    r = mp.r
    if mp.is_full():
        return "x-1" if r == 1 else f"x^{r}-1"
    comp = sorted(set(range(r)) - mp.roots)
    # the j with gcd(j, r) = g are the phi(r/g) exponents of the primitive (r/g)-th roots
    missing_by_gcd: dict[int, int] = {}
    for j in comp:
        g = math.gcd(j, r)
        missing_by_gcd[g] = missing_by_gcd.get(g, 0) + 1
    galois_closed = all(count == euler_phi(r // g) for g, count in missing_by_gcd.items())
    whole = f"x^{r}-1"
    if galois_closed:
        orders = sorted(r // g for g in missing_by_gcd)
        rendered = [_poly_str(cyclotomic(d)) for d in orders]
        if len(rendered) == 1:
            return f"({whole})/({rendered[0]})"
        return f"({whole})/({''.join(f'({p})' for p in rendered)})"
    atoms = "".join(f"(x-z{r}^{j})" for j in comp)
    if len(comp) == 1:
        return f"({whole})/{atoms}"
    return f"({whole})/({atoms})"


def fixed_space_dim(lam: Partition, sigma: CycleType) -> int:
    """Dimension of the fixed space of sigma's image (multiplicity of eigenvalue 1)."""
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    # the gcd r is the last divisor of r
    return _mult_by_gcd(lam, sigma, (-1,))[0]
