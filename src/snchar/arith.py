"""Integer arithmetic behind the eigenvalue formulas: Moebius and phi for the
Ramanujan sums, squarefree parts for the surds of split alternating
characters, cyclotomic polynomials for rendered minimal polynomials. All
factoring goes through _factorize, which rejects q < 1 with a ValueError and
keeps a bounded cache. The surd b*sqrt(d) of a split pair at its
distinguished class is formed and checked once, by _split_surd, for both the
character values and the split spectra. This module imports nothing else
from the package.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

__all__ = [
    "divisors",
    "moebius",
    "euler_phi",
    "split_square",
    "kronecker_symbol",
    "cyclotomic",
]


@lru_cache(maxsize=1024)
def _factorize(q: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of q >= 1 as (prime, exponent) pairs, by trial division."""
    if q < 1:
        raise ValueError("q must be positive")
    out = []
    m = q
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def _divisors_by_exponent(q: int) -> list[int]:
    """The divisors of q in exponent order: the exponent of the last prime of _factorize(q) runs fastest."""
    divs = [1]
    for p, e in _factorize(q):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return divs


@lru_cache(maxsize=1024)
def divisors(q: int) -> tuple[int, ...]:
    return tuple(sorted(_divisors_by_exponent(q)))


def moebius(q: int) -> int:
    fac = _factorize(q)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(q: int) -> int:
    out = q
    for p, _ in _factorize(q):
        out = out // p * (p - 1)
    return out


def split_square(c: int) -> tuple[int, int]:
    """Write c = b*b*d with b > 0 and d squarefree; the sign of c stays in d."""
    if c == 0:
        raise ValueError("zero has no squarefree part")
    b, d = 1, (1 if c > 0 else -1)
    for p, e in _factorize(abs(c)):
        b *= p ** (e // 2)
        if e % 2:
            d *= p
    return b, d


def _split_surd(eps: int, hooks) -> tuple[int, int]:
    """(b, d) with b*b*d = eps * prod(hooks), d squarefree and 1 mod 4: the halves of a split
    pair at its distinguished class, whose cycle lengths are the diagonal hooks and where the
    parent value is eps = +-1, are (eps +- b*sqrt(d)) / 2."""
    if abs(eps) != 1:
        raise RuntimeError("parent value on the distinguished class must be +-1 (internal bug)")
    b, d = split_square(eps * math.prod(hooks))
    if d % 4 != 1:
        raise RuntimeError("the surd of a split character must be 1 mod 4 (internal bug)")
    return b, d


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


def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, ascending: for d > 1 the
    power series prod_{e | d} (1 - x^e)^mu(d/e), built in place up to degree phi(d)."""
    if d == 1:
        return (-1, 1)
    n = euler_phi(d)
    poly = [1] + [0] * n
    for e in divisors(d):
        mu = moebius(d // e)
        if not mu or e > n:
            continue
        if mu == 1:  # times 1 - x^e: poly[i] -= poly[i - e], read before any write
            poly[e:] = map(operator.sub, poly[e:], poly[: n + 1 - e])
        else:  # over 1 - x^e, times sum_k x^(ke): poly[i] += poly[i - e], block by block upwards
            for i in range(e, n + 1, e):
                poly[i : i + e] = map(operator.add, poly[i : i + e], poly[i - e : i])
    if poly[n] != 1 or poly != poly[::-1]:
        raise RuntimeError(f"cyclotomic polynomial of order {d} is not monic and palindromic (internal bug)")
    return tuple(poly)
