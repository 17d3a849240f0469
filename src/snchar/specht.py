"""Integral matrices of permutations acting on Specht modules.

This is an oracle that never touches the character machinery: the matrix of
sigma on the standard polytabloid basis is computed in integers only, and
eigenvalue data is read off from kernel ranks of M(sigma^k) - I. Traces and
minimal polynomials computed here give an independent confirmation of the
character based routes.

The polytabloid of a tableau T is the sum of sgn(q) * (tabloid of qT) over
the column stabilizer of T. Evaluated at the tabloids of the standard
tableaux themselves, the standard polytabloids form an upper unitriangular
matrix in the stored tableau order (the dominance argument of James, The
Representation Theory of the Symmetric Groups, LNM 682, section 8), so the
expansion coefficients of any permuted polytabloid come out of integer
back-substitution.

Internally a tabloid is one int whose byte x holds the row of point x + 1,
and the standard polytabloids are indexed by these keys: each maps to the
polytabloids t holding it, as t + 1 for coefficient +1 and -t - 1 for -1 (a
tabloid never appears twice in one polytabloid, so the coefficient is +-1).
A polytabloid is built one column at a time. Each column lists one key part
and sign per way of placing its points in its rows; the columns hold
disjoint points, so the polytabloid is the product of these lists, one int
OR and one sign multiply per term. Permuting a pivot tabloid is one reindex
of its row bytes.

Everything here is exponential in nature, so n is capped at MAX_N = 8.
"""

from __future__ import annotations

import math
import operator
from functools import cache

from .arith import divisors, euler_phi
from .partitions import CycleType, Partition
from .spectral import MinPoly, SpectrumProfile, min_poly

__all__ = [
    "standard_tableaux",
    "polytabloid",
    "sigma_matrix",
    "oracle_spectrum",
    "oracle_min_poly",
]

MAX_N = 8


@cache
def _standard_tableaux(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    n = sum(parts)
    if n == 0:
        return ((),)
    out = []
    for i in range(len(parts)):
        if i == len(parts) - 1 or parts[i] > parts[i + 1]:
            sub = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
            sub = tuple(p for p in sub if p)
            for t in _standard_tableaux(sub):
                rows = [list(r) for r in t]
                while len(rows) <= i:
                    rows.append([])
                rows[i].append(n)
                out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


def standard_tableaux(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of shape lam (rows as tuples)."""
    return list(_standard_tableaux(lam.parts))


@cache
def _perms_with_sign(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(k) with its sign, built by inserting k - 1
    into each permutation of range(k - 1): at position j it stands before
    k - 1 - j smaller entries, so the sign flips when that count is odd."""
    if k == 0:
        return (((), 1),)
    return tuple(
        (p[:j] + (k - 1,) + p[j:], -s if (k - 1 - j) % 2 else s)
        for p, s in _perms_with_sign(k - 1)
        for j in range(k)
    )


def _rows_of_points(tab: tuple[tuple[int, ...], ...]) -> bytes:
    """The tabloid of tab as bytes: byte x holds the row of point x + 1."""
    rows = bytearray(sum(map(len, tab)))
    for i, row in enumerate(tab):
        for x in row:
            rows[x - 1] = i
    return bytes(rows)


def _key(rows: bytes) -> int:
    """A tabloid as one int: byte x holds the row of point x + 1."""
    return int.from_bytes(rows, "little")


def _column_sum(tab: tuple[tuple[int, ...], ...], unit: int) -> dict[int, int]:
    """unit * sgn(q) keyed by the tabloid of qT, for q in the column stabilizer.

    Column j of tab fills rows 0..len-1; each way of placing its points in
    those rows is one key part (the permutation p puts the x-th point of the
    column in row p[x]) with its sign. The columns hold disjoint points, so
    the sum is the product of the columns' lists: one OR and one sign
    multiply per term. Distinct q give distinct tabloids, so every
    coefficient is +-unit.
    """
    terms = {0: unit}
    for j in range(len(tab[0]) if tab else 0):
        col = [8 * (row[j] - 1) for row in tab if j < len(row)]
        if len(col) < 2:
            continue
        parts = [(sum(map(operator.lshift, p, col)), s) for p, s in _perms_with_sign(len(col))]
        terms = {key | part: c * s for key, c in terms.items() for part, s in parts}
    return terms


def polytabloid(tab: tuple[tuple[int, ...], ...]) -> dict[tuple[frozenset, ...], int]:
    """Signed sum of tabloids over the column stabilizer of tab."""
    n = sum(map(len, tab))
    out = {}
    for key, c in _column_sum(tab, 1).items():
        sets = [set() for _ in tab]
        for x, i in enumerate(key.to_bytes(n, "little"), 1):
            sets[i].add(x)
        out[tuple(map(frozenset, sets))] = c
    return out


@cache
def _module_data(parts: tuple[int, ...]):
    """Pivot tabloids (bytes, see _rows_of_points), the index tabloid key ->
    the polytabloids t holding it, each as t + 1 for coefficient +1 and -t - 1
    for -1, and for each basis row s the polytabloids u > s holding pivot s,
    signed the same way: the nonzero entries of the upper unitriangular basis
    matrix base[s][u] = coefficient of pivot s in polytabloid u."""
    tableaux = _standard_tableaux(parts)
    pivots = tuple(_rows_of_points(t) for t in tableaux)
    index: dict[int, tuple[int, ...]] = {}
    for t, tab in enumerate(tableaux):
        for key, v in _column_sum(tab, t + 1).items():
            index[key] = index.get(key, ()) + (v,)
    upper = []
    for s, pivot in enumerate(pivots):
        row = index.get(_key(pivot), ())
        if s + 1 not in row or any(abs(v) <= s for v in row):
            raise RuntimeError("polytabloid basis matrix not upper unitriangular (internal bug)")
        upper.append(tuple(v for v in row if abs(v) > s + 1))
    return pivots, index, tuple(upper)


def _checked_permutation(lam: Partition, sigma) -> tuple[int, ...]:
    n = lam.n
    if n > MAX_N:
        raise ValueError(f"n={n} above limit={MAX_N}")
    perm = sigma.permutation() if isinstance(sigma, CycleType) else tuple(sigma)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm!r}")
    return perm


def sigma_matrix(lam: Partition, sigma) -> list[list[int]]:
    """Integer matrix of sigma on the standard polytabloid basis.

    sigma is a CycleType (its canonical representative acts) or an explicit
    permutation given as a tuple of 1-based images.

    The coefficient of pivot s in sigma * e_t is that of sigma^-1 applied to
    pivot s in e_t, read from the index. These evaluations equal the basis
    matrix times the wanted matrix, whose rows then follow by back-substitution.
    """
    src = [p - 1 for p in _checked_permutation(lam, sigma)]
    pivots, index, upper = _module_data(lam.parts)
    deg = len(pivots)
    out: list[list[int]] = [[]] * deg
    for s in range(deg - 1, -1, -1):
        row = [0] * deg
        for v in index.get(_key(bytes(map(pivots[s].__getitem__, src))), ()):
            if v > 0:
                row[v - 1] = 1
            else:
                row[-v - 1] = -1
        for v in upper[s]:
            row = list(map(operator.sub if v > 0 else operator.add, row, out[abs(v) - 1]))
        out[s] = row
    return out


def _rank(matrix: list[list[int]]) -> int:
    """Exact rank by fraction free elimination, column by column.

    Each eliminated row pval * row - f * pivot_row is divided by its content,
    so entries stay small; rows without an entry in the pivot column are only
    trimmed, and zero rows are dropped.
    """
    rows = [row for row in matrix if any(row)]
    rank = 0
    while rows and rows[0]:
        piv = next((i for i, row in enumerate(rows) if row[0]), None)
        if piv is None:
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(piv)
        pval, ptail = pivot[0], pivot[1:]
        rank += 1
        rest = []
        for row in rows:
            f = row[0]
            if not f:
                rest.append(row[1:])
                continue
            row = [a * pval - f * b for a, b in zip(row[1:], ptail)]
            g = math.gcd(*row)
            if g > 1:
                row = [a // g for a in row]
            if g:
                rest.append(row)
        rows = rest
    return rank


def oracle_spectrum(lam: Partition, sigma: CycleType) -> SpectrumProfile:
    """Eigenvalue multiplicities read off from kernel ranks of M(sigma^k) - I.

    For k | r, f(k) = dim ker(M(sigma^k) - I) counts the eigenvalues whose
    order divides k, so f(d) = sum_{e | d} euler_phi(e) * m_e, where m_e is
    the shared multiplicity of the primitive e-th roots of unity.
    """
    perm = _checked_permutation(lam, sigma)
    deg = len(_module_data(lam.parts)[0])
    r = sigma.order()
    m: dict[int, int] = {}
    for d in divisors(r):
        if d == r:
            kernel = deg
        else:
            power = perm
            for _ in range(d - 1):
                power = tuple(perm[p - 1] for p in power)
            mat = sigma_matrix(lam, power)
            for i in range(deg):
                mat[i][i] -= 1
            kernel = deg - _rank(mat)
        count = kernel - sum(euler_phi(e) * m[e] for e in m if d % e == 0)
        phi = euler_phi(d)
        if count % phi:
            raise RuntimeError("kernel dimension not a multiple of phi(d) (internal bug)")
        m[d] = count // phi
    # the j with gcd(j, r) = g are the primitive (r/g)-th roots
    return SpectrumProfile._from_gcd(r, tuple(m[r // g] for g in divisors(r)), deg)


def oracle_min_poly(lam: Partition, sigma: CycleType) -> MinPoly:
    return min_poly(oracle_spectrum(lam, sigma))
