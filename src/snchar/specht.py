"""Integral matrices of permutations acting on Specht modules.

This is an oracle that never touches the character machinery: the matrix of
sigma on the standard polytabloid basis is solved for over the rationals, and
eigenvalue data is read off from kernel ranks of cyclotomic polynomials
evaluated at the matrix. Traces and minimal polynomials computed here give an
independent confirmation of the character based routes.

Tabloids are tuples of row sets. The polytabloid of a tableau T is the sum
of sgn(q) * (tabloid of qT) over the column stabilizer of T. Evaluated at
the tabloids of the standard tableaux themselves, the standard polytabloids
form a matrix that is invertible over the integers, so expansion
coefficients of any permuted polytabloid come out of one exact solve.

Everything here is exponential in nature; the default size cap is n = 8.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from .partitions import CycleType, Partition
from .spectral import MinPoly, SpectrumProfile, cyclotomic, divisors, euler_phi, min_poly

__all__ = [
    "standard_tableaux",
    "polytabloid",
    "sigma_matrix",
    "oracle_spectrum",
    "oracle_min_poly",
]

DEFAULT_LIMIT = 8


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
    out = []
    for p in itertools.permutations(range(k)):
        inv = sum(1 for x in range(k) for y in range(x + 1, k) if p[x] > p[y])
        out.append((p, -1 if inv % 2 else 1))
    return tuple(out)


def _tabloid(tab: tuple[tuple[int, ...], ...]) -> tuple[frozenset, ...]:
    return tuple(frozenset(row) for row in tab)


def polytabloid(tab: tuple[tuple[int, ...], ...]) -> dict[tuple[frozenset, ...], int]:
    """Signed sum of tabloids over the column stabilizer of tab."""
    ncols = len(tab[0]) if tab else 0
    cols = [[row[j] for row in tab if j < len(row)] for j in range(ncols)]
    result: dict[tuple[frozenset, ...], int] = {}
    for combo in itertools.product(*(_perms_with_sign(len(c)) for c in cols)):
        mapping: dict[int, int] = {}
        sign = 1
        for col, (p, s) in zip(cols, combo):
            sign *= s
            for src, dst in enumerate(p):
                mapping[col[src]] = col[dst]
        key = tuple(frozenset(mapping[x] for x in row) for row in tab)
        result[key] = result.get(key, 0) + sign
    return {k: v for k, v in result.items() if v}


def _invert(matrix: list[list[int]]) -> list[list[Fraction]]:
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise RuntimeError("singular polytabloid basis matrix (internal bug)")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


@cache
def _module_data(parts: tuple[int, ...]):
    tableaux = _standard_tableaux(parts)
    polys = tuple(polytabloid(t) for t in tableaux)
    pivots = [_tabloid(t) for t in tableaux]
    deg = len(tableaux)
    base = [[polys[t].get(pivots[s], 0) for t in range(deg)] for s in range(deg)]
    return polys, {p: i for i, p in enumerate(pivots)}, _invert(base)


def sigma_matrix(lam: Partition, sigma, *, limit: int = DEFAULT_LIMIT) -> list[list[int]]:
    """Integer matrix of sigma on the standard polytabloid basis.

    sigma is a CycleType (its canonical representative acts) or an explicit
    permutation given as a tuple of 1-based images.
    """
    n = lam.n
    if n > limit:
        raise ValueError(f"n={n} above limit={limit}")
    perm = sigma.permutation() if isinstance(sigma, CycleType) else tuple(sigma)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm!r}")
    polys, pivot_index, inv = _module_data(lam.parts)
    deg = len(polys)
    moved = [[0] * deg for _ in range(deg)]
    for t, poly in enumerate(polys):
        for tabloid, c in poly.items():
            key = tuple(frozenset(perm[x - 1] for x in row) for row in tabloid)
            s = pivot_index.get(key)
            if s is not None:
                moved[s][t] = c
    out = []
    for i in range(deg):
        row = []
        for j in range(deg):
            v = sum(inv[i][k] * moved[k][j] for k in range(deg))
            if v.denominator != 1:
                raise RuntimeError("non-integral action on the polytabloid lattice (internal bug)")
            row.append(int(v))
        out.append(row)
    return out


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _poly_at_matrix(coeffs: tuple[int, ...], m: list[list[int]]) -> list[list[int]]:
    n = len(m)
    out = [[coeffs[-1] * int(i == j) for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        out = _mat_mul(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def _rank(matrix: list[list[int]]) -> int:
    """Fraction free (Bareiss) row reduction."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    prev = 1
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pval = m[rank][col]
        for i in range(rank + 1, rows):
            f = m[i][col]
            for j in range(cols):
                m[i][j] = (m[i][j] * pval - f * m[rank][j]) // prev
        prev = pval
        rank += 1
        if rank == rows:
            break
    return rank


def oracle_spectrum(lam: Partition, sigma: CycleType, *, limit: int = DEFAULT_LIMIT) -> SpectrumProfile:
    """Eigenvalue multiplicities read off from cyclotomic kernel ranks.

    The kernel of Phi_d at the matrix has dimension euler_phi(d) times the
    shared multiplicity of the primitive d-th roots of unity.
    """
    mat = sigma_matrix(lam, sigma, limit=limit)
    r = sigma.order()
    deg = len(mat)
    mult = [0] * r
    for d in divisors(r):
        ker = deg - _rank(_poly_at_matrix(cyclotomic(d), mat))
        if ker:
            phi = euler_phi(d)
            if ker % phi:
                raise RuntimeError("kernel dimension not a multiple of phi(d) (internal bug)")
            md = ker // phi
            for j in range(r):
                if r // math.gcd(j, r) == d:
                    mult[j] = md
    return SpectrumProfile(r, tuple(mult), deg)


def oracle_min_poly(lam: Partition, sigma: CycleType, *, limit: int = DEFAULT_LIMIT) -> MinPoly:
    return min_poly(oracle_spectrum(lam, sigma, limit=limit))
