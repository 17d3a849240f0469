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
back-substitution. Internally a tabloid is the tuple of the rows of the
points 1..n, so permuting it is one reindex.

Everything here is exponential in nature, so n is capped at MAX_N = 8.
"""

from __future__ import annotations

import itertools
import math
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
    out = []
    for p in itertools.permutations(range(k)):
        inv = sum(1 for x in range(k) for y in range(x + 1, k) if p[x] > p[y])
        out.append((p, -1 if inv % 2 else 1))
    return tuple(out)


def _rows_of_points(tab: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The tabloid of tab as the row index of each point 1..n."""
    rows = [0] * sum(map(len, tab))
    for i, row in enumerate(tab):
        for x in row:
            rows[x - 1] = i
    return tuple(rows)


def _point_polytabloid(tab: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], int]:
    """Polytabloid of tab with each tabloid given by the rows of its points.

    Column j of tab fills rows 0..len-1 in order, so the column permutation p
    sends the point col[p[i]] to row i.
    """
    ncols = len(tab[0]) if tab else 0
    cols = [[row[j] - 1 for row in tab if j < len(row)] for j in range(ncols)]
    rows = [0] * sum(map(len, tab))
    result: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(*(_perms_with_sign(len(c)) for c in cols)):
        sign = 1
        for col, (p, s) in zip(cols, combo):
            sign *= s
            for i, src in enumerate(p):
                rows[col[src]] = i
        key = tuple(rows)
        result[key] = result.get(key, 0) + sign
    return {k: v for k, v in result.items() if v}


def polytabloid(tab: tuple[tuple[int, ...], ...]) -> dict[tuple[frozenset, ...], int]:
    """Signed sum of tabloids over the column stabilizer of tab."""
    out = {}
    for rows, c in _point_polytabloid(tab).items():
        sets = [set() for _ in tab]
        for x, i in enumerate(rows, 1):
            sets[i].add(x)
        out[tuple(map(frozenset, sets))] = c
    return out


@cache
def _module_data(parts: tuple[int, ...]):
    """Pivot tabloids, tabloid -> ((t, coefficient in polytabloid t), ...), and
    for each basis row s the nonzero entries (u, c), u > s, of the unitriangular
    basis matrix base[s][u] = coefficient of pivot s in polytabloid u."""
    tableaux = _standard_tableaux(parts)
    pivots = tuple(_rows_of_points(t) for t in tableaux)
    index: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for t, tab in enumerate(tableaux):
        for key, c in _point_polytabloid(tab).items():
            index.setdefault(key, []).append((t, c))
    upper = []
    for s, pivot in enumerate(pivots):
        row = dict(index.get(pivot, ()))
        if row.get(s) != 1 or any(u < s for u in row):
            raise RuntimeError("polytabloid basis matrix not upper unitriangular (internal bug)")
        upper.append(tuple((u, c) for u, c in row.items() if u > s))
    return pivots, {k: tuple(v) for k, v in index.items()}, tuple(upper)


def _action(parts: tuple[int, ...], perm: tuple[int, ...]) -> list[list[int]]:
    """Matrix of the permutation perm (1-based images) on the polytabloid basis.

    The coefficient of pivot s in perm * e_t is that of perm^-1 applied to
    pivot s in e_t, read from the index. These evaluations equal the basis
    matrix times the wanted matrix, whose rows then follow by back-substitution.
    """
    pivots, index, upper = _module_data(parts)
    deg = len(pivots)
    src = [p - 1 for p in perm]
    out: list[list[int]] = [[]] * deg
    for s in range(deg - 1, -1, -1):
        pivot = pivots[s]
        row = [0] * deg
        for t, c in index.get(tuple([pivot[p] for p in src]), ()):
            row[t] = c
        for u, c in upper[s]:
            row = [a - c * b for a, b in zip(row, out[u])]
        out[s] = row
    return out


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
    """
    return _action(lam.parts, _checked_permutation(lam, sigma))


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
            mat = _action(lam.parts, power)
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
