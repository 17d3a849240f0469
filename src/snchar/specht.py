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

A standard tableau is held as its row word, whose entry x is the row of
point x + 1; standard_tableaux turns words into rows only on the way out. A
tabloid is such a word as bytes, so a tableau's word is its pivot tabloid.
polytabloid walks the column stabilizer one element at a time; the oracle
does not expand polytabloids, nor index anything by tabloid: membership
follows the column rule. The tabloid R lies in the polytabloid of the
standard tableau t iff each column of t meets each row it spans exactly
once in R, that is, no point of t sits in R at a row below the bottom of
its column, and no two points sharing a column of t share a row of R. The
coefficient is then the sign of the column permutation, the parity of the
pairs x < y of one column of t with x below y in R. Per shape this is
stored as bitsets over the standard tableaux: which tableaux put x and y in
one column, and which give the column of x at most i cells. Permuting a
pivot tabloid is one reindex of its row bytes.

Ranks and back-substitution are cubic in the degree of the shape (216 at
n = 9), so n is capped at MAX_N = 9.
"""

from __future__ import annotations

import itertools
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

MAX_N = 9
# standard_tableaux refuses a shape before listing when its f^lam tableaux, n points each, hold
# more points than this: count times n is what fills memory (about 40 MB at the cap). (599,1) holds
# 359 400, shapes with n <= MAX_N at most 1 944; (150,150) has Catalan(150), about 10^87, tableaux.
MAX_TABLEAUX_CELLS = 1 << 20


def _row_words(parts: tuple[int, ...], limit: float = math.inf) -> list[tuple[int, ...]] | None:
    """Every standard tableau of shape parts as its row word (entry x is the row
    of point x + 1), in the basis order: by the row of point n, then of n - 1,
    and so on; None as soon as there are more than limit. Points are placed
    from n down, depth first, each at a corner (the last cell of a row longer
    than the row below it) of the cells left, held as (length, rows) runs.
    The words share one path of placed rows, and the cells left in one row or
    one column are filled at once: a walk visits at most n nodes per word."""
    words: list[tuple[int, ...]] = []
    path: list[int] = []
    stack = [(0, (), tuple((p, len(list(g))) for p, g in itertools.groupby(parts)))]
    while stack:
        depth, row, runs = stack.pop()
        path[depth:] = row
        if len(runs) < 2 and (not runs or 1 in runs[0]):  # one column fills rows 0, 1, ..; one row fills row 0
            length, rows = runs[0] if runs else (0, 0)
            words.append((tuple(range(rows)) if length == 1 else (0,) * length) + tuple(reversed(path)))
            if len(words) > limit:
                return None
            continue
        end, children = -1, []
        for j, (length, rows) in enumerate(runs):
            end += rows
            rest = runs[j + 1:]
            if rest and rest[0][0] == length - 1:
                rest = ((length - 1, rest[0][1] + 1),) + rest[1:]
            elif length > 1:
                rest = ((length - 1, 1),) + rest
            children.append((len(path), (end,), runs[:j] + ((length, rows - 1),) * (rows > 1) + rest))
        stack += reversed(children)
    return words


def standard_tableaux(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of shape lam (rows as tuples), refused when
    they would hold more than MAX_TABLEAUX_CELLS points in all."""
    # the walk stops once it passes the cap, so it bounds time as well as memory
    words = _row_words(lam.parts, MAX_TABLEAUX_CELLS // max(lam.n, 1))
    if words is None:
        raise ValueError(f"the standard tableaux of {lam} hold over MAX_TABLEAUX_CELLS = {MAX_TABLEAUX_CELLS} points")
    out = []
    for word in words:
        rows: list[list[int]] = [[] for _ in lam.parts]
        for x, i in enumerate(word, 1):
            rows[i].append(x)
        out.append(tuple(map(tuple, rows)))
    return out


def polytabloid(tab: tuple[tuple[int, ...], ...]) -> dict[tuple[frozenset, ...], int]:
    """Signed sum of tabloids over the column stabilizer of tab: each product of
    column permutations, with the sign of its inversions. Distinct products
    give distinct tabloids, so every coefficient is +-1."""
    cols = [[row[j] for row in tab if j < len(row)] for j in range(len(tab[0]) if tab else 0)]
    out = {}
    for images in itertools.product(*map(itertools.permutations, cols)):
        rows: list[set[int]] = [set() for _ in tab]
        sign = 1
        for image in images:
            if sum(a > b for a, b in itertools.combinations(image, 2)) % 2:
                sign = -sign
            for i, x in enumerate(image):
                rows[i].add(x)
        out[tuple(map(frozenset, rows))] = sign
    return out


@cache
def _module_data(parts: tuple[int, ...]):
    """Pivot tabloids (the row words as bytes), the column rule of the shape
    (see _coefficients), and for each basis row s the (u, coefficient) pairs
    of the polytabloids u > s holding pivot s: the nonzero entries of the
    upper unitriangular basis matrix base[s][u] = coefficient of pivot s in
    polytabloid u."""
    words = _row_words(parts)
    n, height = sum(parts), len(parts)
    depth = [sum(p > j for p in parts) for j in range(parts[0] if parts else 0)]  # column lengths
    together = [[0] * n for _ in range(n)]
    short = [[0] * height for _ in range(n)]
    for t, word in enumerate(words):
        bit = 1 << t
        col = [word[:x].count(i) for x, i in enumerate(word)]  # the earlier points in its row
        for x, j in enumerate(col):
            for i in range(depth[j], height):
                short[x][i] |= bit
            for y in range(x + 1, n):
                if col[y] == j:
                    together[x][y] |= bit
    pairs = tuple(tuple((y, tabs) for y, tabs in enumerate(row) if tabs) for row in together)
    rule = (pairs, short, (1 << len(words)) - 1)
    pivots = tuple(map(bytes, words))
    upper = []
    for s, pivot in enumerate(pivots):
        held = _coefficients(rule, pivot)
        if not held or held[0] != (s, 1):
            raise RuntimeError("polytabloid basis matrix not upper unitriangular (internal bug)")
        upper.append(tuple(held[1:]))
    return pivots, rule, tuple(upper)


def _coefficients(rule, rows: bytes) -> list[tuple[int, int]]:
    """(t, +-1) for each standard polytabloid e_t holding the tabloid rows,
    in tableau order, by the column rule.

    rule holds, for each point x + 1, the pairs (y, tableaux) with y > x and
    the nonempty bitset of tableaux in which x + 1 and y + 1 share a column;
    short[x][i], the tableaux in which the column of x + 1 has at most i
    cells; and the set of all tableaux. A tableau holds rows unless some x
    sits at a row its column does not reach or some x, y in one row share
    its column; the sign flips once per pair x < y of one column with x in
    the lower row.
    """
    pairs, short, everything = rule
    out = odd = 0
    for x, rx in enumerate(rows):
        out |= short[x][rx]
        for y, tabs in pairs[x]:
            ry = rows[y]
            if ry == rx:
                out |= tabs
            elif ry < rx:
                odd ^= tabs
    held = everything & ~out
    terms = []
    while held:
        low = held & -held
        terms.append((low.bit_length() - 1, -1 if odd & low else 1))
        held ^= low
    return terms


def _checked_permutation(lam: Partition, sigma: CycleType | tuple[int, ...]) -> tuple[int, ...]:
    n = lam.n
    if n > MAX_N:
        raise ValueError(f"n={n} above limit={MAX_N}")
    perm = sigma.permutation() if isinstance(sigma, CycleType) else tuple(sigma)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm!r}")
    return perm


def sigma_matrix(lam: Partition, sigma: CycleType | tuple[int, ...]) -> list[list[int]]:
    """Integer matrix of sigma on the standard polytabloid basis.

    sigma is a CycleType (its canonical representative acts) or an explicit
    permutation given as a tuple of 1-based images.
    """
    return _action(lam.parts, _checked_permutation(lam, sigma))


def _action(parts: tuple[int, ...], perm: tuple[int, ...]) -> list[list[int]]:
    """sigma_matrix for a checked permutation.

    The coefficient of pivot s in sigma * e_t is that of sigma^-1 applied to
    pivot s in e_t, given by the column rule. These evaluations equal the
    basis matrix times the wanted matrix, whose rows then follow by
    back-substitution.
    """
    src = [p - 1 for p in perm]
    pivots, rule, upper = _module_data(parts)
    deg = len(pivots)
    out: list[list[int]] = [[]] * deg
    for s in range(deg - 1, -1, -1):
        row = [0] * deg
        for t, c in _coefficients(rule, bytes(map(pivots[s].__getitem__, src))):
            row[t] = c
        for u, c in upper[s]:
            row = list(map(operator.sub if c > 0 else operator.add, row, out[u]))
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


def oracle_spectrum(lam: Partition, sigma: CycleType | tuple[int, ...]) -> SpectrumProfile:
    """Eigenvalue multiplicities read off from kernel ranks of M(sigma^k) - I.

    sigma is a CycleType or an explicit permutation, as for sigma_matrix; its
    order r is the lcm of its cycle lengths. For k | r, f(k) = dim
    ker(M(sigma^k) - I) counts the eigenvalues whose order divides k, so
    f(d) = sum_{e | d} euler_phi(e) * m_e, where m_e is the shared
    multiplicity of the primitive e-th roots of unity.
    """
    perm = _checked_permutation(lam, sigma)
    deg = len(_module_data(lam.parts)[0])
    r = _order(perm)
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


def _order(perm: tuple[int, ...]) -> int:
    """The order of a permutation of 1..n: the lcm of its cycle lengths."""
    r, seen = 1, set()
    for start in perm:
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            length += 1
        if length:
            r = math.lcm(r, length)
    return r


def oracle_min_poly(lam: Partition, sigma: CycleType | tuple[int, ...]) -> MinPoly:
    return min_poly(oracle_spectrum(lam, sigma))
