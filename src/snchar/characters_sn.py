"""Exact irreducible characters of symmetric groups.

Two Murnaghan-Nakayama routes run on beta sets (James & Kerber 2.7), a
partition as an int bitmask with a bead at bit lam_i + l - 1 - i for each of
l rows; neither uses the other's helpers, and each checks the other in tests.
chi() reads one row: from {beta set of lam: 1} it removes the non-fixed cycles
of each class asked a level at a time (a k-rim hook moves a bead from b to the
empty slot b - k, with sign (-1)^(beads between); equal beta sets add), over a
trie of the classes' removal orders, so classes that begin alike share levels,
then weighs each shape left by its standard tableaux from the hook product,
cached for one call. Sweeps and full_table read columns: p_mu = sum_lam
chi^lam(mu) s_lam, built up from the empty shape by adding hooks over a trie
of the wanted cycle types. Since chi^lam' = sgn * chi^lam holds at every
level, a level keeps one shape per conjugate pair, next to its conjugate's
mask (moved along with it), and the sign eps of the parts added so far gives
the other; each type adds its last level straight into its column. Nothing is
kept between calls. degree() computes the hook product.

Independent evaluation routes are provided so values can be cross checked:
coefficient extraction from the generating product (chi_frobenius), closed
forms in the fixed point / 2-cycle / 3-cycle counts for the six shapes
closest to a single row (chi_closed_form), and a binomial formula for hook
shapes on uniform classes (chi_hook_on_uniform).
"""

from __future__ import annotations

import io
import itertools
import math
import operator
from functools import cache

from .partitions import (
    CycleType,
    Partition,
    _check_sizes,
    _cycle_pairs,
    _Record,
    conjugate,
    enumerate_partitions,
    format_cycle_type,
    format_partition,
)

__all__ = [
    "chi",
    "degree",
    "chi_frobenius",
    "chi_closed_form",
    "chi_hook_on_uniform",
    "sign_twist_check",
    "branch",
    "full_table",
    "CharacterTable",
]

MAX_TABLE_N = 20
MAX_FROBENIUS_ROWS = 4


def _beta_set(parts: tuple[int, ...]) -> int:
    """The beta set of a partition as a bitmask: bit parts[i] + len - 1 - i per row."""
    top = len(parts) - 1
    mask = 0
    for i, p in enumerate(parts):
        mask |= 1 << (p + top - i)
    return mask


def _level(states: dict[int, int], k: int) -> dict[int, int]:
    """Every k-rim hook removed from every beta set in states, each a bead at
    b >= k over an empty slot b - k, with leg the beads in between; beads
    keep their count, so one shape has one mask and equal ones add up."""
    nxt: dict[int, int] = {}
    get = nxt.get
    legs = (1 << (k - 1)) - 1
    for mask, coef in states.items():
        movable = mask & ~(mask << k) & -(1 << k) if coef else 0  # a cancelled shape has no children
        while movable:
            low = movable & -movable
            movable ^= low
            sub = mask ^ low ^ (low >> k)
            nxt[sub] = get(sub, 0) + (-coef if (mask >> (low.bit_length() - k) & legs).bit_count() & 1 else coef)
    return nxt


def _standard_count(mask: int) -> int:
    """Standard tableaux of the shape with beta set mask: n! over the product
    of hook lengths. The hooks of the row with a bead at b are b - e for the
    empty slots e below b, so there are n of them; the bottom run of beads,
    the empty rows, has none and is shifted off first."""
    mask >>= (mask ^ (mask + 1)).bit_length() - 1
    holes: list[int] = []
    n = 0
    den = 1
    for b, bead in enumerate(bin(mask)[:1:-1]):
        if bead == "1":
            for e in holes:
                den *= b - e
            n += len(holes)
        else:
            holes.append(b)
    d, rem = divmod(math.factorial(n), den)
    if rem:
        raise RuntimeError("hook product must divide n! (internal bug)")
    return d


def _chi_row(mask: int, columns) -> list[int]:
    """chi of the beta set mask at each column, a class's cycle lengths in any order, fixed points last or left
    out: a trie of removals walked depth first, each level expanded once, held while a column below needs it, or empty
    and so ending its subtree."""
    trie: dict = {}
    for i, cycles in enumerate(columns):
        node = trie
        for k in itertools.takewhile((1).__lt__, cycles):
            node = node.setdefault(k, {})
        node.setdefault(0, []).append(i)
    tail = cache(_standard_count)  # the fixed-point tails, for this call only
    row = [0] * len(columns)
    stack = [(trie, 0, {mask: 1})]
    while stack:
        node, k, states = stack.pop()
        states = _level(states, k) if k else states
        if not states:
            continue  # every column at or below this level is 0, as row holds already
        stack.extend((child, part, states) for part, child in node.items() if part)  # each expands when popped
        for i in node.get(0, ()):
            row[i] = sum(coef * tail(sub) for sub, coef in states.items() if coef)
    return row


def _columns(lams, types) -> list[list[int]]:
    """For each cycle type in types (lengths summing to n), chi^lam there for
    every part tuple lam in lams, the caller's _walk_parts(n). From the empty
    shape as n beads at 0 .. n - 1, p_k moves a bead b to an empty slot b + k;
    the types are a trie of their parts, ascending, so shared smaller parts
    expand once. Each level is omega-symmetric: with eps the product of
    (-1)^(k - 1) over its parts, the coefficient of a conjugate nu' is eps
    times that of nu. So a level holds one shape per conjugate pair, the one
    whose mask is the smaller int, next to the mask of its conjugate, which
    moves with it: as nu's bead goes from b to b + k, nu''s goes from
    2n - 1 - b - k to 2n - 1 - b. A child of a held shape is added to itself,
    or eps times that to its conjugate, and a self-conjugate child gets both;
    a self-conjugate parent's children come in conjugate pairs, so it adds no
    conjugate share. A type's last level goes straight into its column through
    the row index: each child at itself and eps times that at its conjugate."""
    trie: dict = {}
    for t, cycles in enumerate(types):
        node = trie
        for k in sorted(cycles):
            node = node.setdefault(k, {})
        node.setdefault(0, []).append(t)
    n = sum(lams[0])
    if not n:
        return [[1] for _ in types]
    # the row index: beads at parts[j] + n - 1 - j, and the n - len(parts) empty rows at the bottom
    bits, shifts, fill = [1 << b for b in range(2 * n)], range(n - 1, -1, -1), [(1 << n - h) - 1 for h in range(n + 1)]
    rows = {sum(map(bits.__getitem__, map(operator.add, parts, shifts))) | fill[len(parts)]: i
            for i, parts in enumerate(lams)}
    top = 1 << 2 * n >> 1  # a bead at b is a hole at 2n - 1 - b of the conjugate, the mask top >> b
    out: list = [None] * len(types)
    empty = (1 << n) - 1
    stack = [(trie, 0, 1, {empty: 1}, {empty: empty})]
    while stack:
        node, k, eps, states, conj = stack.pop()
        if k:
            legs = (1 << (k - 1)) - 1
            last = 0 in node  # a type ends here; all sum to n, so none goes on below
            col = [0] * len(rows) if last else None
            nxt: dict[int, int] = {}
            cnxt: dict[int, int] = {}
            get = nxt.get
            for mask, coef in states.items():
                if not coef:
                    continue
                cmask = conj[mask]
                ecoef = eps * coef if mask != cmask else 0  # the conjugate's share
                movable = mask & ~(mask >> k)
                if last:
                    while movable:
                        low = movable & -movable
                        movable ^= low
                        b = low.bit_length()
                        i, j = rows[mask ^ low ^ (low << k)], rows[cmask ^ (top >> b - 1) ^ (top >> b + k - 1)]
                        if (mask >> b & legs).bit_count() & 1:
                            col[i] -= coef
                            col[j] -= ecoef
                        else:
                            col[i] += coef
                            col[j] += ecoef
                    continue
                while movable:
                    low = movable & -movable
                    movable ^= low
                    b = low.bit_length()
                    sup = mask ^ low ^ (low << k)
                    csup = cmask ^ (top >> b - 1) ^ (top >> b + k - 1)
                    x, ex = (-coef, -ecoef) if (mask >> b & legs).bit_count() & 1 else (coef, ecoef)
                    if sup < csup:
                        nxt[sup] = get(sup, 0) + x
                        cnxt[sup] = csup
                    elif sup > csup:
                        nxt[csup] = get(csup, 0) + ex
                        cnxt[csup] = sup
                    else:
                        nxt[sup] = get(sup, 0) + x + ex
                        cnxt[sup] = sup
            if last:
                for t in node[0]:
                    out[t] = col
                continue
            states, conj = nxt, cnxt
        for part, child in node.items():  # siblings share their parent's expansion until each is popped
            stack.append((child, part, eps if part & 1 else -eps, states, conj))
    return out


def chi(lam: Partition, sigma: CycleType) -> int:
    """Character value of the irreducible labeled by lam at the class sigma."""
    _check_sizes(lam, sigma)
    return _chi_row(_beta_set(lam.parts), [sigma.lengths()])[0]


def degree(lam: Partition) -> int:
    """Dimension n! / (product of hook lengths)."""
    return _standard_count(_beta_set(lam.parts))


def chi_frobenius(lam: Partition, sigma: CycleType) -> int:
    """Character value by coefficient extraction from the generating product.

    With k rows and l_i = lam_i + k - i, the value is the coefficient of
    x1^l1 ... xk^lk in prod_{i<j}(x_i - x_j) * prod_cycles (x_1^a + ... + x_k^a).
    Cost grows quickly with k, hence the cap of MAX_FROBENIUS_ROWS rows.
    """
    _check_sizes(lam, sigma)
    k = len(lam.parts)
    if k > MAX_FROBENIUS_ROWS:
        raise ValueError(f"partition has {k} rows, cap is {MAX_FROBENIUS_ROWS}")
    if k == 0:
        return 1
    target = tuple(lam.parts[i] + (k - 1 - i) for i in range(k))
    # Vandermonde determinant: signed sum over permutations of (k-1, ..., 0)
    poly: dict[tuple[int, ...], int] = {}
    for expo in itertools.permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if expo[a] < expo[b])
        if all(expo[v] <= target[v] for v in range(k)):
            poly[expo] = -1 if inv % 2 else 1
    for length in sigma.lengths():
        nxt: dict[tuple[int, ...], int] = {}
        for e, c in poly.items():
            for v in range(k):
                if e[v] + length > target[v]:
                    continue
                e2 = e[:v] + (e[v] + length,) + e[v + 1 :]
                nxt[e2] = nxt.get(e2, 0) + c
        poly = {e: c for e, c in nxt.items() if c}
    return poly.get(target, 0)


def chi_closed_form(lam: Partition, sigma: CycleType) -> int | None:
    """Closed forms for the six shapes nearest a single row.

    The value depends only on the numbers i1, i2, i3 of fixed points,
    2-cycles, and 3-cycles. Returns None when lam is not one of the covered
    shapes for its n (the caller decides how to report that).
    """
    _check_sizes(lam, sigma)
    n = lam.n
    p = lam.parts
    i1 = sigma.count_of(1)
    i2 = sigma.count_of(2)
    i3 = sigma.count_of(3)
    if n >= 2 and p == (n - 1, 1):
        return i1 - 1
    if n >= 4 and p == (n - 2, 2):
        return (i1 - 1) * (i1 - 2) // 2 + i2 - 1
    if n >= 3 and p == (n - 2, 1, 1):
        return (i1 - 1) * (i1 - 2) // 2 - i2
    if n >= 6 and p == (n - 3, 3):
        return i1 * (i1 - 1) * (i1 - 5) // 6 + i2 * (i1 - 1) + i3
    if n >= 4 and p == (n - 3, 1, 1, 1):
        return (i1 - 1) * (i1 - 2) * (i1 - 3) // 6 - i2 * (i1 - 1) + i3
    if n >= 5 and p == (n - 3, 2, 1):
        return i1 * (i1 - 2) * (i1 - 4) // 3 - i3
    return None


def chi_hook_on_uniform(a: int, r: int, k: int, l: int) -> int:
    """Value of the hook (a + r*k, 1^(r - a + r*l)) on the uniform class [r^(k+l+1)].

    Requires 1 <= a <= r and an odd total size n = r*(k+l+1); the value is
    (-1)^(r-a) * binom(k+l, k).
    """
    if not 1 <= a <= r:
        raise ValueError(f"need 1 <= a <= r, got a={a} r={r}")
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    n = r * (k + l + 1)
    if n % 2 == 0:
        raise ValueError(f"total size n={n} must be odd")
    return (-1) ** (r - a) * math.comb(k + l, k)


def sign_twist_check(lam: Partition, sigma: CycleType) -> bool:
    """chi of the conjugate partition equals sign(sigma) times chi of lam."""
    return chi(conjugate(lam), sigma) == sigma.sign() * chi(lam, sigma)


def branch(lam: Partition) -> list[Partition]:
    """Partitions obtained by removing one corner box (restriction one level down)."""
    out = []
    p = lam.parts
    for i in range(len(p)):
        if i == len(p) - 1 or p[i] > p[i + 1]:
            q = p[:i] + (p[i] - 1,) + p[i + 1 :]
            out.append(Partition(tuple(x for x in q if x)))
    return out


class CharacterTable(_Record):
    """Full character table; row and column order both follow enumerate_partitions."""

    def __init__(self, n: int, partitions: tuple[Partition, ...], classes: tuple[CycleType, ...],
                 values: tuple[tuple[int, ...], ...]) -> None:
        self._set(n=n, partitions=partitions, classes=classes, values=values)

    def value(self, lam: Partition, sigma: CycleType) -> int:
        return self.values[self.partitions.index(lam)][self.classes.index(sigma)]

    def to_json(self) -> str:
        import json  # imported here, so that importing the package does not load it
        obj = {
            "n": self.n,
            "partitions": [format_partition(p) for p in self.partitions],
            "classes": [format_cycle_type(c) for c in self.classes],
            "values": [[str(v) for v in row] for row in self.values],
        }
        return json.dumps(obj, sort_keys=True)

    def to_csv(self) -> str:
        import csv  # imported here, so that importing the package does not load it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition"] + [format_cycle_type(c) for c in self.classes])
        for lam, row in zip(self.partitions, self.values):
            writer.writerow([format_partition(lam)] + [str(v) for v in row])
        return buf.getvalue()


def full_table(n: int) -> CharacterTable:
    """Exact character table of the symmetric group on n <= MAX_TABLE_N points."""
    if n > MAX_TABLE_N:
        raise ValueError(f"n={n} above limit={MAX_TABLE_N}")
    lams = tuple(enumerate_partitions(n))
    parts = [lam.parts for lam in lams]
    classes = tuple(CycleType._unchecked(_cycle_pairs(mu)) for mu in parts)
    return CharacterTable(n, lams, classes, tuple(zip(*_columns(parts, parts))))
