"""Exact irreducible characters of symmetric groups.

chi() peels rim hooks, always consuming the largest remaining cycle first,
with a process wide memo keyed by (partition, remaining cycle multiset). Once
only fixed points remain, the value is the number of standard tableaux of the
remaining shape, read from the hook product that degree() also uses, so the
memo holds no fixed-point tails. It grows with every n evaluated and is never
evicted; clear_character_cache() drops it and the hook-product cache.

Independent evaluation routes are provided so values can be cross checked:
coefficient extraction from the generating product (chi_frobenius), closed
forms in the fixed point / 2-cycle / 3-cycle counts for the six shapes
closest to a single row (chi_closed_form), and a binomial formula for hook
shapes on uniform classes (chi_hook_on_uniform).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import cache

from .partitions import (
    CycleType,
    Partition,
    _rim_hooks,
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
    "clear_character_cache",
]

_MN_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}


def clear_character_cache() -> None:
    _MN_CACHE.clear()
    _standard_count.cache_clear()


@cache
def _standard_count(parts: tuple[int, ...]) -> int:
    """Standard tableaux of shape parts: n! over the product of hook lengths."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    den = 1
    for i, p in enumerate(parts):
        for j in range(p):
            den *= p - j + conj[j] - i - 1
    d, rem = divmod(math.factorial(sum(parts)), den)
    if rem:
        raise RuntimeError("hook product must divide n! (internal bug)")
    return d


def _chi(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # cycles run longest first, so a leading fixed point leaves only 1^k
    if not cycles or cycles[0] == 1:
        return _standard_count(parts)
    key = (parts, cycles)
    val = _MN_CACHE.get(key)
    if val is None:
        k, rest = cycles[0], cycles[1:]
        val = 0
        for _, sub, leg in _rim_hooks(parts, k):
            if leg % 2:
                val -= _chi(sub, rest)
            else:
                val += _chi(sub, rest)
        _MN_CACHE[key] = val
    return val


def chi(lam: Partition, sigma: CycleType) -> int:
    """Character value of the irreducible labeled by lam at the class sigma."""
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    cycles = sigma.lengths()
    try:
        return _chi(lam.parts, cycles)
    except RecursionError:
        # _chi recurses once per non-fixed cycle; finished memo entries stay valid
        raise ValueError(f"class {sigma} has {len(cycles)} cycles, too many for the character recursion") from None


def degree(lam: Partition) -> int:
    """Dimension n! / (product of hook lengths)."""
    return _standard_count(lam.parts)


def chi_frobenius(lam: Partition, sigma: CycleType, max_rows: int = 4) -> int:
    """Character value by coefficient extraction from the generating product.

    With k rows and l_i = lam_i + k - i, the value is the coefficient of
    x1^l1 ... xk^lk in prod_{i<j}(x_i - x_j) * prod_cycles (x_1^a + ... + x_k^a).
    Cost grows quickly with k, hence the row cap.
    """
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    k = len(lam.parts)
    if k > max_rows:
        raise ValueError(f"partition has {k} rows, cap is {max_rows}")
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
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
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


@dataclass(frozen=True)
class CharacterTable:
    """Full character table; row and column order both follow enumerate_partitions."""

    n: int
    partitions: tuple[Partition, ...]
    classes: tuple[CycleType, ...]
    values: tuple[tuple[int, ...], ...]

    def value(self, lam: Partition, sigma: CycleType) -> int:
        return self.values[self.partitions.index(lam)][self.classes.index(sigma)]

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "partitions": [format_partition(p) for p in self.partitions],
            "classes": [format_cycle_type(c) for c in self.classes],
            "values": [[str(v) for v in row] for row in self.values],
        }
        return json.dumps(obj, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition"] + [format_cycle_type(c) for c in self.classes])
        for lam, row in zip(self.partitions, self.values):
            writer.writerow([format_partition(lam)] + [str(v) for v in row])
        return buf.getvalue()


def full_table(n: int, *, limit: int = 16) -> CharacterTable:
    """Exact character table of the symmetric group on n points.

    The limit guards the memo growth; raise it explicitly for larger tables.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > limit:
        raise ValueError(f"n={n} above limit={limit}")
    lams = tuple(enumerate_partitions(n))
    classes = tuple(CycleType.from_partition(mu) for mu in lams)
    values = tuple(tuple(chi(lam, c) for c in classes) for lam in lams)
    return CharacterTable(n, lams, classes, values)
