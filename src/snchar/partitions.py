"""Partitions, hooks, and cycle types for symmetric group calculations.

Conventions used throughout the package:

* a partition is a weakly decreasing tuple of positive parts, written in text
  with exponent shorthand ("2^2,1^3" for (2,2,1,1,1));
* a cycle type is a multiset of cycle lengths with fixed points stored
  explicitly, written as space separated atoms ("3^1 1^2");
* boxes of a Young diagram are addressed by 1-based (row, column) pairs;
* the parsers refuse text spelling more than MAX_PARSE_N points, before
  expanding it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cache

__all__ = [
    "Partition",
    "CycleType",
    "HookRef",
    "conjugate",
    "hook_lengths",
    "remove_rim_hook",
    "diagonal_hooks",
    "enumerate_partitions",
    "partition_count",
    "parse_partition",
    "format_partition",
    "parse_cycle_type",
    "format_cycle_type",
]


@dataclass(frozen=True)
class Partition:
    """A partition stored as a weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return format_partition(self)


@dataclass(frozen=True)
class HookRef:
    """One hook of a Young diagram: its 1-based box, length, and leg length."""

    row: int
    col: int
    length: int
    leg: int


@dataclass(frozen=True)
class CycleType:
    """A conjugacy class of a symmetric group.

    Stored as (length, count) pairs with lengths strictly decreasing and
    counts positive; fixed points appear as the pair (1, k).
    """

    cycles: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        cyc = tuple((int(a), int(b)) for a, b in self.cycles)
        if any(a < 1 or b < 1 for a, b in cyc):
            raise ValueError(f"lengths and counts must be positive: {cyc!r}")
        if any(cyc[i][0] <= cyc[i + 1][0] for i in range(len(cyc) - 1)):
            raise ValueError(f"lengths must be strictly decreasing: {cyc!r}")
        object.__setattr__(self, "cycles", cyc)

    @classmethod
    def from_lengths(cls, lengths) -> "CycleType":
        counts: dict[int, int] = {}
        for a in lengths:
            counts[a] = counts.get(a, 0) + 1
        return cls(tuple(sorted(counts.items(), reverse=True)))

    @classmethod
    def from_partition(cls, lam: Partition) -> "CycleType":
        return cls.from_lengths(lam.parts)

    @classmethod
    def uniform(cls, r: int, m: int, n: int) -> "CycleType":
        """The class [r^m 1^(n-rm)] inside the symmetric group on n points."""
        if r < 1 or m < 0 or r * m > n:
            raise ValueError(f"need 1 <= r, 0 <= m, r*m <= n; got r={r} m={m} n={n}")
        fixed = n - r * m
        if r == 1:
            m, fixed = m + fixed, 0
        pairs = []
        if m:
            pairs.append((r, m))
        if fixed:
            pairs.append((1, fixed))
        return cls(tuple(pairs))

    @property
    def n(self) -> int:
        return sum(a * b for a, b in self.cycles)

    def lengths(self) -> tuple[int, ...]:
        """All cycle lengths with multiplicity, longest first."""
        return tuple(a for a, b in self.cycles for _ in range(b))

    def count_of(self, length: int) -> int:
        for a, b in self.cycles:
            if a == length:
                return b
        return 0

    def order(self) -> int:
        return math.lcm(*(a for a, _ in self.cycles)) if self.cycles else 1

    def sign(self) -> int:
        return -1 if sum((a - 1) * b for a, b in self.cycles) % 2 else 1

    def is_even(self) -> bool:
        return self.sign() == 1

    def class_size(self) -> int:
        z = 1
        for a, b in self.cycles:
            z *= a**b * math.factorial(b)
        return math.factorial(self.n) // z

    def splits_in_alternating(self) -> bool:
        """True when the class lies in A_n and breaks into two A_n classes.

        This happens exactly for even classes whose cycle lengths are odd and
        pairwise distinct (fixed points count as a length-1 cycle), once
        n >= 2: A_0 and A_1 have a single class.
        """
        return self.n >= 2 and self.is_even() and all(b == 1 and a % 2 for a, b in self.cycles)

    def power(self, i: int) -> "CycleType":
        """Cycle type of the i-th power of any permutation of this type."""
        if i < 0:
            raise ValueError("exponent must be nonnegative")
        if i == 0:
            return CycleType(((1, self.n),)) if self.cycles else CycleType(())
        counts: dict[int, int] = {}
        for a, b in self.cycles:
            g = math.gcd(a, i)
            counts[a // g] = counts.get(a // g, 0) + b * g
        return CycleType(tuple(sorted(counts.items(), reverse=True)))

    def permutation(self) -> tuple[int, ...]:
        """Canonical representative on {1..n}: consecutive increasing cycles,
        longest cycle first. Entry k-1 of the result is the image of k."""
        img = list(range(1, self.n + 1))
        start = 1
        for a, b in self.cycles:
            for _ in range(b):
                for off in range(a - 1):
                    img[start - 1 + off] = start + off + 1
                img[start + a - 2] = start
                start += a
        return tuple(img)

    def __str__(self) -> str:
        return format_cycle_type(self)


def conjugate(lam: Partition) -> Partition:
    parts = lam.parts
    if not parts:
        return lam
    return Partition(tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)))


def hook_lengths(lam: Partition) -> dict[tuple[int, int], HookRef]:
    """Hook of every box, keyed by its (row, col)."""
    conj = conjugate(lam).parts
    table: dict[tuple[int, int], HookRef] = {}
    for i, row_len in enumerate(lam.parts, start=1):
        for j in range(1, row_len + 1):
            leg = conj[j - 1] - i
            table[(i, j)] = HookRef(i, j, row_len - j + leg + 1, leg)
    return table


def remove_rim_hook(lam: Partition, hook: HookRef) -> tuple[Partition, int]:
    """Strip the rim hook anchored at hook's box.

    Returns the smaller partition together with the sign (-1)**leg. The hook
    must belong to the diagram of lam.
    """
    table = hook_lengths(lam)
    if table.get((hook.row, hook.col)) != hook:
        raise ValueError(f"{hook} is not a hook of {lam}")
    # the rim hook of a box starts at the end of the box's row
    nparts, leg = next((p, leg) for row, p, leg in _rim_hooks(lam.parts, hook.length) if row == hook.row - 1)
    assert leg == hook.leg
    return Partition(nparts), (-1 if leg % 2 else 1)


def _rim_hooks(parts: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Every length-k rim hook of the partition parts, as (top row, smaller
    partition, leg length) triples; rows are 0-based.

    On the first column hook scale (beta numbers b_i = parts[i] + len - 1 - i)
    removing the hook that starts in row i moves b_i down to b_i - k, past
    the markers of the leg rows i+1 .. p-1. The smaller partition is a slice
    of parts: each leg row moves up one row and loses a box, the hook's
    bottom row p-1 becomes parts[i] - k + leg, and trailing zeros are dropped.
    """
    out = []
    length = len(parts)
    for i in range(length):
        if parts[i] + length - 1 - i < k:
            break  # beta numbers decrease, so no lower row has a k-hook
        # beta_m > b_i - k  <=>  parts[m] - m > target
        target = parts[i] - i - k
        p = i + 1
        while p < length and parts[p] - p > target:
            p += 1
        if p < length and parts[p] - p == target:
            continue  # slot b_i - k is taken: no k-hook starts in row i
        leg = p - 1 - i
        if leg:
            nparts = parts[:i] + tuple([x - 1 for x in parts[i + 1 : p]]) + (parts[i] - k + leg,) + parts[p:]
        else:
            nparts = parts[:i] + (parts[i] - k,) + parts[p:]
        if p == length:
            end = length
            while end and not nparts[end - 1]:
                end -= 1
            nparts = nparts[:end]
        out.append((i, nparts, leg))
    return out


def diagonal_hooks(lam: Partition) -> tuple[int, ...]:
    """Hook lengths of the main diagonal boxes, strictly decreasing."""
    conj = conjugate(lam).parts
    out = []
    for i, p in enumerate(lam.parts, start=1):
        if p < i:
            break
        out.append(p - i + conj[i - 1] - i + 1)
    return tuple(out)


@cache
def _partitions_below(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_below(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, lexicographically decreasing: (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition(p) for p in _partitions_below(n, max(n, 1))]


@cache
def partition_count(n: int) -> int:
    """p(n) by the pentagonal number recurrence, independent of the enumerator."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def format_partition(lam: Partition) -> str:
    out = []
    for part, group in itertools.groupby(lam.parts):
        k = sum(1 for _ in group)
        out.append(f"{part}^{k}" if k > 1 else str(part))
    return ",".join(out)


_ATOM = re.compile(r"(\d+)(?:\^(\d+))?")

# parsed partitions and cycle types may move at most this many points
MAX_PARSE_N = 10_000


def _expand_atoms(atoms: list[str], kind: str) -> list[int]:
    """The entries spelled by atoms "a" or "a^k", sized before they are expanded."""
    pairs = []
    for atom in atoms:
        m = _ATOM.fullmatch(atom)
        if not m:
            raise ValueError(f"bad {kind} atom {atom!r}")
        pairs.append((int(m.group(1)), int(m.group(2) or 1)))
    # a zero part moves no point but would still be expanded: count it as one
    if sum(max(a, 1) * k for a, k in pairs) > MAX_PARSE_N:
        raise ValueError(f"{kind} too large: more than {MAX_PARSE_N} points")
    return [a for a, k in pairs for _ in range(k)]


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition; repeats may be spelled out ("3,3") or not ("3^2")."""
    text = text.strip()
    if not text:
        return Partition(())
    return Partition(tuple(_expand_atoms([atom.strip() for atom in text.split(",")], "partition")))


def format_cycle_type(sigma: CycleType) -> str:
    return " ".join(f"{a}^{b}" for a, b in sigma.cycles)


def parse_cycle_type(text: str) -> CycleType:
    """Inverse of format_cycle_type; atoms may appear in any order and repeat."""
    text = text.strip()
    if not text:
        return CycleType(())
    return CycleType.from_lengths(_expand_atoms(text.split(), "cycle type"))
