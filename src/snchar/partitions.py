"""Partitions, hooks, and cycle types for symmetric group calculations.

Conventions used throughout the package:

* a partition is a weakly decreasing tuple of positive parts, written in text
  with exponent shorthand ("2^2,1^3" for (2,2,1,1,1));
* a cycle type is a multiset of cycle lengths with fixed points stored
  explicitly, written as space separated atoms ("3^1 1^2");
* the parsers refuse text spelling more than MAX_PARSE_N points, before
  expanding it.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
from collections import Counter

__all__ = [
    "Partition",
    "CycleType",
    "conjugate",
    "diagonal_hooks",
    "enumerate_partitions",
    "partition_count",
    "parse_partition",
    "format_partition",
    "parse_cycle_type",
    "format_cycle_type",
]


class _Record:
    """Base of the package's frozen records. An instance's __dict__ holds its
    fields in declaration order and nothing else: only construction sets
    them, and assigning or deleting an attribute raises AttributeError.
    Records are equal when of one class with equal fields and hash as the
    tuple of their fields. Every subclass compares, hashes and prints here,
    reading the fields by the names of its __init__'s parameters (vars would
    attach a dict to the instance); that __init__ checks them and stores each
    once, in order, through _set (Partition and CycleType check theirs in
    __post_init__, a hook that perfbench/tracer.py wraps by name)."""

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__init__.__code__.co_varnames[1:cls.__init__.__code__.co_argcount]

    def _set(self, **fields) -> None:
        # one attribute at a time keeps the class's shared-key dict, half the bytes of vars(self).update
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._asdict() == other._asdict()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


class Partition(_Record):
    """A partition stored as a weakly decreasing tuple of positive parts."""

    def __init__(self, parts: tuple[int, ...]) -> None:
        self._set(parts=tuple(int(p) for p in parts))
        self.__post_init__()

    def __post_init__(self) -> None:
        parts = self.parts
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition of parts, which the caller guarantees are positive
        ints in weakly decreasing order: built without __post_init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return format_partition(self)


class CycleType(_Record):
    """A conjugacy class of a symmetric group.

    Stored as (length, count) pairs with lengths strictly decreasing and
    counts positive; fixed points appear as the pair (1, k).
    """

    def __init__(self, cycles: tuple[tuple[int, int], ...]) -> None:
        self._set(cycles=tuple((int(a), int(b)) for a, b in cycles))
        self.__post_init__()

    def __post_init__(self) -> None:
        cyc = self.cycles
        if any(a < 1 or b < 1 for a, b in cyc):
            raise ValueError(f"lengths and counts must be positive: {cyc!r}")
        if any(cyc[i][0] <= cyc[i + 1][0] for i in range(len(cyc) - 1)):
            raise ValueError(f"lengths must be strictly decreasing: {cyc!r}")

    @classmethod
    def _unchecked(cls, cycles: tuple[tuple[int, int], ...]) -> "CycleType":
        """The class of cycles, which the caller guarantees are (int, int)
        tuples of positive lengths, strictly decreasing, and positive counts:
        built without __post_init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "cycles", cycles)
        return self

    @classmethod
    def from_lengths(cls, lengths) -> "CycleType":
        return cls(tuple(sorted(Counter(lengths).items(), reverse=True)))

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
        return sum(itertools.starmap(operator.mul, self.cycles))

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
        """Cycle type of the i-th power of any permutation of this type,
        built unchecked: it is a valid class by construction."""
        if i < 0:
            raise ValueError("exponent must be nonnegative")
        return CycleType._unchecked(tuple(_power_cycles(self.cycles, i)))

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


def _power_cycles(cycles, i: int) -> list[tuple[int, int]]:
    """The (length, count) pairs of the i-th power, i >= 0, of a permutation
    with the (length, count) pairs cycles, longest first: an a-cycle splits
    into gcd(a, i) cycles of length a / gcd(a, i), so i = 0 leaves fixed points."""
    counts: dict[int, int] = {}
    for a, b in cycles:
        g = math.gcd(a, i)
        counts[a // g] = counts.get(a // g, 0) + b * g
    return sorted(counts.items(), reverse=True)


def _check_sizes(lam: Partition, sigma: CycleType) -> None:
    """The rule every (lam, sigma) function applies: both on the same n points."""
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")


def _check_alternating(lam: Partition, sigma: CycleType) -> None:
    """_check_sizes, and sigma must be an even class, a class of the alternating group."""
    _check_sizes(lam, sigma)
    if not sigma.is_even():
        raise ValueError(f"class {sigma} is odd, not in the alternating group")


def conjugate(lam: Partition) -> Partition:
    """The transposed diagram, in one pass up the rows: the columns that end
    in row i (past the end of row i + 1) have height i + 1."""
    parts = lam.parts
    out: list[int] = []
    below = 0
    for i in range(len(parts) - 1, -1, -1):
        out += [i + 1] * (parts[i] - below)
        below = parts[i]
    return Partition._unchecked(tuple(out))


def diagonal_hooks(lam: Partition) -> tuple[int, ...]:
    """Hook lengths of the main diagonal boxes, strictly decreasing."""
    conj = conjugate(lam).parts
    out = []
    for i, p in enumerate(lam.parts, start=1):
        if p < i:
            break
        out.append(p - i + conj[i - 1] - i + 1)
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, lexicographically decreasing: (n) first, (1^n) last.

    Each follows from the one before, with no memo: the last part above 1
    drops by one to h, and the boxes it and the trailing 1s free are refilled
    greedily with parts of size at most h. The walk only yields valid
    partitions, so they are built unchecked."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_walk_partitions(n))


def _walk_partitions(n: int):
    """enumerate_partitions(n), one partition at a time, for n >= 0: a caller
    that keeps only a few holds O(1) of them."""
    parts = [n] if n else []
    while True:
        yield Partition._unchecked(tuple(parts))
        k = parts.index(1) if 1 in parts else len(parts)  # the trailing 1s start at k
        if not k:
            return
        h = parts[k - 1] - 1
        q, rest = divmod(len(parts) - k + 1, h)
        parts[k - 1:] = [h] * (q + 1) + ([rest] if rest else [])


# the largest n each sweep accepts (Python 3.11, one n per process). A classification sweep holds
# class-major columns over every partition of n; its cap is the last n whose peak RSS stays under
# 256 MB: 191 MB for minpoly-sn at 34 (333 MB at 36), 207 MB for minpoly-an at 36, 247 MB for
# eigenvalue-one at 28, each step of 2 in n multiplying the peak by 1.5 to 2.1. A uniform bound sweep
# holds one report per (partition, divisor of n): 298 704 reports at 40, 196 MB and 10-12 s for
# fomin-lulov, 198 MB and 6-11 s for estimate; 425 376 reports at 42. The robbins and tail sweeps hold
# one report per n: robbins, each check slower with n, takes 53 s to 10 000 at 24 MB, so time binds;
# tail takes 16 s to 250 000 at 240 MB (258 MB at 270 000), so memory binds.
MAX_SWEEP_N = {"minpoly-sn": 34, "minpoly-an": 36, "eigenvalue-one": 28, "fomin-lulov": 40, "estimate": 40,
               "robbins": 10_000, "tail": 250_000}


def _sweep(kind: str, per_n, floor: int, min_n: int, max_n: int, threads: int = 1):
    """per_n(n) for n = min_n .. max_n in n order, on at most threads worker processes (on one, as
    the caller iterates), once the range, kind's cap in MAX_SWEEP_N and threads are checked."""
    if min_n < floor or max_n < min_n:
        raise ValueError(f"need {floor} <= min_n <= max_n; got {min_n}..{max_n}")
    if max_n > MAX_SWEEP_N[kind]:
        raise ValueError(f"{kind} sweeps are capped by memory or time, and n = {max_n} > "
                         f"MAX_SWEEP_N = {MAX_SWEEP_N[kind]}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1; got {threads}")
    ns = range(min_n, max_n + 1)
    workers = 1 if threads == 1 else min(threads, os.cpu_count() or 1, len(ns))
    if workers == 1:
        return map(per_n, ns)
    # imported here, so that importing the package does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(per_n, ns))


def partition_count(n: int) -> int:
    """p(n) by the pentagonal number recurrence, independent of the enumerator,
    filled bottom-up in one list."""
    if n < 0:
        return 0
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - g]
            if g + k <= m:  # the other pentagonal number, k * (3 * k + 1) // 2
                total += sign * p[m - g - k]
            k += 1
        p.append(total)
    return p[n]


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
