"""Exact irreducible characters of alternating groups.

Restricting the symmetric group irreducible labeled by lam to even
permutations either stays irreducible (lam different from its conjugate; the
pair collapses to a single label) or splits into two conjugate constituents
(lam self conjugate). The split characters agree and equal half the parent
value except on one distinguished class: the class with one cycle per
diagonal hook length of lam. There the two values are

    ( chi(sigma) +- sqrt(chi(sigma) * product of diagonal hooks) ) / 2,

which lie in a quadratic field. Values are returned exactly as
AlgebraicValue instances. The "plus" label is pinned down by the convention
that it takes the value with nonnegative surd coefficient on the canonical
representative of the distinguished class (the product of consecutive
increasing cycles); the pair (plus, minus) is otherwise interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .characters_sn import chi
from .partitions import CycleType, Partition, conjugate, diagonal_hooks, enumerate_partitions

__all__ = [
    "RESTRICTED",
    "PLUS",
    "MINUS",
    "AlgebraicValue",
    "AnCharacterLabel",
    "split_square",
    "is_split",
    "special_class",
    "chi_an",
    "an_irreducible_labels",
    "an_classes",
    "an_class_size",
]

RESTRICTED = "restricted"
PLUS = "plus"
MINUS = "minus"


@cache
def _factorize(q: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of q >= 1 as (prime, exponent) pairs, by trial division."""
    assert q >= 1
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


@dataclass(frozen=True)
class AlgebraicValue:
    """Exact element a + b*sqrt(d) of a quadratic field (d squarefree, sign
    of the radicand carried inside d; d = 1 means the value is rational and
    then b = 0). Arithmetic refuses to mix two different surds."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 1

    def __post_init__(self) -> None:
        a, b, d = Fraction(self.a), Fraction(self.b), int(self.d)
        if d == 0:
            raise ValueError("d must be nonzero")
        if b:
            s, d0 = split_square(d)
            b *= s
            d = d0
        if not b:
            d = 1
        elif d == 1:
            a, b = a + b, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_rational(cls, q) -> "AlgebraicValue":
        return cls(Fraction(q))

    @property
    def is_rational(self) -> bool:
        return self.d == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def _coerced(self, other) -> "AlgebraicValue":
        if isinstance(other, AlgebraicValue):
            return other
        return AlgebraicValue(Fraction(other))

    def __add__(self, other) -> "AlgebraicValue":
        other = self._coerced(other)
        if self.b and other.b and self.d != other.d:
            raise ValueError(f"cannot add values over sqrt({self.d}) and sqrt({other.d})")
        d = self.d if self.b else other.d
        return AlgebraicValue(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraicValue":
        return AlgebraicValue(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "AlgebraicValue":
        return self + (-self._coerced(other))

    def __mul__(self, other) -> "AlgebraicValue":
        other = self._coerced(other)
        if self.b and other.b:
            if self.d != other.d:
                raise ValueError(f"cannot multiply values over sqrt({self.d}) and sqrt({other.d})")
            return AlgebraicValue(
                self.a * other.a + self.b * other.b * self.d,
                self.a * other.b + self.b * other.a,
                self.d,
            )
        d = self.d if self.b else other.d
        return AlgebraicValue(self.a * other.a, self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def conjugate(self) -> "AlgebraicValue":
        """The field conjugate a - b*sqrt(d)."""
        return AlgebraicValue(self.a, -self.b, self.d)

    def complex_conjugate(self) -> "AlgebraicValue":
        """Complex conjugation: flips the surd only for negative radicand."""
        return self.conjugate() if self.d < 0 else self

    def approx(self) -> complex:
        root = math.sqrt(self.d) if self.d > 0 else 1j * math.sqrt(-self.d)
        return float(self.a) + float(self.b) * root

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a}{sign}{abs(self.b)}√{self.d}"

    def to_json_dict(self) -> dict:
        return {
            "a_num": self.a.numerator,
            "a_den": self.a.denominator,
            "b_num": self.b.numerator,
            "b_den": self.b.denominator,
            "D": self.d,
        }


def is_split(lam: Partition) -> bool:
    """True when the restriction of lam to even permutations splits in two."""
    return _splits(lam, conjugate(lam))


def _splits(lam: Partition, conj: Partition) -> bool:
    # self conjugate, on n >= 2 points: A_0 and A_1 have one irreducible
    return lam == conj and lam.n >= 2


def special_class(lam: Partition) -> CycleType | None:
    """The distinguished class of a self conjugate lam: one cycle per diagonal
    hook length (those are distinct and odd). None when lam is not split."""
    if not is_split(lam):
        return None
    hooks = diagonal_hooks(lam)
    assert all(h % 2 for h in hooks) and len(set(hooks)) == len(hooks)
    return CycleType.from_lengths(hooks)


@dataclass(frozen=True)
class AnCharacterLabel:
    """Label of an alternating group irreducible.

    For lam that does not split the variant is "restricted" and lam is
    normalized to the lexicographically larger member of the pair
    {lam, conjugate(lam)}, both of which restrict to the same irreducible.
    For split lam (self conjugate, n >= 2) the variants are "plus" and "minus".
    """

    partition: Partition
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in (RESTRICTED, PLUS, MINUS):
            raise ValueError(f"bad variant {self.variant!r}")
        split = is_split(self.partition)
        if self.variant == RESTRICTED:
            if split:
                raise ValueError(f"{self.partition} is self conjugate; use plus/minus")
            other = conjugate(self.partition)
            if other.parts > self.partition.parts:
                object.__setattr__(self, "partition", other)
        elif not split:
            raise ValueError(f"{self.partition} does not split; use restricted")

    @classmethod
    def restricted(cls, lam: Partition) -> "AnCharacterLabel":
        return cls(lam, RESTRICTED)

    @classmethod
    def split_pair(cls, lam: Partition) -> tuple["AnCharacterLabel", "AnCharacterLabel"]:
        return cls(lam, PLUS), cls(lam, MINUS)

    def __str__(self) -> str:
        tag = {RESTRICTED: "", PLUS: "+", MINUS: "-"}[self.variant]
        return f"[{self.partition}]{tag}"


def chi_an(label: AnCharacterLabel, sigma: CycleType, *, other_half: bool = False) -> AlgebraicValue:
    """Exact character value of an alternating group irreducible.

    sigma must be an even class. When sigma splits in A_n the value refers to
    the class of the canonical representative (CycleType.permutation); pass
    other_half=True for the companion class. The distinction only matters on
    the distinguished class of a split label.
    """
    lam = label.partition
    if lam.n != sigma.n:
        raise ValueError(f"size mismatch: partition of {lam.n} vs class of {sigma.n}")
    if not sigma.is_even():
        raise ValueError(f"class {sigma} is odd, not in the alternating group")
    x = chi(lam, sigma)
    if label.variant == RESTRICTED:
        return AlgebraicValue.from_rational(x)
    if sigma != special_class(lam):
        if x % 2:
            raise RuntimeError("odd parent value away from the distinguished class (internal bug)")
        return AlgebraicValue.from_rational(Fraction(x, 2))
    if abs(x) != 1:
        raise RuntimeError("parent value on the distinguished class must be +-1 (internal bug)")
    c = x * math.prod(diagonal_hooks(lam))
    b, d = split_square(c)
    coeff = Fraction(b, 2)
    if (label.variant == MINUS) != other_half:
        coeff = -coeff
    return AlgebraicValue(Fraction(x, 2), coeff, d)


def an_irreducible_labels(n: int) -> list[AnCharacterLabel]:
    """All irreducible labels of the alternating group on n points.

    Conjugate pairs are listed once (under the lexicographically larger
    partition); split partitions contribute plus and minus."""
    out: list[AnCharacterLabel] = []
    for lam in enumerate_partitions(n):
        other = conjugate(lam)
        if _splits(lam, other):
            out.extend(AnCharacterLabel.split_pair(lam))
        elif lam.parts >= other.parts:
            out.append(AnCharacterLabel.restricted(lam))
    return out


def an_classes(n: int) -> list[tuple[CycleType, int]]:
    """Conjugacy classes of the alternating group as (type, half) pairs.

    half is 0 for a class that is a full symmetric group class, +1 / -1 for
    the two halves of a class that splits (+1 holds the canonical
    representative)."""
    out: list[tuple[CycleType, int]] = []
    for mu in enumerate_partitions(n):
        t = CycleType.from_partition(mu)
        if not t.is_even():
            continue
        if t.splits_in_alternating():
            out.append((t, 1))
            out.append((t, -1))
        else:
            out.append((t, 0))
    return out


def an_class_size(sigma: CycleType, half: int) -> int:
    size = sigma.class_size()
    if half:
        if not sigma.splits_in_alternating():
            raise ValueError(f"{sigma} does not split")
        return size // 2
    return size
