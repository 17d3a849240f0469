"""Minimal polynomial classification for permutation images, with sweeps.

The classification says which irreducible representations map a product of m
disjoint r-cycles to a matrix whose minimal polynomial is smaller than
x^r - 1, and what the smaller polynomial is. predict_sn and predict_an code
the classified cases; the verify_* sweeps recompute every minimal polynomial
from character data and compare, reporting mismatches in both directions.

verify_eigenvalue_one cross checks the companion statement about eigenvalue 1: over
all partitions and all cycle types (not only uniform ones), the pairs whose
image has no eigenvalue 1 are exactly the classified uniform cases whose
minimal polynomial misses the root 1, together with a short explicit list
(sign character at odd classes, two single cycle families, one near uniform
family, and four sporadic pairs).
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count

from .characters_an import MINUS, RESTRICTED, AnCharacterLabel, an_irreducible_labels, special_class
from .characters_sn import degree
from .partitions import CycleType, Partition, _sweep_range, enumerate_partitions
from .spectral import (MinPoly, SpectrumProfile, _an_profile, _check_counts, _fixed_space_weights,
                       _full_min_poly, _ramanujan_table, _sweep_sums, min_poly)

__all__ = [
    "Prediction",
    "VerificationReport",
    "predict_sn",
    "predict_an",
    "predict_no_eigenvalue_one",
    "verify_minpoly_sn",
    "verify_minpoly_an",
    "verify_eigenvalue_one",
]


def _without(r: int, removed) -> MinPoly:
    return MinPoly(r, frozenset(range(r)) - frozenset(removed))


def _pair_key(p: MinPoly) -> tuple[int, ...]:
    return tuple(sorted(p.roots))


@dataclass(frozen=True)
class Prediction:
    """Expected minimal polynomial(s) of one irreducible at one uniform class.

    polys has one entry for symmetric group characters and restricted
    alternating ones, and two (canonically ordered, as an unordered pair) for
    a split pair of alternating halves. clause is None in the generic case
    where the prediction is the full x^r - 1.
    """

    group: str
    n: int
    label: str
    r: int
    m: int
    polys: tuple[MinPoly, ...]
    clause: str | None

    @property
    def is_generic(self) -> bool:
        return self.clause is None


def _check_shape(n: int, r: int, m: int) -> None:
    if r < 2 or m < 1 or r * m > n:
        raise ValueError(f"need r >= 2, m >= 1, r*m <= n; got r={r} m={m} n={n}")


def predict_sn(lam: Partition, r: int, m: int) -> Prediction:
    """Minimal polynomial of the image of [r^m 1^(n-rm)] under lam.

    Valid for nontrivial lam and n >= 3. Everything off the classified list
    predicts the full x^r - 1.
    """
    n = lam.n
    if n < 3:
        raise ValueError(f"classification starts at n = 3: {n}")
    _check_shape(n, r, m)
    if lam.parts == (n,):
        raise ValueError("the trivial character is excluded")
    return Prediction("sn", n, str(lam), r, m, *_predict_sn(lam, r, m))


def _predict_sn(lam: Partition, r: int, m: int) -> tuple[tuple[MinPoly, ...], str | None]:
    """The (polys, clause) of predict_sn, for checked arguments; r, m and single parts are tested first."""
    parts = lam.parts
    if parts[0] == 1:
        root = r // 2 if (m * (r - 1)) % 2 else 0
        return (MinPoly(r, frozenset({root})),), "sign"
    if m == 1 and parts[1] == 1 and r == lam.n:  # a hook at the n-cycle
        if parts == (r - 1, 1):
            return (_without(r, {0}),), "standard"
        if r >= 4 and parts == (2,) + (1,) * (r - 2):
            removed = {0} if r % 2 else {r // 2}
            return (_without(r, removed),), "standard-twist"
    if r == 6 and parts == (3, 3):
        return (_without(6, {2, 4}),), "3,3@6"
    if r == 6 and parts == (2, 2, 2):
        return (_without(6, {1, 5}),), "2,2,2@6"
    if parts == (2, 2):
        table = {
            (4, 1): MinPoly(4, frozenset({0, 2})),
            (3, 1): MinPoly(3, frozenset({1, 2})),
            (2, 2): MinPoly(2, frozenset({0})),
        }
        if (r, m) in table:
            return (table[(r, m)],), "2,2@4"
    return (_full_min_poly(r),), None


def _an_text(label: AnCharacterLabel) -> str:
    """A prediction's label: the restricted label, or the pair [lam]+/- of split halves."""
    return str(label) if label.variant == RESTRICTED else f"[{label.partition}]+/-"


def predict_an(label: AnCharacterLabel, r: int, m: int) -> Prediction:
    """Alternating group version of predict_sn, for n >= 5 and even shapes.

    For a split label the returned pair covers both halves, ordered by
    sorted root exponents; the halves are not individually pinned.
    """
    lam = label.partition
    n = lam.n
    if n < 5:
        raise ValueError(f"classification starts at n = 5: {n}")
    _check_shape(n, r, m)
    if (m * (r - 1)) % 2:
        raise ValueError(f"shape {r}^{m} is odd, not in the alternating group")
    if label.variant == RESTRICTED and lam.parts == (n,):
        raise ValueError("the trivial character is excluded")
    return Prediction("an", n, _an_text(label), r, m, *_predict_an(label, r, m))


def _predict_an(label: AnCharacterLabel, r: int, m: int) -> tuple[tuple[MinPoly, ...], str | None]:
    """The (polys, clause) of predict_an, for checked arguments."""
    parts = label.partition.parts
    if label.variant == RESTRICTED:
        if r == parts[0] + 1 and parts[1:] == (1,):  # (n - 1, 1) at r = n
            return (_without(r, {0}),), "standard"
        return (_full_min_poly(r),), None
    if r == 5 and parts == (3, 1, 1):
        pair = (MinPoly(5, frozenset({0, 2, 3})), MinPoly(5, frozenset({0, 1, 4})))
        return tuple(sorted(pair, key=_pair_key)), "3,1,1@5"
    return (_full_min_poly(r), _full_min_poly(r)), None


def predict_no_eigenvalue_one(n: int) -> set[tuple[Partition, CycleType]]:
    """Pairs (lam, class) whose image provably has no eigenvalue 1.

    This is the explicit list that is not already covered by the uniform
    class predictions: the sign character at every odd class, the two single
    cycle families, the near uniform family at odd n, and four sporadic
    pairs at n = 6, 8, 10.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3: {n}")
    out: set[tuple[Partition, CycleType]] = set()
    sign_char = Partition((1,) * n)
    for mu in enumerate_partitions(n):
        ct = CycleType.from_partition(mu)
        if not ct.is_even():
            out.add((sign_char, ct))
    full_cycle = CycleType.from_lengths([n])
    out.add((Partition((n - 1, 1)), full_cycle))
    if n % 2:
        out.add((Partition((2,) + (1,) * (n - 2)), full_cycle))
        if n >= 5:
            out.add((Partition((2, 2) + (1,) * (n - 4)), CycleType.from_lengths([n - 2, 2])))
    if n == 6:
        out.add((Partition((2, 2, 2)), CycleType.from_lengths([3, 2, 1])))
    if n == 8:
        out.add((Partition((4, 4)), CycleType.from_lengths([5, 3])))
        out.add((Partition((2, 2, 2, 2)), CycleType.from_lengths([5, 3])))
    if n == 10:
        out.add((Partition((2,) * 5), CycleType.from_lengths([5, 3, 2])))
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive sweep; ok means zero mismatches."""

    kind: str
    n_min: int
    n_max: int
    cases: int
    mismatches: tuple[tuple, ...]
    exceptional: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        # a shallow copy of the fields (tuples dump as JSON arrays), never the instance's own dict
        return {**vars(self), "ok": self.ok}


def _uniform_shapes(n: int, *, even_only: bool = False) -> list[tuple[int, int]]:
    return [(r, m) for r in range(2, n + 1) for m in range(1, n // r + 1) if not (even_only and m * (r - 1) % 2)]


def _minpoly_single_n(group: str, n: int) -> tuple[int, list, list]:
    """Predicted against computed minimal polynomials of every nontrivial
    irreducible of S_n or A_n (group "sn" or "an") at every uniform class.

    The parent spectra come from one _sweep_sums pass over the class-major
    columns of every partition of n, checked a class column at a time. Where
    every multiplicity is positive the case has the shared x^r - 1; profiles
    are built only where one is zero, and for the halves of a split pair,
    sorted as predict_an sorts them.
    """
    parts = enumerate_partitions(n)
    if group == "sn":
        # (n) comes first: the trivial character is excluded
        labels = lams = parts[1:]
        shapes = _uniform_shapes(n)
    else:
        labels = [label for label in an_irreducible_labels(n)[1:] if label.variant != MINUS]
        lams = [label.partition for label in labels]
        shapes = _uniform_shapes(n, even_only=True)
    classes = [CycleType.uniform(r, m, n) for r, m in shapes]
    predict = _predict_sn if group == "sn" else _predict_an
    degrees = [degree(lam) for lam in parts]
    # per class, per divisor g of its order: one multiplicity per partition of n
    sums = list(_sweep_sums(n, classes, _ramanujan_table))
    zeros = []  # per class: the partitions with a zero multiplicity
    for (r, _), by_gcd in zip(shapes, sums):
        _check_counts(r, by_gcd, degrees)
        zeros.append(set().union(*(compress(count(), map(operator.not_, column)) for column in by_gcd)))
    index = {lam: i for i, lam in enumerate(parts)}
    cases = 0
    mismatches = []
    exceptional = []
    for label, lam in zip(labels, lams):
        i = index[lam]
        if group == "sn":
            text, split = str(lam), False
        else:
            text, special, split = _an_text(label), special_class(lam), label.variant != RESTRICTED
            halves = AnCharacterLabel.split_pair(lam) if split else (label,)
        for (r, m), sigma, by_gcd, zero in zip(shapes, classes, sums, zeros):
            polys, clause = predict(label, r, m)
            if split or i in zero:
                base = SpectrumProfile._from_gcd(r, [column[i] for column in by_gcd], degrees[i])
                got = ((min_poly(base),) if group == "sn" else
                       tuple(sorted((min_poly(_an_profile(h, sigma, base, special)) for h in halves), key=_pair_key)))
            else:
                got = (_full_min_poly(r),)
            cases += 1
            if got != polys:
                mismatches.append(
                    (n, text, r, m,
                     " | ".join(p.rendered for p in polys),
                     " | ".join(p.rendered for p in got))
                )
            if clause:
                exceptional.append((n, text, r, m, clause))
    return cases, mismatches, exceptional


def _eigenvalue_one_single_n(n: int) -> tuple[int, list, list]:
    """Pairs without eigenvalue 1, read off the character table of S_n: one
    column of fixed space dimensions per class, over every partition."""
    lams = enumerate_partitions(n)
    classes = [CycleType.from_partition(mu) for mu in lams]
    computed = {
        (lam, sigma)
        for sigma, (dims,) in zip(classes, _sweep_sums(n, classes, _fixed_space_weights))
        for lam in compress(lams, map(operator.not_, dims))
    }
    predicted = predict_no_eigenvalue_one(n)
    uniform = [(r, m, CycleType.uniform(r, m, n)) for r, m in _uniform_shapes(n)]
    for lam in lams[1:]:  # (n) comes first: the trivial character is excluded
        for r, m, sigma in uniform:
            if all(0 not in p.roots for p in _predict_sn(lam, r, m)[0]):
                predicted.add((lam, sigma))
    order = lambda pair: (pair[0].parts, pair[1].cycles)
    mismatches = []
    for lam, sigma in sorted(computed - predicted, key=order):
        mismatches.append((n, str(lam), str(sigma), "unpredicted"))
    for lam, sigma in sorted(predicted - computed, key=order):
        mismatches.append((n, str(lam), str(sigma), "predicted-but-eigenvalue-1-present"))
    exceptional = [(n, str(lam), str(sigma)) for lam, sigma in sorted(computed, key=order)]
    return len(lams) ** 2, mismatches, exceptional


def _sweep(kind: str, fn, floor: int, min_n: int, max_n: int, threads: int) -> VerificationReport:
    """Run fn(n) for n = min_n .. max_n on at most threads worker processes."""
    ns = _sweep_range(floor, min_n, max_n)
    if threads < 1:
        raise ValueError(f"threads must be at least 1; got {threads}")
    workers = min(threads, os.cpu_count() or 1, len(ns))
    if workers > 1:
        # imported here, so that importing the package does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_n = list(pool.map(fn, ns))
    else:
        per_n = [fn(n) for n in ns]
    cases, mismatches, exceptional = zip(*per_n)
    return VerificationReport(kind, min_n, max_n, sum(cases), tuple(chain(*mismatches)), tuple(chain(*exceptional)))


def verify_minpoly_sn(max_n: int, *, min_n: int = 3, threads: int = 1) -> VerificationReport:
    """Compare predicted and computed minimal polynomials over S_n sweeps."""
    return _sweep("minpoly-sn", partial(_minpoly_single_n, "sn"), 3, min_n, max_n, threads)


def verify_minpoly_an(max_n: int, *, min_n: int = 5, threads: int = 1) -> VerificationReport:
    """Compare predicted and computed minimal polynomials over A_n sweeps."""
    return _sweep("minpoly-an", partial(_minpoly_single_n, "an"), 5, min_n, max_n, threads)


def verify_eigenvalue_one(max_n: int, *, min_n: int = 3, threads: int = 1) -> VerificationReport:
    """Exhaust all (partition, class) pairs without eigenvalue 1 and compare.

    The exceptional list of the report is the computed set itself, one entry
    per pair whose image has no eigenvalue 1.
    """
    return _sweep("eigenvalue-one", _eigenvalue_one_single_n, 3, min_n, max_n, threads)
