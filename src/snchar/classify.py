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

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .characters_an import MINUS, PLUS, RESTRICTED, AnCharacterLabel, an_irreducible_labels
from .partitions import CycleType, Partition, enumerate_partitions
from .spectral import MinPoly, fixed_space_dim, min_poly, spectrum_an, spectrum_sn

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


def _full(r: int) -> MinPoly:
    return MinPoly(r, frozenset(range(r)))


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
    parts = lam.parts
    if parts == (n,):
        raise ValueError("the trivial character is excluded")
    arg = ("sn", n, str(lam), r, m)

    if parts == (1,) * n:
        root = r // 2 if (m * (r - 1)) % 2 else 0
        return Prediction(*arg, (MinPoly(r, frozenset({root})),), "sign")
    if parts == (n - 1, 1) and r == n:
        return Prediction(*arg, (_without(n, {0}),), "standard")
    if n >= 4 and parts == (2,) + (1,) * (n - 2) and r == n:
        removed = {0} if n % 2 else {n // 2}
        return Prediction(*arg, (_without(n, removed),), "standard-twist")
    if parts == (3, 3) and r == 6:
        return Prediction(*arg, (_without(6, {2, 4}),), "3,3@6")
    if parts == (2, 2, 2) and r == 6:
        return Prediction(*arg, (_without(6, {1, 5}),), "2,2,2@6")
    if parts == (2, 2):
        table = {
            (4, 1): MinPoly(4, frozenset({0, 2})),
            (3, 1): MinPoly(3, frozenset({1, 2})),
            (2, 2): MinPoly(2, frozenset({0})),
        }
        if (r, m) in table:
            return Prediction(*arg, (table[(r, m)],), "2,2@4")
    return Prediction(*arg, (_full(r),), None)


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
    if label.variant == RESTRICTED:
        if lam.parts == (n,):
            raise ValueError("the trivial character is excluded")
        arg = ("an", n, str(label), r, m)
        if lam.parts == (n - 1, 1) and r == n:
            return Prediction(*arg, (_without(n, {0}),), "standard")
        return Prediction(*arg, (_full(r),), None)
    arg = ("an", n, f"[{lam}]+/-", r, m)
    if lam.parts == (3, 1, 1) and r == 5:
        pair = (MinPoly(5, frozenset({0, 2, 3})), MinPoly(5, frozenset({0, 1, 4})))
        return Prediction(*arg, tuple(sorted(pair, key=_pair_key)), "3,1,1@5")
    return Prediction(*arg, (_full(r), _full(r)), None)


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
        return {
            "kind": self.kind,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "cases": self.cases,
            "ok": self.ok,
            "mismatches": [list(t) for t in self.mismatches],
            "exceptional": [list(t) for t in self.exceptional],
        }


def _uniform_shapes(n: int, *, even_only: bool = False) -> list[tuple[int, int]]:
    out = []
    for r in range(2, n + 1):
        for m in range(1, n // r + 1):
            if even_only and (m * (r - 1)) % 2:
                continue
            out.append((r, m))
    return out


def _minpoly_single_n(group: str, n: int) -> tuple[int, list, list]:
    """Predicted against computed minimal polynomials of every nontrivial
    irreducible of S_n or A_n (group "sn" or "an") at every uniform class.

    Each label is paired with the labels whose spectra it is checked against:
    itself, or both halves of a split pair, sorted as predict_an sorts them.
    """
    if group == "sn":
        # (n) comes first: the trivial character is excluded
        labels = [(lam, (lam,)) for lam in enumerate_partitions(n)[1:]]
        shapes = _uniform_shapes(n)
    else:
        labels = [(label, AnCharacterLabel.split_pair(label.partition) if label.variant == PLUS else (label,))
                  for label in an_irreducible_labels(n)[1:] if label.variant != MINUS]
        shapes = _uniform_shapes(n, even_only=True)
    classes = [(r, m, CycleType.uniform(r, m, n)) for r, m in shapes]
    cases = 0
    mismatches = []
    exceptional = []
    for label, computed in labels:
        for r, m, sigma in classes:
            if group == "sn":
                pred = predict_sn(label, r, m)
                got = (min_poly(spectrum_sn(label, sigma)),)
            else:
                pred = predict_an(label, r, m)
                got = tuple(sorted((min_poly(spectrum_an(c, sigma)) for c in computed), key=_pair_key))
            cases += 1
            if got != pred.polys:
                mismatches.append(
                    (n, pred.label, r, m,
                     " | ".join(p.rendered for p in pred.polys),
                     " | ".join(p.rendered for p in got))
                )
            if pred.clause:
                exceptional.append((n, pred.label, r, m, pred.clause))
    return cases, mismatches, exceptional


def _eigenvalue_one_single_n(n: int) -> tuple[int, list, list]:
    lams = enumerate_partitions(n)
    classes = [CycleType.from_partition(mu) for mu in lams]
    predicted = predict_no_eigenvalue_one(n)
    for r, m in _uniform_shapes(n):
        sigma = CycleType.uniform(r, m, n)
        for lam in lams[1:]:  # (n) comes first: the trivial character is excluded
            pred = predict_sn(lam, r, m)
            if all(0 not in p.roots for p in pred.polys):
                predicted.add((lam, sigma))
    computed = {(lam, sigma) for lam in lams for sigma in classes if fixed_space_dim(lam, sigma) == 0}
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
    if min_n < floor or max_n < min_n:
        raise ValueError(f"need {floor} <= min_n <= max_n; got {min_n}..{max_n}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1; got {threads}")
    ns = range(min_n, max_n + 1)
    workers = min(threads, os.cpu_count() or 1, len(ns))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_n = list(pool.map(fn, ns))
    else:
        per_n = [fn(n) for n in ns]
    return VerificationReport(
        kind,
        min_n,
        max_n,
        sum(c for c, _, _ in per_n),
        tuple(x for _, ms, _ in per_n for x in ms),
        tuple(x for _, _, es in per_n for x in es),
    )


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
