"""Minimal polynomial classification for permutation images, with sweeps.

The classification says which irreducible representations map a product of m
disjoint r-cycles to a matrix whose minimal polynomial is smaller than
x^r - 1, and what the smaller polynomial is. One table per group and class,
_exceptions_sn and _exceptions_an, codes the classified cases; predict_sn,
predict_an and the sweeps all read it. The verify_* sweeps recompute every
minimal polynomial from character data and compare, reporting mismatches in
both directions.

verify_eigenvalue_one cross checks the companion statement about eigenvalue 1: over
all partitions and all cycle types (not only uniform ones), the pairs whose
image has no eigenvalue 1 are exactly the classified uniform cases whose
minimal polynomial misses the root 1, together with a short explicit list
(sign character at odd classes, two single cycle families, one near uniform
family, and four sporadic pairs).
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import chain, compress, count

from .characters_an import RESTRICTED, AnCharacterLabel, special_class
from .partitions import CycleType, Partition, _Record, _sweep, conjugate, enumerate_partitions
from .spectral import (MinPoly, SpectrumProfile, _check_counts, _fixed_space_weights, _full_min_poly, _halves,
                       _ramanujan_table, _sweep_sums, min_poly)

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


class Prediction(_Record):
    """Expected minimal polynomial(s) of one irreducible at one uniform class.

    polys has one entry for symmetric group characters and restricted
    alternating ones, and two (canonically ordered, as an unordered pair) for
    a split pair of alternating halves. clause is None in the generic case
    where the prediction is the full x^r - 1.
    """

    def __init__(self, group: str, n: int, label: str, r: int, m: int, polys: tuple[MinPoly, ...],
                 clause: str | None) -> None:
        self._set(group=group, n=n, label=label, r=r, m=m, polys=polys, clause=clause)

    @property
    def is_generic(self) -> bool:
        return self.clause is None


def _check_shape(n: int, r: int, m: int) -> None:
    if r < 2 or m < 1 or r * m > n:
        raise ValueError(f"need r >= 2, m >= 1, r*m <= n; got r={r} m={m} n={n}")


def predict_sn(lam: Partition, r: int, m: int) -> Prediction:
    """Minimal polynomial of the image of [r^m 1^(n-rm)] under lam.

    Valid for nontrivial lam and n >= 3. Everything off the table of the
    class (_exceptions_sn) predicts the full x^r - 1.
    """
    n = lam.n
    if n < 3:
        raise ValueError(f"classification starts at n = 3: {n}")
    _check_shape(n, r, m)
    if lam.parts == (n,):
        raise ValueError("the trivial character is excluded")
    return Prediction("sn", n, str(lam), r, m, *_exceptions_sn(n, r, m).get(lam.parts, ((_full_min_poly(r),), None)))


def _exceptions_sn(n: int, r: int, m: int) -> dict[tuple[int, ...], tuple[tuple[MinPoly, ...], str]]:
    """The classification of S_n at [r^m 1^(n-rm)], for checked arguments: the parts of each label
    it singles out, with its (polys, clause). Every other nontrivial label has x^r - 1."""
    table = {(1,) * n: ((MinPoly(r, frozenset({r // 2 if m * (r - 1) % 2 else 0})),), "sign")}
    if r == n:  # hooks at the n-cycle
        table[r - 1, 1] = (_without(r, {0}),), "standard"
        if r >= 4:
            table[(2,) + (1,) * (r - 2)] = (_without(r, {0} if r % 2 else {r // 2}),), "standard-twist"
    if n == r == 6:
        table[3, 3] = (_without(6, {2, 4}),), "3,3@6"
        table[2, 2, 2] = (_without(6, {1, 5}),), "2,2,2@6"
    if n == 4 and (roots := {(4, 1): {0, 2}, (3, 1): {1, 2}, (2, 2): {0}}.get((r, m))):
        table[2, 2] = (MinPoly(r, frozenset(roots)),), "2,2@4"
    return table


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
    full = (_full_min_poly(r),) * (1 if label.variant == RESTRICTED else 2)
    text = str(label) if label.variant == RESTRICTED else f"[{lam}]+/-"  # a split label stands for the pair
    return Prediction("an", n, text, r, m, *_exceptions_an(n, r, m).get(lam.parts, (full, None)))


def _exceptions_an(n: int, r: int, m: int) -> dict[tuple[int, ...], tuple[tuple[MinPoly, ...], str]]:
    """_exceptions_sn for A_n at an even shape: a split pair is keyed by its partition, with
    one polynomial per half in predict_an's order."""
    table = {}
    if r == n:  # (n - 1, 1) at the n-cycle, for odd n
        table[n - 1, 1] = (_without(r, {0}),), "standard"
    if n == r == 5:
        pair = (MinPoly(5, frozenset({0, 2, 3})), MinPoly(5, frozenset({0, 1, 4})))
        table[3, 1, 1] = tuple(sorted(pair, key=_pair_key)), "3,1,1@5"
    return table


def predict_no_eigenvalue_one(n: int) -> set[tuple[Partition, CycleType]]:
    """Pairs (lam, class) whose image provably has no eigenvalue 1.

    The sign character at every odd class, the two single cycle families,
    the near uniform family at odd n, and four sporadic pairs at n = 6, 8,
    10. These overlap the uniform class predictions: they hold every
    _exceptions_sn pair without the root 1 except (2,2) at 3^1 1^1, n = 4.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3: {n}")
    out: set[tuple[Partition, CycleType]] = set()
    sign_char = Partition((1,) * n)
    for mu in enumerate_partitions(n):
        if (n - len(mu.parts)) % 2:  # an odd class: n minus the number of cycles is odd
            out.add((sign_char, CycleType.from_partition(mu)))
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


class VerificationReport(_Record):
    """Outcome of one exhaustive sweep; ok means zero mismatches."""

    def __init__(self, kind: str, n_min: int, n_max: int, cases: int, mismatches: tuple[tuple, ...],
                 exceptional: tuple[tuple, ...]) -> None:
        self._set(kind=kind, n_min=n_min, n_max=n_max, cases=cases, mismatches=mismatches,
                  exceptional=exceptional)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "ok": self.ok}


def _uniform_shapes(n: int, *, even_only: bool = False) -> list[tuple[int, int]]:
    return [(r, m) for r in range(2, n + 1) for m in range(1, n // r + 1) if not (even_only and m * (r - 1) % 2)]


def _minpoly_single_n(group: str, n: int) -> tuple[int, list, list]:
    """Predicted against computed minimal polynomials of every nontrivial
    irreducible of S_n or A_n (group "sn" or "an") at every uniform class.

    The parent spectra come from one _sweep_sums pass over the class-major
    columns of every partition of n, and the degrees from its identity
    column. Each class column is checked whole, then decided at once: a
    label is x^r - 1 on both sides unless it has a zero multiplicity there,
    is in the class's table of exceptions, or is a split pair. Profiles are
    built only for a zero and for the halves of a split pair, sorted as
    predict_an sorts them. Entries found per (label row, class) are sorted
    back into label-major order. An A_n pair {lam, lam'} is labelled by the
    row of its larger member, and a self-conjugate row stands for both halves.
    """
    parts = enumerate_partitions(n)
    index = {lam.parts: i for i, lam in enumerate(parts)}
    if group == "sn":
        shapes, exceptions, split = _uniform_shapes(n), _exceptions_sn, {}
        labels = range(1, len(parts))  # (n) comes first: the trivial character is excluded
        text = lambda i: str(parts[i])
    else:
        shapes, exceptions = _uniform_shapes(n, even_only=True), _exceptions_an
        conjugates = [conjugate(lam).parts for lam in parts]
        labels = {i for i in range(1, len(parts)) if parts[i].parts >= conjugates[i]}
        split = {i: special_class(parts[i]) for i in labels if parts[i].parts == conjugates[i]}
        text = lambda i: f"[{parts[i]}]+/-" if i in split else f"[{parts[i]}]"
    classes = [CycleType.uniform(r, m, n) for r, m in shapes]
    # per class, per divisor g of its order: one multiplicity per partition of n; last, the identity's
    sums = list(_sweep_sums(parts, classes + [CycleType.uniform(1, n, n)], _ramanujan_table))
    (degrees,) = sums.pop()
    render = lambda polys: " | ".join(p.rendered for p in polys)
    mismatches, exceptional = [], []  # (label row, class index, entry)
    for k, ((r, m), sigma, by_gcd) in enumerate(zip(shapes, classes, sums)):
        _check_counts(r, by_gcd, degrees)
        table = {index[key]: entry for key, entry in exceptions(n, r, m).items()}
        zero = set().union(*(compress(count(), map(operator.not_, column)) for column in by_gcd))
        full = _full_min_poly(r)
        for i in {i for i in zero if i in labels} | table.keys() | split.keys():
            polys, clause = table.get(i, ((full, full) if i in split else (full,), None))
            got = (full,)
            if i in split or i in zero:
                base = SpectrumProfile._from_gcd(r, [column[i] for column in by_gcd], degrees[i])
                got = tuple(sorted(map(min_poly, _halves(sigma, base, split[i])),
                                   key=_pair_key)) if i in split else (min_poly(base),)
            if got != polys:
                mismatches.append((i, k, (n, text(i), r, m, render(polys), render(got))))
            if clause:
                exceptional.append((i, k, (n, text(i), r, m, clause)))
    label_major = lambda found: [entry for *_, entry in sorted(found)]
    return len(labels) * len(shapes), label_major(mismatches), label_major(exceptional)


def _eigenvalue_one_single_n(n: int) -> tuple[int, list, list]:
    """Pairs without eigenvalue 1, read off the character table of S_n: one
    column of fixed space dimensions per class, over every partition. Each
    uniform class adds the labels of its table of exceptions whose predicted
    polynomials all lack the root 1. Pairs are held as (row, class) indices,
    and both orders are lexicographically decreasing, so descending indices
    sort ascending."""
    lams = enumerate_partitions(n)
    classes = [CycleType.from_partition(mu) for mu in lams]
    computed = {(i, k) for k, (dims,) in enumerate(_sweep_sums(lams, classes, _fixed_space_weights))
                for i in compress(count(), map(operator.not_, dims))}
    row = {lam.parts: i for i, lam in enumerate(lams)}
    col = {sigma.cycles: k for k, sigma in enumerate(classes)}
    predicted = {(row[lam.parts], col[sigma.cycles]) for lam, sigma in predict_no_eigenvalue_one(n)}
    for r, m in _uniform_shapes(n):
        k = col[CycleType.uniform(r, m, n).cycles]
        predicted.update((row[key], k) for key, (polys, _) in _exceptions_sn(n, r, m).items()
                         if all(0 not in p.roots for p in polys))
    entries = lambda pairs, *tag: [(n, str(lams[i]), str(classes[k]), *tag) for i, k in sorted(pairs, reverse=True)]
    mismatches = entries(computed - predicted, "unpredicted")
    mismatches += entries(predicted - computed, "predicted-but-eigenvalue-1-present")
    return len(lams) ** 2, mismatches, entries(computed)


def _verify(kind: str, per_n, floor: int, min_n: int, max_n: int, threads: int) -> VerificationReport:
    """The report of the sweep of per_n over n = min_n .. max_n: its per-n (cases, mismatches,
    exceptional) triples, zipped."""
    cases, mismatches, exceptional = zip(*_sweep(kind, per_n, floor, min_n, max_n, threads))
    return VerificationReport(kind, min_n, max_n, sum(cases), tuple(chain(*mismatches)), tuple(chain(*exceptional)))


def verify_minpoly_sn(max_n: int, *, min_n: int = 3, threads: int = 1) -> VerificationReport:
    """Compare predicted and computed minimal polynomials over S_n sweeps."""
    return _verify("minpoly-sn", partial(_minpoly_single_n, "sn"), 3, min_n, max_n, threads)


def verify_minpoly_an(max_n: int, *, min_n: int = 5, threads: int = 1) -> VerificationReport:
    """Compare predicted and computed minimal polynomials over A_n sweeps."""
    return _verify("minpoly-an", partial(_minpoly_single_n, "an"), 5, min_n, max_n, threads)


def verify_eigenvalue_one(max_n: int, *, min_n: int = 3, threads: int = 1) -> VerificationReport:
    """Exhaust all (partition, class) pairs without eigenvalue 1 and compare.

    The exceptional list of the report is the computed set itself, one entry
    per pair whose image has no eigenvalue 1.
    """
    return _verify("eigenvalue-one", _eigenvalue_one_single_n, 3, min_n, max_n, threads)
