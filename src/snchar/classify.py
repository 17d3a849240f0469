"""Minimal polynomial classification for permutation images, with sweeps.

The classification says which irreducible representations map a product of m
disjoint r-cycles to a matrix whose minimal polynomial is smaller than
x^r - 1, and what the smaller polynomial is. One table per group and class,
_exceptions_sn and _exceptions_an, codes the classified cases; predict_sn,
predict_an and the sweeps all read it. The verify_* sweeps recompute every
minimal polynomial from character data and compare, reporting mismatches in
both directions; the minimal polynomial sweeps read a polynomial off each
row's zero multiplicities and build spectra only at a split pair's
distinguished class, where its halves differ.

verify_eigenvalue_one cross checks the companion statement about eigenvalue 1: over
all partitions and all cycle types (not only uniform ones), the pairs whose
image has no eigenvalue 1 are exactly the classified uniform cases whose
minimal polynomial misses the root 1, together with a short explicit list (sign
character at odd classes, one near uniform family, and four sporadic pairs).
predict_no_eigenvalue_one states it, reading the table for the first part.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, count

from .characters_an import RESTRICTED, AnCharacterLabel, special_class
from .partitions import (CycleType, Partition, _conjugate_parts, _cycle_pairs, _Record, _sweep, _uniform_cycles,
                         _walk_parts)
from .spectral import (MinPoly, SpectrumProfile, _check_counts, _fixed_space, _full_min_poly, _halves, _ramanujan,
                       _support, _sweep_sums, divisors, min_poly)

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


def _classes(r: int, roots, keep: bool = True) -> MinPoly:
    """x^r - 1 with (keep) or without the roots in roots, whole gcd classes, held compactly: each divisor g of r,
    as a residue mod r, stands for the j with gcd(j, r) = g, so no residue is listed."""
    return _support(r, [(g % r in roots) == keep for g in divisors(r)])


def _without(r: int, removed) -> MinPoly:
    return _classes(r, removed, False)


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
    table = {(1,) * n: ((_classes(r, {r // 2 if m * (r - 1) % 2 else 0}),), "sign")}
    if r == n:  # hooks at the n-cycle
        table[r - 1, 1] = (_without(r, {0}),), "standard"
        if r >= 4:
            table[(2,) + (1,) * (r - 2)] = (_without(r, {0} if r % 2 else {r // 2}),), "standard-twist"
    if n == r == 6:
        table[3, 3] = (_without(6, {2, 4}),), "3,3@6"
        table[2, 2, 2] = (_without(6, {1, 5}),), "2,2,2@6"
    if n == 4 and (roots := {(4, 1): {0, 2}, (3, 1): {1, 2}, (2, 2): {0}}.get((r, m))):
        table[2, 2] = (_classes(r, roots),), "2,2@4"
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

    First the table: every _exceptions_sn pair at a uniform class whose
    polynomials all lack the root 1, the n-cycle hooks among them. Then what
    the table cannot give: the sign character at every odd class, the near
    uniform family at odd n, and four sporadic pairs at n = 6, 8, 10.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3: {n}")
    # the root 1 is j = 0, read from each polynomial's compact form
    out = {(Partition._unchecked(key), CycleType._unchecked(_uniform_cycles(r, m, n))) for r, m in _uniform_shapes(n)
           for key, (polys, _) in _exceptions_sn(n, r, m).items() if not any(p._at_zero() for p in polys)}
    sign_char = Partition._unchecked((1,) * n)  # at each odd class: n minus the number of cycles is odd
    out.update((sign_char, CycleType._unchecked(_cycle_pairs(mu))) for mu in _walk_parts(n) if (n - len(mu)) % 2)
    listed = {6: [((2, 2, 2), (3, 2, 1))], 8: [((4, 4), (5, 3)), ((2, 2, 2, 2), (5, 3))], 10: [((2,) * 5, (5, 3, 2))]}
    if n % 2 and n >= 5:  # the near uniform family
        listed[n] = [((2, 2) + (1,) * (n - 4), (n - 2, 2))]
    out.update((Partition(lam), CycleType.from_lengths(mu)) for lam, mu in listed.get(n, ()))
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
    """Predicted against computed minimal polynomials of every nontrivial irreducible of S_n or A_n (group "sn" or
    "an") at every uniform class.

    The parent spectra come from one _sweep_sums pass over the class-major columns of every partition of n, and the
    degrees from its identity column. Each class column is checked whole, then decided from its lanes: a row's zero
    pattern (a bit per divisor of r where its multiplicity is 0) gives its polynomial, one object per (r, pattern).
    Away from its distinguished class a split pair's halves are equal, each half of its parent, so one AND per column
    checks those rows even; profiles are built only at that class, for _halves, sorted as predict_an sorts them.
    Every other case off the class's table is x^r - 1 on both sides. Entries found per (label row, class) are sorted
    back into label-major order. An A_n pair {lam, lam'} is labelled by the row of its larger member, and a
    self-conjugate row stands for both halves. Rows are part tuples and classes (length, count) pairs: records only
    name entries and split classes.
    """
    parts = list(_walk_parts(n))
    index = dict(zip(parts, count()))
    lam = lambda i: Partition._unchecked(parts[i])
    if group == "sn":
        shapes, exceptions, split = _uniform_shapes(n), _exceptions_sn, {}
        labels = range(1, len(parts))  # (n) comes first: the trivial character is excluded
        text = lambda i: str(lam(i))
    else:
        shapes, exceptions = _uniform_shapes(n, even_only=True), _exceptions_an
        conjugates = list(map(_conjugate_parts, parts))
        labels = {i for i in range(1, len(parts)) if parts[i] >= conjugates[i]}
        split = {i: special_class(lam(i)) for i in labels if parts[i] == conjugates[i]}
        text = lambda i: f"[{lam(i)}]+/-" if i in split else f"[{lam(i)}]"
    classes = [_uniform_cycles(r, m, n) for r, m in shapes]
    # per class, per divisor g of its order: one multiplicity per partition of n, packed in lanes with the degrees
    lanes, sums = _sweep_sums(parts, classes, _ramanujan)
    ones = lambda rows: sum(1 << lanes.w * i for i in rows)  # the low bit of each row's lane
    split_ones = ones(split)
    # per call, the polynomial of a row whose multiplicity is 0 at the b-th divisor of r for each bit b of pattern
    support = cache(lambda r, pattern: _support(r, [not pattern >> b & 1 for b in range(len(divisors(r)))]))
    render = lambda polys: " | ".join(p.rendered for p in polys)
    mismatches, exceptional = [], []  # (label row, class index, entry)
    for k, ((r, m), cycles, by_gcd) in enumerate(zip(shapes, classes, sums)):
        _check_counts(r, by_gcd, lanes)
        at = {i for i in split if split[i].cycles == cycles}  # the split rows at their distinguished class
        odd = split_ones - ones(at) if at else split_ones  # no copy at the other classes
        if any(q & odd for q in by_gcd):
            raise RuntimeError("odd multiplicity away from the distinguished class (internal bug)")
        zero = {}
        for b, q in enumerate(by_gcd):
            for i in lanes.zeros(q):
                zero[i] = zero.get(i, 0) | 1 << b
        table = {index[key]: entry for key, entry in exceptions(n, r, m).items()}
        full = _full_min_poly(r)
        for i in {i for i in zero if i in labels} | table.keys() | at:
            polys, clause = table.get(i, ((full, full) if i in split else (full,), None))
            if i in at:
                base = SpectrumProfile._from_gcd(r, [lanes.lane(q, i) for q in by_gcd], lanes.lane(lanes.degrees, i))
                got = tuple(sorted(map(min_poly, _halves(cycles, base, split[i])), key=_pair_key))
            else:
                got = (support(r, zero.get(i, 0)),) * (2 if i in split else 1)
            if got != polys:
                mismatches.append((i, k, (n, text(i), r, m, render(polys), render(got))))
            if clause:
                exceptional.append((i, k, (n, text(i), r, m, clause)))
    label_major = lambda found: [entry for *_, entry in sorted(found)]
    return len(labels) * len(shapes), label_major(mismatches), label_major(exceptional)


def _eigenvalue_one_single_n(n: int) -> tuple[int, list, list]:
    """Pairs without eigenvalue 1, read off the character table of S_n: one
    column of fixed space dimensions per class, over every partition, against
    predict_no_eigenvalue_one(n). Pairs are held as (row, class) indices, part tuples and (length, count)
    pairs index them, and both orders are lexicographically decreasing, so descending indices sort ascending;
    records are built only to name report entries."""
    parts = list(_walk_parts(n))
    classes = list(map(_cycle_pairs, parts))
    computed = set()
    lanes, sums = _sweep_sums(parts, classes, _fixed_space)
    for k, (dims,) in enumerate(sums):  # one packed class column held at a time
        if not lanes.fits(dims):
            raise RuntimeError("negative fixed space dimension (internal bug)")
        computed.update((i, k) for i in lanes.zeros(dims))
    row, col = dict(zip(parts, count())), dict(zip(classes, count()))
    predicted = {(row[lam.parts], col[sigma.cycles]) for lam, sigma in predict_no_eigenvalue_one(n)}
    entries = lambda pairs, *tag: [(n, str(Partition._unchecked(parts[i])), str(CycleType._unchecked(classes[k])), *tag)
                                   for i, k in sorted(pairs, reverse=True)]
    mismatches = entries(computed - predicted, "unpredicted")
    mismatches += entries(predicted - computed, "predicted-but-eigenvalue-1-present")
    return len(parts) ** 2, mismatches, entries(computed)


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
