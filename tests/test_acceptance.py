"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion, visibly even under
captured output, then asserts with the collected problem list as message.
"""

import math
import time
from fractions import Fraction

from snchar.bounds import (
    estimate_check,
    fomin_lulov_check,
    min_degree_check,
    robbins_check,
    sweep_estimate,
    sweep_fomin_lulov,
    sweep_robbins,
    sweep_tail,
    tail_inequalities_check,
)
from snchar.characters_an import (
    AnCharacterLabel,
    an_class_size,
    an_classes,
    an_irreducible_labels,
    chi_an,
    is_split,
)
from snchar.characters_sn import (
    chi,
    chi_closed_form,
    chi_frobenius,
    chi_hook_on_uniform,
    degree,
    full_table,
)
from snchar.classify import (
    verify_eigenvalue_one,
    verify_minpoly_an,
    verify_minpoly_sn,
)
from snchar.partitions import (
    CycleType,
    Partition,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)
from snchar.specht import oracle_min_poly, oracle_spectrum, sigma_matrix
from snchar.spectral import min_poly, spectrum_an, spectrum_sn


def _announce(capsys, k, problems):
    verdict = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {k}: {verdict}", flush=True)
    assert not problems, "\n".join(problems)


def _uniform_shapes(n):
    out = []
    for r in range(2, n + 1):
        for m in range(1, n // r + 1):
            out.append((r, m))
    return out


def _expected_sn_exceptional(n_lo, n_hi):
    out = set()
    for n in range(n_lo, n_hi + 1):
        sign = str(Partition((1,) * n))
        for r, m in _uniform_shapes(n):
            out.add((n, sign, r, m, "sign"))
        out.add((n, str(Partition((n - 1, 1))), n, 1, "standard"))
        if n >= 4:
            out.add((n, str(Partition((2,) + (1,) * (n - 2))), n, 1, "standard-twist"))
    if n_hi >= 6:
        out.add((6, "3^2", 6, 1, "3,3@6"))
        out.add((6, "2^3", 6, 1, "2,2,2@6"))
    if n_hi >= 4:
        for r, m in [(4, 1), (3, 1), (2, 2)]:
            out.add((4, "2^2", r, m, "2,2@4"))
    return out


def test_criterion_1_minpoly_sweep_sn(capsys):
    problems = []
    start = time.monotonic()
    report = verify_minpoly_sn(14)
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        problems.append(f"sweep took {elapsed:.1f}s, limit 120s")
    if not report.ok:
        problems.append(f"{len(report.mismatches)} mismatches: {report.mismatches[:5]}")
    expected = _expected_sn_exceptional(3, 14)
    got = set(report.exceptional)
    if got != expected:
        problems.append(f"unexpected extra: {sorted(got - expected)[:5]}")
        problems.append(f"missing: {sorted(expected - got)[:5]}")
    clauses = {entry[4] for entry in got}
    wanted = {"sign", "standard", "standard-twist", "3,3@6", "2,2,2@6", "2,2@4"}
    if clauses != wanted:
        problems.append(f"clause coverage {clauses} != {wanted}")
    _announce(capsys, 1, problems)


def test_criterion_2_minpoly_sweep_an(capsys):
    problems = []
    start = time.monotonic()
    report = verify_minpoly_an(12)
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append(f"sweep took {elapsed:.1f}s, limit 60s")
    if not report.ok:
        problems.append(f"{len(report.mismatches)} mismatches: {report.mismatches[:5]}")
    expected = {(n, f"[{n - 1},1]", n, 1, "standard") for n in (5, 7, 9, 11)}
    expected.add((5, "[3,1^2]+/-", 5, 1, "3,1,1@5"))
    got = set(report.exceptional)
    if got != expected:
        problems.append(f"exceptional {sorted(got)} != {sorted(expected)}")
    # the split pair at n=5 carries the conjugate complements {1,4} / {2,3}
    plus, minus = AnCharacterLabel.split_pair(parse_partition("3,1,1"))
    five = parse_cycle_type("5^1")
    complements = set()
    for label in (plus, minus):
        mp = min_poly(spectrum_an(label, five))
        complements.add(frozenset(set(range(5)) - mp.roots))
    if complements != {frozenset({1, 4}), frozenset({2, 3})}:
        problems.append(f"split complements {complements}")
    _announce(capsys, 2, problems)


def test_criterion_3_eigenvalue_one_sweep(capsys):
    problems = []
    start = time.monotonic()
    report = verify_eigenvalue_one(12)
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        problems.append(f"sweep took {elapsed:.1f}s, limit 300s")
    if not report.ok:
        problems.append(f"{len(report.mismatches)} mismatches: {report.mismatches[:5]}")
    sporadics = {
        (6, "2^3", "3^1 2^1 1^1"),
        (8, "4^2", "5^1 3^1"),
        (8, "2^4", "5^1 3^1"),
        (10, "2^5", "5^1 3^1 2^1"),
    }
    got = set(report.exceptional)
    missing = sporadics - got
    if missing:
        problems.append(f"sporadic pairs missing: {sorted(missing)}")
    _announce(capsys, 3, problems)


def test_criterion_4_flagship_values(capsys):
    problems = []
    lam = parse_partition("3,3")
    expected = {"1^6": 5, "3^2": 2, "2^3": -3, "6^1": 0}
    for text, want in expected.items():
        got = chi(lam, parse_cycle_type(text))
        if got != want:
            problems.append(f"chi(3,3 at {text}) = {got}, want {want}")
    prof = spectrum_sn(lam, parse_cycle_type("6^1"))
    if prof.mult != (1, 1, 0, 2, 0, 1):
        problems.append(f"spectrum {prof.mult}")
    rendered = min_poly(prof).rendered
    if rendered != "(x^6-1)/(x^2+x+1)":
        problems.append(f"minimal polynomial {rendered}")
    _announce(capsys, 4, problems)


def test_criterion_5_oracle_equivalence(capsys):
    problems = []
    for n in range(1, 9):
        lams = enumerate_partitions(n)
        shapes = [(1, n)] + _uniform_shapes(n)
        for lam in lams:
            for r, m in shapes:
                sigma = CycleType.uniform(r, m, n)
                left = oracle_min_poly(lam, sigma)
                right = min_poly(spectrum_sn(lam, sigma))
                if left != right:
                    problems.append(f"minpoly split {lam} [{r}^{m}]: {left} vs {right}")
        for lam in lams:
            for mu in lams:
                sigma = CycleType.from_partition(mu)
                mat = sigma_matrix(lam, sigma)
                trace = sum(mat[i][i] for i in range(len(mat)))
                if trace != chi(lam, sigma):
                    problems.append(f"trace split {lam} {sigma}")
    _announce(capsys, 5, problems)


def test_criterion_6_cross_formula_agreement(capsys):
    problems = []
    for n in range(1, 11):
        classes = [CycleType.from_partition(mu) for mu in enumerate_partitions(n)]
        for lam in enumerate_partitions(n):
            if len(lam.parts) > 4:
                continue
            for sigma in classes:
                if chi_frobenius(lam, sigma) != chi(lam, sigma):
                    problems.append(f"frobenius split {lam} {sigma}")
    for n in range(3, 15):
        classes = [CycleType.from_partition(mu) for mu in enumerate_partitions(n)]
        for lam in enumerate_partitions(n):
            for sigma in classes:
                closed = chi_closed_form(lam, sigma)
                if closed is not None and closed != chi(lam, sigma):
                    problems.append(f"closed form split {lam} {sigma}")
    for r in (1, 3, 5, 7, 9, 11, 13, 15):
        for total in range(1, 16):
            n = r * total
            if n > 15 or n % 2 == 0:
                continue
            for k in range(total):
                l = total - 1 - k
                for a in range(1, r + 1):
                    lam = Partition((a + r * k,) + (1,) * (r - a + r * l))
                    sigma = CycleType.uniform(r, total, n)
                    if chi_hook_on_uniform(a, r, k, l) != chi(lam, sigma):
                        problems.append(f"hook-uniform split a={a} r={r} k={k} l={l}")
    _announce(capsys, 6, problems)


def _accumulate(acc, value):
    acc[1] = acc.get(1, Fraction(0)) + value.a
    if value.b:
        acc[value.d] = acc.get(value.d, Fraction(0)) + value.b


def test_criterion_7_orthogonality_suites(capsys):
    problems = []
    for n in range(1, 11):
        table = full_table(n)
        sizes = [c.class_size() for c in table.classes]
        fact = math.factorial(n)
        for i, row_i in enumerate(table.values):
            for j in range(i, len(table.values)):
                dot = sum(s * a * b for s, a, b in zip(sizes, row_i, table.values[j]))
                want = fact if i == j else 0
                if dot != want:
                    problems.append(f"row orthogonality n={n} ({i},{j})")
        cols = list(zip(*table.values))
        for i, col_i in enumerate(cols):
            for j in range(i, len(cols)):
                dot = sum(a * b for a, b in zip(col_i, cols[j]))
                want = fact // sizes[i] if i == j else 0
                if dot != want:
                    problems.append(f"column orthogonality n={n} ({i},{j})")
    for n in range(2, 13):
        total = sum(degree(lam) ** 2 for lam in enumerate_partitions(n))
        if total != math.factorial(n):
            problems.append(f"degree squares n={n}")
    for n in range(3, 11):
        labels = an_irreducible_labels(n)
        classes = an_classes(n)
        if len(labels) != len(classes):
            problems.append(f"count split n={n}: {len(labels)} vs {len(classes)}")
        half = math.factorial(n) // 2
        if sum(an_class_size(s, h) for s, h in classes) != half:
            problems.append(f"class sizes n={n}")
        grid = {}
        for lab in labels:
            for sigma, hf in classes:
                grid[(str(lab), sigma, hf)] = chi_an(lab, sigma, other_half=(hf == -1))
        for i, li in enumerate(labels):
            for lj in labels[: i + 1]:
                acc = {}
                for sigma, hf in classes:
                    size = an_class_size(sigma, hf)
                    prod = grid[(str(li), sigma, hf)] * grid[
                        (str(lj), sigma, hf)
                    ].complex_conjugate()
                    _accumulate(acc, size * prod)
                acc = {d: c for d, c in acc.items() if c}
                want = {1: Fraction(half)} if li == lj else {}
                if acc != want:
                    problems.append(f"an row orthogonality n={n} {li} {lj}")
    _announce(capsys, 7, problems)


def test_criterion_8_bound_suites(capsys):
    problems = []
    fl = sweep_fomin_lulov(12)
    bad = [rep.context for rep in fl if not rep.holds]
    if bad:
        problems.append(f"fomin-lulov failures: {bad[:3]}")
    est = sweep_estimate(12)
    bad = [rep.context for rep in est if not rep.holds]
    if bad:
        problems.append(f"estimate failures: {bad[:3]}")
    rb = sweep_robbins(200)
    if len(rb) != 200 or not all(rep.holds for rep in rb):
        problems.append("robbins sweep")
    tl = sweep_tail(200)
    if len(tl) != 178 or not all(rep.holds for rep in tl):
        problems.append("tail sweep")
    for n in (15, 22):
        if not min_degree_check(n).holds:
            problems.append(f"min degree table n={n}")
    # doubled precision must not flip any verdict
    for rep, fresh in zip(fl, sweep_fomin_lulov(12, bits=256)):
        if rep.holds != fresh.holds:
            problems.append(f"fomin-lulov flip at {rep.context}")
    for rep, fresh in zip(est, sweep_estimate(12, bits=256)):
        if rep.holds != fresh.holds:
            problems.append(f"estimate flip at {rep.context}")
    spot = [
        robbins_check(200, bits=256).holds,
        tail_inequalities_check(200, bits=256).holds,
        fomin_lulov_check(parse_partition("6,6"), 2, 6, bits=256).holds,
        estimate_check(parse_partition("6,6"), 2, 6, bits=256).holds,
    ]
    if not all(spot):
        problems.append("doubled precision spot checks")
    _announce(capsys, 8, problems)
