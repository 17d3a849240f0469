"""Certified inequalities for character values, factorials, and degrees.

Transcendental quantities are evaluated with outward rounded interval
arithmetic (mpmath.iv) at a configurable working precision, and an inequality
is reported as holding only when the conservative endpoint comparison already
decides it: sup(LHS) against inf(RHS). Comparisons that are algebraic after
clearing roots are decided exactly on integers instead, so those verdicts
carry no precision caveat; the interval endpoints are still used for the
human readable margin strings.

All displayed lhs/rhs/margin values are decimal strings of the conservative
endpoints actually compared, never of midpoints.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .characters_sn import chi, degree
from .partitions import CycleType, Partition, conjugate, enumerate_partitions
from .spectral import divisors

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "BoundClause",
    "BoundReport",
    "fomin_lulov_check",
    "estimate_check",
    "robbins_check",
    "tail_inequalities_check",
    "min_degree_check",
    "sweep_fomin_lulov",
    "sweep_estimate",
    "sweep_robbins",
    "sweep_tail",
]

DEFAULT_PRECISION_BITS = 128


def _check_bits(bits: int) -> None:
    if bits < 8:
        raise ValueError(f"precision too small: {bits}")


# mpmath is imported where it is used, so that importing the package does not load it
@contextmanager
def _interval_precision(bits: int):
    import mpmath

    _check_bits(bits)
    old = mpmath.iv.prec
    mpmath.iv.prec = bits
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.prec = old


def _inf(x) -> Fraction:
    from mpmath.libmp import to_rational

    return Fraction(*to_rational(x._mpi_[0]))


def _sup(x) -> Fraction:
    from mpmath.libmp import to_rational

    return Fraction(*to_rational(x._mpi_[1]))


def _fmt(q: Fraction | int) -> str:
    q = Fraction(q)
    if q.denominator == 1 and abs(q.numerator) < 10**15:
        return str(q.numerator)
    import mpmath

    with mpmath.workprec(80):
        return mpmath.nstr(mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator), 12)


@dataclass(frozen=True)
class BoundClause:
    name: str
    lhs: str
    rhs: str
    margin: str
    holds: bool


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality; precision_bits is 0 for exact integer checks."""

    check: str
    context: str
    clauses: tuple[BoundClause, ...]
    precision_bits: int

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.clauses)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "context": self.context,
            "precision_bits": self.precision_bits,
            "holds": self.holds,
            "clauses": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "margin": c.margin, "holds": c.holds}
                for c in self.clauses
            ],
        }


def _require_shape(lam: Partition, r: int, m: int) -> None:
    if r < 1 or m < 1 or r * m != lam.n:
        raise ValueError(f"need r*m == n with r, m >= 1; got r={r} m={m} n={lam.n}")


def fomin_lulov_check(lam: Partition, r: int, m: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """|chi(lam at [r^m])| <= m! r^m (deg/n!)^(1/r) for n = r*m.

    Both sides are positive, so the verdict is decided exactly by comparing
    r-th powers as integers; the interval route only feeds the margin string.
    At r = 1 the two sides agree identically and the margin is 0.
    """
    _require_shape(lam, r, m)
    _check_bits(bits)  # the exact branch below never enters _interval_precision
    n = lam.n
    val = abs(chi(lam, CycleType.uniform(r, m, n)))
    d = degree(lam)
    coeff = math.factorial(m) * r**m
    lhs_pow = val**r * math.factorial(n)
    rhs_pow = coeff**r * d
    holds = lhs_pow <= rhs_pow
    if lhs_pow == rhs_pow:
        clause = BoundClause("value-bound", str(val), str(val), "0", holds)
    else:
        with _interval_precision(bits) as iv:
            rhs = iv.mpf(coeff) * iv.exp(iv.log(iv.mpf(d) / iv.mpf(math.factorial(n))) / r)
            rhs_inf = _inf(rhs)
        clause = BoundClause("value-bound", str(val), _fmt(rhs_inf), _fmt(rhs_inf - val), holds)
    return BoundReport("fomin-lulov", f"lam={lam} shape={r}^{m}", (clause,), bits)


def estimate_check(lam: Partition, r: int, m: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """|chi| / deg^(1/r) < (2 pi)^((r-1)/(2r)) r^(-1/2) n^((r-1)/(2r)) e^(1/(12m)).

    Strict; certified when sup(LHS) < inf(RHS) at the working precision.
    """
    _require_shape(lam, r, m)
    n = lam.n
    val = abs(chi(lam, CycleType.uniform(r, m, n)))
    d = degree(lam)
    with _interval_precision(bits) as iv:
        if val == 0:
            lhs_sup = Fraction(0)
        else:
            lhs_sup = _sup(iv.mpf(val) * iv.exp(-iv.log(iv.mpf(d)) / r))
        expo = iv.mpf(r - 1) / iv.mpf(2 * r)
        rhs = (
            iv.exp(iv.log(2 * iv.pi) * expo)
            / iv.sqrt(iv.mpf(r))
            * iv.exp(iv.log(iv.mpf(n)) * expo)
            * iv.exp(iv.mpf(1) / iv.mpf(12 * m))
        )
        rhs_inf = _inf(rhs)
    holds = lhs_sup < rhs_inf
    clause = BoundClause("normalized-value", _fmt(lhs_sup), _fmt(rhs_inf), _fmt(rhs_inf - lhs_sup), holds)
    return BoundReport("estimate", f"lam={lam} shape={r}^{m}", (clause,), bits)


def robbins_check(n: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """sqrt(2 pi) n^(n+1/2) e^(-n) e^(1/(12n+1)) < n! < same with e^(1/(12n))."""
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    nf = math.factorial(n)
    with _interval_precision(bits) as iv:
        base = iv.sqrt(2 * iv.pi) * iv.exp(iv.log(iv.mpf(n)) * iv.mpf(2 * n + 1) / 2 - n)
        lower_sup = _sup(base * iv.exp(iv.mpf(1) / iv.mpf(12 * n + 1)))
        upper_inf = _inf(base * iv.exp(iv.mpf(1) / iv.mpf(12 * n)))
    c1 = BoundClause("lower", _fmt(lower_sup), _fmt(nf), _fmt(nf - lower_sup), lower_sup < nf)
    c2 = BoundClause("upper", _fmt(nf), _fmt(upper_inf), _fmt(upper_inf - nf), nf < upper_inf)
    return BoundReport("robbins", f"n={n}", (c1, c2), bits)


def tail_inequalities_check(n: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """sqrt(n)(n-2)(n-7) > 54(n-1) and sqrt(n)(n-2)^2(n-7)^2 > 4608(n-1), n >= 23."""
    if n < 23:
        raise ValueError(f"defined for n >= 23: {n}")
    with _interval_precision(bits) as iv:
        root = iv.sqrt(iv.mpf(n))
        l1_inf = _inf(root * ((n - 2) * (n - 7)))
        l2_inf = _inf(root * ((n - 2) ** 2 * (n - 7) ** 2))
    r1 = 54 * (n - 1)
    r2 = 4608 * (n - 1)
    c1 = BoundClause("factor-54", _fmt(l1_inf), str(r1), _fmt(l1_inf - r1), l1_inf > r1)
    c2 = BoundClause("factor-4608", _fmt(l2_inf), str(r2), _fmt(l2_inf - r2), l2_inf > r2)
    return BoundReport("tail", f"n={n}", (c1, c2), bits)


def _min_degree_rows(n: int) -> list[tuple[str, tuple[int, ...], int]]:
    rows = [
        ("d1", (n - 1, 1), n - 1),
        ("d2", (n - 2, 2), n * (n - 3) // 2),
        ("d3", (n - 2, 1, 1), (n - 1) * (n - 2) // 2),
        ("d4", (n - 3, 3), n * (n - 1) * (n - 5) // 6),
        ("d5", (n - 3, 1, 1, 1), (n - 1) * (n - 2) * (n - 3) // 6),
        ("d6", (n - 3, 2, 1), n * (n - 2) * (n - 4) // 3),
    ]
    if n >= 22:
        rows += [
            ("d7", (n - 4, 4), n * (n - 1) * (n - 2) * (n - 7) // 24),
            ("d8", (n - 4, 1, 1, 1, 1), (n - 1) * (n - 2) * (n - 3) * (n - 4) // 24),
            ("d9", (n - 4, 2, 2), n * (n - 1) * (n - 4) * (n - 5) // 12),
            ("d10", (n - 4, 3, 1), n * (n - 1) * (n - 3) * (n - 6) // 8),
            ("d11", (n - 4, 2, 1, 1), n * (n - 2) * (n - 3) * (n - 5) // 8),
        ]
    return rows


def min_degree_check(n: int) -> BoundReport:
    """The smallest nontrivial degrees of S_n, with their attaining shapes.

    For n >= 15 the six smallest degrees above 1 are checked (eleven for
    n >= 22): each stated value must match the hook length degree of its
    shape, be attained by exactly that shape and its conjugate, and the
    values must be strictly increasing. A final separation clause checks
    that every unlisted nonlinear shape has strictly larger degree.
    Everything is exact integer arithmetic; precision_bits is 0.
    """
    if n < 15:
        raise ValueError(f"table starts at n = 15: {n}")
    by_degree: dict[int, set[Partition]] = {}
    for lam in enumerate_partitions(n):
        by_degree.setdefault(degree(lam), set()).add(lam)
    listed = {Partition((n,)), Partition((1,) * n)}
    clauses = []
    prev = 1
    for name, shape, stated in _min_degree_rows(n):
        lam = Partition(shape)
        pair = {lam, conjugate(lam)}
        actual = degree(lam)
        ok = actual == stated and by_degree.get(stated, set()) == pair and stated > prev
        clauses.append(BoundClause(name, str(actual), str(stated), "0" if ok else str(actual - stated), ok))
        listed |= pair
        prev = stated
    outside = min(d for d, group in by_degree.items() if group - listed)
    sep_ok = outside > prev
    clauses.append(BoundClause("separation", str(outside), str(prev), str(outside - prev), sep_ok))
    return BoundReport("min-degree", f"n={n}", tuple(clauses), 0)


def _sweep_uniform(check, min_n: int, max_n: int, bits: int) -> list[BoundReport]:
    """check(lam, r, n // r) for every n in range, every r | n and every partition lam of n."""
    return [check(lam, r, n // r, bits=bits)
            for n in range(min_n, max_n + 1) for r in divisors(n) for lam in enumerate_partitions(n)]


def sweep_fomin_lulov(max_n: int, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    """Every partition of every n in range, against every [r^m] with rm = n."""
    return _sweep_uniform(fomin_lulov_check, min_n, max_n, bits)


def sweep_estimate(max_n: int, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return _sweep_uniform(estimate_check, min_n, max_n, bits)


def sweep_robbins(max_n: int = 200, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return [robbins_check(n, bits=bits) for n in range(min_n, max_n + 1)]


def sweep_tail(max_n: int = 200, *, min_n: int = 23, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return [tail_inequalities_check(n, bits=bits) for n in range(min_n, max_n + 1)]
