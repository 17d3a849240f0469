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
from fractions import Fraction
from functools import partial
from itertools import chain

from .arith import divisors
from .characters_sn import _columns, chi, degree
from .partitions import (CycleType, Partition, _Record, _sweep, _walk_partitions, conjugate,
                         enumerate_partitions)

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
# at 2^16 bits every single check answers in seconds; at 2^18 estimate takes over a minute
MAX_PRECISION_BITS = 1 << 16


def _check_bits(bits: int) -> None:
    if bits < 8:
        raise ValueError(f"precision too small: {bits}")
    if bits > MAX_PRECISION_BITS:
        raise ValueError(f"precision too large: {bits} > MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")


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


class BoundClause(_Record):
    def __init__(self, name: str, lhs: str, rhs: str, margin: str, holds: bool) -> None:
        self._set(name=name, lhs=lhs, rhs=rhs, margin=margin, holds=holds)


class BoundReport(_Record):
    """One checked inequality; precision_bits is 0 for exact integer checks."""

    def __init__(self, check: str, context: str, clauses: tuple[BoundClause, ...], precision_bits: int) -> None:
        self._set(check=check, context=context, clauses=clauses, precision_bits=precision_bits)

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.clauses)

    def to_json_dict(self) -> dict:
        return {**vars(self), "clauses": [vars(c).copy() for c in self.clauses], "holds": self.holds}


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
    return _fomin_lulov(lam, r, m, abs(chi(lam, CycleType.uniform(r, m, lam.n))), bits)


def _fomin_lulov(lam: Partition, r: int, m: int, val: int, bits: int) -> BoundReport:
    """fomin_lulov_check for a checked shape, given val = |chi(lam at [r^m])|."""
    _check_bits(bits)  # the exact branch below never enters _interval_precision
    n = lam.n
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
    return _estimate(lam, r, m, abs(chi(lam, CycleType.uniform(r, m, lam.n))), bits)


def _estimate(lam: Partition, r: int, m: int, val: int, bits: int) -> BoundReport:
    """estimate_check for a checked shape, given val = |chi(lam at [r^m])|."""
    n = lam.n
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


# min_degree_check walks the partitions of n one at a time, so time binds, not memory: n = 50 takes about 3 s
MAX_MIN_DEGREE_N = 50


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
    if n > MAX_MIN_DEGREE_N:
        raise ValueError(f"min-degree holds every partition of n, and n = {n} > MAX_MIN_DEGREE_N = {MAX_MIN_DEGREE_N}")
    rows = [(name, Partition(shape), stated) for name, shape, stated in _min_degree_rows(n)]
    listed = {Partition((n,)), Partition((1,) * n)}
    for _, lam, _ in rows:
        listed |= {lam, conjugate(lam)}
    # one pass: the shapes at each stated degree, and the smallest degree of an unlisted shape
    at_degree: dict[int, set[Partition]] = {stated: set() for _, _, stated in rows}
    outside = None
    for lam in _walk_partitions(n):
        d = degree(lam)
        if d in at_degree:
            at_degree[d].add(lam)
        if lam not in listed and (outside is None or d < outside):
            outside = d
    clauses = []
    prev = 1
    for name, lam, stated in rows:
        actual = degree(lam)
        ok = actual == stated and at_degree[stated] == {lam, conjugate(lam)} and stated > prev
        clauses.append(BoundClause(name, str(actual), str(stated), "0" if ok else str(actual - stated), ok))
        prev = stated
    sep_ok = outside > prev
    clauses.append(BoundClause("separation", str(outside), str(prev), str(outside - prev), sep_ok))
    return BoundReport("min-degree", f"n={n}", tuple(clauses), 0)


def _sweep_uniform(check, bits: int, n: int) -> list[BoundReport]:
    """check(lam, r, n // r, |chi(lam at [r^(n/r)])|, bits) for every r | n and every partition
    lam of n, the values read from one class-major table."""
    lams = enumerate_partitions(n)
    return [check(lam, r, n // r, abs(val), bits)
            for r, col in zip(divisors(n), _columns(lams, [(r,) * (n // r) for r in divisors(n)]))
            for lam, val in zip(lams, col)]


def sweep_fomin_lulov(max_n: int, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    """Every partition of every n in range, against every [r^m] with rm = n."""
    return list(chain(*_sweep("fomin-lulov", partial(_sweep_uniform, _fomin_lulov, bits), 1, min_n, max_n)))


def sweep_estimate(max_n: int, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return list(chain(*_sweep("estimate", partial(_sweep_uniform, _estimate, bits), 1, min_n, max_n)))


def sweep_robbins(max_n: int = 200, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return _sweep("robbins", partial(robbins_check, bits=bits), 1, min_n, max_n)


def sweep_tail(max_n: int = 200, *, min_n: int = 23, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return _sweep("tail", partial(tail_inequalities_check, bits=bits), 23, min_n, max_n)
