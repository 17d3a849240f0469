"""Certified inequalities for character values, factorials, and degrees.

Transcendental quantities are enclosed in integers, each endpoint a dyadic
number of the working precision's significant bits, lower ends rounded down
and upper ends up: r-th roots by Newton's method, pi by Machin's series and
e^x by its Taylor sum, each with an explicit error bound. An
inequality holds only when the conservative endpoints decide it, sup(LHS) <
inf(RHS); one left open at the working precision FAILS. Comparisons that are
algebraic after clearing roots are decided exactly on integers instead, and
the endpoints only feed the margin strings.

All displayed lhs/rhs/margin values are decimal strings of the conservative
endpoints actually compared, never of midpoints.
"""

from __future__ import annotations

import math
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
# at 2^16 bits one check takes up to about 1 s (robbins at n = 1000, estimate at r = 10000)
MAX_PRECISION_BITS = 1 << 16


def _check_bits(bits: int) -> None:
    if bits < 8:
        raise ValueError(f"precision too small: {bits}")
    if bits > MAX_PRECISION_BITS:
        raise ValueError(f"precision too large: {bits} > MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")


# An enclosure is (lo, hi, exp): the value lies in [lo * 2^exp, hi * 2^exp]. An endpoint is a
# dyadic (man, exp), the value man * 2^exp; an int is an exact integer printed in full.

def _root(num: int, den: int, r: int, bits: int, exp: int = 0) -> tuple[int, int, int]:
    """(num/den * 2^exp)^(1/r), num, den > 0, strictly inside (lo * 2^e, hi * 2^e): lo has bits
    significant bits and hi is lo + 1, or lo + 2 at a near tie. Newton's method runs on floats,
    about doubling their bits at each step, and each end is checked on _pow's outward enclosure
    of its r-th power, so that no integer grows with r; r = 1 rounds a quotient. An exact root
    is still enclosed strictly, as mpmath.iv's exp-log route enclosed it, so it prints as a
    rounded decimal ("4.0", not "4")."""
    w = bits + r.bit_length() + 16

    def excess(man: int, e: int, end: int) -> int:
        """The sign of an end (0 low, 1 high) of the enclosure of (man * 2^e)^r, less num/den * 2^exp."""
        power = _pow((man, man, e), r, w)
        return (power[end] * den << max(power[2] - exp, 0)) - (num << max(exp - power[2], 0))

    g = (math.log2(num) - math.log2(den) + exp) / r  # log2 of the root, about
    q, k = 50, 50 - math.floor(g)
    s = int(2 ** (g + k))  # the root * 2^k, about, in q bits
    steps = [w]  # each step about doubles the correct bits, less the r-fold loss
    while steps[-1] > 50:
        steps.append((steps[-1] + r.bit_length() + 5) // 2)
    for p in reversed(steps):
        if p > q:
            s, k, q = s << p - q, k + p - q, p
        low, _, e = _pow((s, s, -k), r, q)
        shift = exp - e + q  # X / u^r at 2^-q, for u = s * 2^-k
        ratio = (num << shift) // (den * low) if shift >= 0 else num // (den * low << -shift)
        s = s * ((r - 1 << q) + ratio) // (r << q)
    t = s.bit_length() - bits
    lo, e = s >> t, t - k
    while excess(lo, e, 1) >= 0:
        lo -= 1
    hi = lo + 1
    while excess(hi, e, 0) <= 0:
        hi += 1
    return lo, hi, e


def _pi(w: int) -> tuple[int, int, int]:
    """pi, enclosed at 2^-w by Machin's formula 16 atan(1/5) - 4 atan(1/239). Each series is
    summed at 2^-(w+20) until its terms vanish: a floored term is low by less than 1, and the
    first omitted term is below 1, so a sum of k terms is within k + 1 units of its arctangent."""
    total, slack = 0, 0
    for x, c in ((5, 16), (239, -4)):
        power, k, sign = (1 << w + 20) // x, 1, 1
        while power:
            total += sign * c * (power // k)
            power //= x * x
            k, sign = k + 2, -sign
        slack += abs(c) * (k + 1) // 2
    return total - slack >> 20, -(-(total + slack) >> 20), -w


def _exp(a: int, b: int, w: int) -> tuple[int, int, int]:
    """e^(a/b), 0 < a <= b, enclosed at 2^-w by its Taylor sum at 2^-(w+20). Each term is floored
    from the last, so j terms are low by less than 2j in all, and the tail is below twice the
    first omitted term, which is below 2."""
    term, total, j = 1 << w + 20, 0, 0
    while term:
        total += term
        j += 1
        term = term * a // (b * j)
    return total >> 20, -(-(total + 2 * j + 4) >> 20), -w


def _pow(x: tuple[int, int, int], n: int, w: int) -> tuple[int, int, int]:
    """x^n, n >= 1, for an enclosure x with positive ends: by squaring, each product rounded
    outward to w bits, so that no product grows past about 3w bits."""
    lo, hi, e = 1, 1, 0
    for bit in bin(n)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi, e = lo * x[0], hi * x[1], e + x[2]
        t = hi.bit_length() - w
        if t > 0:
            lo, hi, e = lo >> t, -(-hi >> t), e + t
    return lo, hi, e


def _sub(x, y) -> tuple[int, int]:
    """x - y, exactly, for endpoints and ints."""
    (m, e), (n, f) = (v if isinstance(v, tuple) else (v, 0) for v in (x, y))
    g = min(e, f)
    return (m << e - g) - (n << f - g), g


def _fmt(x) -> str:
    """An int in full; a dyadic (man, exp) in full when it is an integer below 10^15, and
    otherwise as mpmath.nstr(x, 12) printed it from x rounded to an 80-bit float: the leading
    digits truncated as mpmath's to_digits_exp truncates them, then rounded to 12 digits as
    its to_str rounds them (fixed point for a leading digit at 10^-4 .. 10^11)."""
    if isinstance(x, int):
        return str(x)
    m, e = x
    v = m << e if e >= 0 else m >> -e
    if abs(v) < 10**15 and (e >= 0 or v << -e == m):
        return str(v)
    sign, m = "-" * (m < 0), abs(m)
    t = m.bit_length() - 80
    if t > 0:  # round half to even
        half = 1 << t - 1
        m, rest, e = m >> t, m & 2 * half - 1, e + t
        m += rest > half or (rest == half and m & 1)
    top = e + m.bit_length()  # 2^(top-1) <= x < 2^top
    fixprec = max(59 - top, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    fixed = m << e + fixprec if e + fixprec >= 0 else m >> -e - fixprec
    skip = max(int((top - 1) * math.log10(2)) - 20, 0)  # digits past the 21st are never read
    digits = str((fixed * 10**fixdps >> fixprec) // 10**skip)
    exponent = len(digits) + skip - fixdps - 1
    head = str(int(digits[:12]) + (digits[12] >= "5"))
    if len(head) > 12:
        head, exponent = head[:12], exponent + 1
    split = exponent + 1 if 0 <= exponent < 12 else 1
    if -5 < exponent < 0:
        head = "0" * -exponent + head
    if -5 < exponent < 12:
        exponent = 0
    text = (head[:split] + "." + head[split:]).rstrip("0")
    return sign + text + "0" * text.endswith(".") + (f"e{exponent:+d}" if exponent else "")


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
        return {**self._asdict(), "clauses": [c._asdict() for c in self.clauses], "holds": self.holds}


def _require_shape(lam: Partition, r: int, m: int) -> None:
    if r < 1 or m < 1 or r * m != lam.n:
        raise ValueError(f"need r*m == n with r, m >= 1; got r={r} m={m} n={lam.n}")


def _strict(name: str, lhs, rhs, margin: tuple[int, int]) -> BoundClause:
    """A strict clause on conservative endpoints: it holds when the margin is positive."""
    return BoundClause(name, _fmt(lhs), _fmt(rhs), _fmt(margin), margin[0] > 0)


def fomin_lulov_check(lam: Partition, r: int, m: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """|chi(lam at [r^m])| <= m! r^m (deg/n!)^(1/r) for n = r*m.

    Both sides are positive, so the verdict is decided exactly by comparing
    r-th powers as integers; the enclosure only feeds the margin string.
    At r = 1 the two sides agree identically and the margin is 0.
    """
    _require_shape(lam, r, m)
    return _fomin_lulov(lam.n, r, m, bits)(str(lam), abs(chi(lam, CycleType.uniform(r, m, lam.n))), degree(lam))


def _fomin_lulov(n: int, r: int, m: int, bits: int):
    """fomin_lulov_check of (text, val, d) for the shapes lam of n = r*m, with text = str(lam),
    val = |chi(lam at [r^m])| and d = degree(lam), and the class's constants computed once."""
    _check_bits(bits)
    nf = math.factorial(n)
    coeff_pow = (math.factorial(m) * r**m) ** r

    def report(text: str, val: int, d: int) -> BoundReport:
        lhs_pow = val**r * nf
        rhs_pow = coeff_pow * d
        if lhs_pow == rhs_pow:
            clause = BoundClause("value-bound", str(val), str(val), "0", lhs_pow <= rhs_pow)
        else:
            rhs_inf = _root(coeff_pow * d, nf, r, bits)[::2]
            clause = BoundClause("value-bound", str(val), _fmt(rhs_inf), _fmt(_sub(rhs_inf, val)), lhs_pow <= rhs_pow)
        return BoundReport("fomin-lulov", f"lam={text} shape={r}^{m}", (clause,), bits)

    return report


def estimate_check(lam: Partition, r: int, m: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """|chi| / deg^(1/r) < (2 pi)^((r-1)/(2r)) r^(-1/2) n^((r-1)/(2r)) e^(1/(12m)).

    Strict; certified when sup(LHS) < inf(RHS) at the working precision.
    """
    _require_shape(lam, r, m)
    return _estimate(lam.n, r, m, bits)(str(lam), abs(chi(lam, CycleType.uniform(r, m, lam.n))), degree(lam))


def _estimate(n: int, r: int, m: int, bits: int):
    """estimate_check of (text, val, d) as in _fomin_lulov; the right-hand side depends on the
    class alone and is enclosed once."""
    _check_bits(bits)
    w = bits + 8
    # (2 pi)^((r-1)/(2r)) r^(-1/2) n^((r-1)/(2r)) = sqrt(2 pi n / r) / (2 pi n)^(1/(2r))
    pi = _pi(w)
    a, _, ae = _root(2 * n * pi[0], r, 2, w, -w)
    _, b, be = _root(2 * n * pi[1], 1, 2 * r, w, -w)
    x, _, xe = _exp(1, 12 * m, w)
    rhs_inf = _root(a * x, b, 1, bits, ae + xe - be)[::2]

    def report(text: str, val: int, d: int) -> BoundReport:
        # val / d^(1/r), exact where d = 1 as mpmath.iv's exp(log(1)) was
        lhs_sup = val if val == 0 or d == 1 else _root(val**r, d, r, bits)[1:]
        clause = _strict("normalized-value", lhs_sup, rhs_inf, _sub(rhs_inf, lhs_sup))
        return BoundReport("estimate", f"lam={text} shape={r}^{m}", (clause,), bits)

    return report


def robbins_check(n: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """sqrt(2 pi) n^(n+1/2) e^(-n) e^(1/(12n+1)) < n! < same with e^(1/(12n))."""
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    _check_bits(bits)
    try:
        nf = math.factorial(n)
    except OverflowError:  # n > sys.maxsize
        raise ValueError(f"n! is out of reach: n = {n}") from None
    w = bits + n.bit_length() + 8  # e^n from e's enclosure is n times as wide, relatively
    pi, en = _pi(w), _pow(_exp(1, 1, w), n, w)

    def envelope(q: int, up: bool) -> tuple[int, int]:
        """sqrt(2 pi n) n^n e^(1/q) / e^n, rounded up (or down) from the upper (lower) ends."""
        root = _root(2 * n * pi[up], 1, 2, w, -w)
        value = _root(root[up] * n**n * _exp(1, q, w)[up], en[not up], 1, bits, root[2] - w - en[2])
        return value[up], value[2]

    lower, upper = envelope(12 * n + 1, True), envelope(12 * n, False)
    c1 = _strict("lower", lower, (nf, 0), _sub(nf, lower))
    c2 = _strict("upper", (nf, 0), upper, _sub(upper, nf))
    return BoundReport("robbins", f"n={n}", (c1, c2), bits)


def tail_inequalities_check(n: int, *, bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """sqrt(n)(n-2)(n-7) > 54(n-1) and sqrt(n)(n-2)^2(n-7)^2 > 4608(n-1), n >= 23.

    Both hold for every n >= 23: with n = 23 + t, n(n-2)^2(n-7)^2 - 2916(n-1)^2 and
    n(n-2)^4(n-7)^4 - 4608^2(n-1)^2 are polynomials in t with positive coefficients.
    """
    if n < 23:
        raise ValueError(f"defined for n >= 23: {n}")
    _check_bits(bits)
    k, root = (n - 2) * (n - 7), math.isqrt(n)
    # sqrt(n) c, rounded down; exact at a square n, as mpmath.iv's sqrt was
    l1, l2 = ((root * c, 0) if root * root == n else _root(n * c * c, 1, 2, bits)[::2] for c in (k, k * k))
    c1 = _strict("factor-54", l1, 54 * (n - 1), _sub(l1, 54 * (n - 1)))
    c2 = _strict("factor-4608", l2, 4608 * (n - 1), _sub(l2, 4608 * (n - 1)))
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
        raise ValueError(f"min-degree walks every partition of n, and n = {n} > MAX_MIN_DEGREE_N = {MAX_MIN_DEGREE_N}")
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
    """check(n, r, n // r, bits)(str(lam), |chi(lam at [r^(n/r)])|, degree(lam)) for every r | n and
    every partition lam of n, read from one class-major table whose first column, [1^n], holds the degrees."""
    lams = enumerate_partitions(n)
    divs = divisors(n)
    cols = _columns(lams, [(r,) * (n // r) for r in divs])
    texts = list(map(str, lams))
    return [report(text, abs(val), d)
            for r, col in zip(divs, cols)
            for report in [check(n, r, n // r, bits)]
            for text, val, d in zip(texts, col, cols[0])]


def _sweep_reports(kind: str, max_n: int, min_n: int | None = None, bits: int = DEFAULT_PRECISION_BITS):
    """kind's sweep from min_n (by default its first n), each n's reports built as the caller iterates."""
    if kind in ("robbins", "tail"):
        floor, check = (23, tail_inequalities_check) if kind == "tail" else (1, robbins_check)
        return _sweep(kind, partial(check, bits=bits), floor, floor if min_n is None else min_n, max_n)
    per_n = partial(_sweep_uniform, _fomin_lulov if kind == "fomin-lulov" else _estimate, bits)
    return chain.from_iterable(_sweep(kind, per_n, 1, 1 if min_n is None else min_n, max_n))


def sweep_fomin_lulov(max_n: int, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    """Every partition of every n in range, against every [r^m] with rm = n."""
    return list(_sweep_reports("fomin-lulov", max_n, min_n, bits))


def sweep_estimate(max_n: int, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return list(_sweep_reports("estimate", max_n, min_n, bits))


def sweep_robbins(max_n: int = 200, *, min_n: int = 1, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return list(_sweep_reports("robbins", max_n, min_n, bits))


def sweep_tail(max_n: int = 200, *, min_n: int = 23, bits: int = DEFAULT_PRECISION_BITS) -> list[BoundReport]:
    return list(_sweep_reports("tail", max_n, min_n, bits))
