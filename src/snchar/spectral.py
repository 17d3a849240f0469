"""Eigenvalue multiplicities and minimal polynomials of permutation images.

A permutation sigma of order r maps, under the irreducible representation
labeled by lam, to a matrix of finite order, diagonalizable with eigenvalues
among the r-th roots of unity zeta^j. Averaging characters over the cyclic
group generated by sigma, and since the cycle type of sigma^i depends on i
only through gcd(i, r), the multiplicity of zeta^j is a sum of Ramanujan sums:

    r * mult[j] = sum_{d | r} chi(type of sigma^d) * c_{r/d}(j).

c_q(j) depends on j only through gcd(j, q), so mult[j] is computed once per
divisor g = gcd(j, r). c_q(g) is multiplicative in q, so _ramanujan weighs by
one block per p^e || r at a time, in d(r) * sum (e + 1) products; the fixed
space dimension is the sum g = r alone, c_{r/d}(r) = phi(r/d). spectrum_sn and
fixed_space_dim read one character row of lam, listing each power sigma^d by
sigma's cycle groups, most points first, so that powers which keep a group whole
share the hook removals before it; the sweeps in classify read whole class-major
columns, packed as ints of w-bit lanes (_Lanes), weighed by _sweep_sums and
checked whole.
SpectrumProfile and MinPoly share one store, _Residues, which holds values that
depend on j only through g and the sign of a quadratic character as one entry
per divisor and sign. The integer arithmetic lives in arith. Every division is
checked to be exact; a remainder signals a bug, never a rounding problem.

For a split alternating group label at its distinguished class, the powers
sigma^i with gcd(i, r) = 1 stay in that class, where chi_plus - chi_minus
= b * sqrt(d) * psi(i): b^2 d = eps * (product of diagonal hooks), eps =
chi(sigma) = +-1, d = 1 mod 4 squarefree and psi = (d | .) of conductor f = |d|,
formed and checked by arith._split_surd. So r * mult_plus/minus[j] =
(r * mult_lam[j] +- T(j)) / 2, where T(j) is b*sqrt(d) times the Gauss sum of
psi induced to modulus r. With g = gcd(j, r), r' = r/g and t = r'/f (Montgomery
& Vaughan, Multiplicative Number Theory I, Thm 9.10),

    T(j) = b * f * (phi(r) / phi(r')) * mu(t) * psi(t) * psi(j/g)  if f | r', else 0.

T depends on j only through g and psi(j/g) = +-1, so _halves builds both halves
of a pair from one parent spectrum as at most 2 * d(r) multiplicities, and
min_poly reads their support from those; only mult and roots list the
residues, refused above MAX_LISTED_R for values held per divisor.

Independent slow routes, kept for tests: spectrum_sn_direct reduces the
defining sums in the cyclotomic ring, _gauss_correction recomputes T from
quadratic Gauss sum vectors in about r^2 steps, and spectrum_an_numeric takes
a floating point discrete Fourier transform of chi_an over the powers of sigma.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache, partial
from itertools import compress, repeat

from .arith import (_divisors_by_exponent, _factorize, _polydivmod, _split_surd, cyclotomic, divisors, euler_phi,
                    kronecker_symbol, moebius)
from .characters_sn import _beta_set, _chi_row, _columns, chi, degree
from .partitions import CycleType, Partition, _check_alternating, _check_sizes, _power_cycles

# characters_an (AnCharacterLabel and the variants), and fractions with it, is imported by the
# A_n functions alone, so a symmetric group query loads neither

__all__ = [
    "SpectrumProfile",
    "MinPoly",
    "ramanujan_sum",
    "spectrum_sn",
    "spectrum_sn_direct",
    "spectrum_an",
    "spectrum_an_numeric",
    "min_poly",
    "render_min_poly",
    "fixed_space_dim",
]


def ramanujan_sum(q: int, j: int) -> int:
    """Sum of the j-th powers of the primitive q-th roots of unity."""
    if q < 1:
        raise ValueError("q must be positive")
    # Hoelder: with g = gcd(j, q), c_q(j) = mu(q/g) * phi(q) / phi(q/g)
    m = q // math.gcd(j, q)
    mu = moebius(m)
    return mu * euler_phi(q) // euler_phi(m) if mu else 0


@lru_cache(maxsize=256)
def _phis(r: int) -> tuple[int, ...]:
    """phi(r/g) for the divisors g of r: how many j in range(r) have gcd(j, r) = g."""
    return tuple(euler_phi(r // g) for g in divisors(r))


def _spread(r: int, pos, neg=None, d: int = 1) -> list:
    """The per-residue list of a compact form (d, pos, neg) aligned with divisors(r), as
    SpectrumProfile holds it: entry j, with g = gcd(j, r) the k-th divisor of r, is pos[k]
    where (d | j/g) = 1 and neg[k] where it is -1; pos alone gives one value per gcd."""
    out = [0] * r
    # ascending divisors: the last g written at j is the largest one dividing j, gcd(j, r); the
    # j = g * k with gcd(j, r) = g have k prime to r/g, so (d | k) = +-1 there
    for g, plus, minus in zip(divisors(r), pos, neg or pos):
        if plus == minus:
            out[::g] = [plus] * (r // g)
        else:  # |d| divides r/g: one row of psi, read as (0, 1, -1) -> (any, plus, minus), repeated
            psi = _quadratic_character(d)
            out[::g] = list(map((plus, plus, minus).__getitem__, psi)) * (r // g // len(psi))
    return out


def _check_counts(r: int, columns, lanes: _Lanes) -> None:
    """Check the packed columns of multiplicities of a class column, one per divisor g of r (the sweeps): every lane
    within 0 .. lanes.bound, so each is a row's exact quotient, and weighted by phi(r/g) they sum to the degrees."""
    phis = _phis(r)
    if len(columns) != len(phis):
        raise RuntimeError("columns must list one column per divisor of r (internal bug)")
    if not all(map(lanes.fits, columns)):
        raise RuntimeError("negative multiplicity (internal bug)")
    if _dot(phis, columns) != lanes.degrees:
        raise RuntimeError("multiplicities must sum to the degree (internal bug)")


def _check_case(mult, weights, degree: int) -> None:
    """_check_counts on one case: mult, weighted by the residues sharing each entry."""
    if min(mult) < 0:
        raise RuntimeError("negative multiplicity (internal bug)")
    if sum(map(operator.mul, weights, mult)) != degree:
        raise RuntimeError("multiplicities must sum to the degree (internal bug)")


class _Residues:
    """One value per residue j in range(r): the store of SpectrumProfile and MinPoly (min_poly,
    render_min_poly, _halves and MinPoly.is_full read its compact form too). Values that
    depend on j only through g = gcd(j, r) and the sign of (d | j/g), for a squarefree
    d = 1 mod 4, are held compactly as (d, pos, neg), aligned with divisors(r): pos[k] where
    (d | j/g) = 1 and neg[k] where it is -1, spread over the residues on first access. The
    form is canonical: pos == neg stores d = 1, values shared by every j of equal gcd (a
    union of Galois orbits). Any other values are held per residue. Equality and hashing
    compare the values within one class, whichever form holds them."""

    __slots__ = ("r", "_values", "_compact")

    def _hold_values(self, r: int, values) -> None:
        """Hold one value per residue, compactly with d = 1 when every j of equal gcd shares it."""
        values = tuple(values)
        by_gcd = tuple(values[g % r] for g in divisors(r))
        self.r, self._values = r, values
        self._compact = (1, by_gcd, by_gcd) if _spread(r, by_gcd) == list(values) else None

    def _hold_compact(self, r: int, pos: tuple, neg: tuple, d: int) -> None:
        self.r, self._values, self._compact = r, None, (1, pos, pos) if pos == neg else (d, pos, neg)

    def _at_zero(self):  # the value at j = 0, whose gcd with r is r: pos[-1] of the compact form
        return self._compact[1][-1] if self._compact else self._values[0]

    def _listed(self, refusal: str = "") -> tuple:
        """One value per residue, spread from the compact form on first access; a listing that states
        its refusal is refused for values held per divisor when r > MAX_LISTED_R, whatever their d."""
        if self._values is None:
            if refusal and self.r > MAX_LISTED_R:
                raise ValueError(f"{refusal}, and r = {self.r} > MAX_LISTED_R = {MAX_LISTED_R}")
            d, pos, neg = self._compact
            self._values = tuple(_spread(self.r, pos, neg, d))
        return self._values

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.r != other.r:
            return False
        if self._compact is not None and other._compact is not None:
            return self._compact == other._compact
        return self._listed() == other._listed()

    def __hash__(self) -> int:
        # the value at j = g for each divisor g: pos in the compact form, as j = g has j/g = 1
        r = self.r
        return hash((r, self._compact[1] if self._compact else tuple(self._values[g % r] for g in divisors(r))))

    def _shown(self, listing: str) -> str:
        """listing=its value for repr, or above the listing cap the compact form (d, pos, neg)."""
        try:
            return f"{listing}={getattr(self, listing)!r}"
        except ValueError:
            return f"compact={self._compact}"


class SpectrumProfile(_Residues):
    """Eigenvalue multiplicities of a permutation image: mult[j] counts the
    eigenvalue exp(2*pi*i*j/r), and r is the permutation's order. Only a split
    half at its distinguished class with an irrational surd is held with d != 1.
    The degree takes no part in equality: both constructors check that the
    multiplicities sum to it."""

    __slots__ = ("degree",)

    def __init__(self, r: int, mult: tuple[int, ...], degree: int) -> None:
        mult = tuple(mult)
        if r < 1 or len(mult) != r:
            raise ValueError("mult must list one entry per r-th root")
        _check_case(mult, repeat(1), degree)
        self._hold_values(r, mult)
        self.degree = degree

    @classmethod
    def _from_gcd(cls, r: int, pos, degree: int, neg=None, d: int = 1) -> SpectrumProfile:
        """The profile held as (d, pos, neg): at the j whose gcd g with r is the
        k-th divisor of r, multiplicity pos[k] where (d | j/g) = 1 and neg[k] where
        it is -1, so for d = 1 (neg unread) pos[k] at all phi(r/g) of them.
        pos[k] != neg[k] only where |d| divides r/g, and then half of the residues
        take each."""
        phis = _phis(r)
        pos = tuple(pos)
        neg = pos if d == 1 else tuple(neg)
        if len(pos) != len(phis) or len(neg) != len(phis):
            raise ValueError("pos and neg must list one entry per divisor of r")
        _check_case(pos + neg, phis + phis, 2 * degree)
        self = object.__new__(cls)
        self._hold_compact(r, pos, neg, d)
        self.degree = degree
        return self

    @property
    def mult(self) -> tuple[int, ...]:
        return self._listed("a profile held per divisor of r lists one multiplicity per residue")

    def support(self) -> frozenset[int]:
        return min_poly(self).roots

    def to_json_dict(self) -> dict:
        return {"r": self.r, "degree": self.degree, "mult": list(self.mult)}

    def __repr__(self) -> str:
        return f"SpectrumProfile(r={self.r}, {self._shown('mult')}, degree={self.degree})"


class MinPoly(_Residues):
    """Minimal polynomial of a finite order matrix, as the set of exponents j
    of its eigenvalues exp(2*pi*i*j/r), held as whether each j is a root."""

    __slots__ = ()

    def __init__(self, r: int, roots: frozenset[int]) -> None:
        roots = frozenset(roots)
        if r < 1 or not roots or any(not 0 <= j < r for j in roots):
            raise ValueError("roots must be a nonempty subset of range(r)")
        self._hold_values(r, map(roots.__contains__, range(r)))

    @property
    def roots(self) -> frozenset[int]:
        return frozenset(compress(range(self.r), self._listed("a minimal polynomial held per divisor of r lists "
                                                              "its roots one residue at a time")))

    @property
    def rendered(self) -> str:
        return render_min_poly(self)

    def is_full(self) -> bool:
        return self._compact is not None and all(self._compact[1]) and all(self._compact[2])

    def to_json_dict(self) -> dict:
        return {"r": self.r, "roots": sorted(self.roots), "rendered": self.rendered}

    def __repr__(self) -> str:
        return f"MinPoly(r={self.r}, {self._shown('roots')})"


def _support(r: int, pos, neg=None, d: int = 1) -> MinPoly:
    """The minimal polynomial whose roots are where the compact form (d, pos, neg) is nonzero; neg defaults to pos."""
    mp = object.__new__(MinPoly)
    pos = tuple(map(bool, pos))
    mp._hold_compact(r, pos, pos if neg is None else tuple(map(bool, neg)), d)
    return mp


@lru_cache(maxsize=256)
def _full_min_poly(r: int) -> MinPoly:
    """x^r - 1, shared by every full spectrum of order r."""
    return _support(r, (1,) * len(divisors(r)))


@lru_cache(maxsize=256)
def _ramanujan_plan(r: int) -> tuple[list[int], list[int], list]:
    """The exponent order of divisors(r) as positions there, its inverse, and per p^e || r, last prime first,
    the block c_{p^(e-b)}(p^a) at [a][b]: c_{r/d}(g) is the product of the blocks at a = v_p(g), b = v_p(d)."""
    order = list(map({g: k for k, g in enumerate(divisors(r))}.__getitem__, _divisors_by_exponent(r)))
    blocks = [[[ramanujan_sum(p ** (e - b), p**a) for b in range(e + 1)] for a in range(e + 1)]
              for p, e in reversed(_factorize(r))]
    return order, sorted(range(len(order)), key=order.__getitem__), blocks


def _dot(weights, values):
    """sum_k weights[k] * values[k]: the one combine of every weighing, of integers or of packed columns."""
    return sum(map(operator.mul, weights, values))


def _ramanujan(r: int, entries) -> list:
    """sum_{d | r} c_{r/d}(g) * entries[d] per divisor g of r, aligned with divisors(r), in d(r) * sum (e + 1)
    products: a block weighs the runs of the fastest exponent and makes it the slowest."""
    order, inverse, blocks = _ramanujan_plan(r)
    x = list(map(entries.__getitem__, order))
    for block in blocks:
        fibers = list(zip(*[iter(x)] * len(block)))  # the consecutive runs of len(block) entries
        x = [_dot(w, fiber) for w in block for fiber in fibers]
    return list(map(x.__getitem__, inverse))


def _fixed_space(r: int, entries) -> list:
    """The g = r sum of _ramanujan alone: c_{r/d}(r) = phi(r/d)."""
    return [_dot(_phis(r), entries)]


def _divide(sums: list[int], r: int) -> list[int]:
    """sums / r entry by entry, checked exact: each x - r * (x // r) is in [0, r), so all vanish iff their sum does
    (a packed column's row whose remainder r | 2^w hides leaves a lane that _Lanes.fits refuses)."""
    out = list(map(operator.floordiv, sums, repeat(r)))
    if sum(sums) != r * sum(out):
        raise RuntimeError("non-integer multiplicity (internal bug)")
    return out


class _Lanes:
    """Columns of integers as one int each, row i at bits w * i: w is the smallest multiple of 64 with r * bound <
    2^(w - 1), r the largest order weighed and bound = max(degrees) >= |chi(sigma)|, so the exact sums of a weighing
    have one lane representation, and whole-int tests decide every row at once. Made from the lists columns, which it
    packs in place, with degrees = columns[identity]; top marks the top bit of each lane and low the bits below it."""

    def __init__(self, r: int, columns: list, identity: int) -> None:
        self.bound = max(columns[identity])
        self.w = w = (r * self.bound).bit_length() // 64 * 64 + 64
        ones = int.from_bytes((b"\1" + bytes(w // 8 - 1)) * len(columns[identity]), "little")  # a 1 in every lane
        self.top, self.low, self.pad = ones << w - 1, (ones << w - 1) - ones, ((1 << w - 1) - 1 - self.bound) * ones
        self.degrees = self.pack(columns)[identity]

    def pack(self, columns: list) -> list:
        """The lists columns as ints, in place, each entry checked within +-bound: every list first gives way to its
        two's complement lanes (an array the size of its buffer, for w = 64); each top bit flipped reads v + 2^(w-1)."""
        from array import array  # imported here, so that importing the package does not load it

        for k, column in enumerate(columns):
            if max(column) > self.bound or -min(column) > self.bound:
                raise RuntimeError("character value above the degree bound (internal bug)")
            columns[k] = array("q", column) if self.w == 64 else b"".join(
                map(partial(int.to_bytes, length=self.w // 8, byteorder="little", signed=True), column))
        for k, column in enumerate(columns):
            columns[k] = (int.from_bytes(column, "little") ^ self.top) - self.top
        return columns

    def fits(self, q: int) -> bool:
        """Whether q holds its lanes alone, each in 0 .. bound: pad lifts one above bound to its top bit, carry-free."""
        return 0 <= q <= self.low and not ((q & self.low) + self.pad | q) & self.top

    def zeros(self, q: int):
        """The rows, last first, where q, which fits, is 0: a nonzero lane carries into its top bit."""
        zero = ~((q & self.low) + self.low | q) & self.top
        while zero:
            zero ^= 1 << (b := zero.bit_length()) - 1
            yield b // self.w - 1

    def lane(self, q: int, i: int) -> int:
        """Row i of q, which fits."""
        return q >> self.w * i & (1 << self.w) - 1


def _sweep_sums(lams, classes, weigh) -> tuple[_Lanes, object]:
    """The lanes of one _columns table of the powers sigma^d, aligned with the part tuples lams (the caller's
    _walk_parts(n)) and packed in place, and a generator of, per class sigma of order r, as (length, count) pairs,
    the packed columns (1/r) * weigh(r, chi(sigma^d) over d | r), divided exactly."""
    column: dict[tuple[tuple[int, int], ...], int] = {}
    plan = []
    for cycles in classes:
        r = math.lcm(*(a for a, _ in cycles))
        plan.append((r, [column.setdefault(tuple(_power_cycles(cycles, d)), len(column)) for d in divisors(r)]))
    table = _columns(lams, [[a for a, b in pairs for _ in range(b)] for pairs in column])
    lanes = _Lanes(max(r for r, _ in plan), table, column[((1, sum(lams[0])),)])  # sigma^r, the identity
    return lanes, (_divide(weigh(r, [table[k] for k in cols]), r) for r, cols in plan)


def _sums_at(lam: Partition, sigma: CycleType, weigh) -> list[int]:
    """_sweep_sums at one class, over one character row of lam: d(r) powers, each the pieces of sigma's cycle groups
    (a, b), most points a * b first: the biggest removal meets one shape, and powers share their first levels."""
    r = sigma.order()
    if (k := math.prod(e + 1 for _, e in _factorize(r))) > MAX_DIVISORS:
        raise ValueError(f"class {sigma} has d(r) = {k} divisors of its order, over MAX_DIVISORS = {MAX_DIVISORS}")
    groups = sorted(sigma.cycles, key=lambda group: group[0] * group[1], reverse=True)  # stable: ties by origin
    cell = _chi_row(_beta_set(lam.parts), [[a // g for a, b in groups if a // (g := math.gcd(a, d)) > 1
                                            for _ in range(b * g)] for d in divisors(r)])
    return _divide(weigh(r, cell), r)


def spectrum_sn(lam: Partition, sigma: CycleType) -> SpectrumProfile:
    """Exact eigenvalue multiplicities of a symmetric group irreducible at sigma."""
    _check_sizes(lam, sigma)
    return SpectrumProfile._from_gcd(sigma.order(), _sums_at(lam, sigma, _ramanujan), degree(lam))


def spectrum_sn_direct(lam: Partition, sigma: CycleType) -> SpectrumProfile:
    """Independent slow route: reduce the eigenvalue counting sums in the
    cyclotomic ring and insist every Galois conjugate reduces identically."""
    _check_sizes(lam, sigma)
    r = sigma.order()
    chis = [chi(lam, sigma.power(i)) for i in range(r)]
    phi_r = cyclotomic(r)
    units = [u for u in range(1, r + 1) if math.gcd(u, r) == 1]
    mult = []
    for j in range(r):
        vec = [0] * r
        for i in range(r):
            vec[(-i * j) % r] += chis[i]
        rem0 = _polydivmod(vec, phi_r)[1]
        for u in units:
            gvec = [0] * r
            for k, c in enumerate(vec):
                if c:
                    gvec[(k * u) % r] += c
            if _polydivmod(gvec, phi_r)[1] != rem0:
                raise RuntimeError("eigenvalue count is not Galois stable (internal bug)")
        if any(rem0[1:]):
            raise RuntimeError("eigenvalue count is not rational (internal bug)")
        const = rem0[0] if rem0 else 0
        q, rem = divmod(const, r)
        if rem:
            raise RuntimeError("non-integer multiplicity (internal bug)")
        mult.append(q)
    return SpectrumProfile(r, tuple(mult), degree(lam))


def _cyclic_mul(u: list[int], v: list[int], r: int) -> list[int]:
    out = [0] * r
    for i, ci in enumerate(u):
        if ci:
            for k, ck in enumerate(v):
                if ck:
                    out[(i + k) % r] += ci * ck
    return out


def _principal_sqrt_vector(hooks: tuple[int, ...], r: int) -> list[int]:
    """Exponent vector (over the r-th roots of unity) of the principal square
    root of chi(distinguished) * product(hooks).

    Each odd a contributes the Gauss sum G_a whose square is (-1)^((a-1)/2)*a;
    the product over all hooks is off from the principal root by -1 exactly
    when the count of hooks congruent to 3 mod 4 is 2 or 3 modulo 4.
    """
    vec = [0] * r
    vec[0] = 1
    bad = 0
    for a in hooks:
        if a % 2 == 0 or r % a:
            raise RuntimeError("diagonal hooks must be odd and divide r (internal bug)")
        if a % 4 == 3:
            bad += 1
        if a == 1:
            continue
        gauss = [0] * r
        step = r // a
        for t in range(a):
            gauss[(step * t * t) % r] += 1
        vec = _cyclic_mul(vec, gauss, r)
    if bad % 4 in (2, 3):
        vec = [-c for c in vec]
    return vec


def _gauss_correction(hooks: tuple[int, ...], r: int) -> list[int]:
    """Independent slow route for tests: the split correction T(j) at every
    residue j, as sum_k g_k * c_r(k - j) over the Gauss-sum exponent vector g
    of the principal square root. About r^2 steps."""
    g = _principal_sqrt_vector(hooks, r)
    # c_r(m) depends on m only through gcd(m, r)
    c_r_res = _spread(r, [ramanujan_sum(r, g) for g in divisors(r)])
    terms = [(k, c) for k, c in enumerate(g) if c]
    return [sum(c * c_r_res[k - j] for k, c in terms) for j in range(r)]  # a negative index wraps mod r


# two surds, as _split_pair holds two pairs: listing both halves of a pair builds one table
@lru_cache(maxsize=2)
def _quadratic_character(d: int) -> tuple[int, ...]:
    """(d | x) for x in range(|d|), d squarefree and 1 mod 4, as a product of
    Legendre symbols, each repeated over the table: 14x faster than
    kronecker_symbol per residue at 2^20."""
    f = abs(d)
    psi = (1,) * f
    for q, _ in _factorize(f):
        legendre = [-1] * q
        legendre[0] = 0
        for x in range(1, (q + 1) // 2):
            legendre[x * x % q] = 1
        psi = tuple(map(operator.mul, psi, legendre * (f // q)))
    return psi


# listings of one value per residue are refused above this order r: the mult and roots of
# any profile or minimal polynomial held per divisor (repr prints that form), and cli's spectrum
# and minpoly --format json; so is a rendered minimal polynomial that divides out more roots than this
MAX_LISTED_R = 1 << 20
# spectrum_sn, spectrum_an and fixed_space_dim refuse an order r of more divisors, one power sigma^d each:
# the row of (n - 2, 2) at the first 18 primes (n = 501) peaks at 170 MB, at the first 19 at 329 MB
MAX_DIVISORS = 1 << 18


def spectrum_an(label: AnCharacterLabel, sigma: CycleType) -> SpectrumProfile:
    """Exact eigenvalue multiplicities of an alternating group irreducible.

    For a split label on a class that splits, the profile belongs to the
    class of the canonical representative; the companion class has plus and
    minus swapped. Both halves of a pair come from one parent spectrum, read
    through a small cache, so the second half evaluates no character row. At
    the distinguished class a half holds at most 2 * d(r) multiplicities, and
    its mult (one per residue) is refused when r exceeds MAX_LISTED_R.
    """
    from .characters_an import MINUS, RESTRICTED

    lam = label.partition
    _check_alternating(lam, sigma)
    if label.variant == RESTRICTED:
        return spectrum_sn(lam, sigma)
    return _split_pair(lam, sigma)[label.variant == MINUS]


# two pairs: the halves of one pair are asked for one after the other, or interleaved with another's
@lru_cache(maxsize=2)
def _split_pair(lam: Partition, sigma: CycleType) -> tuple[SpectrumProfile, SpectrumProfile]:
    """The plus and minus halves of the split pair of lam at sigma, for checked arguments."""
    from .characters_an import special_class

    return _halves(sigma.cycles, spectrum_sn(lam, sigma), special_class(lam))


def _halves(cycles, base: SpectrumProfile, special: CycleType) -> tuple[SpectrumProfile, SpectrumProfile]:
    """The plus and minus halves of a split pair at the class of the (length, count) pairs
    cycles, from base, the parent's spectrum_sn there, and special, the pair's distinguished class."""
    r, half_degree, by_gcd = base.r, base.degree // 2, base._compact[1]  # base is Galois stable: d = 1
    if cycles != special.cycles:
        if any(m % 2 for m in by_gcd):
            raise RuntimeError("odd multiplicity away from the distinguished class (internal bug)")
        half = SpectrumProfile._from_gcd(r, [m // 2 for m in by_gcd], half_degree)
        return half, half
    # chi(sigma) is the trace: the j with gcd(j, r) = g sum to mu(r/g)
    eps = sum(m * moebius(r // g) for g, m in zip(divisors(r), by_gcd))
    # the cycle lengths of the distinguished class are the diagonal hooks
    b, d = _split_surd(eps, special.lengths())
    f, phi_r = abs(d), euler_phi(r)
    # mult_plus is pos[k] = (r * m_g + t) / 2r where (d | j/g) = 1 and neg[k] = (r * m_g - t) / 2r
    # where it is -1, with t = T(g) of the closed form, 0 unless f divides r/g (at j = 0 only for
    # d = 1); mult_minus swaps them. For d = 1, (1 | .) = 1 and T is shared by the j of equal gcd: _from_gcd
    # keeps the first list alone, and each half is Galois stable
    pos, neg = [], []
    for g, m in zip(divisors(r), by_gcd):
        rp = r // g
        t = b * f * (phi_r // euler_phi(rp)) * moebius(rp // f) * kronecker_symbol(d, rp // f) if rp % f == 0 else 0
        (plus, rem_plus), (minus, rem_minus) = divmod(r * m + t, 2 * r), divmod(r * m - t, 2 * r)
        if rem_plus or rem_minus:
            raise RuntimeError("non-integer split multiplicity (internal bug)")
        pos.append(plus)
        neg.append(minus)
    return (SpectrumProfile._from_gcd(r, pos, half_degree, neg, d),
            SpectrumProfile._from_gcd(r, neg, half_degree, pos, d))


# relative slack within which spectrum_an_numeric snaps a multiplicity to an integer
_SNAP = 1e-6


def spectrum_an_numeric(label: AnCharacterLabel, sigma: CycleType) -> SpectrumProfile:
    """Floating point cross check of spectrum_an: a discrete Fourier transform
    of the values chi_an(label, sigma^i), i in range(r), in complex floats.

    chi_an gives the value on the canonical representative of a class. A
    power sigma^i that stays in the distinguished class (gcd(i, r) = 1) takes
    that value with the surd sqrt(d) times (d | i), for squarefree d = 1 mod 4,
    so an irrational value is conjugated where that symbol is -1. The route
    reads the surd of chi_an, but neither the closed form of T nor the
    Ramanujan sums. Values are snapped to integers within the relative slack
    _SNAP.
    """
    from .characters_an import chi_an

    _check_alternating(label.partition, sigma)
    r = sigma.order()
    exact = [chi_an(label, sigma.power(i)) for i in range(r)]
    values = [(v.conjugate() if v.b and kronecker_symbol(v.d, i) == -1 else v).approx()
              for i, v in enumerate(exact)]
    # each average sums r terms of size at most scale, with the angle reduced
    # mod r: its rounding error stays below (r + 2) * scale * ulp(1.0)
    scale = max(abs(v) for v in values)
    if (r + 2) * scale * math.ulp(1.0) > 0.25:
        raise ValueError(
            f"float resolution lost: character values up to {scale:.3g} averaged over "
            f"{r} powers cannot be snapped to integers; use spectrum_an"
        )
    mult = []
    for j in range(r):
        acc = sum(values[i] * cmath.exp(-2j * math.pi * (i * j % r) / r) for i in range(r)) / r
        nearest = round(acc.real)
        if abs(acc - nearest) > _SNAP * max(1.0, abs(acc)):
            raise RuntimeError(f"numeric multiplicity {acc} does not snap to an integer")
        mult.append(nearest)
    return SpectrumProfile(r, tuple(mult), int(exact[0].a))  # the value at sigma^0 = 1 is the degree


def min_poly(profile: SpectrumProfile) -> MinPoly:
    """Minimal polynomial support; finite order matrices are diagonalizable,
    so the minimal polynomial is squarefree with the spectrum as root set."""
    r, compact = profile.r, profile._compact
    if compact is None:
        return MinPoly(r, compress(range(r), profile._values))
    d, pos, neg = compact
    return _full_min_poly(r) if all(pos) and all(neg) else _support(r, pos, neg, d)


def _poly_str(coeffs: tuple[int, ...]) -> str:
    """Render ascending integer coefficients as a readable polynomial in x."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            var = "x" if e == 1 else f"x^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(terms) if terms else "0"


def render_min_poly(mp: MinPoly) -> str:
    """Human readable minimal polynomial.

    Full spectrum renders as x^r-1. A missing set closed under the Galois
    action (all j of equal gcd with r together) divides out cyclotomic
    factors; anything else divides out explicit root atoms x-zr^j. Either
    grows with the count of missing roots, so more than MAX_LISTED_R of them
    are refused before any factor is built.
    """
    r, compact = mp.r, mp._compact
    if mp.is_full():
        return "x-1" if r == 1 else f"x^{r}-1"
    if compact is None:
        missing = mp._values.count(False)
    else:
        # of the phi(r/g) j with gcd(j, r) = g, half are missing where pos and neg differ
        d, pos, neg = compact
        missing = sum(phi * (2 - p - q) // 2 for phi, p, q in zip(_phis(r), pos, neg))
    if missing > MAX_LISTED_R:
        raise ValueError(f"the minimal polynomial at r = {r} lacks {missing} of the r-th roots of unity, "
                         f"more than its rendering may list (MAX_LISTED_R = {MAX_LISTED_R})")
    if compact is not None and d == 1:
        # the missing j with gcd(j, r) = g are the primitive (r/g)-th roots: divide out Phi_{r/g}
        factors = [f"({_poly_str(cyclotomic(r // g))})" for g, kept in zip(divisors(r)[::-1], pos[::-1]) if not kept]
    else:
        factors = [f"(x-z{r}^{j})" for j in compress(range(r), map(operator.not_, mp._listed()))]
    # one factor divides as it is; several divide as one bracketed product
    divisor = factors[0] if len(factors) == 1 else f"({''.join(factors)})"
    return f"(x^{r}-1)/{divisor}"


def fixed_space_dim(lam: Partition, sigma: CycleType) -> int:
    """Dimension of the fixed space of sigma's image (multiplicity of eigenvalue 1)."""
    _check_sizes(lam, sigma)
    (dim,) = _sums_at(lam, sigma, _fixed_space)
    if not 0 <= dim <= degree(lam):
        raise RuntimeError(f"fixed space dimension {dim} outside 0..degree (internal bug)")
    return dim

