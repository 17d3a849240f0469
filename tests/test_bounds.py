import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from snchar.bounds import (
    DEFAULT_PRECISION_BITS,
    MAX_MIN_DEGREE_N,
    _exp,
    _fmt,
    _pi,
    _pow,
    _root,
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
from snchar.partitions import enumerate_partitions, parse_partition

# child interpreters import the package from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


# the first 100 decimals of pi and e: each constant lies strictly between D/10^100 and (D+1)/10^100
PI_DIGITS = int("31415926535897932384626433832795028841971693993751"
                "058209749445923078164062862089986280348253421170679")
E_DIGITS = int("27182818284590452353602874713526624977572470936999"
               "595749669676277240766303535475945713821785251664274")


def _at(man, exp):
    return Fraction(man) * Fraction(2) ** exp


def test_interval_endpoints_bracket():
    # each enclosure (lo, hi, exp) holds its value, checked in exact rationals, and is at most
    # 2^(2 - bits) of the value wide; a root is strictly inside, exact (343, 4, 1/2) or not
    roots = [(1, 3, 1), (2, 1, 2), (10**40 + 7, 3**50, 5), (5, 720, 2), (7**36, 1, 12), (1, 10**30, 3),
             (16, 1, 2), (1, 2**40, 40), (3, 7, 2000)]
    for bits in (8, 9, 64, 128, 300):
        for num, den, r in roots:
            lo, hi, exp = _root(num, den, r, bits)
            assert _at(lo, exp) ** r < Fraction(num, den) < _at(hi, exp) ** r
            assert (_at(hi - lo, exp + bits - 2)) ** r <= Fraction(num, den)
            assert lo.bit_length() <= bits and hi - lo in (1, 2)
        for (lo, hi, exp), digits in [(_pi(bits), PI_DIGITS), (_exp(1, 1, bits), E_DIGITS)]:
            assert _at(lo, exp) * 10**100 < digits and _at(hi, exp) * 10**100 > digits + 1
            assert (hi - lo) << bits - 2 <= lo
        # e^3 by squaring, rounded outward at every product
        lo, hi, exp = _pow(_exp(1, 1, bits + 8), 3, bits + 8)
        assert _at(lo, exp) * 10**300 < E_DIGITS**3 and _at(hi, exp) * 10**300 > (E_DIGITS + 1) ** 3
        assert (hi - lo) << bits - 2 <= lo


def _chudnovsky(bits):
    # pi * 2^bits, within one unit: the Chudnovsky series in integers at 64 guard bits, a route _pi does not share
    one = 1 << bits + 64
    k, term, a_sum, b_sum = 1, one, one, 0
    while term:
        term = term * -(6 * k - 5) * (2 * k - 1) * (6 * k - 1) // (k**3 * 10939058860032000)  # 640320^3 / 24
        a_sum, b_sum, k = a_sum + term, b_sum + k * term, k + 1
    return (426880 * math.isqrt(10005 * one * one) * one) // (13591409 * a_sum + 545140134 * b_sum) >> 64


def test_machin_pi_encloses_an_independent_pi():
    # Machin's sums are floored at 2^-(w+20), and the slack of k + 1 units per series covers that: at w = 8375 the
    # floored sums alone round to an enclosure that misses pi, which the spread to 3000 bits never meets
    top = 8375
    ref = _chudnovsky(top + 64)
    assert ref >> top + 64 - 300 == PI_DIGITS * 2**300 // 10**100  # the first 100 decimals, to 2^-300
    for w in [*range(1, 3001, 7), top]:
        lo, hi, exp = _pi(w)
        r = ref >> top - w  # pi * 2^(w + 64) lies in (r - 1, r + 2)
        assert exp == -w and lo << 64 <= r - 1 and hi << 64 >= r + 2 and hi - lo <= 2


def test_interval_precision_guard():
    with pytest.raises(ValueError, match="precision too small: 4"):
        robbins_check(10, bits=4)
    with pytest.raises(ValueError, match="precision too small: 4"):
        estimate_check(parse_partition("3,3"), 2, 3, bits=4)
    with pytest.raises(ValueError, match="precision too small: 4"):
        tail_inequalities_check(30, bits=4)


# _fmt's strings for dyadics (man, exp), as the mpmath.nstr(x, 12) formatter at 80 bits printed them:
# zero, integers below and above 10^15, negatives, a leading digit at 10^-7, 10^-5 (exponent form),
# 10^-4 (fixed), 10^11 (fixed) and 10^12 (exponent form), carries of 9.9999999999995 and
# 9.99999999999995e20 to the next power of ten, the truncated digits of 9.999999999995 from either
# side, mantissas and denominators past 80 bits, and exponents past 2^3500 either way
FMT_TABLE = [
    ((0, 0), '0'),
    ((0, -10), '0'),
    ((999999999999999, 0), '999999999999999'),
    ((-999999999999999, 0), '-999999999999999'),
    ((1000000000000000, 0), '1.0e+15'),
    ((123456789012345678901, 0), '1.23456789012e+20'),
    ((-3, -1), '-1.5'),
    ((-5, 0), '-5'),
    ((-42391158275216203514294433201, -7), '-3.31180924025e+26'),
    ((1, -20), '9.53674316406e-7'),
    ((25, -21), '1.19209289551e-5'),
    ((3, -18), '1.14440917969e-5'),
    ((1, -13), '0.0001220703125'),
    ((2199023255553, -1), '1.09951162778e+12'),
    ((137438953473, -1), '68719476736.5'),
    ((1099511627776, 0), '1099511627776'),
    ((11529215046067893300, -60), '10.0'),
    ((1152921504606789330, -60), '1.0'),
    ((11529215046062705152, -60), '9.99999999999'),
    ((11529215046062705153, -60), '9.99999999999'),
    ((999999999999950000001, 0), '1.0e+21'),
    ((515377520732011331036461129765621272702107522001, -150), '361.098864175'),
    ((2417851639229258349412351, -90), '0.001953125'),
    ((1, -100), '7.88860905221e-31'),
    ((9094947017729282379150390625, -110), '7.00649232162e-6'),
    ((1, 4000), '1.31820409343e+1204'),
    ((3, -4000), '2.27582361104e-1204'),
    ((-10461838291314357175018899611816813659819188550170233659950140084035125767424262251774382614909364050293065248252546314174063180343683591188150754267339816534637456120001, 0), '-1.04618382913e+169'),
]


@pytest.mark.parametrize("value, text", FMT_TABLE)
def test_fmt_reproduces_the_mpmath_strings(value, text):
    assert _fmt(value) == text


def test_fmt_prints_ints_in_full():
    # an int is an exact integer (tail's right-hand side), printed whole at any size
    assert _fmt(10**20) == "100000000000000000000" and _fmt(-7) == "-7"


def test_precision_checked_without_intervals():
    # r = 1 is decided exactly, with no interval evaluation, yet bits is still checked
    with pytest.raises(ValueError, match="precision too small: -7"):
        fomin_lulov_check(parse_partition("2,1"), 1, 3, bits=-7)
    with pytest.raises(ValueError, match="precision too small: -7"):
        sweep_fomin_lulov(1, bits=-7)


def test_fomin_lulov_r1_is_equality():
    report = fomin_lulov_check(parse_partition("3,2"), 1, 5)
    assert report.holds
    clause = report.clauses[0]
    assert clause.margin == "0"
    assert clause.lhs == clause.rhs == "5"


def test_fomin_lulov_known():
    report = fomin_lulov_check(parse_partition("6"), 6, 1)
    assert report.holds
    assert report.check == "fomin-lulov"
    assert "6^1" in report.context
    report2 = fomin_lulov_check(parse_partition("3,3"), 2, 3)
    assert report2.holds


def test_fomin_lulov_shape_guard():
    with pytest.raises(ValueError):
        fomin_lulov_check(parse_partition("3,2"), 2, 2)


def test_estimate_known():
    report = estimate_check(parse_partition("3,3"), 2, 3)
    assert report.holds
    clause = report.clauses[0]
    assert clause.name == "normalized-value"
    assert clause.holds


def test_robbins_structure():
    report = robbins_check(10)
    assert report.holds
    names = [c.name for c in report.clauses]
    assert names == ["lower", "upper"]
    with pytest.raises(ValueError):
        robbins_check(0)
    # the cap of the robbins sweep binds one check too: n = 10 000 holds, one more is refused
    assert robbins_check(10_000).holds
    with pytest.raises(ValueError, match="capped by time"):
        robbins_check(10_001)


def test_tail_known():
    report = tail_inequalities_check(23)
    assert report.holds
    assert [c.name for c in report.clauses] == ["factor-54", "factor-4608"]
    with pytest.raises(ValueError):
        tail_inequalities_check(22)


def _poly_mul(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def test_tail_certificate_holds_for_every_n():
    # with n = 23 + t, the squared tail inequalities n(n-2)^2(n-7)^2 > 54^2 (n-1)^2 and
    # n(n-2)^4(n-7)^4 > 4608^2 (n-1)^2 are polynomials in t, highest degree first below, whose
    # coefficients are all positive: both hold for every n >= 23, at any precision
    n, n2, n7, n1 = [23, 1], [21, 1], [16, 1], [22, 1]

    def minus(p, q):
        return [a - b for a, b in zip(p, q + [0] * (len(p) - len(q)))]

    first = minus(_poly_mul(n, n2, n2, n7, n7), [54**2 * c for c in _poly_mul(n1, n1)])
    second = minus(_poly_mul(n, *[n2] * 4, *[n7] * 4), [4608**2 * c for c in _poly_mul(n1, n1)])
    assert first[::-1] == [1, 97, 3743, 68891, 556464, 1185264]
    assert second[::-1][:2] == [1, 171] and second[0] == 282869563392
    assert all(c > 0 for c in first + second)
    assert all(tail_inequalities_check(n).holds for n in (23, 24, 100, 10**6, 10**40))


def test_min_degree_n15():
    report = min_degree_check(15)
    assert report.holds
    assert report.precision_bits == 0
    values = [c.rhs for c in report.clauses[:-1]]
    assert values == ["14", "90", "91", "350", "364", "715"]
    sep = report.clauses[-1]
    assert sep.name == "separation"
    assert sep.lhs == "910" and sep.rhs == "715"


def test_min_degree_n22():
    report = min_degree_check(22)
    assert report.holds
    values = [c.rhs for c in report.clauses[:-1]]
    assert values == [
        "21", "209", "210", "1309", "1330", "2640",
        "5775", "5985", "11781", "17556", "17765",
    ]
    names = [c.name for c in report.clauses]
    assert names[:6] == ["d1", "d2", "d3", "d4", "d5", "d6"]
    assert names[6:11] == ["d7", "d8", "d9", "d10", "d11"]
    assert names[-1] == "separation"


# sha256 of json.dumps(report.to_json_dict(), sort_keys=True): the report bytes must not drift
MIN_DEGREE_DIGESTS = {
    15: "7a96fbe5374fdefd9813a01ae0f573ea26b5fd7394be024305d952323e9c588a",
    22: "a2e9f8fb1c2f467404190216eb34fb964583c33f1027f5701aa1499b51cce4bc",
    30: "620f6236f110342fed5cd8d4c7b26131c69e5adf73eb98d543ef9de17f52274d",
    50: "6919da6eb10319d8dcde5d3d70dc72d0f09a8147840ff5d1fd6c6df9c4fb9cfe",
}


@pytest.mark.parametrize("n", sorted(MIN_DEGREE_DIGESTS))
def test_min_degree_report_bytes_are_pinned(n):
    text = json.dumps(min_degree_check(n).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MIN_DEGREE_DIGESTS[n]


def test_fomin_lulov_sweep_report_bytes_are_pinned():
    # every partition of 16 at each [r^(16/r)], read from one class-major table
    reports = sweep_fomin_lulov(16, min_n=16)
    assert len(reports) == 1155
    text = json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "93c7a9a466ce544783a29eff4df3121eded720007107bf00d5c69b9bdb6873d8"


def test_estimate_sweep_report_bytes_are_pinned():
    # the estimate sweep reads the same table, and its right-hand side once per class
    reports = sweep_estimate(16, min_n=16)
    assert len(reports) == 1155
    text = json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "2a99dfc3523bb18a4f5b1d9cef5aae5b7fab8996fa90489ff833e3c2d09b4875"


def test_min_degree_keeps_no_partition_after_the_call():
    # n = 30 has 5 604 partitions, each at least two live blocks (object and parts tuple)
    # if kept; live small-object blocks are counted, as in the degree cache test
    min_degree_check(15)
    gc.collect()
    before = sys.getallocatedblocks()
    assert min_degree_check(30).holds
    gc.collect()
    assert sys.getallocatedblocks() - before < 2048


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_min_degree_at_the_cap_streams_its_partitions():
    # a fresh interpreter, so the peak is this call's: the list of all 204 226 partitions of 50 took 50 MB
    code = "\n".join([
        "from snchar.bounds import min_degree_check",
        "def peak_kb():",
        "    return next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))",
        "before = peak_kb()",
        "assert min_degree_check(50).holds",
        "print(peak_kb() - before)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 1024


def test_min_degree_guard():
    with pytest.raises(ValueError):
        min_degree_check(14)


def test_min_degree_refuses_n_above_the_cap():
    assert min_degree_check(MAX_MIN_DEGREE_N - 10).holds
    with pytest.raises(ValueError, match="MAX_MIN_DEGREE_N = 50"):
        min_degree_check(MAX_MIN_DEGREE_N + 1)
    with pytest.raises(ValueError, match=r"n = 100 > MAX_MIN_DEGREE_N"):
        min_degree_check(100)


def test_report_json_schema():
    report = robbins_check(7)
    obj = report.to_json_dict()
    text = json.dumps(obj)
    parsed = json.loads(text)
    assert parsed["check"] == "robbins"
    assert parsed["holds"] is True
    assert parsed["precision_bits"] == DEFAULT_PRECISION_BITS
    for clause in parsed["clauses"]:
        assert set(clause) == {"name", "lhs", "rhs", "margin", "holds"}


def test_report_json_is_every_field_copied():
    report = robbins_check(7)
    obj = report.to_json_dict()
    assert set(obj) == {"check", "context", "clauses", "precision_bits", "holds"}
    assert [set(c) for c in obj["clauses"]] == [{"name", "lhs", "rhs", "margin", "holds"}] * 2
    obj["check"] = obj["clauses"][0]["lhs"] = "changed"
    assert report.check == "robbins" and report.clauses[0].lhs != "changed"


@pytest.mark.parametrize("sweep, floor", [
    (sweep_fomin_lulov, 1), (sweep_estimate, 1), (sweep_robbins, 1), (sweep_tail, 23),
])
def test_sweeps_refuse_empty_ranges(sweep, floor):
    # the range check of the verify sweeps, before any report is built
    with pytest.raises(ValueError, match=rf"^need {floor} <= min_n <= max_n; got {floor}\.\.{floor - 1}$"):
        sweep(floor - 1)
    with pytest.raises(ValueError, match=rf"^need {floor} <= min_n <= max_n; got {floor - 1}\.\.30$"):
        sweep(30, min_n=floor - 1)


def test_sweeps_small_all_hold():
    fl = sweep_fomin_lulov(6)
    assert fl and all(rep.holds for rep in fl)
    # one report per (n, r | n, lam)
    expected = 0
    for n in range(1, 7):
        divs = [r for r in range(1, n + 1) if n % r == 0]
        expected += len(divs) * len(enumerate_partitions(n))
    assert len(fl) == expected
    est = sweep_estimate(6)
    assert est and all(rep.holds for rep in est)
    rb = sweep_robbins(30)
    assert len(rb) == 30 and all(rep.holds for rep in rb)
    tl = sweep_tail(30)
    assert len(tl) == 8 and all(rep.holds for rep in tl)


def test_verdicts_stable_under_doubled_precision():
    samples = [
        (parse_partition("4,3,2,1"), 2, 5),
        (parse_partition("5,5"), 5, 2),
        (parse_partition("2,2,2"), 3, 2),
    ]
    for lam, r, m in samples:
        a = fomin_lulov_check(lam, r, m, bits=128).holds
        b = fomin_lulov_check(lam, r, m, bits=256).holds
        assert a == b
        a = estimate_check(lam, r, m, bits=128).holds
        b = estimate_check(lam, r, m, bits=256).holds
        assert a == b
    assert robbins_check(200, bits=128).holds == robbins_check(200, bits=256).holds


def test_low_precision_fails_honestly():
    # 8 bits cannot separate the Robbins envelope at n = 200
    report = robbins_check(200, bits=8)
    assert not report.holds
