"""Seeded inputs and independent expectations for the snchar benchmark.

Everything here is standard library only and never imports snchar: inputs are
raw tuples and strings, and the expectations (case counts, exceptional sets,
partition and cycle type spellings) are derived from first principles, so a
defect in the package cannot hide in its own test oracle.

A run replays one list of operations, built from (workload, seed), several
times, each replay in a fresh interpreter.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

WORKLOADS = ("sweep", "query", "cli", "oracle")

# Sizes of one sweep replay: the paper's verification run, kept to about 3 s
# so that a run holds enough replays for the best-of-replays time to be steady.
SWEEP_SN_MAX, SWEEP_AN_MAX, SWEEP_EIG_MAX = 14, 15, 12
SWEEP_BOUND_MAX, SWEEP_SCALAR_MAX, SWEEP_MIN_DEGREE_N = 12, 200, 24

# Single exact queries: point counts, the cap on the class order of S_n
# queries, and the lower cap for the Gauss-sum path, whose cost grows with r^2.
QUERY_N = (24, 40)
QUERY_ORDER_CAP = 2000
SPLIT_ORDER_CAP = 315
QUERY_KINDS = ("spectrum", "fixdim", "chi_an", "split")
QUERY_ROUNDS = 6  # the population visits every n in QUERY_N this many times
SMALL_R = 12  # S_n orders up to this are re-checked by spectrum_sn_direct
NUMERIC_DEGREE_CAP = 10**9  # split halves re-checked by spectrum_an_numeric below this degree

# Specht oracle: all pairs at these n, and a fixed sample at the largest n.
ORACLE_ALL_N = (5, 6)
ORACLE_SAMPLE_N, ORACLE_SAMPLE_K = 7, 1

CLI_ROUNDS = 2  # each round runs every command template once

CLASSIFY_KINDS = ("minpoly-sn", "minpoly-an", "eigenvalue-one")

# Machine speed reference. The benchmark shares its cores with other tenants,
# whose load moves this machine's speed by up to 40 % for minutes at a time. A
# fixed pure-Python reference, timed right after every operation in the same
# process, samples that speed; the gated timings are rescaled to a machine on
# which the reference takes REF_NOMINAL_S (about its time on this machine). It
# mixes three kinds of work the package does, because no one of them tracks
# every workload across a change of speed: small-integer arithmetic, tuple and
# dict churn, and Fraction arithmetic on growing integers. The garbage
# collector is off while it runs, so the program's heap cannot change its time.
REF_NOMINAL_S = 0.0015
# Launches and imports (the cli workload, setup_s) are process creation,
# loading and unmarshalling, which that reference does not track. Theirs is
# a fresh interpreter that imports a fixed set of standard library modules,
# launched after every cli launch and every setup probe: nominal launch time
# (start to exit, timed by the parent) and import time (timed inside it).
REF_IMPORTS = ("argparse, json, fractions, decimal, unittest, email.message, http.client, "
               "xml.dom.minidom, logging, pathlib, typing")
REF_LAUNCH_NOMINAL_S = 0.17
REF_IMPORT_NOMINAL_S = 0.08


def rng_for(workload: str, seed: int) -> random.Random:
    # string seeds hash through sha512, so streams agree across interpreters
    return random.Random(f"snchar-bench:{workload}:{seed}")


def answer_digest(answers: list) -> str:
    """sha256 over the answers' canonical JSON, one line per operation."""
    h = hashlib.sha256()
    for a in answers:
        h.update(json.dumps(a, sort_keys=True, default=str).encode() + b"\n")
    return h.hexdigest()


def _triple(a: int, b: int) -> tuple[int, int, int]:
    return (a, b, a + b)


def time_reference() -> float:
    """Wall time of one pass of the reference."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    table: dict[int, int] = {}
    for i in range(600):
        row = _triple(i, i * 31 % 97)
        table[row[1]] = table.get(row[1], 0) + row[2]
    sorted(table.items())
    x = Fraction(1)
    for i in range(1, 121):
        x = x * Fraction(i, i + 3) + Fraction(1, i)
    took = time.perf_counter() - t
    if enabled:
        gc.enable()
    return took


# --- partitions and cycle types as raw tuples ---------------------------------


@lru_cache(maxsize=None)
def count_parts(n: int, k: int) -> int:
    """Number of partitions of n with every part at most k."""
    if n == 0:
        return 1
    return sum(count_parts(n - f, f) for f in range(1, min(n, k) + 1))


def all_partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, lexicographically decreasing."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(f,) + rest for f in range(min(n, cap), 0, -1) for rest in all_partitions(n - f, f)]


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A partition of n drawn uniformly, largest part first."""
    out = []
    cap = n
    while n:
        x = rng.randrange(count_parts(n, cap))
        for f in range(min(n, cap), 0, -1):
            c = count_parts(n - f, f)
            if x < c:
                break
            x -= c
        out.append(f)
        n -= f
        cap = f
    return tuple(out)


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)) if parts else ()


def is_even(cycle_lengths: tuple[int, ...]) -> bool:
    return sum(a - 1 for a in cycle_lengths) % 2 == 0


def odd_distinct_parts(n: int, top: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n into distinct odd parts: the diagonal hooks of the
    self-conjugate partitions of n."""
    top = n if top is None else top
    if n == 0:
        return [()]
    out = []
    for p in range(min(top, n), 0, -1):
        if p % 2:
            out.extend((p,) + rest for rest in odd_distinct_parts(n - p, p - 2))
    return out


def self_conjugate_from_hooks(hooks: tuple[int, ...]) -> tuple[int, ...]:
    """The self-conjugate partition with the given diagonal hook lengths."""
    arms = [(h - 1) // 2 for h in hooks]
    rows = [a + i + 1 for i, a in enumerate(arms)]
    j = len(arms) + 1
    while True:
        c = sum(1 for i, a in enumerate(arms) if a + i + 1 >= j)
        if not c:
            return tuple(rows)
        rows.append(c)
        j += 1


def fmt_partition(parts: tuple[int, ...]) -> str:
    """Spelling used by the package: runs written as part^k, comma separated."""
    out = []
    for p, group in itertools.groupby(parts):
        k = len(list(group))
        out.append(f"{p}^{k}" if k > 1 else str(p))
    return ",".join(out)


def fmt_cycle_type(lengths: tuple[int, ...]) -> str:
    """Spelling used by the package: length^count atoms, longest first."""
    counts: dict[int, int] = {}
    for a in lengths:
        counts[a] = counts.get(a, 0) + 1
    return " ".join(f"{a}^{b}" for a, b in sorted(counts.items(), reverse=True))


def uniform_shapes(n: int, even_only: bool = False) -> list[tuple[int, int]]:
    return [(r, m) for r in range(2, n + 1) for m in range(1, n // r + 1)
            if not (even_only and m * (r - 1) % 2)]


# --- sweep ---------------------------------------------------------------------


def _sweep_blocks(tiny: bool) -> dict[str, list[tuple[str, int, int]]]:
    sn, an, eig = (6, 7, 6) if tiny else (SWEEP_SN_MAX, SWEEP_AN_MAX, SWEEP_EIG_MAX)
    bmax, smax, md = (5, 30, 15) if tiny else (SWEEP_BOUND_MAX, SWEEP_SCALAR_MAX, SWEEP_MIN_DEGREE_N)
    chunks = lambda lo, hi: [(lo_, min(lo_ + 19, hi)) for lo_ in range(lo, hi + 1, 20)]
    return {
        "minpoly-sn": [("minpoly-sn", n, n) for n in range(3, sn + 1)],
        "minpoly-an": [("minpoly-an", n, n) for n in range(5, an + 1)],
        "eigenvalue-one": [("eigenvalue-one", n, n) for n in range(3, eig + 1)],
        "fomin-lulov": [("fomin-lulov", n, n) for n in range(1, bmax + 1)],
        "estimate": [("estimate", n, n) for n in range(1, bmax + 1)],
        "robbins": [("robbins", lo, hi) for lo, hi in chunks(1, smax)],
        "tail": [("tail", lo, hi) for lo, hi in chunks(23, smax)],
        "min-degree": [("min-degree", md, md)],
    }


def sweep_ops(seed: int, tiny: bool = False) -> list[tuple[str, int, int]]:
    """Per-n public sub-sweeps (kind, min_n, max_n) in the paper's order: the
    three classification sweeps, then the bound sweeps. The character memo is
    shared across blocks, so their order is fixed; the seed only orders the
    interval-only robbins and tail chunks, which touch no memo."""
    rng = rng_for("sweep", seed)
    blocks = _sweep_blocks(tiny)
    for kind in ("robbins", "tail"):
        rng.shuffle(blocks[kind])
    return [op for ops in blocks.values() for op in ops]


def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def expected_sweep(op: tuple[str, int, int]) -> dict:
    """Case or report count and exceptional set of one sub-sweep, worked out
    independently of the package (the acceptance gate's expectations, per n)."""
    kind, lo, hi = op
    if kind in ("robbins", "tail"):
        return {"count": hi - lo + 1}
    if kind == "min-degree":
        return {"count": 12 if lo >= 22 else 7}
    n = lo
    p = count_parts(n, n)
    if kind in ("fomin-lulov", "estimate"):
        return {"count": _divisor_count(n) * p}
    if kind == "minpoly-sn":
        exc = {(n, fmt_partition((1,) * n), r, m, "sign") for r, m in uniform_shapes(n)}
        exc.add((n, fmt_partition((n - 1, 1)), n, 1, "standard"))
        if n >= 4:
            exc.add((n, fmt_partition((2,) + (1,) * (n - 2)), n, 1, "standard-twist"))
        if n == 6:
            exc |= {(6, "3^2", 6, 1, "3,3@6"), (6, "2^3", 6, 1, "2,2,2@6")}
        if n == 4:
            exc |= {(4, "2^2", r, m, "2,2@4") for r, m in [(4, 1), (3, 1), (2, 2)]}
        return {"count": (p - 1) * len(uniform_shapes(n)), "exceptional": exc}
    if kind == "minpoly-an":
        sc = len(odd_distinct_parts(n))  # self-conjugate partitions of n
        labels = (p - sc) // 2 + sc - 1
        exc = set()
        if n % 2:
            exc.add((n, f"[{n - 1},1]", n, 1, "standard"))
        if n == 5:
            exc.add((5, "[3,1^2]+/-", 5, 1, "3,1,1@5"))
        return {"count": labels * len(uniform_shapes(n, even_only=True)), "exceptional": exc}
    # eigenvalue-one: the sign character at odd classes, the single cycle
    # families, the near uniform family, the sporadic pairs, and (n = 4) the
    # classified uniform case whose minimal polynomial misses the root 1
    exc = {(n, fmt_partition((1,) * n), fmt_cycle_type(mu))
           for mu in all_partitions(n) if not is_even(mu)}
    exc.add((n, fmt_partition((n - 1, 1)), fmt_cycle_type((n,))))
    if n % 2:
        exc.add((n, fmt_partition((2,) + (1,) * (n - 2)), fmt_cycle_type((n,))))
        if n >= 5:
            exc.add((n, fmt_partition((2, 2) + (1,) * (n - 4)), fmt_cycle_type((n - 2, 2))))
    sporadic = {6: [("2^3", (3, 2, 1))], 8: [("4^2", (5, 3)), ("2^4", (5, 3))], 10: [("2^5", (5, 3, 2))]}
    exc |= {(n, lam, fmt_cycle_type(mu)) for lam, mu in sporadic.get(n, [])}
    if n == 4:
        exc.add((4, "2^2", fmt_cycle_type((3, 1))))
    return {"count": p * p, "exceptional": exc}


# --- query ---------------------------------------------------------------------


def _class_with_cap(rng, n, cap, even=False):
    while True:
        mu = random_partition(rng, n)
        if math.lcm(*mu) <= cap and (not even or is_even(mu)):
            return mu


def query_population(tiny: bool = False) -> list[tuple]:
    """The fixed query population: QUERY_ROUNDS visits of every n in QUERY_N,
    kinds round robin, partitions and classes drawn uniformly.

    ("spectrum", lam, mu)         spectrum_sn + min_poly
    ("fixdim", lam, mu)           fixed_space_dim
    ("chi_an", lam, variant, mu)  chi_an at an even class
    ("split", lam, hooks)         both spectrum_an halves of a self-conjugate lam
                                  at its distinguished class (the Gauss-sum path)
    """
    rng = rng_for("query-population", 0)
    lo, hi = (8, 11) if tiny else QUERY_N
    ns = [n for _ in range(1 if tiny else QUERY_ROUNDS) for n in range(lo, hi + 1)]
    ops = []
    for i, n in enumerate(ns):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        if kind == "split":
            hooks = rng.choice([h for h in odd_distinct_parts(n) if math.lcm(*h) <= SPLIT_ORDER_CAP])
            ops.append(("split", self_conjugate_from_hooks(hooks), hooks))
            continue
        lam = random_partition(rng, n)
        if kind == "chi_an":
            mu = _class_with_cap(rng, n, QUERY_ORDER_CAP, even=True)
            ops.append(("chi_an", lam, "plus" if lam == conjugate(lam) else "restricted", mu))
        else:
            ops.append((kind, lam, _class_with_cap(rng, n, QUERY_ORDER_CAP)))
    return ops


def query_ops(seed: int, tiny: bool = False) -> list[tuple]:
    """The query population in seeded order; the seed also picks the half of
    split chi_an queries. Costs span three orders of magnitude, so a fresh draw
    per seed would move the median by more than any bound: the population is
    fixed and seeds compare like with like."""
    rng = rng_for("query", seed)
    ops = [("chi_an", op[1], rng.choice(("plus", "minus")), op[3]) if op[0] == "chi_an" and op[2] != "restricted"
           else op for op in query_population(tiny)]
    rng.shuffle(ops)
    return ops


# --- oracle --------------------------------------------------------------------


def oracle_population(tiny: bool = False) -> list[tuple]:
    """Every (lam, class) pair for n in ORACLE_ALL_N, and for ORACLE_SAMPLE_N a
    fixed sample in which every partition and every class appears
    ORACLE_SAMPLE_K times (the full set there takes about 20 s)."""
    all_n, (sample_n, k) = ((3,), (4, 2)) if tiny else (ORACLE_ALL_N, (ORACLE_SAMPLE_N, ORACLE_SAMPLE_K))
    ops = [("oracle", lam, mu) for n in all_n for lam in all_partitions(n) for mu in all_partitions(n)]
    rng = rng_for("oracle-population", 0)
    lams = all_partitions(sample_n)
    for _ in range(k):
        classes = all_partitions(sample_n)
        rng.shuffle(classes)
        ops.extend(("oracle", lam, mu) for lam, mu in zip(lams, classes))
    return ops


def oracle_ops(seed: int, tiny: bool = False) -> list[tuple]:
    """The oracle population in seeded order. Pair costs span three orders of
    magnitude, so the population is fixed and seeds compare like with like."""
    ops = oracle_population(tiny)
    rng_for("oracle", seed).shuffle(ops)
    return ops


# --- cli -----------------------------------------------------------------------


def _cli_round(rng) -> list[tuple[list[str], int]]:
    """One command per template: trivial queries, single bound checks, and
    invalid inputs whose documented outcome is exit 2."""
    n = rng.randint(5, 10)
    lam = fmt_partition(random_partition(rng, n))
    mu = fmt_cycle_type(random_partition(rng, n))
    m = rng.randint(4, 9)
    sc_hooks = rng.choice(odd_distinct_parts(m))
    sc = fmt_partition(self_conjugate_from_hooks(sc_hooks))
    r = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    return [
        (["char", "--lambda", lam, "--shape", mu], 0),
        (["char", "--lambda", sc, "--shape", fmt_cycle_type(sc_hooks), "--group", "an", "--format", "json"], 0),
        (["degree", "--lambda", lam], 0),
        (["minpoly", "--lambda", lam, "--shape", mu], 0),
        (["fixdim", "--lambda", lam, "--shape", mu], 0),
        (["spectrum", "--lambda", lam, "--shape", mu, "--format", "json"], 0),
        (["bounds", "--check", "robbins", "--n", str(rng.randint(1, 200))], 0),
        (["bounds", "--check", "tail", "--n", str(rng.randint(23, 200))], 0),
        (["bounds", "--check", "min-degree", "--n", str(rng.randint(15, 24))], 0),
        (["bounds", "--check", "fomin-lulov", "--lambda", lam, "--shape", f"{r}^{n // r}"], 0),
        (["char", "--lambda", lam, "--shape", f"{n + 1}^1"], 2),
        (["degree", "--lambda", f"1,{n}"], 2),
        (["bounds", "--check", "tail", "--n", str(rng.randint(1, 22))], 2),
    ]


def cli_ops(seed: int, tiny: bool = False) -> list[tuple]:
    """("cli", argv, expected exit code), in seeded order within each round."""
    rng = rng_for("cli", seed)
    ops = []
    for _ in range(1 if tiny else CLI_ROUNDS):
        batch = _cli_round(rng)
        if tiny:
            batch = [batch[0], batch[6], batch[-1]]
        rng.shuffle(batch)
        ops.extend(("cli", argv, code) for argv, code in batch)
    return ops


def hook_degree(parts: tuple[int, ...]) -> int:
    """Dimension by the hook length formula, for checking `degree` output."""
    conj = conjugate(parts)
    den = 1
    for i, row in enumerate(parts):
        for j in range(row):
            den *= row - j + conj[j] - i - 1
    return math.factorial(sum(parts)) // den


OPS = {"sweep": sweep_ops, "query": query_ops, "oracle": oracle_ops, "cli": cli_ops}
