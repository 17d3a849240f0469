import ast
import csv
import functools
import gc
import io
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snchar import characters_sn
from snchar.bounds import min_degree_check
from snchar.characters_sn import (
    MAX_FROBENIUS_ROWS,
    _beta_set,
    _chi_row,
    _columns,
    _level,
    branch,
    chi,
    chi_closed_form,
    chi_frobenius,
    chi_hook_on_uniform,
    degree,
    full_table,
    sign_twist_check,
)
from snchar.partitions import (
    CycleType,
    Partition,
    conjugate,
    enumerate_partitions,
    parse_cycle_type,
    parse_partition,
)
from snchar.spectral import spectrum_sn


@st.composite
def labeled_pairs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lam = draw(st.sampled_from(enumerate_partitions(n)))
    mu = draw(st.sampled_from(enumerate_partitions(n)))
    return lam, CycleType.from_partition(mu)


@st.composite
def partitions_of(draw, n, max_rows=None):
    """A partition of n, part by part, with at most max_rows rows when given."""
    parts = []
    rest = cap = n
    while rest:
        # the rows left must still hold rest, each at most this part
        low = 1 if max_rows is None else -(-rest // (max_rows - len(parts)))
        part = draw(st.integers(min_value=low, max_value=min(rest, cap)))
        parts.append(part)
        rest -= part
        cap = part
    return Partition(tuple(parts))


def _parts(mask):
    """The partition whose beta set is mask (rows of length zero dropped)."""
    beads = [b for b in range(mask.bit_length() - 1, -1, -1) if mask >> b & 1]
    return tuple(p for p in (b - (len(beads) - 1 - i) for i, b in enumerate(beads)) if p)


def test_chi_known_3_3():
    lam = parse_partition("3,3")
    expected = {"1^6": 5, "3^2": 2, "2^3": -3, "6^1": 0}
    for text, value in expected.items():
        assert chi(lam, parse_cycle_type(text)) == value


def test_chi_full_table_s3():
    table = full_table(3)
    # rows (3), (2,1), (1^3); columns [3], [2 1], [1^3]
    assert table.values == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))


def test_chi_full_table_s4():
    table = full_table(4)
    assert [p.parts for p in table.partitions] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert table.values == (
        (1, 1, 1, 1, 1),
        (-1, 0, -1, 1, 3),
        (0, -1, 2, 0, 2),
        (1, 0, -1, -1, 3),
        (-1, 1, 1, -1, 1),
    )


def test_full_table_limit():
    with pytest.raises(ValueError, match="n=21 above limit=20"):
        full_table(21)
    assert len(full_table(17).partitions) == 297  # below the fixed cap of 20


def test_chi_size_mismatch():
    with pytest.raises(ValueError):
        chi(parse_partition("3,1"), parse_cycle_type("3^1"))


def test_degree_known():
    assert degree(parse_partition("3,3")) == 5
    assert degree(parse_partition("4,2,1")) == 35
    assert degree(parse_partition("5,4,3,2,1")) == 292864
    assert degree(Partition(())) == 1


def test_degree_hook_product():
    # the branching rule counts standard tableaux by their largest entry
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert degree(lam) == sum(degree(mu) for mu in branch(lam))


@given(labeled_pairs())
def test_standard_character_counts_fixed_points(pair):
    lam, sigma = pair
    n = lam.n
    if n >= 2 and lam.parts == (n - 1, 1):
        assert chi(lam, sigma) == sigma.count_of(1) - 1


@given(labeled_pairs())
def test_sign_twist(pair):
    lam, sigma = pair
    assert sign_twist_check(lam, sigma)
    assert chi(conjugate(lam), sigma) == sigma.sign() * chi(lam, sigma)


@given(labeled_pairs(max_n=8))
def test_branching_rule(pair):
    # adding a fixed point restricts along corner removals
    lam, _ = pair
    if lam.n < 2:
        return
    for mu_small in enumerate_partitions(lam.n - 1):
        tau = CycleType.from_partition(mu_small)
        extended = CycleType.from_lengths(tau.lengths() + (1,))
        total = sum(chi(nu, tau) for nu in branch(lam))
        assert chi(lam, extended) == total


def test_branch_known():
    assert [m.parts for m in branch(parse_partition("3,2"))] == [(2, 2), (3, 1)]
    assert [m.parts for m in branch(parse_partition("2,2"))] == [(2, 1)]


def test_frobenius_matches_recurrence():
    for n in range(1, 8):
        classes = [CycleType.from_partition(m) for m in enumerate_partitions(n)]
        for lam in enumerate_partitions(n):
            if len(lam.parts) > 4:
                continue
            for sigma in classes:
                assert chi_frobenius(lam, sigma) == chi(lam, sigma)


def test_frobenius_row_cap():
    with pytest.raises(ValueError):
        chi_frobenius(parse_partition("2,1,1,1,1"), parse_cycle_type("6^1"))


def test_closed_form_domain():
    assert chi_closed_form(parse_partition("4,4"), parse_cycle_type("8^1")) is None
    assert chi_closed_form(parse_partition("3,3,2"), parse_cycle_type("8^1")) is None
    # all six covered shapes answer
    for text in ["7,1", "6,2", "6,1,1", "5,3", "5,1,1,1", "5,2,1"]:
        lam = parse_partition(text)
        for mu in enumerate_partitions(8):
            sigma = CycleType.from_partition(mu)
            got = chi_closed_form(lam, sigma)
            assert got is not None
            assert got == chi(lam, sigma)


def test_closed_form_matches_recurrence():
    for n in range(3, 11):
        classes = [CycleType.from_partition(m) for m in enumerate_partitions(n)]
        for lam in enumerate_partitions(n):
            for sigma in classes:
                got = chi_closed_form(lam, sigma)
                if got is not None:
                    assert got == chi(lam, sigma)


def test_hook_on_uniform_known():
    # a=2, r=3, k=0, l=0: lam = (2,1) on [3], value -C(0,0) = -1
    assert chi_hook_on_uniform(2, 3, 0, 0) == -1
    assert chi(parse_partition("2,1"), parse_cycle_type("3^1")) == -1
    # a=2, r=3, k=1, l=1: lam = (5,1^4) on [3^3], value -C(2,1) = -2
    assert chi_hook_on_uniform(2, 3, 1, 1) == -2
    assert chi(parse_partition("5,1^4"), parse_cycle_type("3^3")) == -2
    with pytest.raises(ValueError):
        chi_hook_on_uniform(2, 3, 1, 0)  # n = 6 is even
    with pytest.raises(ValueError):
        chi_hook_on_uniform(4, 3, 0, 0)  # a outside 1..r


def test_hook_on_uniform_matches_recurrence():
    for r in (1, 3, 5, 7):
        for k in range(0, 4):
            for l in range(0, 4):
                n = r * (k + l + 1)
                if n % 2 == 0 or n > 15:
                    continue
                for a in range(1, r + 1):
                    lam = Partition((a + r * k,) + (1,) * (r - a + r * l))
                    sigma = CycleType.uniform(r, k + l + 1, n)
                    assert chi_hook_on_uniform(a, r, k, l) == chi(lam, sigma)


def _table_rows(n):
    table = full_table(n)
    sizes = [c.class_size() for c in table.classes]
    return table, sizes


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_row_orthogonality(n):
    table, sizes = _table_rows(n)
    fact = math.factorial(n)
    for i, row_i in enumerate(table.values):
        for j, row_j in enumerate(table.values):
            dot = sum(s * a * b for s, a, b in zip(sizes, row_i, row_j))
            assert dot == (fact if i == j else 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_column_orthogonality(n):
    table, sizes = _table_rows(n)
    fact = math.factorial(n)
    cols = list(zip(*table.values))
    for i, col_i in enumerate(cols):
        for j, col_j in enumerate(cols):
            dot = sum(a * b for a, b in zip(col_i, col_j))
            expected = fact // sizes[i] if i == j else 0
            assert dot == expected


@pytest.mark.parametrize("n", [3, 5, 7, 8])
def test_sum_of_squared_degrees(n):
    total = sum(degree(lam) ** 2 for lam in enumerate_partitions(n))
    assert total == math.factorial(n)


def test_table_serialization_roundtrip():
    table = full_table(5)
    obj = json.loads(table.to_json())
    assert obj["n"] == 5
    assert obj["partitions"][0] == "5"
    assert obj["values"][2][4] == str(table.values[2][4])
    rows = list(csv.reader(io.StringIO(table.to_csv())))
    assert rows[0][0] == "partition"
    assert len(rows) == len(table.partitions) + 1
    for row, vals in zip(rows[1:], table.values):
        assert [int(x) for x in row[1:]] == list(vals)
    # value() agrees with the grid
    lam = parse_partition("3,2")
    sigma = parse_cycle_type("2^2 1^1")
    assert table.value(lam, sigma) == chi(lam, sigma)


def test_memo_bounds_itself():
    # there is no process-wide memo to bound: nothing the module defines holds state between calls
    expected = full_table(9).values
    full_table(10)
    spectrum_sn(parse_partition("7,5,4,3,2^2,1"), parse_cycle_type("7^1 5^1 3^1 2^1 1^7"))
    assert full_table(9).values == expected
    for name, obj in vars(characters_sn).items():
        if name.startswith("__"):
            continue
        assert not isinstance(obj, (dict, list, set)), name
        assert not hasattr(obj, "cache_info"), name


def test_memo_holds_no_fixed_point_tails(monkeypatch):
    # the hook-product tails are cached inside one row call and dropped with it
    made = []

    def recording_cache(fn):
        wrapped = functools.cache(fn)
        made.append((wrapped, weakref.ref(wrapped)))
        return wrapped

    monkeypatch.setattr(characters_sn, "cache", recording_cache)
    spectrum_sn(parse_partition("7,5,4,3,2^2,1"), parse_cycle_type("7^1 5^1 3^1 2^1 1^7"))
    assert made
    assert all(wrapped.cache_info().currsize for wrapped, _ in made)  # each call stored its tails
    refs = [ref for _, ref in made]
    made.clear()
    gc.collect()
    assert all(ref() is None for ref in refs)  # no call's tail cache outlives it


def test_no_level_outlives_a_row_call(monkeypatch):
    # the trie walk drops each level once no column below it needs it, and all of them with the call
    refs = []

    class Level(dict):
        pass

    def recording_level(states, k):
        level = Level(real(states, k))
        refs.append(weakref.ref(level))
        return level

    real = characters_sn._level
    monkeypatch.setattr(characters_sn, "_level", recording_level)
    spectrum_sn(parse_partition("7,5,4,3,2^2,1"), parse_cycle_type("7^1 5^1 3^1 2^1 1^7"))
    assert refs
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_one_column_row_holds_one_level_at_a_time():
    # 32 levels of 2-hooks from 8^8, each computed from the last and the last dropped: before the
    # trie walk the traced peak was 94 240 bytes (0.09 MB), and a walk that kept every level
    # of the column until the call returned peaked at 0.50 MB
    lam, sigma = parse_partition("8^8"), parse_cycle_type("2^32")
    chi(lam, sigma)  # warm: the first call's imports and caches are not the row's
    tracemalloc.start()
    try:
        value = chi(lam, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 346915095471584640
    assert peak <= 1.5 * 94_240


def test_powers_share_their_first_removals(monkeypatch):
    # r = 210: the 16 powers keep the cycles 7, 5, 3, 2 of any subset whole, listed in that order,
    # so their removals form a trie of 15 levels below the root, against 32 levels one power at a time
    calls = []
    real = characters_sn._level
    monkeypatch.setattr(characters_sn, "_level", lambda states, k: calls.append(k) or real(states, k))
    prof = spectrum_sn(parse_partition("7,5,4,3,2^2,1"), parse_cycle_type("7^1 5^1 3^1 2^1 1^7"))
    assert sum(prof.mult) == degree(parse_partition("7,5,4,3,2^2,1"))
    assert len(calls) <= 15


@given(st.integers(min_value=1, max_value=10).flatmap(partitions_of))
def test_rim_hook_removal_shrinks(lam):
    n = lam.n
    mask, conj = _beta_set(lam.parts), _beta_set(conjugate(lam).parts)
    assert _parts(mask) == lam.parts
    count = 0
    for k in range(1, n + 1):
        hooks = _level({mask: 1}, k)
        count += len(hooks)
        for sub, sign in hooks.items():
            assert sign in (1, -1)  # distinct hooks leave distinct shapes: nothing merges
            assert sum(_parts(sub)) == n - k
            assert sub.bit_count() == mask.bit_count()  # beads only move: one mask per shape
        # transposing the diagram swaps arm and leg: leg becomes k - 1 - leg
        mirrored = sorted((conjugate(Partition(_parts(sub))).parts, sign * (-1) ** (k - 1)) for sub, sign in hooks.items())
        assert sorted((_parts(sub), sign) for sub, sign in _level({conj: 1}, k).items()) == mirrored
    assert count == n  # one rim hook per box


def _class_lengths(n):
    return [CycleType.from_partition(mu).lengths() for mu in enumerate_partitions(n)]


def test_columns_equal_rows_on_every_cell_to_n_16():
    # the class-major builder and the single-query rows share no helper: each checks the other
    for n in range(17):
        lams = enumerate_partitions(n)
        cols, classes = _columns(lams, [mu.parts for mu in lams]), _class_lengths(n)
        rows = [_chi_row(_beta_set(lam.parts), classes) for lam in lams]
        assert [list(col) for col in zip(*rows)] == cols, n


@pytest.mark.parametrize("n", [20, 22])
def test_columns_equal_rows_on_sampled_columns(n):
    # every 97th class, in any part order; a repeated type gets its column twice
    types = _class_lengths(n)[::97]
    types = [tuple(reversed(t)) for t in types] + types[:1]
    cols = _columns(enumerate_partitions(n), types)
    assert cols[-1] == cols[0]
    for i, lam in enumerate(enumerate_partitions(n)):
        row = _chi_row(_beta_set(lam.parts), [tuple(sorted(t, reverse=True)) for t in types])
        assert row == [col[i] for col in cols], lam


@pytest.mark.parametrize("n, selfs", [(6, [(3, 2, 1)]), (10, [(4, 3, 2, 1), (5, 2, 1, 1, 1)])])
def test_columns_at_self_conjugate_rows_and_all_even_types(n, selfs):
    # a self-conjugate row is its own pair, and an odd number of even parts makes eps = -1: both
    # routing rules side by side, every entry against the rows, and chi^lam' = eps * chi^lam
    lams = enumerate_partitions(n)
    index = {lam: i for i, lam in enumerate(lams)}
    selfs = [Partition(p) for p in selfs]
    assert all(conjugate(lam) == lam for lam in selfs)
    even = [t for t in _class_lengths(n) if all(k % 2 == 0 for k in t)]
    types = even + [(2,) + (1,) * (n - 2), (3,) + (1,) * (n - 3), (n - 2, 2)]
    signs = [(-1) ** sum(k - 1 for k in t) for t in types]
    assert {1, -1} <= {eps for t, eps in zip(types, signs) if t in even}
    cols = _columns(lams, types)
    for lam in lams:
        row = _chi_row(_beta_set(lam.parts), [tuple(sorted(t, reverse=True)) for t in types])
        assert row == [col[index[lam]] for col in cols], lam
    for t, eps, col in zip(types, signs, cols):
        assert all(col[index[conjugate(lam)]] == eps * col[i] for i, lam in enumerate(lams)), t
        assert eps == 1 or not any(col[index[lam]] for lam in selfs), t
    assert all(any(col[index[lam]] for col in cols) for lam in selfs)


def _module_calls(tree):
    """Module-level function name -> the module-level functions, and the names imported from
    other modules, that its body reads."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    known = set(defs) | {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                         for alias in node.names}
    return {name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in known and n.id != name}
            for name, node in defs.items()}


def _reach(calls, start):
    seen, todo = set(), [start]
    while todo:
        for name in calls.get(todo.pop(), set()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_the_two_character_routes_share_no_private_helper():
    # nothing either route reads, public or private, here or imported, is reachable from the
    # other: the builder's conjugate masks included, which it carries itself, calling no conjugate
    calls = _module_calls(ast.parse(Path(characters_sn.__file__).read_text()))
    rows, cols = _reach(calls, "_chi_row"), _reach(calls, "_columns")
    assert "_level" in rows and "_standard_count" in rows
    assert not ({"_chi_row"} | rows) & ({"_columns"} | cols)
    assert "conjugate" not in rows | cols


def _near_single_row(n):
    return [(n - 1, 1), (n - 2, 2), (n - 2, 1, 1), (n - 3, 3), (n - 3, 1, 1, 1), (n - 3, 2, 1)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_chi_matches_independent_routes_at_n_20_to_40(data):
    n = data.draw(st.integers(min_value=20, max_value=40))
    sigma = CycleType.from_partition(data.draw(partitions_of(n)))
    assert sign_twist_check(data.draw(partitions_of(n)), sigma)
    few = data.draw(partitions_of(n, MAX_FROBENIUS_ROWS))
    assert chi(few, sigma) == chi_frobenius(few, sigma)
    near = Partition(data.draw(st.sampled_from(_near_single_row(n))))
    assert chi(near, sigma) == chi_closed_form(near, sigma)


def test_degree_leaves_no_per_partition_cache():
    # min_degree_check asks degree() about all 75 175 partitions of 44; none may stay cached.
    # Live small-object blocks are counted instead of tracing (tracemalloc makes this 10x
    # slower): a block holds at most 512 bytes, so 2 048 of them bound 1 MB
    min_degree_check(15)
    gc.collect()
    before = sys.getallocatedblocks()
    assert min_degree_check(44).holds
    gc.collect()
    assert sys.getallocatedblocks() - before < 2048
