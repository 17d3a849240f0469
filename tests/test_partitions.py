import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snchar.partitions import (
    MAX_PARSE_N,
    CycleType,
    HookRef,
    Partition,
    conjugate,
    diagonal_hooks,
    enumerate_partitions,
    hook_lengths,
    parse_cycle_type,
    parse_partition,
    partition_count,
    remove_rim_hook,
)


@st.composite
def partitions(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    items = enumerate_partitions(n)
    return draw(st.sampled_from(items))


@st.composite
def cycle_types(draw, max_n=10):
    lam = draw(partitions(max_n=max_n))
    return CycleType.from_partition(lam)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    assert Partition(()).n == 0


def test_parsers_refuse_oversized_input_before_expanding():
    assert MAX_PARSE_N >= 3000
    assert parse_partition(f"1^{MAX_PARSE_N}").n == MAX_PARSE_N
    assert parse_cycle_type(f"2^{MAX_PARSE_N // 2}").n == MAX_PARSE_N
    # each of these would otherwise build a list of 10^9 entries
    for text in ("1^1000000000", "1000000000", f"{MAX_PARSE_N},1", "0^1000000000"):
        with pytest.raises(ValueError, match="too large"):
            parse_partition(text)
    for text in ("1^1000000000", f"1^{MAX_PARSE_N} 1^1", "0^1000000000"):
        with pytest.raises(ValueError, match="too large"):
            parse_cycle_type(text)


def test_parse_partition_known():
    assert parse_partition("3,2").parts == (3, 2)
    assert parse_partition("2,1^3").parts == (2, 1, 1, 1)
    assert parse_partition("4^2,1").parts == (4, 4, 1)
    assert parse_partition("").parts == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("3,x")


@given(partitions())
def test_parse_format_roundtrip(lam):
    assert parse_partition(str(lam)) == lam


def test_conjugate_known():
    assert conjugate(parse_partition("3,1,1")).parts == (3, 1, 1)
    assert conjugate(parse_partition("4,2,1")).parts == (3, 2, 1, 1)
    assert conjugate(parse_partition("6")).parts == (1,) * 6


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(partitions())
def test_conjugate_preserves_hook_multiset(lam):
    mine = sorted(h.length for h in hook_lengths(lam).values())
    theirs = sorted(h.length for h in hook_lengths(conjugate(lam)).values())
    assert mine == theirs


def test_hook_lengths_known():
    table = hook_lengths(parse_partition("3,2"))
    lengths = {key: h.length for key, h in table.items()}
    assert lengths == {(1, 1): 4, (1, 2): 3, (1, 3): 1, (2, 1): 2, (2, 2): 1}
    assert table[(1, 1)].leg == 1
    assert table[(1, 2)].leg == 1
    assert table[(2, 1)].leg == 0


def test_remove_rim_hook_known():
    lam = parse_partition("2,1")
    table = hook_lengths(lam)
    rest, sign = remove_rim_hook(lam, table[(1, 1)])
    assert rest.parts == () and sign == -1
    rest, sign = remove_rim_hook(lam, table[(2, 1)])
    assert rest.parts == (2,) and sign == 1
    rest, sign = remove_rim_hook(lam, table[(1, 2)])
    assert rest.parts == (1, 1) and sign == 1
    with pytest.raises(ValueError):
        remove_rim_hook(lam, HookRef(1, 1, 2, 0))


@given(partitions(max_n=10))
def test_rim_hook_removal_shrinks(lam):
    for hook in hook_lengths(lam).values():
        rest, sign = remove_rim_hook(lam, hook)
        assert rest.n == lam.n - hook.length
        assert sign == (-1) ** hook.leg


def test_diagonal_hooks_known():
    assert diagonal_hooks(parse_partition("3,1,1")) == (5,)
    assert diagonal_hooks(parse_partition("3,2,1")) == (5, 1)
    assert diagonal_hooks(parse_partition("4,3,2,1")) == (7, 3)
    assert diagonal_hooks(parse_partition("2,2")) == (3, 1)


@given(partitions())
def test_diagonal_hooks_of_self_conjugate_sum_to_n(lam):
    if conjugate(lam) == lam:
        hooks = diagonal_hooks(lam)
        assert sum(hooks) == lam.n
        assert all(h % 2 == 1 for h in hooks)
        assert all(a > b for a, b in zip(hooks, hooks[1:]))


def test_partition_count_known():
    assert [partition_count(n) for n in range(1, 11)] == [
        1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]
    assert partition_count(50) == 204226
    assert partition_count(100) == 190569292


def _pentagonal_count(n, cache={0: 1}):
    # Euler's recurrence, independent of the library's counter
    if n in cache:
        return cache[n]
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        total += sign * _pentagonal_count(n - g1)
        if g2 <= n:
            total += sign * _pentagonal_count(n - g2)
        k += 1
    cache[n] = total
    return total


def test_partition_count_matches_pentagonal_recurrence():
    for n in range(1, 40):
        assert partition_count(n) == _pentagonal_count(n)


def test_enumerate_partitions_order_and_count():
    for n in range(1, 12):
        items = enumerate_partitions(n)
        assert len(items) == partition_count(n)
        assert items[0].parts == (n,)
        assert items[-1].parts == (1,) * n
        assert all(a.parts > b.parts for a, b in zip(items, items[1:]))
        assert all(p.n == n for p in items)


def test_cycle_type_normalization():
    ct = CycleType.from_lengths([1, 3, 2, 3])
    assert ct.cycles == ((3, 2), (2, 1), (1, 1))
    assert ct.n == 9
    assert str(ct) == "3^2 2^1 1^1"
    assert parse_cycle_type("3^2 2^1 1^1") == ct
    assert parse_cycle_type("3 3 2 1") == ct
    with pytest.raises(ValueError):
        CycleType(((2, 1), (3, 1)))


def test_cycle_type_uniform():
    assert CycleType.uniform(3, 2, 8).cycles == ((3, 2), (1, 2))
    assert CycleType.uniform(1, 2, 4).cycles == ((1, 4),)
    with pytest.raises(ValueError):
        CycleType.uniform(3, 3, 8)


@given(cycle_types())
def test_cycle_type_roundtrip(ct):
    assert parse_cycle_type(str(ct)) == ct
    assert CycleType.from_lengths(ct.lengths()) == ct
    assert Partition(ct.lengths()).n == ct.n


def test_cycle_type_order_sign():
    ct = parse_cycle_type("6^1 4^1 3^1")
    assert ct.order() == 12
    assert ct.sign() == (-1) ** ((6 - 1) + (4 - 1) + (3 - 1))
    assert parse_cycle_type("2^1 1^1").is_even() is False
    assert parse_cycle_type("3^1").is_even() is True


def test_class_size_known():
    # S_3: transpositions 3, 3-cycles 2, identity 1
    assert parse_cycle_type("2^1 1^1").class_size() == 3
    assert parse_cycle_type("3^1").class_size() == 2
    assert parse_cycle_type("1^3").class_size() == 1


@given(st.integers(min_value=1, max_value=10))
def test_class_sizes_sum_to_factorial(n):
    total = sum(
        CycleType.from_partition(lam).class_size() for lam in enumerate_partitions(n)
    )
    assert total == math.factorial(n)


def _type_of_permutation(perm):
    n = len(perm)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur - 1]
            length += 1
        lengths.append(length)
    return CycleType.from_lengths(lengths)


@given(cycle_types(max_n=9), st.integers(min_value=0, max_value=24))
def test_power_matches_permutation_powering(ct, k):
    perm = ct.permutation()
    assert _type_of_permutation(perm) == ct
    powered = list(range(1, ct.n + 1))
    for _ in range(k):
        powered = tuple(perm[p - 1] for p in powered)
    assert ct.power(k) == _type_of_permutation(tuple(powered))


def test_splits_in_alternating():
    assert parse_cycle_type("5^1").splits_in_alternating() is True
    assert parse_cycle_type("7^1 3^1").splits_in_alternating() is True
    assert parse_cycle_type("3^1 1^2").splits_in_alternating() is False
    assert parse_cycle_type("2^1 1^1").splits_in_alternating() is False
    # A_0 and A_1 have a single class
    assert parse_cycle_type("1^1").splits_in_alternating() is False
    assert parse_cycle_type("").splits_in_alternating() is False


@given(cycle_types())
def test_split_classes_are_even(ct):
    if ct.splits_in_alternating():
        assert ct.is_even()
        lengths = ct.lengths()
        assert all(l % 2 == 1 for l in lengths)
        assert len(set(lengths)) == len(lengths)


@given(st.integers(min_value=2, max_value=8))
def test_even_class_sizes_sum_to_half_factorial(n):
    total = 0
    for lam in enumerate_partitions(n):
        ct = CycleType.from_partition(lam)
        if ct.is_even():
            total += ct.class_size()
    assert total == math.factorial(n) // 2


def test_class_size_is_integral_ratio():
    # |class| * |centralizer| = n!
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            ct = CycleType.from_partition(lam)
            cent = Fraction(math.factorial(n), ct.class_size())
            assert cent.denominator == 1
