"""Tests for partition-type enumeration and the coefficient functions.

The enumeration is checked against two independent oracles: a brute force
over all k-multisets of part sizes, and the classical two-term recurrence
for the number of partitions of n into exactly k parts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from itertools import combinations_with_replacement, permutations
from math import comb, factorial
from pathlib import Path

import pytest

import mspkit
from mspkit.ptypes import (
    PartitionType,
    cycle_fn,
    order_fn,
    partition_types,
    stirling_fn,
    stirling_indices,
    subset_fn,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_force_types(n: int, k: int) -> set[tuple[int, ...]]:
    """All multiplicity vectors with sum k and weighted sum n, by counting the
    part sizes of every k-multiset of {1..n} whose elements sum to n."""
    found = set()
    for parts in combinations_with_replacement(range(1, n + 1), k):
        if sum(parts) == n:
            r = [0] * max(parts, default=0)
            for p in parts:
                r[p - 1] += 1
            found.add(tuple(r))
    return found


def partitions_into_exactly_k_parts(n: int, k: int) -> int:
    """p(n,k) by the independent recurrence p(n,k) = p(n-1,k-1) + p(n-k,k)."""
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for nn in range(1, n + 1):
        for kk in range(1, min(nn, k) + 1):
            table[nn][kk] = table[nn - 1][kk - 1] + (
                table[nn - kk][kk] if nn - kk >= 0 else 0
            )
    return table[n][k]


def count_cycle_arrangements(n: int, k: int) -> int:
    """Permutations of an n-set with exactly k cycles, counted exhaustively."""
    count = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
        if cycles == k:
            count += 1
    return count


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_4_2():
    assert {pt.r for pt in partition_types(4, 2)} == {(1, 0, 1), (0, 2)}


def test_enumerate_degenerate():
    assert partition_types(3, 0) == []
    assert [pt.r for pt in partition_types(0, 0)] == [()]
    assert partition_types(2, 3) == []


def test_enumerate_8_3_brute_force():
    got = {pt.r for pt in partition_types(8, 3)}
    assert got == brute_force_types(8, 3)
    assert len(got) == 5


@pytest.mark.parametrize("n,k", [(6, 2), (7, 4), (9, 3), (10, 5)])
def test_enumerate_matches_brute_force(n, k):
    assert {pt.r for pt in partition_types(n, k)} == brute_force_types(n, k)


def test_enumerate_counts_up_to_25():
    for n in range(26):
        for k in range(n + 1):
            assert len(partition_types(n, k)) == partitions_into_exactly_k_parts(n, k)


def test_enumerate_order_is_lexicographic():
    for n, k in [(8, 3), (12, 4), (9, 2)]:
        rs = [pt.r for pt in partition_types(n, k)]
        assert rs == sorted(rs)


def test_largest_part_bound():
    # the largest part size never exceeds n-k+1
    for n in range(1, 15):
        for k in range(1, n + 1):
            for pt in partition_types(n, k):
                assert len(pt.r) <= n - k + 1


def test_weight_length():
    pt = PartitionType((1, 0, 2))
    assert pt.weight == 7
    assert pt.length == 3
    assert PartitionType((1, 0, 0)).r == (1,)


# ---------------------------------------------------------------------------
# coefficient functions
# ---------------------------------------------------------------------------


def test_order_fn():
    assert order_fn(PartitionType((2, 1))) == 12
    assert order_fn(PartitionType(())) == 1
    # sum over P(4,2) equals the count of partitions of a 4-set into two
    # linearly ordered blocks: (sizes 1+3) 4*3! + (sizes 2+2) 3*2!*2! = 36
    total = sum(order_fn(pt) for pt in partition_types(4, 2))
    assert total == 36
    assert total == factorial(4) // factorial(2) * comb(3, 1)


def test_cycle_fn():
    assert cycle_fn(PartitionType((0, 0, 1))) == 2  # 3-cycles on 3 elements
    assert cycle_fn(PartitionType(())) == 1
    got = sum(cycle_fn(pt) for pt in partition_types(4, 2))
    assert got == count_cycle_arrangements(4, 2) == 11


def test_subset_fn():
    assert subset_fn(PartitionType((1, 0, 1))) == 4
    assert subset_fn(PartitionType((0, 2))) == 3
    assert subset_fn(PartitionType((5,))) == 1


def test_stirling_fn_table_values():
    # types in P(4,2) carry the coefficients of the (3,1) polynomial
    assert stirling_fn(PartitionType((1, 0, 1))) == -1
    assert stirling_fn(PartitionType((0, 2))) == 3
    # r1 = n-1 gives the leading +1 of the diagonal member
    for n in range(2, 8):
        assert stirling_fn(PartitionType((n - 1,))) == 1


def test_stirling_indices():
    assert stirling_indices(PartitionType((0, 2))) == (3, 1)
    assert stirling_indices(PartitionType((1, 0, 1))) == (3, 1)
    with pytest.raises(ValueError):
        stirling_fn(PartitionType((0, 0, 2)))  # recovered k = -1


def test_first_kind_types_satisfy_r1_bound():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for pt in partition_types(2 * n - 1 - k, n - 1):
                r1 = pt.r[0] if pt.r else 0
                assert r1 >= k - 1


def test_cor63_identity_per_type():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for pt in partition_types(2 * n - 1 - k, n - 1):
                r1 = pt.r[0] if pt.r else 0
                lhs = comb(2 * n - 1 - k, r1) * stirling_fn(pt)
                sign = (-1) ** (n - 1 - r1)
                rhs = sign * comb(2 * n - 2 - r1, k - 1) * subset_fn(pt)
                assert lhs == rhs


def test_weight_sums_match_number_tables():
    # subset sums give second-kind numbers, cycle sums give cycle numbers,
    # and the sign twist recovers the signed first kind
    from mspkit.stirling import cycle_table, s1_table, s2_table

    s1, s2, c = s1_table(15), s2_table(15), cycle_table(15)
    for n in range(16):
        for k in range(n + 1):
            types = partition_types(n, k)
            assert sum(subset_fn(pt) for pt in types) == s2.value(n, k)
            cycle_sum = sum(cycle_fn(pt) for pt in types)
            assert cycle_sum == c.value(n, k)
            assert (-1) ** (n - k) * cycle_sum == s1.value(n, k)


def test_all_functions_integral():
    # integer division inside the functions checks exact divisibility;
    # running them over a block of types exercises that
    for n in range(0, 16):
        for k in range(0, n + 1):
            for pt in partition_types(n, k):
                for fn in (order_fn, cycle_fn, subset_fn):
                    assert isinstance(fn(pt), int)


def test_weight_guards_raise_under_optimize():
    # the integrality guards must survive python -O, where asserts vanish;
    # a perturbed factorial makes each quotient non-integral
    script = textwrap.dedent(
        """
        import math, sys
        from mspkit import ptypes
        from mspkit.ptypes import PartitionType

        if not sys.flags.optimize:
            sys.exit(3)
        ptypes.factorial = lambda m: math.factorial(m) + 1
        cases = [
            (ptypes.cycle_fn, (1, 1)),
            (ptypes.subset_fn, (0, 2)),
            (ptypes.stirling_fn, (0, 2)),
        ]
        for fn, r in cases:
            try:
                fn(PartitionType(r))
            except ValueError as exc:
                print(exc)
        """
    )
    src = str(Path(mspkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "cycle_fn not integral on 1,1",
        "subset_fn not integral on 0,2",
        "stirling_fn not integral on 0,2",
    ]
