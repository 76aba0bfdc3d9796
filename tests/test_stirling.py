"""Tests for the integer tables against brute-force counting oracles."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from mspkit import series, stirling
from mspkit.ptypes import partition_types

# ---------------------------------------------------------------------------
# oracles: exhaustive set-partition enumeration via restricted growth strings
# ---------------------------------------------------------------------------


def set_partitions(n: int):
    """Yield every partition of {0..n-1} as a block-index string."""

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(used + 1):
            yield from rec(prefix + [v], used + (1 if v == used else 0))

    yield from rec([], 0)


def count_partitions(n: int, k: int, min_block: int = 1) -> int:
    count = 0
    for rgs in set_partitions(n):
        blocks = max(rgs) + 1
        if blocks != k:
            continue
        sizes = [rgs.count(b) for b in range(blocks)]
        if all(s >= min_block for s in sizes):
            count += 1
    return count


# ---------------------------------------------------------------------------
# recurrence tables
# ---------------------------------------------------------------------------


def test_s1_values():
    t = stirling.s1_table(8)
    for n in range(1, 9):
        assert t.value(n, 1) == (-1) ** (n - 1) * factorial(n - 1)
        assert t.value(n, n) == 1
    assert t.value(7, 4) == -735
    assert t.value(4, 2) == 11


def test_s1_sign_relation():
    s1 = stirling.s1_table(10)
    c = stirling.cycle_table(10)
    for n in range(11):
        for k in range(n + 1):
            assert s1.value(n, k) == (-1) ** (n - k) * c.value(n, k)


def test_s2_values():
    t = stirling.s2_table(8)
    assert t.value(4, 2) == 7
    for n in range(1, 9):
        assert t.value(n, 1) == 1
        assert t.value(n, n) == 1
    assert t.value(7, 3) == count_partitions(7, 3) == 301


def test_table_outside_range_is_zero():
    t = stirling.s2_table(5)
    with pytest.raises(ValueError, match="beyond the table"):
        t.value(6, 2)  # s2(6,2) = 31: a row past nmax is unknown, not zero
    assert t.value(3, 4) == 0
    assert t.value(-1, 0) == 0


@pytest.mark.parametrize("n, k", [("3", 1), (1.5, 1), (2, 1.5), (True, 1), (2, False), (None, 0)])
def test_table_value_rejects_non_int_indices(n, k):
    with pytest.raises(ValueError, match="indices must be ints"):
        stirling.s2_table(5).value(n, k)


@pytest.mark.parametrize(
    "table",
    # the last two are bare tuples: the rows, and a tuple equal to the table
    [object(), 3, "s2", [[1]], (), stirling.s2_table(6).rows, (stirling.s2_table(6).rows,)],
)
def test_closed_forms_take_only_a_number_table(table):
    for formula in (stirling.s1_schloemilch, stirling.s1_schloemilch_terms):
        with pytest.raises(ValueError, match="s2 must be a NumberTable"):
            formula(5, 2, s2=table)
    for formula in (stirling.s1_via_assoc, stirling.s1_via_assoc_terms):
        with pytest.raises(ValueError, match="assoc must be a NumberTable"):
            formula(5, 2, assoc=table)


def test_closed_forms_reject_a_short_table():
    # s1(5,2) = -50 needs rows up to 6; a shorter table once summed as 0
    with pytest.raises(ValueError, match="beyond the table"):
        stirling.s1_schloemilch(5, 2, s2=stirling.s2_table(3))
    with pytest.raises(ValueError, match="beyond the table"):
        stirling.s1_via_assoc(5, 2, assoc=stirling.assoc_s2_table(3))
    assert stirling.s1_schloemilch(5, 2, s2=stirling.s2_table(6)) == -50
    assert stirling.s1_via_assoc(5, 2, assoc=stirling.assoc_s2_table(6)) == -50


def test_cycle_table_brute_force():
    from test_ptypes import count_cycle_arrangements

    t = stirling.cycle_table(6)
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert t.value(n, k) == count_cycle_arrangements(n, k)


def test_assoc_table():
    t = stirling.assoc_s2_table(10)
    assert t.value(6, 3) == 15
    assert t.value(5, 2) == count_partitions(5, 2, min_block=2) == 10
    assert t.value(4, 1) == 1
    for n in range(1, 11):
        assert t.value(n, n) == 0
    # double factorial on the diagonal 2n, n
    for n in range(1, 6):
        ff = 1
        for i in range(1, 2 * n, 2):
            ff *= i
        assert t.value(2 * n, n) == ff
        for ell in range(1, n):
            assert t.value(2 * n - ell, n) == 0


def test_assoc_table_brute_force():
    t = stirling.assoc_s2_table(8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert t.value(n, k) == count_partitions(n, k, min_block=2)


def test_lah_tables():
    unsigned, signed = stirling.lah_tables(8)
    assert unsigned.value(4, 2) == 36
    for n in range(1, 9):
        assert signed.value(n, n) == (-1) ** n
        for k in range(1, n + 1):
            assert unsigned.value(n, k) == factorial(n) // factorial(k) * comb(
                n - 1, k - 1
            )


@pytest.mark.parametrize(
    "build",
    [
        stirling.s1_table,
        stirling.s2_table,
        stirling.cycle_table,
        stirling.assoc_s2_table,
        stirling.lah_tables,
        series.total_partitions_triangle,
    ],
)
def test_negative_table_size_rejected(build):
    with pytest.raises(ValueError, match="nmax must be an int >= 0"):
        build(-1)


SIZE_CASES = {
    "partition_types n=2.0": lambda: partition_types(2.0, 1),
    "partition_types n=True": lambda: partition_types(True, 1),
    "partition_types k=True": lambda: partition_types(1, True),
    "s1_table 2.5": lambda: stirling.s1_table(2.5),
    "s1_table True": lambda: stirling.s1_table(True),
    "assoc_s2_table 2.5": lambda: stirling.assoc_s2_table(2.5),
    "convolution_table 2.0": lambda: stirling.convolution_table(2.0, [0, 1, 1, 1]),
    "convolution_table True": lambda: stirling.convolution_table(True, [0, 1]),
}


@pytest.mark.parametrize("case", SIZE_CASES.values(), ids=SIZE_CASES.keys())
def test_sizes_must_be_ints(case):
    # a float size is a ValueError, not a TypeError, and a bool is not 0 or 1
    with pytest.raises(ValueError, match="int"):
        case()


BAD_BUILDER_INPUTS = {
    "float weight": lambda: stirling.convolution_table(3, [0, 1.5, 1, 1]),
    "bool weight": lambda: stirling.convolution_table(3, [0, True, 1, 1]),
    "short weights": lambda: stirling.convolution_table(3, [0, 1]),
    "no weights": lambda: stirling.convolution_table(3, None),
    "weight string": lambda: stirling.convolution_table(3, "0111"),
    "no step": lambda: stirling.recurrence_table(3, None),
    "step not callable": lambda: stirling.recurrence_table(3, 1),
    # a step must map (t, n, k) to an int: a float, bool or Fraction entry
    # filled the table, and a step of the wrong arity raised TypeError
    "float step": lambda: stirling.recurrence_table(3, lambda t, n, k: 0.5),
    "bool step": lambda: stirling.recurrence_table(3, lambda t, n, k: True),
    "Fraction step": lambda: stirling.recurrence_table(3, lambda t, n, k: Fraction(1, 2)),
    "late float step": lambda: stirling.recurrence_table(3, lambda t, n, k: 0.5 if n == 3 else 1),
    "two-argument step": lambda: stirling.recurrence_table(3, lambda t, n: 1),
}


@pytest.mark.parametrize("case", BAD_BUILDER_INPUTS.values(), ids=BAD_BUILDER_INPUTS.keys())
def test_table_builders_reject_inexact_short_or_missing_input(case):
    # a float weight gave a table of floats, a short list IndexError and
    # None TypeError
    with pytest.raises(ValueError, match="a must be a list or tuple of at least 4 ints"
                       "|step must be callable|step must map \\(t, n, k\\) to an int"):
        case()
    assert stirling.convolution_table(3, (0, 1, 1, 1)) == stirling.s2_table(3)


@pytest.mark.parametrize(
    "weight, table",
    [
        (lambda j: 1, stirling.s2_table),  # B_{n,k}(1, 1, ...) = s2(n,k)
        (factorial, stirling.cycle_table),  # B_{n,k}(0!, 1!, 2!, ...) = c(n,k)
    ],
)
def test_convolution_table_gives_bell_values(weight, table):
    a = [0] + [weight(j - 1) for j in range(1, 13)]
    assert stirling.convolution_table(12, a).rows == table(12).rows


def test_lah_signed_is_sign_times_unsigned():
    unsigned, signed = stirling.lah_tables(12)
    for n in range(13):
        assert signed.rows[n] == tuple((-1) ** n * v for v in unsigned.rows[n])


def test_bell_numbers():
    got = stirling.bell_numbers(8)
    assert got == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


# ---------------------------------------------------------------------------
# closed formulas agree with the tables
# ---------------------------------------------------------------------------


def test_bertrand():
    assert stirling.s2_bertrand(4, 2) == 7
    t = stirling.s2_table(15)
    for n in range(1, 16):
        for k in range(1, n + 1):
            assert stirling.s2_bertrand(n, k) == t.value(n, k)
    assert stirling.s2_bertrand(9, 4) == t.value(9, 4)
    with pytest.raises(ValueError):
        stirling.s2_bertrand(3, 4)


def test_schloemilch_paper_products():
    # rungs (r, m, j, lead, tail), each naming its member (m, j) = (2n-1-k-r, n-1-r)
    assert stirling.schloemilch_ladder(7, 4) == [
        (3, 6, 3, -84, 1), (4, 5, 2, 56, 10), (5, 4, 1, -35, 45), (6, 3, 0, 20, 120)]
    assert stirling.s1_schloemilch_terms(7, 4) == [(-84, 90), (56, 150), (-35, 45)]
    assert stirling.s1_via_assoc_terms(7, 4) == [(-84, 15), (56, 10), (-35, 1)]
    assert stirling.s1_schloemilch(7, 4) == -735
    assert stirling.s1_via_assoc(7, 4) == -735


@pytest.mark.parametrize(
    "n, k, message",
    [("3", 1, "indices must be ints"), (3, 1.0, "indices must be ints"),
     (True, 1, "indices must be ints"), (2, 5, "out of range"), (3, 0, "out of range")],
)
def test_schloemilch_ladder_checks_its_indices(n, k, message):
    with pytest.raises(ValueError, match=message):
        stirling.schloemilch_ladder(n, k)


def test_schloemilch_full_range():
    s1 = stirling.s1_table(15)
    s2 = stirling.s2_table(30)
    assoc = stirling.assoc_s2_table(30)
    for n in range(1, 16):
        for k in range(1, n + 1):
            assert stirling.s1_schloemilch(n, k, s2) == s1.value(n, k)
            assert stirling.s1_via_assoc(n, k, assoc) == s1.value(n, k)
        assert stirling.s1_schloemilch(n, n) == 1
        assert stirling.s1_via_assoc(n, n) == 1


def test_s2_via_cycle():
    assert stirling.s2_via_cycle(3, 2) == 3
    assert stirling.s2_via_cycle(6, 3) == 90
    t = stirling.s2_table(15)
    for n in range(1, 16):
        for k in range(1, n + 1):
            assert stirling.s2_via_cycle(n, k) == t.value(n, k)
        assert stirling.s2_via_cycle(n, n) == 1


def test_s2_via_cycle_adds_one_fraction_per_r1(count_fraction_ops):
    t = stirling.s2_table(12)
    all_types = all_groups = 0
    for k in range(1, 13):
        types = partition_types(23 - k, 11)
        groups = len({r[0] for r in types})
        with count_fraction_ops() as counts:
            assert stirling.s2_via_cycle(12, k) == t.value(12, k)
        assert sum(counts.values()) == counts["__add__"] <= groups, k
        all_types += len(types)
        all_groups += groups
    assert 2 * all_groups < all_types  # 67 groups, 195 types


# ---------------------------------------------------------------------------
# inversion identities
# ---------------------------------------------------------------------------


def test_orthogonality():
    assert stirling.stirling_orthogonality_check(1)
    assert stirling.stirling_orthogonality_check(15)
    # the (4,2) row: 11*1 - 6*3 + 1*7 = 0
    s1 = stirling.s1_table(4)
    s2 = stirling.s2_table(4)
    row = [s1.value(4, j) * s2.value(j, 2) for j in range(2, 5)]
    assert row == [11, -18, 7]
    assert sum(row) == 0


def test_lah_self_inverse():
    assert stirling.lah_self_inverse_check(10)
    assert stirling.lah_self_inverse_check(15)


def test_example58():
    assert stirling.example58_identities(12)
    # c(4,2) = 6*c(1,1) + 3*c(2,1) + 1*c(3,1) = 6 + 3 + 2 = 11
    c = stirling.cycle_table(4)
    total = sum(factorial(3) // factorial(j) * c.value(j, 1) for j in range(1, 4))
    assert total == c.value(4, 2) == 11


def test_closed_form_guards_raise_under_optimize():
    # the integrality guards must survive python -O, where asserts vanish;
    # a perturbed factorial or comb makes each result non-integral
    script = textwrap.dedent(
        """
        import math, sys
        from mspkit import stirling

        if not sys.flags.optimize:
            sys.exit(3)
        stirling.factorial = lambda m: math.factorial(m) + 1
        try:
            stirling.s2_bertrand(4, 2)
        except ValueError as exc:
            print(exc)
        stirling.factorial = math.factorial
        stirling.comb = lambda a, b: math.comb(a, b) + 1
        try:
            stirling.s2_via_cycle(3, 1)
        except ValueError as exc:
            print(exc)
        """
    )
    src = str(Path(stirling.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "Bertrand sum not divisible by 2! at (4,2)",
        "cycle-sum not integral at (3,1)",
    ]


@pytest.mark.parametrize("n, k", [(3.0, 2), (3, 2.0), (True, 1), (3, True)])
def test_closed_forms_reject_non_int_indices(n, k):
    for formula in (stirling.s2_bertrand, stirling.s1_schloemilch, stirling.s1_via_assoc,
                    stirling.s2_via_cycle):
        with pytest.raises(ValueError, match="indices must be ints"):
            formula(n, k)
