"""Acceptance suite: the exit criteria for the build, one test per criterion.

Every comparison is exact (arbitrary-precision integers and rationals, no
tolerances).  Each criterion prints a single PASS/FAIL line; run with
``pytest -s tests/test_acceptance.py`` to see them all.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

from mspkit import msp, series, stirling, verify
from mspkit.poly import LaurentX1, MPoly, parse_poly
from mspkit.ptypes import partition_types, stirling_fn, subset_fn

F = Fraction

_CACHE = msp.MspCache()  # shared across criteria; generation is pure


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_table1_reproduction():
    with criterion("1 table-1 reproduction (n<=6, exact)"):
        for (n, k), text in verify.GOLDEN_FIRST_KIND.items():
            assert msp.stirling_first_explicit(n, k, _CACHE) == parse_poly(text)
        for (n, k), text in verify.GOLDEN_SECOND_KIND.items():
            assert msp.bell_explicit(n, k, _CACHE) == parse_poly(text)


def test_criterion_2_inversion_law():
    with criterion("2 inversion law (n<=10, exact Laurent)"):
        for n in range(1, 11):
            for k in range(1, n + 1):
                want = 1 if n == k else 0
                forward = LaurentX1(MPoly.zero())
                backward = LaurentX1(MPoly.zero())
                for j in range(k, n + 1):
                    forward = forward + msp.lie_first(n, j, _CACHE) * msp.bell_explicit(
                        j, k, _CACHE
                    )
                    backward = backward + msp.lie_first(
                        j, k, _CACHE
                    ) * msp.bell_explicit(n, j, _CACHE)
                assert forward == want
                assert backward == want


def test_criterion_3_cross_path_agreement():
    with criterion("3 explicit vs recursive generators (n<=12, exact)"):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert msp.bell_explicit(n, k, _CACHE) == msp.bell_recursive(
                    n, k, _CACHE
                )
                assert msp.stirling_first_explicit(
                    n, k, _CACHE
                ) == msp.stirling_first_recursive(n, k, _CACHE)


def test_criterion_4_schloemilch_identity():
    with criterion("4 Schloemilch-type transforms (n<=9, exact)"):
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert msp.first_from_second_schloemilch(
                    n, k, _CACHE
                ) == msp.lie_first(n, k, _CACHE)
                assert msp.second_from_first(n, k, _CACHE) == msp.bell_explicit(
                    n, k, _CACHE
                )


def test_criterion_5_stirling_number_checks():
    with criterion("5 Stirling-number identities (n<=15, exact)"):
        # s1(7,4) with the exact intermediate products
        assert stirling.s1_schloemilch_terms(7, 4) == [(-84, 90), (56, 150), (-35, 45)]
        assert stirling.s1_via_assoc_terms(7, 4) == [(-84, 15), (56, 10), (-35, 1)]
        assert stirling.s1_schloemilch(7, 4) == -735
        assert stirling.s1_via_assoc(7, 4) == -735
        # coefficient sums against the recurrence tables
        s1 = stirling.s1_table(15)
        s2 = stirling.s2_table(15)
        for n in range(1, 16):
            for k in range(1, n + 1):
                ones = [1] * (n - k + 1)
                assert msp.stirling_first_explicit(n, k, _CACHE).eval_rat(
                    ones
                ) == s1.value(n, k)
                assert msp.bell_explicit(n, k, _CACHE).eval_rat(ones) == s2.value(n, k)
        assert stirling.stirling_orthogonality_check(15)
        assert stirling.lah_self_inverse_check(15)


def test_criterion_6_lagrange_paper_sequences():
    with criterion("6 Lagrange inversion on the named series (exact)"):
        trees = series.EgfCoeffs(
            tuple(F((-1) ** (j - 1) * j) for j in range(1, 13))
        )
        got = series.revert_msp(trees)
        for n in range(1, 13):
            assert got.f(n) == n ** (n - 1)
        ones = series.EgfCoeffs((F(1),) * 12)
        got = series.revert_msp(ones)
        for n in range(1, 13):
            assert got.f(n) == (-1) ** (n - 1) * factorial(n - 1)
        assert series.total_partitions_recurrence(4) == [1, 1, 4, 26]
        t12 = series.total_partitions_recurrence(12)
        tp = series.total_partitions_egf(12)
        for path in (series.revert_msp, series.revert_comtet, series.revert_oracle):
            reverted = path(tp)
            assert [reverted.f(n) for n in range(1, 13)] == t12
        rows = series.total_partitions_triangle(12)
        for n in range(1, 13):
            assert rows[n][1] == 2 ** (n - 1)
            assert rows[n][n] == factorial(n)
            if n >= 2:
                assert rows[n][2] == 2 ** (n - 1) * (2**n - n - 1)


def test_criterion_7_three_path_reversion():
    with criterion("7 three-path reversion on 200 random inputs (exact)"):
        rng = random.Random("acceptance-criterion-7")
        ident = series.identity_egf(10)
        for trial in range(200):
            coeffs = []
            for n in range(1, 11):
                num = rng.randint(-99, 99)
                if n == 1:
                    while num == 0:
                        num = rng.randint(-99, 99)
                coeffs.append(F(num, rng.randint(1, 20)))
            f = series.EgfCoeffs(tuple(coeffs))
            a = series.revert_msp(f)
            assert a == series.revert_comtet(f, _CACHE)
            assert a == series.revert_oracle(f)
            assert series.revert_msp(a) == f
            assert series.egf_compose(f, a) == ident
            assert series.egf_compose(a, f) == ident


def test_criterion_8_exp_transform_rows():
    with criterion("8 exp-transform rows vs Stirling tables (n<=10, exact)"):
        s1 = stirling.s1_table(10)
        s2 = stirling.s2_table(10)
        ones = series.EgfCoeffs((F(1),) * 10)
        for n, row in enumerate(series.exp_transform(ones), start=1):
            assert row == tuple(s2.value(n, k) for k in range(n + 1))
        for n, row in enumerate(series.exp_transform_inverse(ones), start=1):
            assert row == tuple(s1.value(n, k) for k in range(n + 1))


def test_criterion_9_structural_invariants():
    with criterion("9 structural invariants (degrees, bounds, identities)"):
        for n in range(1, 13):
            for k in range(1, n + 1):
                s = msp.stirling_first_explicit(n, k, _CACHE)
                b = msp.bell_explicit(n, k, _CACHE)
                # degree laws
                assert s.homogeneous_degree() == n - 1
                assert s.isobaric_degree() == 2 * n - 1 - k
                assert b.homogeneous_degree() == k
                assert b.isobaric_degree() == n
                # X1-support bounds
                assert s.min_x1_power() >= k - 1
                assert b.min_x1_power() >= max(0, 2 * k - n)
                # derivative law
                for j in range(1, n - k + 2):
                    assert b.partial_derivative(j) == comb(n, j) * msp.bell_explicit(
                        n - j, k - 1, _CACHE
                    )
                # per-type coefficient identity
                for r in partition_types(2 * n - 1 - k, n - 1):
                    r1 = r[0] if r else 0
                    lhs = comb(2 * n - 1 - k, r1) * stirling_fn(r)
                    rhs = (
                        (-1) ** (n - 1 - r1)
                        * comb(2 * n - 2 - r1, k - 1)
                        * subset_fn(r)
                    )
                    assert lhs == rhs
        # associated family values
        for n in range(1, 9):
            ff = 1
            for i in range(1, 2 * n, 2):
                ff *= i
            assert msp.assoc_bell(2 * n, n, _CACHE) == MPoly.monomial(ff, (0, n))
            for ell in range(1, n):
                assert msp.assoc_bell(2 * n - ell, n, _CACHE).is_zero


def test_full_suite_runs_clean():
    results = verify.run_suite(6)
    failures = [r.check_id for r in results if not r.passed]
    assert not failures, f"failing checks: {failures}"
