"""Tests for the polynomial family generators and their transforms."""

from __future__ import annotations

import pytest

from mspkit import msp
from mspkit.poly import LaurentX1, MPoly, parse_poly

X1, X2 = MPoly.var(1), MPoly.var(2)


def test_bell_explicit_values():
    assert str(msp.bell_explicit(5, 3)) == "15*X1*X2^2 + 10*X1^2*X3"
    assert str(msp.bell_explicit(6, 2)) == "10*X3^2 + 15*X2*X4 + 6*X1*X5"
    for n in range(1, 8):
        assert msp.bell_explicit(n, n) == X1**n


def test_bell_boundary_conventions():
    assert msp.bell_explicit(0, 0) == MPoly.const(1)
    assert msp.bell_explicit(3, 0).is_zero
    with pytest.raises(ValueError):
        msp.bell_explicit(2, 3)
    with pytest.raises(ValueError):
        msp.bell_explicit(3, -1)


def test_bell_recursive_matches_explicit():
    assert str(msp.bell_recursive(4, 3)) == "6*X1^2*X2"
    assert msp.bell_recursive(1, 1) == X1
    assert msp.bell_recursive(12, 5) == msp.bell_explicit(12, 5)


def test_complete_bell():
    assert msp.complete_bell(1) == X1
    assert str(msp.complete_bell(2)) == "X2 + X1^2"
    # value at the all-ones point is the number of set partitions
    b8 = msp.complete_bell(8)
    assert b8.eval_rat([1] * 8) == 4140
    with pytest.raises(ValueError):
        msp.complete_bell(0)


def test_assoc_bell():
    assert str(msp.assoc_bell(4, 2)) == "3*X2^2"
    assert msp.assoc_bell(6, 3) == MPoly.monomial(15, (0, 3))
    for n in range(2, 9):
        # no types without singletons below weight 2k
        for ell in range(1, n):
            assert msp.assoc_bell(2 * n - ell, n).is_zero
        ff = 1
        for i in range(1, 2 * n, 2):
            ff *= i
        assert msp.assoc_bell(2 * n, n) == MPoly.monomial(ff, (0, n))


def test_assoc_is_bell_at_x1_zero():
    for n in range(1, 9):
        for k in range(1, n + 1):
            width = n - k + 1
            subs = [MPoly.zero()] + [MPoly.var(j) for j in range(2, width + 1)]
            assert msp.bell_explicit(n, k).substitute(subs) == msp.assoc_bell(n, k)


def test_lah_poly():
    assert msp.lah_poly(1, 1) == X1
    assert msp.lah_poly(4, 2).eval_rat([1, 1, 1]) == 36
    signs = [(-1) ** j for j in range(1, 9)]
    for n in range(1, 9):
        for k in range(1, n + 1):
            v = msp.lah_poly(n, k).eval_rat(signs[: n - k + 1])
            unsigned = msp.lah_poly(n, k).eval_rat([1] * (n - k + 1))
            assert v == (-1) ** n * unsigned


def test_stirling_first_explicit_values():
    assert str(msp.stirling_first_explicit(4, 1)) == "-15*X2^3 + 10*X1*X2*X3 - X1^2*X4"
    assert (
        str(msp.stirling_first_explicit(6, 1))
        == "-945*X2^5 + 1260*X1*X2^3*X3 - 280*X1^2*X2*X3^2 - 210*X1^2*X2^2*X4"
        " + 35*X1^3*X3*X4 + 21*X1^3*X2*X5 - X1^4*X6"
    )
    for n in range(1, 8):
        assert msp.stirling_first_explicit(n, n) == X1 ** (n - 1)


def test_stirling_first_recursive():
    assert msp.stirling_first_recursive(1, 1) == MPoly.const(1)
    assert msp.stirling_first_recursive(5, 4) == MPoly.monomial(-10, (3, 1))
    assert msp.stirling_first_recursive(9, 4) == msp.stirling_first_explicit(9, 4)
    # near-diagonal closed form
    for n in range(2, 10):
        want = MPoly.monomial(-(n * (n - 1) // 2), (n - 2, 1))
        assert msp.stirling_first_recursive(n, n - 1) == want


def test_lie_first():
    assert msp.lie_first(1, 1) == LaurentX1(MPoly.const(1), 1)
    assert msp.lie_first(2, 2) == LaurentX1(MPoly.const(1), 2)
    assert msp.lie_first(2, 1) == LaurentX1(-X2, 3)
    for n in range(1, 7):
        assert msp.lie_first(n, n) == LaurentX1(MPoly.const(1), n)
    with pytest.raises(ValueError):
        msp.lie_first(0, 0)


def test_schloemilch_poly_transforms():
    assert msp.first_from_second_schloemilch(3, 3) == LaurentX1(MPoly.const(1), 3)
    got = msp.first_from_second_schloemilch(3, 1)
    assert got == LaurentX1(parse_poly("3*X2^2 - X1*X3"), 5)
    assert msp.second_from_first(4, 2) == parse_poly("3*X2^2 + 4*X1*X3")
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert msp.first_from_second_schloemilch(n, k) == msp.lie_first(n, k)
            assert msp.second_from_first(n, k) == msp.bell_explicit(n, k)


def test_compose_transform():
    assert str(msp.compose_transform(5, 3)) == "45*X1^2*X2^2 - 10*X1^3*X3"
    assert msp.compose_transform(6, 2) == msp.stirling_first_explicit(6, 2)
    for n in range(2, 9):
        assert msp.compose_transform(n, n) == X1 ** (n - 1)
    with pytest.raises(ValueError):
        msp.compose_transform(5, 1)


def test_compose_transform_second():
    for n in range(1, 9):
        for k in range(1, n + 1):
            got = msp.compose_transform_second(n, k)
            assert got == LaurentX1.from_poly(msp.bell_explicit(n, k))


def test_convolution_recurrences():
    assert str(msp.convolution_recurrence(5, 2, "B")) == "10*X2*X3 + 5*X1*X4"
    assert msp.convolution_recurrence(4, 2, "S") == parse_poly(
        "15*X1*X2^2 - 4*X1^2*X3"
    )
    assert msp.convolution_recurrence(6, 3, "Bt") == MPoly.monomial(15, (0, 3))
    with pytest.raises(ValueError):
        msp.convolution_recurrence(4, 1, "S")
    with pytest.raises(ValueError):
        msp.convolution_recurrence(4, 2, "X")
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert msp.convolution_recurrence(n, k, "B") == msp.bell_explicit(n, k)
            assert msp.convolution_recurrence(n, k, "Bt") == msp.assoc_bell(n, k)
            if k >= 2:
                assert msp.convolution_recurrence(
                    n, k, "S"
                ) == msp.stirling_first_explicit(n, k)


def test_b_n2_closed_form():
    # the k = 2 column has the closed expansion sum_j C(n-1,j-1) X_j X_{n-j}
    from math import comb

    for n in range(3, 10):
        want = MPoly.zero()
        for j in range(1, n):
            want = want + comb(n - 1, j - 1) * MPoly.var(j) * MPoly.var(n - j)
        assert msp.bell_explicit(n, 2) == want


def test_cor45_and_eq68():
    assert msp.cor45_expand(5, 2) == parse_poly("10*X2*X3 + 5*X1*X4")
    assert msp.eq68_invert(4, 2) == parse_poly("3*X2^2")
    for n in range(1, 10):
        assert msp.cor45_expand(n, n) == X1**n
        for k in range(1, n + 1):
            assert msp.cor45_expand(n, k) == msp.bell_explicit(n, k)
            assert msp.eq68_invert(n, k) == msp.assoc_bell(n, k)


def test_snk1_nested():
    assert msp.snk1_nested(2) == -X2
    assert str(msp.snk1_nested(3)) == "3*X2^2 - X1*X3"
    assert msp.snk1_nested(5) == msp.stirling_first_explicit(5, 1)
    with pytest.raises(ValueError):
        msp.snk1_nested(1)


def test_stirling_first_from_assoc():
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert msp.stirling_first_from_assoc(n, k) == msp.stirling_first_explicit(
                n, k
            )


def test_inversion_law_small():
    for n in range(1, 8):
        for k in range(1, n + 1):
            total = LaurentX1.zero()
            for j in range(k, n + 1):
                total = total + msp.lie_first(n, j) * msp.bell_explicit(j, k)
            want = LaurentX1.one() if n == k else LaurentX1.zero()
            assert total == want


def test_generate_dispatch():
    assert msp.generate("S", 3, 1) == msp.stirling_first_explicit(3, 1)
    assert msp.generate("A", 2, 1) == msp.lie_first(2, 1)
    assert msp.generate("Bn", 3, 0) == msp.complete_bell(3)
    with pytest.raises(ValueError):
        msp.generate("Q", 3, 1)


def test_registry_kinds():
    assert msp.KINDS == ("S", "B", "Bt", "L", "A", "Bn")
    for kind in msp.KINDS[:-1]:
        assert msp.generate(kind, 4, 2) == msp.family(kind, 4, 2)


def test_family_zero_extension_is_uncached():
    cache = msp.MspCache()
    for kind in ("S", "B", "Bt", "L"):
        assert msp.family(kind, 0, 0, cache) == MPoly.const(1)
        for n, k in [(3, 0), (2, 3), (-1, -1), (0, 1)]:
            assert msp.family(kind, n, k, cache) == MPoly.zero()
    assert msp.family("A", 0, 0, cache) == LaurentX1.one()
    assert msp.family("A", 2, 3, cache) == LaurentX1.zero()
    # an unknown kind is rejected inside the triangle and outside it
    for n, k in [(2, 1), (2, 3), (0, 0), (3, 0)]:
        with pytest.raises(ValueError, match="unknown family kind"):
            msp.family("Q", n, k, cache)
    assert len(cache) == 0


def test_complete_bell_sums_cached_members():
    cache = msp.MspCache()
    assert msp.complete_bell(5, cache).eval_rat([1] * 5) == 52
    # only the B members are cached, the sum itself is not
    assert len(cache) == 5
    assert msp.generate("Bn", 5, None, cache) == msp.complete_bell(5)
    assert len(cache) == 5


def test_cache_is_append_only_and_injectable():
    cache = msp.MspCache()
    p = msp.bell_explicit(4, 2, cache)
    assert len(cache) == 1
    # a second put with the same key is ignored
    cache.put("B", 4, 2, MPoly.zero())
    assert msp.bell_explicit(4, 2, cache) == p
    # a fresh cache can be pre-corrupted for fault-injection tests
    bad = msp.MspCache()
    bad.put("B", 4, 2, X1)
    assert msp.bell_explicit(4, 2, bad) == X1


def test_homogeneity_and_isobarity_ranges():
    for n in range(1, 13):
        for k in range(1, n + 1):
            s = msp.stirling_first_explicit(n, k)
            b = msp.bell_explicit(n, k)
            assert s.homogeneous_degree() == n - 1
            assert s.isobaric_degree() == 2 * n - 1 - k
            assert b.homogeneous_degree() == k
            assert b.isobaric_degree() == n


def test_substitute_identity_on_generated():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for p in (msp.stirling_first_explicit(n, k), msp.bell_explicit(n, k)):
                width = max(p.width(), 1)
                ident = [MPoly.var(j) for j in range(1, width + 1)]
                assert p.substitute(ident) == p


def test_x1_support_bounds():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert msp.stirling_first_explicit(n, k).min_x1_power() >= k - 1
            assert msp.bell_explicit(n, k).min_x1_power() >= max(0, 2 * k - n)


def test_recursive_reads_only_cells_inside_the_triangle():
    # neighbours outside 1 <= k <= n are never stored, so a lookup of one
    # is a cache miss that can never hit
    class RecordingCache(msp.MspCache):
        def __init__(self):
            super().__init__()
            self.keys = []

        def get(self, kind, n, k):
            self.keys.append((kind, n, k))
            return super().get(kind, n, k)

    cache = RecordingCache()
    assert msp.bell_recursive(6, 3, cache) == msp.bell_explicit(6, 3)
    assert cache.keys
    assert all(1 <= k <= n for _, n, k in cache.keys), cache.keys


@pytest.mark.parametrize("n, k", [(True, 1), (2, True), (3.0, 2), (3, 2.0)])
def test_generators_reject_non_int_indices(n, k):
    for generator in (msp.bell_explicit, msp.assoc_bell, msp.stirling_first_explicit,
                      msp.lah_poly, msp.lie_first, msp.cor45_expand):
        with pytest.raises(ValueError, match="indices must be ints"):
            generator(n, k)


@pytest.mark.parametrize("n, k", [(2.0, 0), (-1, 0), (True, 0), (2, 3)])
def test_bell_recursive_checks_indices_before_k0(n, k):
    with pytest.raises(ValueError, match="indices"):
        msp.bell_recursive(n, k)


@pytest.mark.parametrize("n", [2.5, 3.0, True, 0])
def test_complete_bell_rejects_non_int_or_small_n(n):
    with pytest.raises(ValueError, match="complete Bell"):
        msp.complete_bell(n)


@pytest.mark.parametrize("n", [3.0, True, 1])
def test_snk1_nested_rejects_non_int_or_small_n(n):
    with pytest.raises(ValueError, match="nested sum"):
        msp.snk1_nested(n)
