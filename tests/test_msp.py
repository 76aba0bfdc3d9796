"""Tests for the polynomial family generators and their transforms."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import factorial

import pytest

from mspkit import msp, series, verify
from mspkit.poly import LaurentX1, MPoly, _unpack, _x1_sum, parse_poly
from mspkit.ptypes import order_fn, partition_types, stirling_fn, subset_fn

X1, X2 = MPoly.var(1), MPoly.var(2)


def test_bell_explicit_values():
    assert str(msp.bell_explicit(5, 3)) == "15*X1*X2^2 + 10*X1^2*X3"
    assert str(msp.bell_explicit(6, 2)) == "10*X3^2 + 15*X2*X4 + 6*X1*X5"
    for n in range(1, 8):
        assert msp.bell_explicit(n, n) == MPoly.monomial(1, (n,))


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
    # column 0, B_{0,0} = 1 and B_{n,0} = 0, stores nothing
    cache = msp.MspCache()
    assert msp.bell_recursive(0, 0, cache) == 1
    assert msp.bell_recursive(4, 0, cache).is_zero
    assert len(cache) == 0


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


def test_assoc_bell_weighs_long_types_by_the_sizes_in_use():
    # the 1049 types (0, 0, ..., 1, ..., 1) of length up to 2098 each have two
    # sizes in use; the member counts the splits of 2100 elements into two
    # blocks of size >= 2
    p = msp.assoc_bell(2100, 2, msp.MspCache())
    assert len(p) == 1049
    assert sum(c for _, c in p.terms()) == 2**2099 - 2101


def test_assoc_is_bell_at_x1_zero():
    for n in range(1, 9):
        for k in range(1, n + 1):
            width = n - k + 1
            subs = [MPoly.zero()] + [MPoly.var(j) for j in range(2, width + 1)]
            assert msp.bell_explicit(n, k).substitute(subs) == msp.assoc_bell(n, k)


def singleton_free_types(n: int, k: int) -> list[tuple[int, ...]]:
    """The types of P(n, k) with r1 = 0, filtered out of all of P(n, k)."""
    return [r for r in partition_types(n, k) if not (r and r[0])]


def test_singleton_free_types_are_shifted_types_of_p_n_minus_k():
    for n in range(1, 31):
        for k in range(1, n + 1):
            direct = [(0,) + r for r in partition_types(n - k, k)]
            assert direct == singleton_free_types(n, k), (n, k)


def test_assoc_family_weighs_the_singleton_free_types():
    for n in range(1, 13):
        for k in range(1, n + 1):
            want = MPoly({r: subset_fn(r) for r in singleton_free_types(n, k)})
            assert msp.family("Bt", n, k, msp.MspCache()) == want, (n, k)


def test_lah_poly():
    assert msp.lah_poly(1, 1) == X1
    assert msp.lah_poly(4, 2).eval_rat([1, 1, 1]) == 36
    signs = [(-1) ** j for j in range(1, 9)]
    for n in range(1, 9):
        for k in range(1, n + 1):
            v = msp.lah_poly(n, k).eval_rat(signs[: n - k + 1])
            unsigned = msp.lah_poly(n, k).eval_rat([1] * (n - k + 1))
            assert v == (-1) ** n * unsigned


def test_second_kind_descent_matches_the_per_type_weights():
    # the paper's weights, type by type, stay the reference for both modes of
    # the descent that builds family("B") and family("L")
    for n in [*range(1, 21), 26, 30]:
        for k in range(1, n + 1):
            types = partition_types(n, k)
            cache = msp.MspCache()
            assert msp.family("B", n, k, cache) == MPoly({r: subset_fn(r) for r in types}), (n, k)
            assert msp.family("L", n, k, cache) == MPoly({r: order_fn(r) for r in types}), (n, k)


def test_second_kind_exponent_limit():
    # the top exponent of B_{n,k} and L_{n,k} is k, of X1 in the (k, k)
    # member; the descent skips the constructor's field check, so its own
    # guard must raise
    for kind in ("B", "L"):
        assert msp.family(kind, 32767, 32767, msp.MspCache()) == MPoly.monomial(1, (32767,))
        with pytest.raises(ValueError, match="exceeds 32767"):
            msp.family(kind, 32768, 32768, msp.MspCache())


def test_descent_depth_is_the_number_of_block_sizes_in_use():
    # 2100 elements in 2 blocks: a descent that recursed once per block size
    # tried, not once per size in use, would pass Python's recursion limit
    bell = msp.bell_explicit(2100, 2, msp.MspCache())
    assert len(bell) == 1050
    assert bell.eval_rat([1] * 2099) == 2**2099 - 1
    lah = msp.lah_poly(2100, 2, msp.MspCache())
    assert len(lah) == 1050
    assert lah.eval_rat([1] * 2099) == factorial(2100) * 2099 // 2


def test_members_store_their_terms_in_the_order_terms_returns():
    # every generator inserts its terms in lex order, the order of terms(),
    # so a renderer may read them unsorted
    for kind in ("S", "B", "Bt", "L"):
        for n in range(1, 21):
            cache = msp.MspCache()
            for k in range(1, n + 1):
                p = msp.family(kind, n, k, cache)
                assert list(map(_unpack, p._terms)) == [e for e, _ in p.terms()], (kind, n, k)


def _ordered(p: MPoly) -> bool:
    """Whether p carries the fact that its dict is in graded-lex order."""
    return getattr(p, "_ordered", False)


def test_ordered_members_insert_their_terms_in_graded_lex_order():
    # the renderers read an ordered member's dict as it stands, so its
    # insertion order must be the one an independent sort gives
    members = []
    for n in range(1, 27):
        cache = msp.MspCache()
        for kind in ("S", "B", "L", "A"):
            for k in range(1, n + 1):
                value = msp.family(kind, n, k, cache)
                members.append(((kind, n, k), value.num if kind == "A" else value))
    cache = msp.MspCache()
    members += [(("B", 2100, 2), msp.bell_explicit(2100, 2, cache)),
                (("L", 2100, 2), msp.lah_poly(2100, 2, cache))]
    for label, p in members:
        assert _ordered(p), label
        exps = list(map(_unpack, p._terms))
        assert exps == sorted(exps, key=lambda e: (sum(e), e)), label


def test_only_the_descent_and_its_x1_shifts_are_ordered():
    cache = msp.MspCache()
    s, b, a = msp.family("S", 6, 2, cache), msp.family("B", 6, 3, cache), msp.lie_first(6, 2, cache)
    assert _ordered(s) and _ordered(b) and _ordered(a.num)
    assert _ordered(s.shift_x1(3)) and _ordered(s.shift_x1(-1))
    unordered = {
        "+": s + b, "-": s - b, "negation": -s, "*": s * b, "* int": s * 3,
        "sum_products": MPoly.sum_products([(s, b, 2)]),
        "substitute": s.substitute([MPoly.var(j) for j in range(1, s.width() + 1)]),
        "partial_derivative": s.partial_derivative(2),
        "MPoly(...)": MPoly(dict(s.terms())),
        "shift of a sum": (s + b).shift_x1(1),
        "Bt": msp.family("Bt", 6, 2, cache), "Bn": msp.complete_bell(6, cache),
        "copy": copy.copy(s), "deepcopy": copy.deepcopy(s),
        "A, unpickled": pickle.loads(pickle.dumps(a)).num,
        **{f"pickle {proto}": pickle.loads(pickle.dumps(s, proto))
           for proto in range(pickle.HIGHEST_PROTOCOL + 1)},
    }
    for name, p in unordered.items():
        assert not _ordered(p), name


def test_stirling_first_explicit_values():
    assert str(msp.stirling_first_explicit(4, 1)) == "-15*X2^3 + 10*X1*X2*X3 - X1^2*X4"
    assert (
        str(msp.stirling_first_explicit(6, 1))
        == "-945*X2^5 + 1260*X1*X2^3*X3 - 280*X1^2*X2*X3^2 - 210*X1^2*X2^2*X4"
        " + 35*X1^3*X3*X4 + 21*X1^3*X2*X5 - X1^4*X6"
    )
    for n in range(1, 8):
        assert msp.stirling_first_explicit(n, n) == MPoly.monomial(1, (n - 1,))


def test_first_kind_descent_matches_the_closed_form():
    # the paper's coefficient function, weighed type by type, stays the
    # reference for the descent that builds family("S")
    for n in [*range(1, 21), 26, 30]:
        for k in range(1, n + 1):
            want = MPoly({r: stirling_fn(r) for r in partition_types(2 * n - 1 - k, n - 1)})
            assert msp.family("S", n, k, msp.MspCache()) == want, (n, k)


def test_first_kind_exponent_limit():
    # the top exponent of S_{n,k} is n-1, of X1 in S_{n,n}; the descent skips
    # the constructor's field check, so its own guard must raise
    assert msp.family("S", 32768, 32768, msp.MspCache()) == MPoly.monomial(1, (32767,))
    with pytest.raises(ValueError, match="exceeds 32767"):
        msp.family("S", 32769, 32769, msp.MspCache())


def test_first_kind_paths_share_no_computation(forbid):
    want = [msp.stirling_first_explicit(12, k, msp.MspCache()) for k in range(1, 13)]
    column = [msp.stirling_first_explicit(n, 1, msp.MspCache()) for n in range(2, 11)]
    # the descent enumerates no type list, weighs no type and reads neither
    # the Schloemilch ladder nor the series recursion
    with forbid("stirling_fn", "partition_types", "schloemilch_ladder", "_lie_values"):
        assert [msp.stirling_first_explicit(12, k, msp.MspCache())
                for k in range(1, 13)] == want
        with pytest.raises(AssertionError, match="was called"):
            msp.stirling_first_from_assoc(12, 3, msp.MspCache())
    # and the recursive, associated-Bell and nested Bell-product (eq6.1)
    # paths do not run the descent
    with forbid("_first_kind"):
        assert [msp.stirling_first_recursive(12, k, msp.MspCache())
                for k in range(1, 13)] == want
        assert [msp.stirling_first_from_assoc(12, k, msp.MspCache())
                for k in range(1, 13)] == want
        assert [msp.snk1_nested(n, msp.MspCache()) for n in range(2, 11)] == column
        with pytest.raises(AssertionError, match="_first_kind was called"):
            msp.stirling_first_explicit(12, 3, msp.MspCache())
    # the explicit and recursive paths sum no X1-weighted expansion, which
    # thm6.1 and thm6.4 (i) read on their other side
    with forbid("_x1_sum"):
        assert [msp.stirling_first_explicit(12, k, msp.MspCache())
                for k in range(1, 13)] == want
        assert [msp.stirling_first_recursive(12, k, msp.MspCache())
                for k in range(1, 13)] == want
        assert [msp.lie_first(12, k, msp.MspCache())
                for k in range(1, 13)] == [LaurentX1(s, 23) for s in want]
        for build in (msp.stirling_first_from_assoc, msp.first_from_second_schloemilch):
            with pytest.raises(AssertionError, match="_x1_sum was called"):
                build(12, 3, msp.MspCache())


def test_second_kind_paths_share_no_computation(forbid):
    def row(build):
        return [build(12, k, msp.MspCache()) for k in range(1, 13)]

    bell, lah, assoc = row(msp.bell_explicit), row(msp.lah_poly), row(msp.assoc_bell)
    # the descent enumerates no type list and weighs no type, and eq6.8
    # rebuilds Bt from B alone
    with forbid("partition_types", "subset_fn", "order_fn"):
        assert row(msp.bell_explicit) == bell
        assert row(msp.lah_poly) == lah
        assert row(msp.eq68_invert) == assoc
        with pytest.raises(AssertionError, match="was called"):
            msp.assoc_bell(12, 3, msp.MspCache())
    # crosspath-bell, cor4.5 and eq6.8 each read B on one side only: the
    # recursive path, Bt and the expansion from Bt do not run the descent
    with forbid("_blocks"):
        assert row(msp.bell_recursive) == bell
        assert row(msp.assoc_bell) == assoc
        assert row(msp.cor45_expand) == bell
        for build in (msp.bell_explicit, msp.lah_poly, msp.eq68_invert):
            with pytest.raises(AssertionError, match="_blocks was called"):
                build(12, 3, msp.MspCache())
    # thm6.1 weighs explicit S against the Bt ladder, so Bt must not reach
    # the first-kind descent either
    with forbid("_first_kind", "_blocks"):
        assert row(msp.assoc_bell) == assoc
    # nor do B, Bt, L and the recursive path sum an X1-weighted expansion,
    # which cor4.5, eq6.8 and thm6.4 (ii) read on their other side
    with forbid("_x1_sum"):
        assert row(msp.bell_explicit) == bell
        assert row(msp.assoc_bell) == assoc
        assert row(msp.lah_poly) == lah
        assert row(msp.bell_recursive) == bell
        for build in (msp.cor45_expand, msp.eq68_invert, msp.second_from_first):
            with pytest.raises(AssertionError, match="_x1_sum was called"):
                build(12, 3, msp.MspCache())
    # cor4.6 (L = B(j! X_j)) compares the two modes of `_blocks` on purpose:
    # subset_fn is order_fn over prod (j!)^r_j, so two per-type sums would
    # share their computation as well;
    # test_second_kind_descent_matches_the_per_type_weights pins both modes
    # to the per-type weights instead


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
        assert msp.compose_transform(n, n) == MPoly.monomial(1, (n - 1,))
    with pytest.raises(ValueError):
        msp.compose_transform(5, 1)


def test_compose_transform_second():
    for n in range(1, 9):
        for k in range(1, n + 1):
            got = msp.compose_transform_second(n, k)
            assert got == LaurentX1(msp.bell_explicit(n, k))


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
        assert msp.cor45_expand(n, n) == MPoly.monomial(1, (n,))
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


def test_x1_sum_takes_any_exponent_and_guards_the_x1_field():
    # 3 * X1 * (X2 / X1^2) + X1^-3 * X1 = (3*X1^2*X2 + X1) / X1^3
    parts = [(LaurentX1(X2, 2), 1, 3), (X1, -3, 1)]
    assert _x1_sum(parts) == LaurentX1(parse_poly("X1 + 3*X1^2*X2"), 3)
    assert _x1_sum([(MPoly.const(1), 32767, 1)]) == LaurentX1(MPoly.monomial(1, (32767,)))
    # a larger X1 factor would carry into the X2 field; the check is no assert
    for parts in ([(MPoly.const(1), 32768, 1)], [(X1, -1, 1), (MPoly.const(1), 32767, 1)]):
        with pytest.raises(ValueError, match="exponent 32768 of X1 exceeds 32767"):
            _x1_sum(parts)
    # the sum reads as a polynomial only when no power of X1 is left under it
    with pytest.raises(ValueError, match=r"value has denominator X1\^1"):
        _x1_sum([(X2, -1, 1)]).to_poly()
    assert _x1_sum([(X1 * X2, -1, 1)]).to_poly() == X2


# a LaurentX1 with no denominator equals its MPoly, so only the type shows
# whether an expansion that must be a polynomial reads its sum with to_poly()
EXPANSION_TYPES = [
    ("stirling_first_from_assoc", (6, 3), MPoly),
    ("second_from_first", (6, 3), MPoly),
    ("cor45_expand", (6, 3), MPoly),
    ("eq68_invert", (6, 3), MPoly),
    ("eq68_invert", (5, 3), MPoly),  # Bt_{5,3} = 0
    ("snk1_nested", (6,), MPoly),
    ("first_from_second_schloemilch", (6, 3), LaurentX1),
    ("compose_transform_second", (6, 3), LaurentX1),
]


@pytest.mark.parametrize("name, args, want", EXPANSION_TYPES)
def test_each_expansion_returns_its_type(name, args, want):
    assert type(getattr(msp, name)(*args)) is want


def test_inversion_law_small():
    for n in range(1, 8):
        for k in range(1, n + 1):
            total = LaurentX1(MPoly.zero())
            for j in range(k, n + 1):
                total = total + msp.lie_first(n, j) * msp.bell_explicit(j, k)
            want = 1 if n == k else 0
            assert total == want


def test_generate_dispatch():
    assert msp.generate("S", 3, 1) == msp.stirling_first_explicit(3, 1)
    assert msp.generate("A", 2, 1) == msp.lie_first(2, 1)
    assert msp.generate("Bn", 3, 0) == msp.complete_bell(3)
    with pytest.raises(ValueError):
        msp.generate("Q", 3, 1)


@pytest.mark.parametrize("kind", [["S"], {"S"}, {"S": 1}])
def test_generate_rejects_unhashable_kind(kind):
    with pytest.raises(ValueError, match="unknown kind"):
        msp.generate(kind, 3, 2)


@pytest.mark.parametrize("kind", [["S"], {"S"}, {"S": 1}])
def test_family_rejects_unhashable_kind(kind):
    cache = msp.MspCache()
    for n, k in [(3, 2), (2, 3)]:  # inside the triangle, where the cache is read, and outside
        with pytest.raises(ValueError, match="unknown family kind"):
            msp.family(kind, n, k, cache)
    assert len(cache) == 0


CACHE_USERS = {
    "bell_explicit": lambda cache: msp.bell_explicit(3, 2, cache),
    "bell_recursive": lambda cache: msp.bell_recursive(3, 2, cache),
    "stirling_first_recursive": lambda cache: msp.stirling_first_recursive(3, 2, cache),
    "convolution_recurrence": lambda cache: msp.convolution_recurrence(3, 2, "B", cache),
    # outside the triangle, where no cached member is read
    "bell_explicit(3,0)": lambda cache: msp.bell_explicit(3, 0, cache),
    "bell_explicit(0,0)": lambda cache: msp.bell_explicit(0, 0, cache),
    "bell_recursive(3,0)": lambda cache: msp.bell_recursive(3, 0, cache),
    "bell_recursive(0,0)": lambda cache: msp.bell_recursive(0, 0, cache),
    "assoc_bell(3,0)": lambda cache: msp.assoc_bell(3, 0, cache),
    "family(S,2,3)": lambda cache: msp.family("S", 2, 3, cache),
    # with a bad kind too, the cache error wins inside the triangle and outside it
    "family(Q,1,1)": lambda cache: msp.family("Q", 1, 1, cache),
    "family(Q,0,0)": lambda cache: msp.family("Q", 0, 0, cache),
    "convolution_recurrence(1,1)": lambda cache: msp.convolution_recurrence(1, 1, "B", cache),
    "revert_comtet": lambda cache: series.revert_comtet(series.Egf([1, 2, 3, 4]), cache),
    "run_suite": lambda cache: verify.run_suite(4, cache=cache),
    # order 1, and a selection of number checks, read no member
    "revert_comtet(order 1)": lambda cache: series.revert_comtet(
        series.EgfCoeffs((Fraction(3),)), cache),
    "run_suite(rem4.1)": lambda cache: verify.run_suite(3, ["rem4.1-bertrand"], 0, cache=cache),
}


@pytest.mark.parametrize("cache", [{}, "x", 5], ids=repr)
@pytest.mark.parametrize("entry", sorted(CACHE_USERS))
def test_a_cache_that_is_not_an_mspcache_raises_value_error(entry, cache):
    with pytest.raises(ValueError, match="cache must be an MspCache or None"):
        CACHE_USERS[entry](cache)


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
    assert msp.family("A", 0, 0, cache) == LaurentX1(MPoly.const(1))
    assert msp.family("A", 2, 3, cache) == LaurentX1(MPoly.zero())
    # an unknown kind is rejected inside the triangle and outside it
    for n, k in [(2, 1), (2, 3), (0, 0), (3, 0)]:
        with pytest.raises(ValueError, match="unknown family kind"):
            msp.family("Q", n, k, cache)
    assert len(cache) == 0


def test_family_rejects_the_recursive_memo_kinds():
    cache = msp.MspCache()
    msp.bell_recursive(3, 2, cache)
    msp.stirling_first_recursive(3, 2, cache)
    size = len(cache)
    # the memo holds B_rec and S_rec members, but family builds neither kind
    for kind in ("B_rec", "S_rec"):
        for n, k in [(3, 2), (2, 1), (2, 3), (0, 0)]:
            with pytest.raises(ValueError, match="unknown family kind"):
                msp.family(kind, n, k, cache)
    assert len(cache) == size


@pytest.mark.parametrize("n", [0, 3])
def test_bell_recursive_column_zero_is_the_zero_extension(n):
    cache = msp.MspCache()
    assert msp.bell_recursive(n, 0, cache) == msp.family("B", n, 0, cache)
    assert msp.bell_recursive(n, 0, cache) == (MPoly.const(1) if n == 0 else MPoly.zero())
    assert len(cache) == 0


@pytest.mark.parametrize("n, k", [("3", 1), (3, "1"), (True, 1), (1, True), (2.0, 1), (None, 0)])
def test_family_rejects_non_int_indices_like_generate(n, k):
    cache = msp.MspCache()
    msp.family("S", 1, 1, cache)  # a warm (1, 1) member must not answer for (True, 1)
    for call in (msp.family, msp.generate):
        with pytest.raises(ValueError, match="indices must be ints"):
            call("S", n, k, cache)
    assert len(cache) == 1


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
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        msp.complete_bell(n)


@pytest.mark.parametrize("n", [3.0, True, 1])
def test_snk1_nested_rejects_non_int_or_small_n(n):
    with pytest.raises(ValueError, match="n must be an int >= 2"):
        msp.snk1_nested(n)
