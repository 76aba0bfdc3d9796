"""Tests for EGF arithmetic and the three reversion paths.

The composition oracle here works in ordinary normalization with plain
truncated polynomial substitution, independent of the Bell-polynomial
machinery inside the library.  Two more oracles evaluate the paper's type
sums term by term in Fractions: B_{n,k} over P(n,k) with subset_fn weights,
and S_{n,k} / f_1^(2n-1) over P(2n-1-k, n-1) with stirling_fn weights.
"""

from __future__ import annotations

import pickle
import random
from copy import deepcopy
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest

from mspkit import msp, series
from mspkit.ptypes import partition_types, stirling_fn, subset_fn
from mspkit.series import EgfCoeffs

F = Fraction


def egf(*values) -> EgfCoeffs:
    return EgfCoeffs(tuple(F(v) for v in values))


# ---------------------------------------------------------------------------
# oracle: composition by direct truncated substitution
# ---------------------------------------------------------------------------


def compose_oracle(f: EgfCoeffs, g: EgfCoeffs, order: int) -> tuple[Fraction, ...]:
    a = [F(0)] + [f.f(n) / factorial(n) for n in range(1, order + 1)]
    b = [F(0)] + [g.f(n) / factorial(n) for n in range(1, order + 1)]

    def mul(p, q):
        out = [F(0)] * (order + 1)
        for i, pi in enumerate(p):
            if pi:
                for j in range(min(order - i, len(q) - 1) + 1):
                    out[i + j] += pi * q[j]
        return out

    total = [F(0)] * (order + 1)
    power = [F(1)] + [F(0)] * order
    for m in range(1, order + 1):
        power = mul(power, b)
        if a[m]:
            for i in range(order + 1):
                total[i] += a[m] * power[i]
    return tuple(total[n] * factorial(n) for n in range(1, order + 1))


def bell_value_oracle(n: int, k: int, f) -> Fraction:
    """B_{n,k}(f_1, ..., f_{n-k+1}) by direct subset-function summation."""
    if k == 0:
        return F(1 if n == 0 else 0)
    total = F(0)
    for r in partition_types(n, k):
        v = F(subset_fn(r))
        for j, x in enumerate(r, 1):
            if x:
                v *= f(j) ** x
        total += v
    return total


def lie_value_oracle(n: int, k: int, f) -> Fraction:
    """S_{n,k}(f_1, ...) / f_1^(2n-1) by direct signed summation."""
    total = F(0)
    for r in partition_types(2 * n - 1 - k, n - 1):
        v = F(stirling_fn(r))
        for j, x in enumerate(r, 1):
            if x:
                v *= f(j) ** x
        total += v
    return total / f(1) ** (2 * n - 1)


def random_egf(rng: random.Random, order: int) -> EgfCoeffs:
    coeffs = []
    for n in range(1, order + 1):
        num = rng.randint(-99, 99)
        if n == 1:
            while num == 0:
                num = rng.randint(-99, 99)
        coeffs.append(F(num, rng.randint(1, 20)))
    return EgfCoeffs(tuple(coeffs))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_egf_validation():
    with pytest.raises(ValueError):
        EgfCoeffs(())
    with pytest.raises(ValueError):
        egf(0, 1)
    f = egf(1, 2, 3)
    assert f.order == 3
    assert f.f(0) == 0 and f.f(2) == 2 and f.f(9) == 0
    assert f.truncate(5).coeffs == (F(1), F(2), F(3), F(0), F(0))


def test_exp_transform_rows_are_tuples_of_fractions():
    # row n holds exactly the n+1 coefficients of t^0..t^n, trailing
    # zeros included
    f = egf(F(1, 2), 0, 0, -3)
    for transform in (series.exp_transform, series.exp_transform_inverse):
        rows = transform(f, 6)
        assert len(rows) == 6
        for n, row in enumerate(rows, start=1):
            assert type(row) is tuple and len(row) == n + 1
            assert all(type(c) is Fraction for c in row)
    assert series.exp_transform(egf(1, 0), 2) == [(0, 1), (0, 0, 1)]


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_with_identity():
    f = egf(1, -2, 3, 7)
    ident = series.identity_egf(4)
    assert series.egf_compose(f, ident) == f
    assert series.egf_compose(ident, f) == f


def test_compose_exp_example():
    ones = egf(1, 1, 1)
    got = series.egf_compose(ones, ones)
    # third coefficient of (e^x - 1) o (e^x - 1): B(3,1)+B(3,2)+B(3,3) at ones
    assert got.f(3) == 1 + 3 + 1
    assert got.coeffs == compose_oracle(ones, ones, 3)


def test_compose_matches_oracle_random():
    rng = random.Random("compose-oracle")
    for _ in range(25):
        f = random_egf(rng, 8)
        g = random_egf(rng, 8)
        assert series.egf_compose(f, g).coeffs == compose_oracle(f, g, 8)


def test_compose_revert_gives_identity():
    rng = random.Random("compose-revert")
    for _ in range(20):
        f = random_egf(rng, 7)
        g = series.revert_msp(f)
        ident = series.identity_egf(7)
        assert series.egf_compose(f, g) == ident
        assert series.egf_compose(g, f) == ident


# ---------------------------------------------------------------------------
# reversion
# ---------------------------------------------------------------------------


def test_revert_rooted_trees():
    f = egf(*[(-1) ** (j - 1) * j for j in range(1, 13)])
    for path in (series.revert_msp, series.revert_comtet, series.revert_oracle):
        got = path(f)
        for n in range(1, 13):
            assert got.f(n) == n ** (n - 1)


def test_revert_identity_and_scaling():
    ident = series.identity_egf(5)
    for path in (series.revert_msp, series.revert_comtet, series.revert_oracle):
        assert path(ident) == ident
    doubled = egf(2, 0, 0, 0)
    got = series.revert_comtet(doubled)
    assert got.coeffs == (F(1, 2), F(0), F(0), F(0))


def test_revert_logarithm():
    ones = egf(*[1] * 12)
    for path in (series.revert_msp, series.revert_comtet, series.revert_oracle):
        got = path(ones)
        for n in range(1, 13):
            assert got.f(n) == (-1) ** (n - 1) * factorial(n - 1)


def test_revert_total_partitions():
    f = egf(1, -1, -1, -1)
    assert [series.revert_oracle(f).f(n) for n in range(1, 5)] == [1, 1, 4, 26]
    assert [series.revert_msp(f).f(n) for n in range(1, 5)] == [1, 1, 4, 26]


def test_revert_zero_f1_rejected():
    with pytest.raises(ValueError):
        egf(0, 1, 2)


def test_three_paths_agree_random():
    rng = random.Random("three-paths")
    for _ in range(40):
        order = rng.randint(1, 8)
        f = random_egf(rng, order)
        a = series.revert_msp(f)
        assert a == series.revert_comtet(f)
        assert a == series.revert_oracle(f)


def test_revert_involution():
    rng = random.Random("involution")
    for _ in range(20):
        f = random_egf(rng, 8)
        assert series.revert_msp(series.revert_msp(f)) == f


# ---------------------------------------------------------------------------
# total partitions and the exp transform
# ---------------------------------------------------------------------------


def test_total_partitions_recurrence():
    assert series.total_partitions_recurrence(4) == [1, 1, 4, 26]
    rows = series.total_partitions_triangle(8)
    for n in range(1, 9):
        assert rows[n][1] == 2 ** (n - 1)
        assert rows[n][n] == factorial(n)
        if n >= 2:
            assert rows[n][2] == 2 ** (n - 1) * (2**n - n - 1)
    # recurrence values match the reversion paths further out
    t = series.total_partitions_recurrence(10)
    got = series.revert_msp(series.total_partitions_egf(10))
    assert [got.f(n) for n in range(1, 11)] == t


@pytest.mark.parametrize("nmax", [True, False, "3", 3.0, 0])
def test_total_partitions_recurrence_rejects_non_int_sizes(nmax):
    with pytest.raises(ValueError, match="nmax must be an int >= 1"):
        series.total_partitions_recurrence(nmax)


def test_exp_transform_stirling_rows():
    ones = egf(*[1] * 6)
    rows = series.exp_transform(ones)
    assert rows[2] == (0, 1, 3, 1)
    from mspkit.stirling import bell_numbers, s2_table

    s2 = s2_table(6)
    for n, row in enumerate(rows, start=1):
        for k, c in enumerate(row):
            assert c == s2.value(n, k)
    bell = bell_numbers(6)
    for n, row in enumerate(rows, start=1):
        assert sum(row) == bell[n]


def test_exp_transform_inverse_rows():
    ones = egf(*[1] * 6)
    rows = series.exp_transform_inverse(ones)
    assert rows[2] == (0, 2, -3, 1)
    from mspkit.stirling import s1_table

    s1 = s1_table(6)
    for n, row in enumerate(rows, start=1):
        for k, c in enumerate(row):
            assert c == s1.value(n, k)
    # the same rows arise by transforming the reverted series
    assert series.exp_transform(series.revert_msp(ones)) == rows


def test_exp_transform_scaling_homogeneity():
    rng = random.Random("scaling")
    for _ in range(10):
        f = random_egf(rng, 6)
        a = F(rng.randint(1, 7), rng.randint(1, 5))
        scaled = EgfCoeffs(tuple(a * c for c in f))
        rows = series.exp_transform(f)
        scaled_rows = series.exp_transform(scaled)
        for row, scaled_row in zip(rows, scaled_rows):
            assert scaled_row == tuple(a**k * c for k, c in enumerate(row))


# ---------------------------------------------------------------------------
# the numeric layer against the term-by-term type-sum oracles
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
SHAPES = ("random", "interior-zeros", "negative-f1", "coprime-denominators", "integers")


def shaped_egf(rng: random.Random, order: int, shape: str) -> EgfCoeffs:
    """A random EGF of the given order whose coefficients have `shape`."""
    coeffs = []
    for n in range(1, order + 1):
        num = rng.randint(-99, 99) or 1
        if shape == "coprime-denominators":
            # pairwise coprime, so the lcm of the denominators is their product
            c = F(num if num % PRIMES[n - 1] else num + 1, PRIMES[n - 1])
        elif shape == "integers":
            c = F(num)
        else:
            c = F(num, rng.randint(1, 20))
        coeffs.append(c)
    if shape == "negative-f1":
        coeffs[0] = -abs(coeffs[0])
    if shape == "interior-zeros":
        for n in range(2, order):
            if n == order // 2 or rng.random() < 0.4:
                coeffs[n - 1] = F(0)
    return EgfCoeffs(tuple(coeffs))


def test_shaped_egf_shapes():
    rng = random.Random("shapes")
    f = shaped_egf(rng, 16, "coprime-denominators")
    assert [c.denominator for c in f] == list(PRIMES)
    assert all(c.denominator == 1 for c in shaped_egf(rng, 16, "integers"))
    assert shaped_egf(rng, 16, "negative-f1").f(1) < 0
    assert shaped_egf(rng, 16, "interior-zeros").f(8) == 0


@pytest.mark.parametrize("shape", SHAPES)
def test_compose_matches_type_sum_oracle(shape):
    rng = random.Random(f"compose-types-{shape}")
    for order in range(1, 17):
        f = shaped_egf(rng, rng.randint(1, order), shape)
        g = shaped_egf(rng, rng.randint(1, order), shape)
        want = tuple(
            sum((bell_value_oracle(n, k, g.f) * f.f(k) for k in range(1, n + 1)), F(0))
            for n in range(1, order + 1)
        )
        assert series.egf_compose(f, g, order).coeffs == want


@pytest.mark.parametrize("shape", SHAPES)
def test_exp_transform_matches_type_sum_oracle(shape):
    rng = random.Random(f"exp-types-{shape}")
    for order in range(1, 17):
        f = shaped_egf(rng, rng.randint(1, order), shape)
        rows = series.exp_transform(f, order)
        assert len(rows) == order
        for n, row in enumerate(rows, start=1):
            want = [bell_value_oracle(n, k, f.f) for k in range(n + 1)]
            assert row == tuple(want)


@pytest.mark.parametrize("shape", SHAPES)
def test_revert_msp_matches_type_sum_oracle(shape):
    rng = random.Random(f"revert-types-{shape}")
    for order in range(1, 17):
        f = shaped_egf(rng, order, shape)
        want = tuple(lie_value_oracle(n, 1, f.f) for n in range(1, order + 1))
        assert series.revert_msp(f).coeffs == want


@pytest.mark.parametrize("shape", SHAPES)
def test_exp_transform_inverse_matches_type_sum_oracle(shape):
    rng = random.Random(f"exp-inverse-types-{shape}")
    for order in range(1, 17):
        f = shaped_egf(rng, rng.randint(1, order), shape)
        rows = series.exp_transform_inverse(f, order)
        assert len(rows) == order
        for n, row in enumerate(rows, start=1):
            want = [F(0)] + [lie_value_oracle(n, k, f.f) for k in range(1, n + 1)]
            assert row == tuple(want)


# ---------------------------------------------------------------------------
# series with f_1 = 0
# ---------------------------------------------------------------------------


def test_plain_egf_allows_zero_f1():
    g = series.Egf((F(0), F(1)))
    assert g.truncate(3) == series.Egf((F(0), F(1), F(0)))
    # equality and hashing follow the coefficients, not the subtype
    assert series.Egf((F(1), F(2))) == egf(1, 2)
    assert hash(series.Egf((F(1), F(2)))) == hash(egf(1, 2))
    assert isinstance(egf(1, 2).truncate(3), EgfCoeffs)


@pytest.mark.parametrize("cls", [series.Egf, EgfCoeffs])
def test_egf_keeps_a_plain_fraction_and_converts_ints_and_subclasses(cls):
    class Third(Fraction):
        pass

    half = F(1, 2)
    f = cls((3, half, Third(1, 3)))
    assert f.coeffs[1] is half
    assert f.coeffs == (F(3), F(1, 2), F(1, 3))
    assert [type(c) for c in f.coeffs] == [Fraction] * 3
    assert f == series.Egf((F(3), F(1, 2), F(1, 3)))
    assert hash(f) == hash((F(3), F(1, 2), F(1, 3)))
    # truncate keeps the stored objects and pads with plain zeros
    longer = f.truncate(5)
    assert type(longer) is cls
    assert all(a is b for a, b in zip(longer.coeffs, f.coeffs))
    assert longer.coeffs[3:] == (0, 0) and {type(c) for c in longer.coeffs} == {Fraction}
    assert f.truncate(2).coeffs[1] is half


@pytest.mark.parametrize("cls", [series.Egf, EgfCoeffs])
def test_egf_values_are_immutable(cls):
    f = cls(coeffs=(1, F(1, 2)))
    assert repr(f) == f"{cls.__name__}(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    assert f == series.Egf((1, F(1, 2))) == EgfCoeffs((1, F(1, 2)))
    assert hash(f) == hash(series.Egf((1, F(1, 2)))) == hash(EgfCoeffs((1, F(1, 2))))
    for change in (lambda: setattr(f, "coeffs", (F(2),)), lambda: delattr(f, "coeffs"),
                   lambda: setattr(f, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert f.coeffs == (F(1), F(1, 2))
    for copy in (pickle.loads(pickle.dumps(f)), deepcopy(f)):
        assert type(copy) is cls and copy == f


def test_compose_zero_g1_matches_oracle():
    rng = random.Random("compose-zero-g1")
    for order in range(1, 13):
        f = random_egf(rng, order)
        g = series.Egf((F(0),) + random_egf(rng, order).coeffs[1:])
        assert series.egf_compose(f, g, order).coeffs == compose_oracle(f, g, order)


@pytest.mark.parametrize(
    "path",
    [series.revert_msp, series.revert_comtet, series.revert_oracle, series.exp_transform_inverse],
)
def test_inversion_paths_reject_zero_f1(path):
    with pytest.raises(ValueError, match="f_1 must be nonzero"):
        path(series.Egf((F(0), F(1), F(2))))


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------

ORDER_TAKERS = {
    "identity_egf": series.identity_egf,
    "total_partitions_egf": series.total_partitions_egf,
    "exp_transform": lambda order: series.exp_transform(egf(1, 2, 3), order),
    "exp_transform_inverse": lambda order: series.exp_transform_inverse(egf(1, 2, 3), order),
    "egf_compose": lambda order: series.egf_compose(egf(1, 2), egf(3, 4), order),
    "truncate": lambda order: egf(1, 2, 3).truncate(order),
}


@pytest.mark.parametrize("order", [0, -2, True, False, 2.0, "3"])
@pytest.mark.parametrize("name", sorted(ORDER_TAKERS))
def test_orders_must_be_ints_at_least_one(name, order):
    with pytest.raises(ValueError, match="order must be an int >= 1"):
        ORDER_TAKERS[name](order)


@pytest.mark.parametrize(
    "bad",
    [0.1, 1.0, True, False, None, 1j, "1/0", object(),
     # a coefficient is an int or a Fraction, so every string is rejected:
     # those outside the CLI's grammar -?[0-9]+(/[0-9]+)? ...
     "2/ 3", "1_0", " 1", "+1", "\u0661", "1e1", "1.5", "nan",
     # ... every Decimal, the specials and the finite ones ...
     Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"), Decimal("sNaN"),
     Decimal("1.5"),
     # ... and the strings inside the CLI's grammar
     "1/10", "-1/2", "007", "0/5", "-0"],
)
def test_egf_rejects_float_and_bool_coefficients(bad):
    for cls in (series.Egf, EgfCoeffs):
        with pytest.raises(ValueError, match="coefficients must be exact"):
            cls((F(1), bad))
    # ints and Fractions are accepted
    assert series.Egf((1, F(1, 10))).coeffs == (F(1), F(1, 10))


@pytest.mark.parametrize("bad", [3, None, "12", {1: 2}, iter((1, 2))])
def test_egf_rejects_coefficient_containers_that_are_not_sequences(bad):
    for cls in (series.Egf, EgfCoeffs):
        with pytest.raises(ValueError, match="coefficients must be a tuple or list"):
            cls(bad)
    assert series.Egf([1, 2]) == egf(1, 2)


@pytest.mark.parametrize("n", [1.5, 1.0, True, False, "1", None])
def test_egf_index_must_be_an_int(n):
    with pytest.raises(ValueError, match="index must be an int"):
        egf(1, 2).f(n)


SERIES_TAKERS = {
    "revert_msp": series.revert_msp,
    "revert_comtet": series.revert_comtet,
    "revert_oracle": series.revert_oracle,
    "egf_compose f": lambda f: series.egf_compose(f, egf(1, 2), 2),
    "egf_compose g": lambda g: series.egf_compose(egf(1, 2), g, 2),
    "exp_transform": series.exp_transform,
    "exp_transform order": lambda f: series.exp_transform(f, 2),
    "exp_transform_inverse": series.exp_transform_inverse,
}


@pytest.mark.parametrize("bad", [3, None, (1, 2), [F(1)]])
@pytest.mark.parametrize("name", sorted(SERIES_TAKERS))
def test_series_arguments_must_be_egfs(name, bad):
    with pytest.raises(ValueError, match="series must be an Egf"):
        SERIES_TAKERS[name](bad)


# ---------------------------------------------------------------------------
# the three reversion paths at the benchmark's orders
# ---------------------------------------------------------------------------


def sparse_egf(rng: random.Random, order: int) -> EgfCoeffs:
    """Random rational coefficients, denominators up to 20, about a third of
    f_2..f_N zero, and f_1 nonzero of either sign and rarely a unit."""
    coeffs = [F(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 20))]
    for _ in range(2, order + 1):
        num = 0 if rng.random() < 0.35 else rng.randint(-99, 99)
        coeffs.append(F(num, rng.randint(1, 20)))
    return EgfCoeffs(tuple(coeffs))


def test_sparse_egf_shapes():
    rng = random.Random("sparse-shapes")
    fs = [sparse_egf(rng, 16) for _ in range(20)]
    assert any(f.f(1) < 0 for f in fs) and any(abs(f.f(1)) != 1 for f in fs)
    assert all(any(c == 0 for c in f.coeffs[1:]) for f in fs)
    assert max(c.denominator for f in fs for c in f) > 10


def test_revert_oracle_matches_msp_at_orders_9_to_24():
    rng = random.Random("oracle-msp-9-24")
    for order in range(9, 25):
        f = sparse_egf(rng, order)
        assert series.revert_oracle(f) == series.revert_msp(f), order


def test_revert_comtet_matches_both_at_orders_9_to_14():
    rng = random.Random("comtet-9-14")
    for order in range(9, 15):
        f = sparse_egf(rng, order)
        want = series.revert_msp(f)
        assert series.revert_oracle(f) == want, order
        assert series.revert_comtet(f, msp.MspCache()) == want, order


def test_revert_comtet_matches_oracle_at_order_30():
    f = random_egf(random.Random("comtet-30"), 30)
    assert series.revert_comtet(f, msp.MspCache()) == series.revert_oracle(f)


def test_revert_comtet_sums_in_ints(count_fraction_ops):
    f = random_egf(random.Random("comtet-ints"), 14)
    cache = msp.MspCache()
    want = series.revert_oracle(f)
    assert series.revert_comtet(f, cache) == want  # fills the cache
    with count_fraction_ops() as counts:
        assert series.revert_comtet(f, cache) == want
    assert not counts


def fraction_power_table_oracle(f: EgfCoeffs) -> EgfCoeffs:
    """The power-table solve of f(g(x)) = x done in Fractions throughout:
    P[m][n] = [x^n] g(x)^m in ordinary normalization, filled one degree at a
    time, then sum_m a_m P[m][n] = 0 solved for b_n."""
    N = f.order
    a = [F(0)] + [f.f(n) / factorial(n) for n in range(1, N + 1)]
    b = [F(0), 1 / a[1]]
    P = [None, b]
    for n in range(2, N + 1):
        P.append([F(0)] * n)
        for m in range(2, n + 1):
            P[m].append(sum(b[i] * P[m - 1][n - i] for i in range(1, n - m + 2) if b[i]))
        b.append(-sum(a[m] * P[m][n] for m in range(2, n + 1) if a[m]) / a[1])
    return EgfCoeffs(tuple(b[n] * factorial(n) for n in range(1, N + 1)))


def test_revert_oracle_matches_fraction_power_table_at_orders_1_to_40():
    rng = random.Random("oracle-fractions-1-40")
    for order in range(1, 41):
        f = sparse_egf(rng, order)
        assert series.revert_oracle(f) == fraction_power_table_oracle(f), order
    named = {
        "ones": egf(*[1] * 40),
        "rooted trees": egf(*[(-1) ** (j - 1) * j for j in range(1, 41)]),
        "total partitions": series.total_partitions_egf(40),
    }
    for name, f in named.items():
        assert series.revert_oracle(f) == fraction_power_table_oracle(f), name


def test_reversion_paths_share_no_computation(forbid):
    rng = random.Random("independence")
    fs = [sparse_egf(rng, order) for order in (1, 2, 7, 12)]
    want = [series.revert_msp(f) for f in fs]
    with forbid("msp", "partition_types", "stirling_fn", "convolution_table", "_cleared",
                "_lie_values"):
        assert [series.revert_oracle(f) for f in fs] == want
        with pytest.raises(AssertionError, match="was"):
            series.revert_msp(fs[-1])
    with forbid("convolution_table", "_lie_values"):
        assert [series.revert_comtet(f, msp.MspCache()) for f in fs] == want
        with pytest.raises(AssertionError, match="_lie_values was called"):
            series.revert_msp(fs[-1])
    # the msp path reads neither Prop 5.5 nor any symbolic family or type list
    with forbid("msp", "convolution_table", "partition_types", "stirling_fn"):
        assert [series.revert_msp(f) for f in fs] == want


# ---------------------------------------------------------------------------
# above the range of the per-type oracle
# ---------------------------------------------------------------------------


def test_revert_msp_matches_oracle_at_orders_25_to_40():
    rng = random.Random("msp-oracle-25-40")
    for order in range(25, 41):
        f = sparse_egf(rng, order)
        assert series.revert_msp(f) == series.revert_oracle(f), order


def test_exp_transform_inverse_matches_reverted_transform_at_orders_17_to_24():
    rng = random.Random("exp-inverse-17-24")
    for order in range(17, 25):
        f = sparse_egf(rng, order)
        want = series.exp_transform(series.revert_oracle(f), order)
        assert series.exp_transform_inverse(f, order) == want, order
