"""Integer specializations: Stirling, associated Stirling, Lah and Bell numbers.

Recurrence-built triangular tables are the canonical source; every closed
formula in this module is an independent computation path that must agree
with the tables.  All arithmetic is exact (Python ints, Fractions for the
intermediate ratios that are not termwise integral).

Every table comes from one of two builders, both zero outside 0 <= k <= n:
recurrence_table fills rows from a step over the earlier rows (s1, s2, c,
Lah, and the series module's total-partition triangle); convolution_table
runs the Prop 5.5 convolution over integer weights a_j, so its entries are
the Bell values B_{n,k}(a_1, a_2, ...) (the associated numbers, and the
series module's Bell triangle at cleared coefficients).  Both check their
input once per call: a step that is not callable, or weights that are not a
list or tuple of at least nmax + 1 ints (bools excluded), raise ValueError.
recurrence_table also checks each finished row once, so a step that cannot
be called as step(t, n, k), or returns anything but ints (bools excluded),
raises ValueError too.

The Schloemilch ladder shared by Thm 6.1, Thm 6.4 and eqs. 6.9-6.10 is
stated once, in schloemilch_ladder: each rung names the member (m, j) it
reads with its two coefficients, and the number formulas here and the
polynomial expansions in the msp module iterate it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .ptypes import cycle_fn, partition_types


class NumberTable(NamedTuple):
    """Triangular array indexed 0 <= k <= n <= nmax; zero outside 0 <= k <= n.

    A row past nmax is not in the table, so reading it raises ValueError
    rather than reading as zero; so do indices that are not ints (bools
    excluded).
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def nmax(self) -> int:
        return len(self.rows) - 1

    def value(self, n: int, k: int) -> int:
        if type(n) is not int or type(k) is not int:
            _check_triangle(n, k)  # raises "indices must be ints"
        if n > self.nmax:
            raise ValueError(f"row {n} is beyond the table's last row {self.nmax}")
        if 0 <= k <= n:
            return self.rows[n][k]
        return 0


def _check_int(value: int, name: str, low: int) -> int:
    """value itself, if it is an int >= low (bool excluded); the check of
    every size, order and depth argument."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
    return value


def recurrence_table(nmax: int, step) -> NumberTable:
    """Fill rows 0..nmax from row 0 = (1,), with entry (n, k) = step(t, n, k)
    for 1 <= k <= n and (n, 0) = 0; t(m, j) reads any earlier row and is 0
    outside 0 <= j <= m."""
    _check_int(nmax, "nmax", 0)
    if not callable(step):
        raise ValueError(f"step must be callable, got {step!r}")
    rows: list[tuple[int, ...]] = [(1,)]

    def t(m: int, j: int) -> int:
        return rows[m][j] if 0 <= j <= m else 0

    for n in range(1, nmax + 1):
        try:
            row = (0, *[step(t, n, k) for k in range(1, n + 1)])
        except TypeError as exc:
            raise ValueError(f"step must map (t, n, k) to an int: {exc}") from exc
        if any(type(x) is not int for x in row):
            raise ValueError(f"step must map (t, n, k) to an int, got row {n} = {row!r}")
        rows.append(row)
    return NumberTable(tuple(rows))


def convolution_table(nmax: int, a: list[int]) -> NumberTable:
    """Prop 5.5 on integer weights a[1..nmax] (a[0] unused):

    T(n,k) = sum_j C(n-1,j-1) a_j T(n-j,k-1),  T(0,0) = 1,

    so T(n,k) is the partial Bell value B_{n,k}(a_1, a_2, ...).
    """
    _check_int(nmax, "nmax", 0)
    if not isinstance(a, (list, tuple)) or len(a) <= nmax or any(type(x) is not int for x in a):
        raise ValueError(f"a must be a list or tuple of at least {nmax + 1} ints, got {a!r}")
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(1, nmax + 1):
        ca = [0] + [comb(n - 1, j - 1) * a[j] for j in range(1, n + 1)]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = sum(
                ca[j] * rows[n - j][k - 1] for j in range(1, n - k + 2) if ca[j]
            )
        rows.append(tuple(row))
    return NumberTable(tuple(rows))


def s1_table(nmax: int) -> NumberTable:
    """Signed Stirling numbers of the first kind:
    s1(n,k) = s1(n-1,k-1) - (n-1)*s1(n-1,k)."""
    return recurrence_table(nmax, lambda t, n, k: t(n - 1, k - 1) - (n - 1) * t(n - 1, k))


def s2_table(nmax: int) -> NumberTable:
    """Stirling numbers of the second kind: s2(n,k) = s2(n-1,k-1) + k*s2(n-1,k)."""
    return recurrence_table(nmax, lambda t, n, k: t(n - 1, k - 1) + k * t(n - 1, k))


def cycle_table(nmax: int) -> NumberTable:
    """Unsigned first-kind (cycle) numbers: c(n,k) = c(n-1,k-1) + (n-1)*c(n-1,k)."""
    return recurrence_table(nmax, lambda t, n, k: t(n - 1, k - 1) + (n - 1) * t(n - 1, k))


def assoc_s2_table(nmax: int) -> NumberTable:
    """Associated Stirling numbers of the second kind (no singleton blocks),
    the associated Bell values Bt_{n,k}(1, 1, ...): Prop 5.5 with a_1 = 0 and
    a_j = 1 for j >= 2."""
    _check_int(nmax, "nmax", 0)  # before the weight list is sized by it
    return convolution_table(nmax, [0, 0] + [1] * (nmax - 1))


def lah_tables(nmax: int) -> tuple[NumberTable, NumberTable]:
    """Unsigned Lah numbers l+(n,k) = (n!/k!) C(n-1,k-1), from
    l+(n,k) = l+(n-1,k-1) + (n-1+k)*l+(n-1,k), and the signed ones
    l(n,k) = (-1)^n l+(n,k)."""

    def step(t, n, k):
        return t(n - 1, k - 1) + (n - 1 + k) * t(n - 1, k)

    return (
        recurrence_table(nmax, step),
        recurrence_table(nmax, lambda t, n, k: -step(t, n, k)),
    )


def bell_numbers(nmax: int) -> list[int]:
    """Bell numbers B(0..nmax) as row sums of the second-kind table."""
    t = s2_table(nmax)
    return [sum(t.value(n, k) for k in range(n + 1)) for n in range(nmax + 1)]


# ---------------------------------------------------------------------------
# closed formulas (verification paths)
# ---------------------------------------------------------------------------


def _check_triangle(n: int, k: int, k_min: int = 1) -> None:
    """Raise ValueError unless n and k are ints, not bools, with k_min <= k <= n."""
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"indices must be ints, got ({n!r},{k!r})")
    if not k_min <= k <= n:
        raise ValueError(f"indices out of range: need {k_min} <= k <= n, got ({n},{k})")


def _check_table(table: NumberTable, name: str) -> NumberTable:
    """table itself, if it is a NumberTable (a bare tuple of rows is not)."""
    if not isinstance(table, NumberTable):
        raise ValueError(f"{name} must be a NumberTable, got {type(table).__name__}")
    return table


def s2_bertrand(n: int, k: int) -> int:
    """s2(n,k) = (1/k!) sum_j (-1)^(k-j) C(k,j) j^n."""
    _check_triangle(n, k)
    total = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(1, k + 1))
    q, rem = divmod(total, factorial(k))
    if rem:
        raise ValueError(f"Bertrand sum not divisible by {k}! at ({n},{k})")
    return q


def schloemilch_ladder(n: int, k: int) -> list[tuple[int, int, int, int, int]]:
    """The rungs (r, m, j, lead, tail), r = k-1..n-1, that expand the (n, k)
    first-kind member in the second-kind members (m, j) = (2n-1-k-r, n-1-r):
    lead = (-1)^(n-1-r) C(2n-2-r, k-1) weighs X1^r Bt_{m,j} in Thm 6.1,
    lead * tail with tail = C(2n-k, r+1-k) weighs X1^r B_{m,j} in Thm 6.4,
    and at X = (1, 1, ...) they give eqs. 6.10 and 6.9.  Neither binomial is
    zero on the ladder."""
    _check_triangle(n, k)
    return [
        (r, 2 * n - 1 - k - r, n - 1 - r,
         (-1 if (n - 1 - r) % 2 else 1) * comb(2 * n - 2 - r, k - 1),
         comb(2 * n - k, r + 1 - k))
        for r in range(k - 1, n)
    ]


def s1_schloemilch_terms(
    n: int, k: int, s2: NumberTable | None = None
) -> list[tuple[int, int]]:
    """Nonzero terms of Schloemilch's formula for s1(n,k), each as a pair
    (signed C(2n-2-r,k-1), C(2n-k,r+1-k) * s2(2n-1-k-r, n-1-r))."""
    _check_triangle(n, k)
    s2 = s2_table(2 * n) if s2 is None else _check_table(s2, "s2")
    terms = [(lead, tail * s2.value(m, j)) for _, m, j, lead, tail in schloemilch_ladder(n, k)]
    return [term for term in terms if term[1]]


def s1_schloemilch(n: int, k: int, s2: NumberTable | None = None) -> int:
    """Schloemilch's formula: s1(n,k) as an alternating double-binomial sum
    over second-kind Stirling numbers."""
    return sum(lead * rest for lead, rest in s1_schloemilch_terms(n, k, s2))


def s1_via_assoc_terms(
    n: int, k: int, assoc: NumberTable | None = None
) -> list[tuple[int, int]]:
    """Nonzero terms of the associated-number variant, each as a pair
    (signed C(2n-2-r,k-1), assoc(2n-1-k-r, n-1-r))."""
    _check_triangle(n, k)
    assoc = assoc_s2_table(2 * n) if assoc is None else _check_table(assoc, "assoc")
    terms = [(lead, assoc.value(m, j)) for _, m, j, lead, _ in schloemilch_ladder(n, k)]
    return [term for term in terms if term[1]]


def s1_via_assoc(n: int, k: int, assoc: NumberTable | None = None) -> int:
    """s1(n,k) from associated Stirling numbers; runs with smaller terms
    than the Schloemilch sum."""
    return sum(lead * rest for lead, rest in s1_via_assoc_terms(n, k, assoc))


def s2_via_cycle(n: int, k: int) -> int:
    """s2(n,k) as a signed cycle-function sum over P(2n-1-k, n-1).

    The binomial ratio is not termwise integral, so the partial sums are
    exact rationals; the total must come out an integer.
    """
    _check_triangle(n, k)
    total = Fraction(0)
    top = comb(2 * n - 2, k - 1)
    for r in partition_types(2 * n - 1 - k, n - 1):
        r1 = r[0] if r else 0
        sign = 1 if (r1 - (k - 1)) % 2 == 0 else -1
        total += Fraction(sign * top, comb(2 * n - 2, r1)) * cycle_fn(r)
    if total.denominator != 1:
        raise ValueError(f"cycle-sum not integral at ({n},{k})")
    return int(total)


# ---------------------------------------------------------------------------
# identity checks over whole tables
# ---------------------------------------------------------------------------


def _inverse_pair(a: NumberTable, b: NumberTable, nmax: int) -> bool:
    """sum_j a(n,j) b(j,k) = delta(n,k) for all 1 <= k <= n <= nmax."""
    return all(
        sum(a.value(n, j) * b.value(j, k) for j in range(k, n + 1)) == int(n == k)
        for n in range(1, nmax + 1)
        for k in range(1, n + 1)
    )


def stirling_orthogonality_check(nmax: int) -> bool:
    """sum_j s1(n,j) s2(j,k) = delta(n,k) for all 1 <= k <= n <= nmax."""
    return _inverse_pair(s1_table(nmax), s2_table(nmax), nmax)


def lah_self_inverse_check(nmax: int) -> bool:
    """The signed Lah numbers are self-inverse under triangular product."""
    _, signed = lah_tables(nmax)
    return _inverse_pair(signed, signed, nmax)


def example58_identities(nmax: int) -> bool:
    """Summation identities lifted from the binomial convolution recurrences:

    c(n+1,k+1)  = sum_j (n!/j!) c(j,k)
    s2(n+1,k+1) = sum_j C(n,j) s2(j,k)
    """
    ctab, s2 = cycle_table(nmax + 1), s2_table(nmax + 1)
    for n in range(0, nmax + 1):
        for k in range(0, n + 1):
            lhs_c = ctab.value(n + 1, k + 1)
            rhs_c = sum(
                factorial(n) // factorial(j) * ctab.value(j, k)
                for j in range(k, n + 1)
            )
            lhs_s = s2.value(n + 1, k + 1)
            rhs_s = sum(comb(n, j) * s2.value(j, k) for j in range(k, n + 1))
            if lhs_c != rhs_c or lhs_s != rhs_s:
                return False
    return True
