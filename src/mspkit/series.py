"""Truncated exponential generating functions and exact Lagrange inversion.

A series f = sum f_n x^n / n! with f_0 = 0 is carried by its coefficient
list f_1..f_N of exact rationals (Egf); composition and exp(t*f) take any
such series.  Row n of exp(t*f) is the tuple of its n+1 t-coefficients,
the Fractions at t^0..t^n.  Reversion (the compositional inverse) needs
f_1 != 0, which the subtype EgfCoeffs enforces and every inversion path
checks; it is computed by three structurally independent paths:

    revert_msp     the paper's signed coefficient sum over the partition
                   types P(2n-2, n-1), regrouped by part size
    revert_comtet  alternating sums of associated Bell polynomials evaluated
                   at (0, f_2, ..., f_n) with exact negative powers of f_1
    revert_oracle  term-by-term solution of f(g(x)) = x by plain power-series
                   substitution in ordinary normalization, reading the
                   powers of g from a table filled one degree at a time

The three must agree exactly; the verify module and the test suite compare
them on random rational inputs.

Numeric values of the polynomial families run on Python ints: the inputs
are scaled to a_j = D*f_j, with D the lcm of their denominators, and each
result is divided back once, exactly.

    egf_compose, exp_transform        B_{n,k}(g) read from one triangle built
                                      by the Prop 5.5 convolution
                                      B_{n,k} = sum_j C(n-1,j-1) g_j B_{n-j,k-1}
                                      (stirling.convolution_table)
    revert_msp, exp_transform_inverse S_{n,k}(f)/f_1^(2n-1) as the explicit
                                      type sum over P(2n-1-k, n-1), regrouped
                                      by part size into a memoized integer
                                      recursion (_lie_values); it reads
                                      neither the Prop 5.5 triangle nor a
                                      symbolic family, so it shares no
                                      computation with the other two paths
    revert_comtet                     the symbolic Bt_{n+k-1,k} (msp.assoc_bell)
                                      evaluated at the cleared integers
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable

from . import msp
from .stirling import convolution_table, recurrence_table


@dataclass(frozen=True, eq=False)
class Egf:
    """Coefficients f_1..f_N of a truncated EGF with f_0 = 0.

    Series compare equal when their coefficient lists do, whatever their
    subtype."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if any(isinstance(c, (float, bool)) for c in self.coeffs):
            raise ValueError(f"coefficients must be exact, got {self.coeffs!r}")
        try:
            coeffs = tuple(Fraction(c) for c in self.coeffs)
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"coefficients must be exact rationals, got {self.coeffs!r}") from exc
        object.__setattr__(self, "coeffs", coeffs)
        if not self.coeffs:
            raise ValueError("at least one coefficient is required")

    def __eq__(self, other) -> bool:
        return isinstance(other, Egf) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def f(self, n: int) -> Fraction:
        """f_n, with f_0 = 0 and zero beyond the truncation order."""
        if n < 1 or n > len(self.coeffs):
            return Fraction(0)
        return self.coeffs[n - 1]

    def truncate(self, order: int) -> Egf:
        _check_order(order)
        padded = self.coeffs[:order] + (Fraction(0),) * (order - len(self.coeffs))
        return type(self)(padded)

    def __iter__(self):
        return iter(self.coeffs)


def _check_order(order: int) -> int:
    """order itself, if it is an int >= 1 (bool excluded)."""
    if type(order) is not int or order < 1:
        raise ValueError(f"order must be an int >= 1, got {order!r}")
    return order


def _nonzero_f1(f: Egf) -> Fraction:
    """f_1, which every inverse of f divides by."""
    if f.f(1) == 0:
        raise ValueError("f_1 must be nonzero")
    return f.f(1)


@dataclass(frozen=True, eq=False)
class EgfCoeffs(Egf):
    """An invertible truncated EGF: f_0 = 0 and f_1 != 0."""

    def __post_init__(self):
        super().__post_init__()
        _nonzero_f1(self)


def identity_egf(order: int = 1) -> EgfCoeffs:
    """The identity series x (coefficients 1, 0, 0, ...)."""
    return EgfCoeffs((Fraction(1),) + (Fraction(0),) * (_check_order(order) - 1))


# ---------------------------------------------------------------------------
# numeric evaluation of the polynomial families at a coefficient sequence
# ---------------------------------------------------------------------------


def _cleared(f: Egf, order: int) -> tuple[int, list[int]]:
    """(D, a) with D the lcm of the denominators of f_1..f_order and the
    integers a_j = D*f_j at a[j] (a[0] = 0)."""
    cs = [f.f(j) for j in range(1, order + 1)]
    D = lcm(*(c.denominator for c in cs))
    return D, [0] + [c.numerator * (D // c.denominator) for c in cs]


def _bell_triangle(g: Egf, order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, T) with B_{n,k}(g_1, ..., g_{n-k+1}) = T[n][k] / D^k, 0 <= k <= n <= order.

    Prop 5.5, B_{n,k} = sum_j C(n-1,j-1) g_j B_{n-j,k-1}, run on the cleared
    integers a_j = D*g_j; B_{n,k} is homogeneous of degree k.
    """
    D, a = _cleared(g, order)
    return D, convolution_table(order, a).rows


def _lie_values(D: int, a: list[int]) -> Callable[[int, int], Fraction]:
    """value(n, k) = S_{n,k}(f_1, ...) / f_1^(2n-1) for 1 <= k <= n < len(a),
    on the cleared integers a_j = D*f_j.

    The explicit type sum over P(2n-1-k, n-1), regrouped by distributivity
    over the part sizes.  With r_1 parts of size 1, the other l = n-1-r_1
    parts hold m = 2n-1-k-r_1 elements and stirling_fn(r) factors as
    (-1)^l C(m+k-1, k-1) m! / prod_{j>=2} r_j! (j!)^r_j, so the type sum is

        sum_{r_1} (-1)^l C(m+k-1, k-1) a_1^r_1 T(2, m, l),

    where T(j, m, l) sums prod_i a_i^r_i m! / prod_i r_i! (i!)^r_i over the
    ways to split m elements into l parts of size >= j.  Choosing the r
    parts of size j first gives T(j, m, l) = sum_r a_j^r c_r T(j+1, m-jr, l-r),
    where c_r = prod_{i<=r} C(m-(i-1)j, j) / i counts those r blocks and is
    an integer at every step.  T depends on neither n nor k, so one memo
    serves every value taken from the returned function.  S_{n,k} is
    homogeneous of degree n-1, so the value is the type sum * D^n / a_1^(2n-1).
    """
    memo: dict[tuple[int, int, int], int] = {}

    def completions(j: int, m: int, l: int) -> int:
        if l == 0:
            return 1 if m == 0 else 0
        if l == 1:
            return a[m] if m >= j else 0  # one part, of size m
        if m < j * l:
            return 0
        key = (j, m, l)
        total = memo.get(key)
        if total is not None:
            return total
        total = completions(j + 1, m, l)
        aj = a[j]
        if aj:
            c = power = 1
            rest = m
            for r in range(1, l + 1):
                c = c * comb(rest, j) // r
                power *= aj
                rest -= j
                t = completions(j + 1, rest, l - r)
                if t:
                    total += c * power * t
        memo[key] = total
        return total

    def value(n: int, k: int) -> Fraction:
        total = 0
        for r1 in range(k - 1, n):
            l = n - 1 - r1
            m = 2 * n - 1 - k - r1
            t = completions(2, m, l)
            if t:
                t *= comb(m + k - 1, k - 1) * a[1] ** r1
                total += -t if l & 1 else t
        return Fraction(total * D**n, a[1] ** (2 * n - 1))

    return value


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------


def egf_compose(f: Egf, g: Egf, order: int | None = None) -> Egf:
    """Composition f(g(x)) to the given order via h_n = sum_k B_{n,k}(g) f_k."""
    order = _check_order(min(f.order, g.order) if order is None else order)
    D, T = _bell_triangle(g, order)
    E, b = _cleared(f, order)
    # h_n = sum_k (T[n][k] / D^k) (b_k / E), over the common denominator E*D^n
    return Egf(
        tuple(
            Fraction(
                sum(T[n][k] * b[k] * D ** (n - k) for k in range(1, n + 1) if b[k]),
                E * D**n,
            )
            for n in range(1, order + 1)
        )
    )


# ---------------------------------------------------------------------------
# the three reversion paths
# ---------------------------------------------------------------------------


def revert_msp(f: Egf) -> EgfCoeffs:
    """Inverse coefficients from the Laurent first-kind family at k = 1."""
    _nonzero_f1(f)
    value = _lie_values(*_cleared(f, f.order))
    return EgfCoeffs(tuple(value(n, 1) for n in range(1, f.order + 1)))


def revert_comtet(f: Egf, cache: msp.MspCache | None = None) -> EgfCoeffs:
    """Inverse coefficients by the alternating associated-Bell expansion

    fbar_n = sum_{k=1}^{n-1} (-1)^k f_1^(-n-k) Bt_{n+k-1,k}(0, f_2, ..., f_n),
    with fbar_1 = 1/f_1.  The polynomials are generated symbolically and
    evaluated at the cleared integers a_j = D*f_j; Bt_{n+k-1,k} is
    homogeneous of degree k, so the value is
    D^n sum_k (-1)^k Bt_{n+k-1,k}(0, a_2, ..., a_n) a_1^(n-1-k) / a_1^(2n-1).
    """
    f1 = _nonzero_f1(f)
    D, a = _cleared(f, f.order)
    out = [1 / f1]
    for n in range(2, f.order + 1):
        point = [0] + a[2 : n + 1]
        total = 0
        for k in range(1, n):
            value = msp.assoc_bell(n + k - 1, k, cache).eval_rat(point)
            if value:
                total += (-1) ** k * value * a[1] ** (n - 1 - k)
        out.append(Fraction(total * D**n, a[1] ** (2 * n - 1)))
    return EgfCoeffs(tuple(out))


def revert_oracle(f: Egf) -> EgfCoeffs:
    """Inverse coefficients by solving f(g(x)) = x degree by degree.

    Works in ordinary normalization a_n = f_n/n! with the power table
    P[m][n] = [x^n] g(x)^m (Knuth, TAOCP vol. 2, sec. 4.7).  For m >= 2,
    P[m][n] = sum_{i=1}^{n-m+1} b_i P[m-1][n-i] needs only b_1..b_{n-1}, so
    each degree fills one column, then solves sum_m a_m P[m][n] = 0 for b_n.
    """
    _nonzero_f1(f)
    N = f.order
    a = [Fraction(0)] + [f.f(n) / factorial(n) for n in range(1, N + 1)]
    b = [Fraction(0), 1 / a[1]]
    P = [None, b]  # P[m][j] = [x^j] g(x)^m, zero below j = m
    for n in range(2, N + 1):
        P.append([Fraction(0)] * n)
        for m in range(2, n + 1):
            P[m].append(sum(b[i] * P[m - 1][n - i] for i in range(1, n - m + 2) if b[i]))
        b.append(-sum(a[m] * P[m][n] for m in range(2, n + 1) if a[m]) / a[1])
    return EgfCoeffs(tuple(b[n] * factorial(n) for n in range(1, N + 1)))


# ---------------------------------------------------------------------------
# applications
# ---------------------------------------------------------------------------


def total_partitions_triangle(nmax: int) -> tuple[tuple[int, ...], ...]:
    """The triangle b_{n,k} = (2n-k) b_{n-1,k-1} + 2k b_{n-1,k}, rows 0..nmax."""
    return recurrence_table(
        nmax, lambda t, n, k: (2 * n - k) * t(n - 1, k - 1) + 2 * k * t(n - 1, k)
    ).rows


def total_partitions_recurrence(nmax: int) -> list[int]:
    """t(1..nmax), the total-partition numbers, as row sums of the triangle."""
    if type(nmax) is not int or nmax < 1:
        raise ValueError(f"nmax must be an int >= 1, got {nmax!r}")
    rows = total_partitions_triangle(nmax - 1)
    return [sum(rows[n - 1]) for n in range(1, nmax + 1)]


def total_partitions_egf(order: int) -> EgfCoeffs:
    """Coefficients of 1 + 2x - e^x (f_1 = 1, f_j = -1 for j >= 2)."""
    return EgfCoeffs((Fraction(1),) + (Fraction(-1),) * (_check_order(order) - 1))


def exp_transform(f: Egf, order: int | None = None) -> list[tuple[Fraction, ...]]:
    """Rows n = 1..order of the expansion of exp(t*f); row n holds the
    coefficients of t^0..t^n, the t^k one being B_{n,k}(f_1, ..., f_{n-k+1})."""
    order = _check_order(f.order if order is None else order)
    D, T = _bell_triangle(f, order)
    return [
        tuple(Fraction(T[n][k], D**k) for k in range(n + 1))
        for n in range(1, order + 1)
    ]


def exp_transform_inverse(f: Egf, order: int | None = None) -> list[tuple[Fraction, ...]]:
    """Rows n = 1..order of the expansion of exp(t*fbar), each holding the
    coefficients of t^0..t^n, computed directly from f through the Laurent
    first-kind values, without reverting."""
    _nonzero_f1(f)
    order = _check_order(f.order if order is None else order)
    value = _lie_values(*_cleared(f, order))
    return [
        (Fraction(0),) + tuple(value(n, k) for k in range(1, n + 1))
        for n in range(1, order + 1)
    ]
