"""Partition types and their coefficient functions.

An (n,k)-partition type is a multiplicity vector r = (r1, r2, ...), a
plain tuple of nonnegative ints, with

    sum_j r_j     = k   (number of blocks)
    sum_j j * r_j = n   (number of elements),

r_j counting the blocks of size j.  The same tuple is the exponent of the
monomial X1^r1 X2^r2 ... that the type weighs in B_{n,k} and S_{n,k}.
partition_types builds every vector trimmed; trailing zeros change no
weight.  format_type writes a type as "1,0,2" ("0" when empty).  Four
integer-valued weights on these vectors serve the per-type paths: msp
builds Bt from subset_fn, and verify, stirling.s2_via_cycle and the test
oracles read them (S, B and L carry their counts down msp._blocks
instead):

    order_fn     n! / (r1! r2! ...)                        linearly ordered blocks
    cycle_fn     n! / (r1! r2! ... 1^r1 2^r2 ...)          cyclically ordered blocks
    subset_fn    n! / (r1! r2! ... (1!)^r1 (2!)^r2 ...)    unordered blocks
    stirling_fn  the signed coefficient function of the first-kind
                 Stirling polynomials, defined on types in P(2n-1-k, n-1)

All four are exact integers.  They and format_type raise ValueError
(also under python -O) unless r is a tuple of nonnegative ints, bools
excluded; the weights also raise when a division leaves a remainder, as
nothing is rounded.
"""

from __future__ import annotations

from math import factorial, prod
from operator import mul

_INT = frozenset({int})


def format_type(r: tuple[int, ...]) -> str:
    """The multiplicities joined by commas, "1,0,2"; "0" for the empty type."""
    _check_type(r)
    return ",".join(map(str, r)) if r else "0"


def _check_type(r) -> None:
    """Raise ValueError unless r is a tuple of nonnegative ints (bool excluded)."""
    if type(r) is not tuple or not _INT.issuperset(map(type, r)) or (r and min(r) < 0):
        raise ValueError(f"a partition type is a tuple of nonnegative ints, got {r!r}")


def partition_types(n: int, k: int) -> list[tuple[int, ...]]:
    """All (n,k)-partition types in ascending lexicographic order.

    P(n,0) is empty for n > 0 and P(0,0) contains only the empty vector.
    The multiplicities r_1, r_2, ... are chosen in that order, each in
    ascending order, so the types come out sorted (Knuth, TAOCP 4A,
    7.2.1.4); every vector is built trimmed and nonnegative.
    """
    if type(n) is not int or type(k) is not int or n < 0 or k < 0:
        raise ValueError(f"n and k must be nonnegative ints, got ({n!r},{k!r})")
    if k == 0:
        return [()] if n == 0 else []
    if n < k:
        return []
    found: list[tuple[int, ...]] = []
    emit = found.append
    buf = [0] * (n - k + 1)  # buf[j-1] holds r_j on the current path
    zeros = (0,) * (n - k + 1)

    def descend(j: int, rest_n: int, rest_k: int):
        # rest_k >= 2 parts of sizes >= j remain, and buf[j-1:] is all zeros.
        # s, the smallest size in use, runs from the largest down, so the
        # types come out sorted and the depth is the number of sizes in use
        s = rest_n // rest_k
        if rest_n == s * rest_k:
            # every remaining part has size s
            buf[s - 1] = rest_k
            emit(tuple(buf[:s]))
            buf[s - 1] = 0
            if s == j:
                return
            s -= 1
        for s in range(s, j - 1, -1):
            # the rest_k - r_s >= 2 parts of size > s need
            # rest_n - s*r_s >= (s+1)*(rest_k - r_s), a lower bound on r_s
            low = (s + 1) * rest_k - rest_n
            for rs in range(low if low > 1 else 1, rest_k - 1):
                buf[s - 1] = rs
                descend(s + 1, rest_n - s * rs, rest_k - rs)
            # one part is left: it has size rest_n - s*(rest_k - 1) > s
            buf[s - 1] = rest_k - 1
            emit(tuple(buf[:s]) + zeros[: rest_n - s * rest_k - 1] + (1,))
            buf[s - 1] = 0

    if k == 1:
        return [zeros[: n - 1] + (1,)]
    descend(1, n, k)
    return found


def order_fn(r: tuple[int, ...]) -> int:
    """Count of partitions into linearly ordered blocks of type r (Lah weight)."""
    _check_type(r)
    return factorial(sum(map(mul, r, range(1, len(r) + 1)))) // prod(map(factorial, r))


def cycle_fn(r: tuple[int, ...]) -> int:
    """Count of partitions into cyclically ordered blocks of type r."""
    num = order_fn(r)  # checks r
    den = prod(map(pow, range(1, len(r) + 1), r))
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"cycle_fn not integral on {format_type(r)}")
    return q


def subset_fn(r: tuple[int, ...]) -> int:
    """Count of partitions into unordered blocks of type r."""
    num = order_fn(r)  # checks r
    # over the sizes in use only: j! for every j up to len(r) costs far more
    den = prod(factorial(j) ** x for j, x in enumerate(r, 1) if x)
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"subset_fn not integral on {format_type(r)}")
    return q


def stirling_fn(r: tuple[int, ...]) -> int:
    """Signed first-kind coefficient on a type r in P(2n-1-k, n-1).

    (-1)^(n-1-r1) * (2n-2-r1)! / ((k-1)! r2! r3! ... (2!)^r2 (3!)^r3 ...)

    where n = length + 1 and k = 2*length + 1 - weight, for the length
    sum r_j and the weight sum j*r_j of r; k must be >= 1.
    """
    _check_type(r)
    length = sum(r)
    k = 2 * length + 1 - sum(map(mul, r, range(1, len(r) + 1)))
    if k < 1:
        raise ValueError(f"{format_type(r)} is not a first-kind coefficient type (k={k})")
    r1 = r[0] if r else 0
    num = factorial(2 * length - r1)  # (2n-2-r1)! with n = length + 1
    den = factorial(k - 1)
    for j, x in enumerate(r[1:], 2):
        if x:
            den *= factorial(x) * factorial(j) ** x
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"stirling_fn not integral on {format_type(r)}")
    return q if (length - r1) % 2 == 0 else -q
