"""Partition types and their coefficient functions.

An (n,k)-partition type is a multiplicity vector r = (r1, r2, ...) of
nonnegative integers with

    sum_j r_j     = k   (number of blocks)
    sum_j j * r_j = n   (number of elements),

r_j counting the blocks of size j.  Four integer-valued weights on these
vectors drive everything else in the library:

    order_fn     n! / (r1! r2! ...)                        linearly ordered blocks
    cycle_fn     n! / (r1! r2! ... 1^r1 2^r2 ...)          cyclically ordered blocks
    subset_fn    n! / (r1! r2! ... (1!)^r1 (2!)^r2 ...)    unordered blocks
    stirling_fn  the signed coefficient function of the first-kind
                 Stirling polynomials, defined on types in P(2n-1-k, n-1)

All four are exact integers; a division that leaves a remainder raises
ValueError (also under python -O), it is never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from operator import mul


@dataclass(frozen=True)
class PartitionType:
    """Multiplicity vector with trailing zeros trimmed."""

    r: tuple[int, ...]

    def __post_init__(self):
        t = self.r
        if t and min(t) < 0:
            raise ValueError(f"negative multiplicity in {t}")
        if t and t[-1] == 0:
            while t and t[-1] == 0:
                t = t[:-1]
            object.__setattr__(self, "r", t)

    @property
    def weight(self) -> int:
        """n = sum j*r_j."""
        return sum(map(mul, self.r, range(1, len(self.r) + 1)))

    @property
    def length(self) -> int:
        """k = sum r_j."""
        return sum(self.r)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.r) if self.r else "0"


def partition_types(n: int, k: int) -> list[PartitionType]:
    """All (n,k)-partition types in ascending lexicographic order.

    P(n,0) is empty for n > 0 and P(0,0) contains only the empty vector.
    The multiplicities r_1, r_2, ... are chosen in that order, each in
    ascending order, so the types come out sorted (Knuth, TAOCP 4A,
    7.2.1.4); every vector is built trimmed and nonnegative.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k == 0:
        return [PartitionType(())] if n == 0 else []
    if n < k:
        return []
    found: list[PartitionType] = []
    emit = found.append
    buf = [0] * (n - k + 1)  # buf[j-1] holds r_j on the current path
    zeros = (0,) * (n - k + 1)

    def descend(j: int, rest_n: int, rest_k: int):
        # rest_k >= 2 parts of sizes >= j remain, so rest_n >= j * rest_k
        if rest_n == j * rest_k:
            # every remaining part has size j
            buf[j - 1] = rest_k
            emit(PartitionType(tuple(buf[:j])))
            return
        # the rest_k - r_j >= 2 parts of size > j need
        # rest_n - j*r_j >= (j+1)*(rest_k - r_j), a lower bound on r_j
        for rj in range(max(0, (j + 1) * rest_k - rest_n), rest_k - 1):
            buf[j - 1] = rj
            descend(j + 1, rest_n - j * rj, rest_k - rj)
        # one part is left: it has size rest_n - j*(rest_k - 1) > j
        buf[j - 1] = rest_k - 1
        emit(PartitionType(tuple(buf[:j]) + zeros[: rest_n - j * rest_k - 1] + (1,)))

    if k == 1:
        return [PartitionType(zeros[: n - 1] + (1,))]
    descend(1, n, k)
    return found


def order_fn(pt: PartitionType) -> int:
    """Count of partitions into linearly ordered blocks of type pt (Lah weight)."""
    return factorial(pt.weight) // prod(map(factorial, pt.r))


def cycle_fn(pt: PartitionType) -> int:
    """Count of partitions into cyclically ordered blocks of type pt."""
    num = order_fn(pt)
    den = prod(map(pow, range(1, len(pt.r) + 1), pt.r))
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"cycle_fn not integral on {pt}")
    return q


def subset_fn(pt: PartitionType) -> int:
    """Count of partitions into unordered blocks of type pt."""
    num = order_fn(pt)
    den = prod(map(pow, map(factorial, range(1, len(pt.r) + 1)), pt.r))
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"subset_fn not integral on {pt}")
    return q


def stirling_indices(pt: PartitionType) -> tuple[int, int]:
    """Recover (n, k) such that pt lies in P(2n-1-k, n-1).

    n = length + 1 and k = 2*length + 1 - weight; k must be >= 1.
    """
    n = pt.length + 1
    k = 2 * pt.length + 1 - pt.weight
    if k < 1:
        raise ValueError(f"{pt} is not a first-kind coefficient type (k={k})")
    return n, k


def stirling_fn(pt: PartitionType) -> int:
    """Signed first-kind coefficient on a type in P(2n-1-k, n-1).

    (-1)^(n-1-r1) * (2n-2-r1)! / ((k-1)! r2! r3! ... (2!)^r2 (3!)^r3 ...)

    with n and k as in `stirling_indices`, computed here inline.
    """
    r = pt.r
    length = pt.length
    k = 2 * length + 1 - pt.weight
    if k < 1:
        raise ValueError(f"{pt} is not a first-kind coefficient type (k={k})")
    r1 = r[0] if r else 0
    num = factorial(2 * length - r1)  # (2n-2-r1)! with n = length + 1
    den = factorial(k - 1)
    for j, x in enumerate(r[1:], 2):
        if x:
            den *= factorial(x) * factorial(j) ** x
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"stirling_fn not integral on {pt}")
    return q if (length - r1) % 2 == 0 else -q
