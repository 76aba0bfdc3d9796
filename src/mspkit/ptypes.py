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


@dataclass(frozen=True)
class PartitionType:
    """Multiplicity vector with trailing zeros trimmed."""

    r: tuple[int, ...]

    def __post_init__(self):
        t = self.r
        if any(x < 0 for x in t):
            raise ValueError(f"negative multiplicity in {t}")
        while t and t[-1] == 0:
            t = t[:-1]
        object.__setattr__(self, "r", t)

    @property
    def weight(self) -> int:
        """n = sum j*r_j."""
        return sum((j + 1) * x for j, x in enumerate(self.r))

    @property
    def length(self) -> int:
        """k = sum r_j."""
        return sum(self.r)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.r) if self.r else "0"


def partition_types(n: int, k: int) -> list[PartitionType]:
    """All (n,k)-partition types in ascending lexicographic order.

    P(n,0) is empty for n > 0 and P(0,0) contains only the empty vector.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k == 0:
        return [PartitionType(())] if n == 0 else []
    if n < k:
        return []
    L = n - k + 1  # largest possible part size
    found: list[tuple[int, ...]] = []

    def descend(j: int, rest_n: int, rest_k: int, acc: list[int]):
        # choose r_j for part sizes j, j-1, ..., 1
        if j == 1:
            # r_1 is forced: rest_k parts of size 1
            if rest_n == rest_k:
                found.append(tuple([rest_k] + acc))
            return
        for rj in range(min(rest_n // j, rest_k) + 1):
            rem_n = rest_n - j * rj
            rem_k = rest_k - rj
            # remaining parts have size < j, so rem_n <= (j-1)*rem_k must hold
            if rem_n < rem_k or rem_n > (j - 1) * rem_k:
                continue
            descend(j - 1, rem_n, rem_k, [rj] + acc)

    descend(L, n, k, [])
    found.sort()
    return [PartitionType(t) for t in found]


def order_fn(pt: PartitionType) -> int:
    """Count of partitions into linearly ordered blocks of type pt (Lah weight)."""
    return factorial(pt.weight) // prod(factorial(x) for x in pt.r)


def cycle_fn(pt: PartitionType) -> int:
    """Count of partitions into cyclically ordered blocks of type pt."""
    num = order_fn(pt)
    den = prod((j + 1) ** x for j, x in enumerate(pt.r))
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"cycle_fn not integral on {pt}")
    return q


def subset_fn(pt: PartitionType) -> int:
    """Count of partitions into unordered blocks of type pt."""
    num = order_fn(pt)
    den = prod(factorial(j + 1) ** x for j, x in enumerate(pt.r))
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
    """
    n, k = stirling_indices(pt)
    r1 = pt.r[0] if pt.r else 0
    num = factorial(2 * n - 2 - r1)
    den = factorial(k - 1)
    for j, x in enumerate(pt.r):
        if j == 0:
            continue
        den *= factorial(x) * factorial(j + 1) ** x
    q, rem = divmod(num, den)
    if rem:
        raise ValueError(f"stirling_fn not integral on {pt}")
    return q if (n - 1 - r1) % 2 == 0 else -q
