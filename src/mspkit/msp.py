"""Generators for the multivariate Stirling polynomial families.

Every explicit family is one weighted sum over partition types, built and
cached by the single core `family(kind, n, k, cache)`:

    S    first kind: stirling_fn over P(2n-1-k, n-1)
    B    second kind (partial exponential Bell): subset_fn over P(n, k)
    Bt   associated Bell: subset_fn over the types of P(n, k) with r1 = 0
    L    Lah: order_fn over P(n, k)
    A    the Laurent family S_{n,k} / X1^(2n-1), derived from S

`family` extends each kind by zero: 1 at (0,0) and 0 elsewhere outside
1 <= k <= n (a LaurentX1 for A, an MPoly otherwise), uncached.  Members
inside the triangle are memoised under (kind, n, k) in an append-only
MspCache; a cache of None means the process-wide _DEFAULT_CACHE.

The public generators check that n and k are ints in range (k >= 0 for
B and Bt, where B_{0,0} = 1 and B_{n,0} = 0; k >= 1 otherwise), with the
one range check of the stirling module, and call `family`.
`generate` dispatches through the registry of public generators that KINDS
lists; its sixth kind, Bn, is the complete Bell polynomial, summed from the
cached B members and not cached itself.

Both polynomial kinds also have an independent recursive path (differential
recurrences), memoised under the cache kinds B_rec and S_rec; explicit and
recursive results must agree, which the verify module checks structurally.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .poly import LaurentX1, MPoly
from .ptypes import order_fn, partition_types, stirling_fn, subset_fn
from .stirling import _check_triangle, schloemilch_ladder

CacheValue = MPoly | LaurentX1


class MspCache:
    """Append-only memo for generated polynomials, keyed (kind, n, k)."""

    def __init__(self):
        self._store: dict[tuple[str, int, int], CacheValue] = {}

    def get(self, kind: str, n: int, k: int) -> CacheValue | None:
        return self._store.get((kind, n, k))

    def put(self, kind: str, n: int, k: int, value: CacheValue) -> CacheValue:
        return self._store.setdefault((kind, n, k), value)

    def __len__(self) -> int:
        return len(self._store)


_DEFAULT_CACHE = MspCache()


def family(kind: str, n: int, k: int, cache: MspCache | None = None) -> CacheValue:
    """Member (n, k) of the explicit family `kind` (S, B, Bt, L or A),
    extended by zero outside 1 <= k <= n with the (0,0) member equal to 1."""
    if not 1 <= k <= n:
        if kind not in ("S", "B", "Bt", "L", "A"):
            raise _unknown_family(kind)
        value = MPoly.const(1) if n == k == 0 else MPoly.zero()
        return LaurentX1.from_poly(value) if kind == "A" else value
    c = _DEFAULT_CACHE if cache is None else cache
    hit = c.get(kind, n, k)
    if hit is not None:
        return hit
    if kind == "A":
        return c.put(kind, n, k, LaurentX1(family("S", n, k, c), 2 * n - 1))
    if kind == "S":
        types, weight = partition_types(2 * n - 1 - k, n - 1), stirling_fn
    elif kind in ("B", "Bt", "L"):
        types, weight = partition_types(n, k), order_fn if kind == "L" else subset_fn
        if kind == "Bt":
            types = [r for r in types if not (r and r[0])]
    else:
        raise _unknown_family(kind)
    return c.put(kind, n, k, MPoly({r: weight(r) for r in types}))


def _unknown_family(kind: str) -> ValueError:
    return ValueError(f"unknown family kind {kind!r} (expected S, B, Bt, L or A)")


def _recursive(kind: str, n: int, k: int, cache: MspCache | None, seed: MPoly, step):
    """Fill the memo triangle `kind` through row n and return member (n, k).

    Member (1,1) is `seed`; member (m, kk) of a later row is
    step(m, P_{m-1,kk}, P_{m-1,kk-1}, sum_j X_{j+1} * dP_{m-1,kk}/dX_j),
    reading members outside the triangle as zero.
    """
    c = _DEFAULT_CACHE if cache is None else cache
    zero = MPoly.zero()
    for m in range(1, n + 1):
        for kk in range(1, m + 1):
            if c.get(kind, m, kk) is not None:
                continue
            if m == 1:
                c.put(kind, 1, 1, seed)
                continue
            # (m-1, m) and (m-1, 0) lie outside the triangle: never stored
            prev = c.get(kind, m - 1, kk) if kk < m else zero
            low = c.get(kind, m - 1, kk - 1) if kk > 1 else zero
            deriv = MPoly.sum_products((MPoly.var(j + 1), prev.partial_derivative(j), 1)
                                       for j in range(1, prev.width() + 1))
            c.put(kind, m, kk, step(m, prev, low, deriv))
    return c.get(kind, n, k)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# second kind
# ---------------------------------------------------------------------------


def bell_explicit(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """B_{n,k} as the subset-function sum over all (n,k)-partition types."""
    _check_triangle(n, k, 0)
    return family("B", n, k, cache)


def bell_recursive(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """B_{n,k} via the derivative recurrence

    B_{n+1,k} = X1*B_{n,k-1} + sum_j X_{j+1} * dB_{n,k}/dX_j,  B_{1,1} = X1.
    """
    _check_triangle(n, k, 0)
    if k == 0:
        return MPoly.const(1) if n == 0 else MPoly.zero()
    x1 = MPoly.var(1)
    return _recursive("B_rec", n, k, cache, x1, lambda m, prev, low, d: x1 * low + d)


def complete_bell(n: int, cache: MspCache | None = None) -> MPoly:
    """Complete Bell polynomial, the sum of B_{n,k} over k = 1..n."""
    if type(n) is not int or n < 1:
        raise ValueError(f"complete Bell polynomials need an int n >= 1, got {n!r}")
    one = MPoly.const(1)
    return MPoly.sum_products((family("B", n, k, cache), one, 1) for k in range(1, n + 1))


def assoc_bell(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """Associated Bell polynomial: B_{n,k} restricted to types with r1 = 0."""
    _check_triangle(n, k, 0)
    return family("Bt", n, k, cache)


def lah_poly(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """Lah polynomial: order-function sum over all (n,k)-partition types."""
    _check_triangle(n, k)
    return family("L", n, k, cache)


# ---------------------------------------------------------------------------
# first kind
# ---------------------------------------------------------------------------


def stirling_first_explicit(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """S_{n,k} as the signed coefficient sum over P(2n-1-k, n-1)."""
    _check_triangle(n, k)
    return family("S", n, k, cache)


def stirling_first_recursive(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """S_{n,k} via the derivative recurrence

    S_{n+1,k} = -(2n-1)*X2*S_{n,k} + X1*(S_{n,k-1} + sum_j X_{j+1}*dS_{n,k}/dX_j),
    seeded by S_{1,1} = 1.
    """
    _check_triangle(n, k)
    x1, x2 = MPoly.var(1), MPoly.var(2)

    def step(m, prev, low, deriv):
        return x2 * prev * (-(2 * (m - 1) - 1)) + x1 * (low + deriv)

    return _recursive("S_rec", n, k, cache, MPoly.const(1), step)


def stirling_first_from_assoc(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """S_{n,k} via the alternating expansion in associated Bell polynomials:

    sum_{r=k-1}^{n-1} (-1)^(n-1-r) C(2n-2-r, k-1) X1^r Bt_{2n-1-k-r, n-1-r}.
    """
    _check_triangle(n, k)
    return MPoly.sum_products(
        (family("Bt", 2 * n - 1 - k - r, n - 1 - r, cache), MPoly.monomial(1, (r,)), lead)
        for r, lead, _ in schloemilch_ladder(n, k)
    )


def lie_first(n: int, k: int, cache: MspCache | None = None) -> LaurentX1:
    """The Laurent object S_{n,k} / X1^(2n-1)."""
    _check_triangle(n, k)
    return family("A", n, k, cache)


# ---------------------------------------------------------------------------
# structural transforms between the families
# ---------------------------------------------------------------------------


def first_from_second_schloemilch(
    n: int, k: int, cache: MspCache | None = None
) -> LaurentX1:
    """Schloemilch-type expansion of S_{n,k}/X1^(2n-1) in Bell polynomials:

    sum_r (-1)^(n-1-r) C(2n-2-r,k-1) C(2n-k,r+1-k) X1^(r-2n+1) B_{2n-1-k-r,n-1-r}.
    """
    _check_triangle(n, k)
    total = MPoly.sum_products(
        (family("B", 2 * n - 1 - k - r, n - 1 - r, cache), MPoly.monomial(1, (r,)), lead * tail)
        for r, lead, tail in schloemilch_ladder(n, k)
    )
    return LaurentX1(total, 2 * n - 1)


def second_from_first(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """The reverse Schloemilch-type expansion, rebuilding B_{n,k} from the
    Laurent first-kind family; the X1 denominators must cancel exactly."""
    _check_triangle(n, k)
    # part r is lead * tail * X1^(2n-1-r) * A_{2n-1-k-r, n-1-r}; over the
    # common denominator X1^off its numerator is shifted by X1^(2n-1-r-den+off)
    parts = [(family("A", 2 * n - 1 - k - r, n - 1 - r, cache), 2 * n - 1 - r, lead * tail)
             for r, lead, tail in schloemilch_ladder(n, k)]
    off = max(0, *(part.x1_den - m for part, m, _ in parts))
    total = MPoly.sum_products((part.num, MPoly.monomial(1, (m - part.x1_den + off,)), c)
                               for part, m, c in parts)
    return LaurentX1(total, off).to_poly()


def compose_transform(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """X1^(k-1) * B_{n,k}(S_{1,1}, ..., S_{n-k+1,1}), which equals S_{n,k}.

    The k = 1 instance degenerates to S_{n,1} = S_{n,1} and is rejected.
    """
    _check_triangle(n, k)
    if k == 1:
        raise ValueError("vacuous identity: the k=1 case does not recurse")
    subs = [stirling_first_explicit(j, 1, cache) for j in range(1, n - k + 2)]
    return bell_explicit(n, k, cache).substitute(subs).shift_x1(k - 1)


def compose_transform_second(
    n: int, k: int, cache: MspCache | None = None
) -> LaurentX1:
    """X1^(2k-n) * S_{n,k}(S_{1,1}, ..., S_{n-k+1,1}), which equals B_{n,k}
    (a Laurent identity when 2k < n)."""
    _check_triangle(n, k)
    subs = [stirling_first_explicit(j, 1, cache) for j in range(1, n - k + 2)]
    inner = stirling_first_explicit(n, k, cache).substitute(subs)
    if 2 * k >= n:
        return LaurentX1.from_poly(inner.shift_x1(2 * k - n))
    return LaurentX1(inner, n - 2 * k)


def convolution_recurrence(
    n: int, k: int, kind: str, cache: MspCache | None = None
) -> MPoly:
    """Binomial convolution recurrences building column k from column k-1.

    kind "B":  sum_j C(n-1,j-1) X_j B_{n-j,k-1}
    kind "S":  X1 * sum_j C(n-1,j-1) S_{j,1} S_{n-j,k-1}   (k >= 2 only)
    kind "Bt": sum_{j>=2} C(n-1,j-1) X_j Bt_{n-j,k-1}
    """
    _check_triangle(n, k)
    if kind in ("B", "Bt"):
        return MPoly.sum_products(
            (MPoly.var(j), family(kind, n - j, k - 1, cache), comb(n - 1, j - 1))
            for j in range(1 if kind == "B" else 2, n - k + 2)
        )
    if kind == "S":
        if k == 1:
            raise ValueError("the first-kind convolution needs column 1 as input")
        total = MPoly.sum_products(
            (family("S", j, 1, cache), family("S", n - j, k - 1, cache), comb(n - 1, j - 1))
            for j in range(1, n - k + 2)
        )
        return MPoly.var(1) * total
    raise ValueError(f"unknown convolution kind {kind!r} (expected B, S or Bt)")


def _binomial_x1_sum(kind: str, sign: int, n: int, k: int, cache: MspCache | None) -> MPoly:
    """sum_{r=0}^{k} sign^r C(n,r) X1^r P_{n-r,k-r} over the family `kind`."""
    return MPoly.sum_products(
        (family(kind, n - r, k - r, cache), MPoly.monomial(1, (r,)), sign**r * comb(n, r))
        for r in range(k + 1)
    )


def cor45_expand(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """Rebuild B_{n,k} from the associated family:
    sum_{r=0}^{k} C(n,r) X1^r Bt_{n-r,k-r}."""
    _check_triangle(n, k)
    return _binomial_x1_sum("Bt", 1, n, k, cache)


def eq68_invert(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """Rebuild Bt_{n,k} from the plain Bell family by binomial inversion:
    sum_{r=0}^{k} (-1)^r C(n,r) X1^r B_{n-r,k-r}."""
    _check_triangle(n, k)
    return _binomial_x1_sum("B", -1, n, k, cache)


def snk1_nested(n: int, cache: MspCache | None = None) -> MPoly:
    """S_{n,1} by the alternating nested Bell-product sum.

    Terms are indexed by subsets {j1 < ... < jr} of {2, ..., n-1}; each
    contributes (-1)^(r+1) X1^((n-2) - sum j_i) B_{n,jr} B_{jr,j(r-1)} ... B_{j1,1}.
    Intermediate X1 powers can be negative; the total is a polynomial.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"the nested sum needs an int n >= 2, got {n!r}")
    # the longest chain, {2, ..., n-1}, has the most negative shift, -off
    off = (n - 1) * (n - 2) // 2

    def parts():
        # (X1^(shift+off) times every Bell factor but the last, last factor, sign)
        for r in range(0, n - 1):
            for chain in combinations(range(2, n), r):
                ladder = (1,) + chain + (n,)
                bells = [bell_explicit(hi, lo, cache) for lo, hi in zip(ladder, ladder[1:])]
                head = MPoly.monomial(1, ((n - 2) - sum(chain) + off,))
                for factor in bells[:-1]:
                    head = head * factor
                yield head, bells[-1], -1 if r % 2 == 0 else 1

    return LaurentX1(MPoly.sum_products(parts()), off).to_poly()


# ---------------------------------------------------------------------------
# uniform access for the CLI
# ---------------------------------------------------------------------------


_GENERATORS = {
    "S": stirling_first_explicit,
    "B": bell_explicit,
    "Bt": assoc_bell,
    "L": lah_poly,
    "A": lie_first,
    "Bn": lambda n, k, cache=None: complete_bell(n, cache),
}

KINDS = tuple(_GENERATORS)


def generate(kind: str, n: int, k: int, cache: MspCache | None = None) -> CacheValue:
    """Dispatch on the kind tag; `Bn` ignores k."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {', '.join(KINDS)})")
    return _GENERATORS[kind](n, k, cache)
