"""Generators for the multivariate Stirling polynomial families.

Every explicit family is a weighted sum over partition types, built and
cached by the single core `family(kind, n, k, cache)`:

    S    first kind, over P(2n-1-k, n-1): r1 first, then blocks of size >= 2
    B    second kind (partial exponential Bell), over P(n, k)
    L    Lah, over P(n, k), with each block of size j ordered in j! ways
    Bt   associated Bell: subset_fn over the types of P(n, k) with r1 = 0,
         built as (0,) + r for r in P(n-k, k) (one element of each block
         set aside leaves a type of P(n-k, k)), weighed type by type
    A    the Laurent family S_{n,k} / X1^(2n-1), derived from S

S, B and L are one descent, `_blocks`, which S starts once per r1 and B and
L once at block size 1.  It places labelled elements into blocks, one level
per block size in use, and carries each coefficient down to its type; no
type tuple or weight call is made.  Its dict comes out in graded-lex order,
and `_blocks` hands it over as ordered, so rendering S, A, B and L skips the
sort (see the poly module).  Bt stays on partition_types and
subset_fn, so that the identity checks pairing it with S or B compare two
computations.

`family` has one input gate, passed before any member is read or built.
It takes only int indices (bool excluded), so (True, 1) never reads the
(1, 1) entry; then `_resolve` maps a cache of None to the process-wide
_DEFAULT_CACHE and rejects anything but an MspCache; then the kind must be
one of S, B, Bt, L and A.  Each failure raises ValueError, and a bad cache
is reported before a bad kind, in every cell.  Past the gate, `family`
extends each kind by zero: 1 at (0,0) and 0 elsewhere outside
1 <= k <= n (a LaurentX1 for A, an MPoly otherwise), uncached.  Members
inside the triangle are memoised under (kind, n, k) in an append-only
MspCache, which also holds the recursive paths' members; the gate keeps
those kinds from being read through `family`.

The public generators check that n and k are ints in range (k >= 0 for
B and Bt, where B_{0,0} = 1 and B_{n,0} = 0; k >= 1 otherwise), with the
one range check of the stirling module, and call `family`.
`generate` dispatches through the registry of public generators that KINDS
lists; its sixth kind, Bn, is the complete Bell polynomial, summed from the
cached B members and not cached itself.

Both polynomial kinds also have an independent recursive path (differential
recurrences), memoised under the cache kinds B_rec and S_rec, with the k = 0
column of bell_recursive read from `family`'s zero extension; explicit and
recursive results must agree, which the verify module checks structurally.

Each X1-weighted expansion is one `_x1_sum` (see the poly module), which
those that must be polynomials read with `to_poly()`.  The Schloemilch-type
expansions take each member (m, j) from stirling.schloemilch_ladder, and
`_first_kind` keeps its own r1 ladder, so the explicit S shares none of it.
"""

from __future__ import annotations

from itertools import combinations, pairwise
from math import comb, factorial, perm, prod

from .poly import _MAX_EXPONENT, LaurentX1, MPoly, _raw_ordered, _unit, _x1_sum
from .ptypes import partition_types, subset_fn
from .stirling import _check_int, _check_triangle, schloemilch_ladder

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
_FAMILIES = frozenset(("S", "B", "Bt", "L", "A"))


def family(kind: str, n: int, k: int, cache: MspCache | None = None) -> CacheValue:
    """Member (n, k) of the explicit family `kind` (S, B, Bt, L or A),
    extended by zero outside 1 <= k <= n with the (0,0) member equal to 1."""
    if type(n) is not int or type(k) is not int:
        _check_triangle(n, k)  # raises the generators' "indices must be ints"
    c = _resolve(cache)
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r} (expected S, B, Bt, L or A)")
    if not 1 <= k <= n:
        value = MPoly.const(1) if n == k == 0 else MPoly.zero()
        return LaurentX1(value) if kind == "A" else value
    hit = c.get(kind, n, k)
    if hit is not None:
        return hit
    if kind == "A":
        return c.put(kind, n, k, LaurentX1(family("S", n, k, c), 2 * n - 1))
    if kind == "S":
        return c.put(kind, n, k, _first_kind(n, k))
    if kind == "Bt":
        # no block of size 1: drop one element from each block, leaving P(n-k, k)
        types = [(0,) + r for r in partition_types(n - k, k)]
        return c.put(kind, n, k, MPoly({r: subset_fn(r) for r in types}))
    # B and L: n elements in k blocks of sizes >= 1
    return c.put(kind, n, k, _blocks(kind, n, k, [(1, n, k, 0, 1)]))


def _blocks(kind: str, n: int, k: int, starts) -> MPoly:
    """Member (n, k) of S, B or L from its starting points (j, rest, left, key, count).

    From each start, `rest` labelled elements go into `left` blocks of sizes
    j..n+1-k, and each type r adds count * (the number of such partitions of
    type r) at key + the key of X^r; for L each block of size j is ordered in
    j! ways.  The types come out in lex order, and every type has the same
    number of blocks, so the dict is in graded-lex order, the order of
    terms(), and is handed over as ordered.
    """
    # every exponent is at most the number of blocks, n-1 for S and k for B
    # and L; this stands in for the field check that the raw dict skips
    blocks = n - 1 if kind == "S" else k
    if blocks > _MAX_EXPONENT:
        raise ValueError(f"exponent {blocks} of {kind}_{{{n},{k}}} exceeds {_MAX_EXPONENT}")
    ordered = kind == "L"
    choose = perm if ordered else comb
    # units[j] is the key of X_j
    units = [0, *map(_unit, range(1, n + 2 - k))]
    terms: dict[int, int] = {}

    def place(j: int, rest: int, left: int, key: int, count: int):
        # `left` >= 2 blocks of sizes >= j hold `rest` elements.  s, the
        # smallest size in use, runs from the largest down: that keeps lex
        # order and recurses once per size in use, not per size tried
        s = rest // left
        if rest == s * left:
            # every block has size s
            den = factorial(left) if ordered else factorial(left) * factorial(s) ** left
            terms[key + left * units[s]] = count * (factorial(rest) // den)
            if s == j:
                return
            s -= 1
        for s in range(s, j - 1, -1):
            unit = units[s]
            # the left - r_s >= 2 blocks of size > s need
            # rest - s*r_s >= (s+1)*(left - r_s), a lower bound on r_s
            low = (s + 1) * left - rest
            c = count * choose(rest, s)  # r_s = 1; c stays an integer
            for rs in range(1, left - 1):
                if rs >= low:
                    place(s + 1, rest - s * rs, left - rs, key + rs * unit, c)
                c = c * choose(rest - s * rs, s) // (rs + 1)
            # r_s = left - 1: the last block holds the rest, of size > s
            size = rest - s * (left - 1)
            terms[key + (left - 1) * unit + units[size]] = c * factorial(size) if ordered else c

    for j, rest, left, key, count in starts:
        if left > 1:
            place(j, rest, left, key, count)
        else:  # one block holds all `rest` elements, or none is left
            terms[key + left * units[rest]] = count * factorial(rest) if ordered else count
    return _raw_ordered(terms)


def _first_kind(n: int, k: int) -> MPoly:
    """S_{n,k} for 1 <= k <= n, by one descent over the types r of P(2n-1-k, n-1).

    The coefficient of X^r, the paper's stirling_fn(r), factors as

        (-1)^(n-1-r1) C(2n-2-r1, k-1) * m! / prod_{j>=2} r_j! (j!)^r_j,

    m = 2n-1-k-r1, where the last factor counts the partitions of m labelled
    elements into blocks of type r, all of size >= 2.  The loop takes r1
    first; `_blocks` then places the blocks of size >= 2, carrying that count
    and the packed key of X^r down to each type.
    """
    # r1 singletons leave 2n-1-k-r1 elements in n-1-r1 blocks of size >= 2,
    # so r1 >= k-1, and r1 = n-1 (no such block) only if no element is left
    starts = []
    for r1 in range(k - 1, n if k == n else n - 1):
        lead = comb(2 * n - 2 - r1, k - 1)
        starts.append((2, 2 * n - 1 - k - r1, n - 1 - r1, r1 * _unit(1),
                       lead if (n - 1 - r1) % 2 == 0 else -lead))
    return _blocks("S", n, k, starts)


def _resolve(cache: MspCache | None) -> MspCache:
    """`cache`, or _DEFAULT_CACHE for None; anything else raises ValueError."""
    c = _DEFAULT_CACHE if cache is None else cache
    if not isinstance(c, MspCache):
        raise ValueError(f"cache must be an MspCache or None, got {cache!r}")
    return c


def _recursive(kind: str, n: int, k: int, cache: MspCache | None, seed: MPoly, step):
    """Fill the memo triangle `kind` through row n and return member (n, k).

    Member (1,1) is `seed`; member (m, kk) of a later row is
    step(m, P_{m-1,kk}, P_{m-1,kk-1}, sum_j X_{j+1} * dP_{m-1,kk}/dX_j),
    reading members outside the triangle as zero.
    """
    c = _resolve(cache)
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
        return family("B", n, 0, cache)
    x1 = MPoly.var(1)
    return _recursive("B_rec", n, k, cache, x1, lambda m, prev, low, d: x1 * low + d)


def complete_bell(n: int, cache: MspCache | None = None) -> MPoly:
    """Complete Bell polynomial, the sum of B_{n,k} over k = 1..n."""
    _check_int(n, "n", 1)
    one = MPoly.const(1)
    return MPoly.sum_products((family("B", n, k, cache), one, 1) for k in range(1, n + 1))


def assoc_bell(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """Associated Bell polynomial: B_{n,k} restricted to types with r1 = 0,
    enumerated directly as (0,) + r for the types r of P(n-k, k)."""
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
    return _x1_sum((family("Bt", m, j, cache), r, lead)
                   for r, m, j, lead, _ in schloemilch_ladder(n, k)).to_poly()


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
    return _x1_sum((family("B", m, j, cache), r + 1 - 2 * n, lead * tail)
                   for r, m, j, lead, tail in schloemilch_ladder(n, k))


def second_from_first(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """The reverse Schloemilch-type expansion, rebuilding B_{n,k} from the
    Laurent first-kind family; the X1 denominators must cancel exactly."""
    _check_triangle(n, k)
    return _x1_sum((family("A", m, j, cache), 2 * n - 1 - r, lead * tail)
                   for r, m, j, lead, tail in schloemilch_ladder(n, k)).to_poly()


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
    return _x1_sum(((inner, 2 * k - n, 1),))


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


def cor45_expand(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """Rebuild B_{n,k} from the associated family:
    sum_{r=0}^{k} C(n,r) X1^r Bt_{n-r,k-r}."""
    _check_triangle(n, k)
    return _x1_sum((family("Bt", n - r, k - r, cache), r, comb(n, r))
                   for r in range(k + 1)).to_poly()


def eq68_invert(n: int, k: int, cache: MspCache | None = None) -> MPoly:
    """Rebuild Bt_{n,k} from the plain Bell family by binomial inversion:
    sum_{r=0}^{k} (-1)^r C(n,r) X1^r B_{n-r,k-r}."""
    _check_triangle(n, k)
    return _x1_sum((family("B", n - r, k - r, cache), r, (-1) ** r * comb(n, r))
                   for r in range(k + 1)).to_poly()


def snk1_nested(n: int, cache: MspCache | None = None) -> MPoly:
    """S_{n,1} by the alternating nested Bell-product sum.

    Terms are indexed by subsets {j1 < ... < jr} of {2, ..., n-1}; each
    contributes (-1)^(r+1) X1^((n-2) - sum j_i) B_{n,jr} B_{jr,j(r-1)} ... B_{j1,1}.
    Intermediate X1 powers can be negative; the total is a polynomial.
    """
    _check_int(n, "n", 2)

    def part(chain):
        bells = [bell_explicit(hi, lo, cache) for lo, hi in pairwise((1, *chain, n))]
        return prod(bells[1:], start=bells[0]), (n - 2) - sum(chain), (-1) ** (len(chain) + 1)

    return _x1_sum(part(c) for r in range(n - 1) for c in combinations(range(2, n), r)).to_poly()


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
    if not isinstance(kind, str) or kind not in _GENERATORS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {', '.join(KINDS)})")
    return _GENERATORS[kind](n, k, cache)
