"""Identity suite: every structural fact about the polynomial families is a
named, parameterized check producing a machine-readable result.

Checks are registered with a per-check depth cap; a single ``max_n`` knob
scales the whole suite but never past a check's cap (symbolic Laurent
checks are far more expensive per step than integer-table checks).
Random-input checks draw from a generator seeded with (seed, check id), so
two runs with the same seed produce byte-identical reports.

All 31 checks follow one protocol: a check is a generator of (where, got,
want) comparisons, most of them over the cells 1 <= k <= n <= depth, and
a predicate yields (where, ok, True).  The driver, `run_suite`, stops at
the first comparison with got != want and reports it as
"where: got != want"; a check whose sides raise an exception fails with
"raised <Type>: <message>", and the suite goes on.  Each side is computed
as the check runs, through the msp, stirling and series modules, so
wrappers installed on those modules (a tracer) see every call.  The
checks of three repeated shapes are registered as rows of function names,
looked up as the check runs: `_pairs` compares two msp functions at every
cell (seven checks), `_numbers` a closed Stirling-number formula with its
table at every cell (four), and `_holds` asserts a whole-table predicate
(three).  The Laurent checks thm5.1 and cor5.2 sum each side in one
`_x1_sum` and compare it with a constant or with their input.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Iterator, NamedTuple

from . import msp, series, stirling
from .poly import LaurentX1, MPoly, _x1_sum, parse_poly
from .ptypes import partition_types, stirling_fn, subset_fn

# ---------------------------------------------------------------------------
# golden data: generations 1..6 of both families, canonical text form
# ---------------------------------------------------------------------------

GOLDEN_FIRST_KIND = {
    (1, 1): "1",
    (2, 1): "-X2",
    (2, 2): "X1",
    (3, 1): "3*X2^2 - X1*X3",
    (3, 2): "-3*X1*X2",
    (3, 3): "X1^2",
    (4, 1): "-15*X2^3 + 10*X1*X2*X3 - X1^2*X4",
    (4, 2): "15*X1*X2^2 - 4*X1^2*X3",
    (4, 3): "-6*X1^2*X2",
    (4, 4): "X1^3",
    (5, 1): "105*X2^4 - 105*X1*X2^2*X3 + 10*X1^2*X3^2 + 15*X1^2*X2*X4 - X1^3*X5",
    (5, 2): "-105*X1*X2^3 + 60*X1^2*X2*X3 - 5*X1^3*X4",
    (5, 3): "45*X1^2*X2^2 - 10*X1^3*X3",
    (5, 4): "-10*X1^3*X2",
    (5, 5): "X1^4",
    (6, 1): "-945*X2^5 + 1260*X1*X2^3*X3 - 280*X1^2*X2*X3^2 - 210*X1^2*X2^2*X4"
    " + 35*X1^3*X3*X4 + 21*X1^3*X2*X5 - X1^4*X6",
    (6, 2): "945*X1*X2^4 - 840*X1^2*X2^2*X3 + 70*X1^3*X3^2 + 105*X1^3*X2*X4"
    " - 6*X1^4*X5",
    (6, 3): "-420*X1^2*X2^3 + 210*X1^3*X2*X3 - 15*X1^4*X4",
    (6, 4): "105*X1^3*X2^2 - 20*X1^4*X3",
    (6, 5): "-15*X1^4*X2",
    (6, 6): "X1^5",
}

GOLDEN_SECOND_KIND = {
    (1, 1): "X1",
    (2, 1): "X2",
    (2, 2): "X1^2",
    (3, 1): "X3",
    (3, 2): "3*X1*X2",
    (3, 3): "X1^3",
    (4, 1): "X4",
    (4, 2): "3*X2^2 + 4*X1*X3",
    (4, 3): "6*X1^2*X2",
    (4, 4): "X1^4",
    (5, 1): "X5",
    (5, 2): "10*X2*X3 + 5*X1*X4",
    (5, 3): "15*X1*X2^2 + 10*X1^2*X3",
    (5, 4): "10*X1^3*X2",
    (5, 5): "X1^5",
    (6, 1): "X6",
    (6, 2): "10*X3^2 + 15*X2*X4 + 6*X1*X5",
    (6, 3): "15*X2^3 + 60*X1*X2*X3 + 15*X1^2*X4",
    (6, 4): "45*X1^2*X2^2 + 20*X1^3*X3",
    (6, 5): "15*X1^4*X2",
    (6, 6): "X1^6",
}


class CheckResult(NamedTuple):
    """The outcome of one check: `counterexample` is None when it passed."""

    check_id: str
    params: str
    passed: bool
    counterexample: str | None
    wall_ms: float


class _Check(NamedTuple):
    """A registered check: fn(depth, rng, cache) yields (where, got, want)
    comparisons; `params` is formatted with d = depth."""

    check_id: str
    cap: int
    params: str
    fn: Callable[[int, random.Random, msp.MspCache], Iterator[tuple[str, object, object]]]


_REGISTRY: list[_Check] = []


def _check(check_id: str, cap: int, params: str = "1<=k<=n<={d}"):
    def wrap(fn):
        _REGISTRY.append(_Check(check_id, cap, params, fn))
        return fn

    return wrap


def check_ids() -> list[str]:
    return [check.check_id for check in _REGISTRY]


def _cells(depth: int) -> Iterator[tuple[int, int]]:
    """The triangle 1 <= k <= n <= depth, row by row."""
    return ((n, k) for n in range(1, depth + 1) for k in range(1, n + 1))


def _pairs(check_id: str, cap: int, *sides: tuple) -> None:
    """Register a check that compares, at each cell and for each side
    (label, got, want) or (label, got, want, lowest k), msp.got(n, k, cache)
    with msp.want(n, k, cache); a side skips the cells below its lowest k,
    which defaults to 1.

    The names are looked up on msp as the check runs, so a wrapper installed
    there (a tracer, a test's patch) is what gets compared.
    """
    sides = tuple(side if len(side) == 4 else (*side, 1) for side in sides)

    @_check(check_id, cap)
    def compare(depth, rng, cache):
        for n, k in _cells(depth):
            for label, got, want, low in sides:
                if k >= low:
                    yield (f"{label} at ({n},{k})", getattr(msp, got)(n, k, cache),
                           getattr(msp, want)(n, k, cache))


def _numbers(check_id: str, cap: int, label: str, formula: str, table: str,
             aux: str = "") -> None:
    """Register a check that compares, at each cell, stirling.formula(n, k)
    with stirling.table(depth).value(n, k); with `aux`, the formula also
    gets the table stirling.aux(2 * depth).  Names are looked up as in `_pairs`."""

    @_check(check_id, cap)
    def compare(depth, rng, cache):
        extra = (getattr(stirling, aux)(2 * depth),) if aux else ()
        want = getattr(stirling, table)(depth)
        for n, k in _cells(depth):
            yield (f"{label} at ({n},{k})", getattr(stirling, formula)(n, k, *extra),
                   want.value(n, k))


def _holds(check_id: str, cap: int, label: str, predicate: str) -> None:
    """Register a check that stirling.predicate(depth), a fact about whole tables, is True."""

    @_check(check_id, cap, "n<={d}")
    def compare(depth, rng, cache):
        yield label, getattr(stirling, predicate)(depth), True


# ---------------------------------------------------------------------------
# polynomial-level checks
# ---------------------------------------------------------------------------


@_check("table1-golden", 6)
def _table1(depth, rng, cache):
    for (n, k), text in GOLDEN_FIRST_KIND.items():
        if n <= depth:
            yield f"(S,{n},{k})", msp.stirling_first_explicit(n, k, cache), parse_poly(text)
    for (n, k), text in GOLDEN_SECOND_KIND.items():
        if n <= depth:
            yield f"(B,{n},{k})", msp.bell_explicit(n, k, cache), parse_poly(text)


def _laurent_sum(pairs) -> LaurentX1:
    """The sum of a*b over the pairs (LaurentX1 a, MPoly b), in one _x1_sum."""
    return _x1_sum((a.num * b, -a.x1_den, 1) for a, b in pairs)


@_check("thm5.1-inversion", 10)
def _inversion_law(depth, rng, cache):
    lie, bell = msp.lie_first, msp.bell_explicit
    for n, k in _cells(depth):
        want = int(n == k)
        yield (f"sum_j A[{n},j]B[j,{k}]",
               _laurent_sum((lie(n, j, cache), bell(j, k, cache)) for j in range(k, n + 1)), want)
        yield (f"sum_j B[{n},j]A[j,{k}]",
               _laurent_sum((lie(j, k, cache), bell(n, j, cache)) for j in range(k, n + 1)), want)


_pairs("crosspath-bell", 12, ("B", "bell_explicit", "bell_recursive"))
_pairs("crosspath-stirling", 12, ("S", "stirling_first_explicit", "stirling_first_recursive"))
_pairs("thm6.1-assoc-expansion", 12, ("S", "stirling_first_explicit", "stirling_first_from_assoc"))


_pairs("cor5.4-compose", 9, ("(i)", "compose_transform", "stirling_first_explicit", 2),
       ("(ii)", "compose_transform_second", "bell_explicit"))


@_check("prop5.5-convolution", 10)
def _convolution(depth, rng, cache):
    for n, k in _cells(depth):
        yield (f"B at ({n},{k})", msp.convolution_recurrence(n, k, "B", cache),
               msp.bell_explicit(n, k, cache))
        yield (f"Bt at ({n},{k})", msp.convolution_recurrence(n, k, "Bt", cache),
               msp.assoc_bell(n, k, cache))
        if k >= 2:
            yield (f"S at ({n},{k})", msp.convolution_recurrence(n, k, "S", cache),
                   msp.stirling_first_explicit(n, k, cache))


@_check("cor4.4-derivative", 12, "1<=k<=n<={d}, 1<=j<=n-k+1")
def _derivative_law(depth, rng, cache):
    for n, k in _cells(depth):
        b = msp.bell_explicit(n, k, cache)
        for j in range(1, n - k + 2):
            want = msp.bell_explicit(n - j, k - 1, cache) * comb(n, j)
            where = f"dB[{n},{k}]/dX{j} = C({n},{j})B[{n - j},{k - 1}]"
            yield where, b.partial_derivative(j), want


_pairs("cor4.5-expansion", 12, ("B", "cor45_expand", "bell_explicit"))
_pairs("eq6.8-inversion", 12, ("Bt", "eq68_invert", "assoc_bell"))


@_check("eq6.1-nested", 8, "2<=n<={d}")
def _eq61(depth, rng, cache):
    for n in range(2, depth + 1):
        yield (f"nested sum at n={n}", msp.snk1_nested(n, cache),
               msp.stirling_first_explicit(n, 1, cache))


_pairs("thm6.4-schloemilch-poly", 9, ("(i)", "first_from_second_schloemilch", "lie_first"),
       ("(ii)", "second_from_first", "bell_explicit"))


@_check("cor6.3-type-identity", 12, "1<=k<=n<={d}, all types")
def _cor63(depth, rng, cache):
    # one comparison per cell, which holds up to hundreds of types: too many to label
    for n, k in _cells(depth):
        lhs, rhs = [], []
        for r in partition_types(2 * n - 1 - k, n - 1):
            r1 = r[0] if r else 0
            lhs.append(comb(2 * n - 1 - k, r1) * stirling_fn(r))
            sign = 1 if (n - 1 - r1) % 2 == 0 else -1
            rhs.append(sign * comb(2 * n - 2 - r1, k - 1) * subset_fn(r))
        yield f"({n},{k}) over the types of P({2 * n - 1 - k},{n - 1})", lhs, rhs


@_check("prop3.7-coefficient-sums", 15)
def _coefficient_sums(depth, rng, cache):
    ones = [1] * depth
    s1, s2 = stirling.s1_table(depth), stirling.s2_table(depth)
    for n, k in _cells(depth):
        yield (f"S at ({n},{k})", msp.stirling_first_explicit(n, k, cache).eval_rat(ones),
               s1.value(n, k))
        yield (f"B at ({n},{k})", msp.bell_explicit(n, k, cache).eval_rat(ones),
               s2.value(n, k))


@_check("rem3.4-degrees", 12)
def _degrees(depth, rng, cache):
    for n, k in _cells(depth):
        s = msp.stirling_first_explicit(n, k, cache)
        b = msp.bell_explicit(n, k, cache)
        yield (f"S[{n},{k}] degrees", (s.homogeneous_degree(), s.isobaric_degree()),
               (n - 1, 2 * n - 1 - k))
        yield f"B[{n},{k}] degrees", (b.homogeneous_degree(), b.isobaric_degree()), (k, n)


@_check("rem5.4-x1-bounds", 12)
def _x1_bounds(depth, rng, cache):
    for n, k in _cells(depth):
        s_min = msp.stirling_first_explicit(n, k, cache).min_x1_power()
        yield f"S[{n},{k}] lowest X1 power {s_min} >= {k - 1}", s_min >= k - 1, True
        b_min = msp.bell_explicit(n, k, cache).min_x1_power()
        yield f"B[{n},{k}] lowest X1 power {b_min} >= {2 * k - n}", b_min >= 2 * k - n, True


@_check("rem5.7-associated-values", 8, "1<=n<={d}")
def _assoc_values(depth, rng, cache):
    for n in range(1, depth + 1):
        want = MPoly.monomial(prod(range(1, 2 * n, 2)), (0, n))
        yield f"Bt[{2 * n},{n}]", msp.assoc_bell(2 * n, n, cache), want
        for ell in range(1, n):
            yield f"Bt[{2 * n - ell},{n}]", msp.assoc_bell(2 * n - ell, n, cache), 0


@_check("cor4.6-lah-substitution", 10)
def _lah_substitution(depth, rng, cache):
    subs = [MPoly.var(j) * factorial(j) for j in range(1, depth + 1)]
    for n, k in _cells(depth):
        yield (f"L at ({n},{k})", msp.lah_poly(n, k, cache),
               msp.bell_explicit(n, k, cache).substitute(subs))


# ---------------------------------------------------------------------------
# number-level checks
# ---------------------------------------------------------------------------


_numbers("eq6.7-cycle-formula", 12, "s2", "s2_via_cycle", "s2_table")
_numbers("eq6.9-schloemilch-numbers", 15, "s1", "s1_schloemilch", "s1_table", "s2_table")
_numbers("eq6.10-assoc-numbers", 15, "s1", "s1_via_assoc", "s1_table", "assoc_s2_table")
_numbers("rem4.1-bertrand", 15, "s2", "s2_bertrand", "s2_table")
_holds("ex5.2-orthogonality", 15, "s1*s2 = identity", "stirling_orthogonality_check")
_holds("ex5.2-lah-self-inverse", 15, "signed Lah table is self-inverse", "lah_self_inverse_check")
_holds("ex5.8-summation-identities", 12, "cycle/subset summation identities",
       "example58_identities")


# ---------------------------------------------------------------------------
# sequence and series checks (seeded random inputs)
# ---------------------------------------------------------------------------


def _random_poly(rng: random.Random, max_vars: int = 4, max_exp: int = 3) -> MPoly:
    """Sparse random polynomial: 6 candidate monomials kept with density 0.5,
    coefficients uniform in [-99, 99] (zero draws dropped)."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(6):
        if rng.random() < 0.5:
            continue
        coeff = rng.randint(-99, 99)
        if coeff == 0:
            continue
        exps = tuple(rng.randint(0, max_exp) for _ in range(rng.randint(1, max_vars)))
        terms[exps] = coeff
    return MPoly(terms)


def _random_egf(rng: random.Random, order: int) -> series.EgfCoeffs:
    """Random rational series: numerators uniform in [-99, 99] (f_1 nonzero),
    denominators uniform in [1, 20]."""
    coeffs = []
    for n in range(1, order + 1):
        num = rng.randint(-99, 99)
        if n == 1:
            while num == 0:
                num = rng.randint(-99, 99)
        coeffs.append(Fraction(num, rng.randint(1, 20)))
    return series.EgfCoeffs(tuple(coeffs))


@_check("cor5.2-sequence-inversion", 8, "random sequences, length {d}")
def _sequence_inversion(depth, rng, cache):
    q = [_random_poly(rng) for _ in range(depth + 1)]
    p = [MPoly.sum_products((msp.bell_explicit(n, k, cache), q[k], 1) for k in range(n + 1))
         for n in range(depth + 1)]
    for n in range(depth + 1):
        recovered = _laurent_sum((msp.family("A", n, k, cache), p[k]) for k in range(n + 1))
        yield f"n={n}: recovered vs original", recovered, q[n]


@_check("sec7-revert-three-paths", 10, "30 random inputs, order<={d}")
def _three_paths(depth, rng, cache):
    for trial in range(30):
        f = _random_egf(rng, depth)
        a = series.revert_msp(f)
        b = series.revert_comtet(f, cache)
        c = series.revert_oracle(f)
        where = f"trial {trial}: f={list(f)}"
        yield f"{where}, Comtet vs MSP", list(b), list(a)
        yield f"{where}, oracle vs MSP", list(c), list(a)


@_check("prop7.1-involution", 8, "20 random inputs, order<={d}")
def _involution(depth, rng, cache):
    for trial in range(20):
        f = _random_egf(rng, depth)
        twice = series.revert_msp(series.revert_msp(f))
        yield f"trial {trial}: revert(revert(f))", list(twice), list(f)


@_check("sec7-compose-inverse", 8, "20 random inputs, order<={d}")
def _compose_inverse(depth, rng, cache):
    ident = list(series.identity_egf(depth))
    for trial in range(20):
        f = _random_egf(rng, depth)
        g = series.revert_msp(f)
        where = f"trial {trial}: f={list(f)}"
        yield f"{where}, f(g(x))", list(series.egf_compose(f, g)), ident
        yield f"{where}, g(f(x))", list(series.egf_compose(g, f)), ident


@_check("sec7-named-series", 12, "n<={d}")
def _named_series(depth, rng, cache):
    # rooted labeled trees: inverse of the series with f_j = (-1)^(j-1) j
    trees = series.EgfCoeffs(
        tuple(Fraction((-1) ** (j - 1) * j) for j in range(1, depth + 1))
    )
    got = series.revert_msp(trees)
    for n in range(1, depth + 1):
        yield f"rooted trees at n={n}", got.f(n), n ** (n - 1)
    # the logarithm: inverse of the all-ones series
    ones = series.EgfCoeffs((Fraction(1),) * depth)
    got = series.revert_comtet(ones, cache)
    for n in range(1, depth + 1):
        yield f"logarithm at n={n}", got.f(n), (-1) ** (n - 1) * factorial(n - 1)
    # total partitions: recurrence against all reversion paths
    tp = series.total_partitions_egf(depth)
    t = series.total_partitions_recurrence(depth)
    for path in (series.revert_msp, series.revert_oracle):
        got = path(tp)
        for n in range(1, depth + 1):
            yield f"total partitions via {path.__name__} at n={n}", got.f(n), t[n - 1]
    rows = series.total_partitions_triangle(depth)
    for n in range(1, depth + 1):
        row = rows[n]
        yield f"triangle row {n}: b(n,1)", row[1], 2 ** (n - 1)
        yield f"triangle row {n}: b(n,n)", row[n], factorial(n)
        if n >= 2:
            yield f"triangle row {n}: b(n,2)", row[2], 2 ** (n - 1) * (2**n - n - 1)


@_check("prop7.3-rows", 10, "n<={d}")
def _prop73(depth, rng, cache):
    s1, s2 = stirling.s1_table(depth), stirling.s2_table(depth)
    ones = series.EgfCoeffs((Fraction(1),) * depth)
    for n, row in enumerate(series.exp_transform(ones), start=1):
        for k, c in enumerate(row):
            yield f"forward row {n}: t^{k} coefficient", c, s2.value(n, k)
    inverse_rows = series.exp_transform_inverse(ones)
    for n, row in enumerate(inverse_rows, start=1):
        for k, c in enumerate(row):
            yield f"inverse row {n}: t^{k} coefficient", c, s1.value(n, k)
    # consistency of the two routes to the inverse rows
    yield ("exp transform of the inverse vs the direct inverse rows",
           series.exp_transform(series.revert_msp(ones)), inverse_rows)
    bell = stirling.bell_numbers(depth)
    for n, row in enumerate(series.exp_transform(ones), start=1):
        yield f"row {n} at t=1 vs Bell number", sum(row), bell[n]


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def run_suite(
    max_n: int,
    selection: list[str] | tuple[str, ...] | None = None,
    seed: int = 0,
    cache: msp.MspCache | None = None,
) -> list[CheckResult]:
    """Run the selected checks (all by default) scaled to depth max_n.  A
    selection is a list or tuple of check ids and the seed an int (a bool
    would seed a stream apart from its equal int), and the cache an MspCache
    or None for a fresh one; anything else raises ValueError, before any
    check runs.  Once checks run, an Exception inside one fails that check."""
    stirling._check_int(max_n, "max_n", 1)
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    known = check_ids()
    if selection is not None:
        if not isinstance(selection, (list, tuple)):
            raise ValueError(f"selection must be a list of check ids, not {selection!r}")
        if not selection:
            raise ValueError(f"empty check selection; valid ids: {', '.join(known)}")
        bad = [cid for cid in selection if cid not in known]
        if bad:
            raise ValueError(
                f"unknown check ids {bad}; valid ids: {', '.join(known)}"
            )
    cache = msp._resolve(msp.MspCache() if cache is None else cache)
    results = []
    for check_id, cap, params, fn in _REGISTRY:
        if selection is not None and check_id not in selection:
            continue
        depth = min(cap, max_n)
        rng = random.Random(f"{seed}:{check_id}")
        start = time.perf_counter()
        try:
            failures = (f"{where}: {got} != {want}"
                        for where, got, want in fn(depth, rng, cache) if got != want)
            counterexample = next(failures, None)
        except Exception as exc:
            counterexample = f"raised {type(exc).__name__}: {exc}"
        wall_ms = (time.perf_counter() - start) * 1000.0
        results.append(
            CheckResult(
                check_id=check_id,
                params=params.format(d=depth),
                passed=counterexample is None,
                counterexample=counterexample,
                wall_ms=wall_ms,
            )
        )
    return results


def report_json(results: list[CheckResult], max_n: int, seed: int) -> str:
    """Machine-readable report; wall times are excluded so that reports with
    the same seed are byte-identical."""
    payload = {
        "max_n": max_n,
        "seed": seed,
        "checks": [
            {
                "id": r.check_id,
                "params": r.params,
                "passed": r.passed,
                "counterexample": r.counterexample,
            }
            for r in results
        ],
        "failures": sum(1 for r in results if not r.passed),
    }
    return json.dumps(payload, indent=2)


def report_text(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.check_id}  [{r.params}]"
        if r.counterexample:
            line += f"  -- {r.counterexample}"
        lines.append(line)
    failures = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks, {failures} failure(s)")
    return "\n".join(lines)
