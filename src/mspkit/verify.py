"""Identity suite: every structural fact about the polynomial families is a
named, parameterized check producing a machine-readable result.

Checks are registered with a per-check depth cap; a single ``max_n`` knob
scales the whole suite but never past a check's cap (symbolic Laurent
checks are far more expensive per step than integer-table checks).
Random-input checks draw from a generator seeded with (seed, check id), so
two runs with the same seed produce byte-identical reports.

Most checks assert that two computations agree on every cell of the
triangle 1 <= k <= n <= depth.  Those register through `_identity`: each
supplies only its labelled (k_min, lhs, rhs) triples, and one driver walks
the cells and names the first mismatch by label, cell and both values.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, NamedTuple

from . import msp, series, stirling
from .poly import LaurentX1, MPoly, parse_poly
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


@dataclass
class CheckResult:
    check_id: str
    params: str
    passed: bool
    counterexample: str | None
    wall_ms: float


class _Check(NamedTuple):
    """A registered check: fn(depth, rng, cache) returns a counterexample
    string, or None when it passes; `params` is formatted with d = depth."""

    check_id: str
    cap: int
    params: str
    fn: Callable[[int, random.Random, msp.MspCache], str | None]


_REGISTRY: list[_Check] = []


def _check(check_id: str, cap: int, params: str):
    def wrap(fn):
        _REGISTRY.append(_Check(check_id, cap, params, fn))
        return fn

    return wrap


def _identity(check_id: str, cap: int):
    """Register a check of lhs(n, k) == rhs(n, k) on the triangle.

    The decorated build(depth, cache) makes any per-depth tables and returns
    {label: (k_min, lhs, rhs)}.  The driver walks the cells 1 <= k <= n <=
    depth row by row, compares every entry with k >= k_min at each cell, and
    reports the first mismatch by its label, cell and both values.  The
    callables look msp.* and stirling.* up when called, not capture them, so
    that wrappers installed on those modules (a tracer) see every call.
    """

    def wrap(build):
        def run(depth, rng, cache):
            identities = build(depth, cache)
            for n in range(1, depth + 1):
                for k in range(1, n + 1):
                    for label, (k_min, lhs, rhs) in identities.items():
                        if k < k_min:
                            continue
                        a, b = lhs(n, k), rhs(n, k)
                        if a != b:
                            return f"{label} at ({n},{k}): {a} != {b}"
            return None

        _check(check_id, cap, "1<=k<=n<={d}")(run)
        return build

    return wrap


def check_ids() -> list[str]:
    return [check.check_id for check in _REGISTRY]


def _delta(n: int, k: int) -> LaurentX1:
    return LaurentX1.one() if n == k else LaurentX1.zero()


# ---------------------------------------------------------------------------
# polynomial-level checks
# ---------------------------------------------------------------------------


@_check("table1-golden", 6, "1<=k<=n<={d}")
def _table1(depth, rng, cache):
    for (n, k), text in GOLDEN_FIRST_KIND.items():
        if n > depth:
            continue
        got = msp.stirling_first_explicit(n, k, cache)
        if got != parse_poly(text):
            return f"(S,{n},{k}): generated {got} != table {text}"
    for (n, k), text in GOLDEN_SECOND_KIND.items():
        if n > depth:
            continue
        got = msp.bell_explicit(n, k, cache)
        if got != parse_poly(text):
            return f"(B,{n},{k}): generated {got} != table {text}"
    return None


@_check("thm5.1-inversion", 10, "1<=k<=n<={d}")
def _inversion_law(depth, rng, cache):
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            want = _delta(n, k)
            lhs = LaurentX1.zero()
            rhs = LaurentX1.zero()
            for j in range(k, n + 1):
                lhs = lhs + msp.lie_first(n, j, cache) * msp.bell_explicit(j, k, cache)
                rhs = rhs + msp.lie_first(j, k, cache) * msp.bell_explicit(n, j, cache)
            if lhs != want:
                return f"sum_j A[{n},j]B[j,{k}] = {lhs} != delta"
            if rhs != want:
                return f"sum_j B[{n},j]A[j,{k}] = {rhs} != delta"
    return None


@_identity("crosspath-bell", 12)
def _crosspath_bell(depth, cache):
    return {"B": (1, lambda n, k: msp.bell_explicit(n, k, cache),
                  lambda n, k: msp.bell_recursive(n, k, cache))}


@_identity("crosspath-stirling", 12)
def _crosspath_stirling(depth, cache):
    return {"S": (1, lambda n, k: msp.stirling_first_explicit(n, k, cache),
                  lambda n, k: msp.stirling_first_recursive(n, k, cache))}


@_identity("thm6.1-assoc-expansion", 12)
def _thm61(depth, cache):
    return {"S": (1, lambda n, k: msp.stirling_first_explicit(n, k, cache),
                  lambda n, k: msp.stirling_first_from_assoc(n, k, cache))}


@_identity("cor5.4-compose", 9)
def _compose(depth, cache):
    return {
        "(i)": (2, lambda n, k: msp.compose_transform(n, k, cache),
                lambda n, k: msp.stirling_first_explicit(n, k, cache)),
        "(ii)": (1, lambda n, k: msp.compose_transform_second(n, k, cache),
                 lambda n, k: msp.bell_explicit(n, k, cache)),
    }


@_identity("prop5.5-convolution", 10)
def _convolution(depth, cache):
    return {
        "B": (1, lambda n, k: msp.convolution_recurrence(n, k, "B", cache),
              lambda n, k: msp.bell_explicit(n, k, cache)),
        "Bt": (1, lambda n, k: msp.convolution_recurrence(n, k, "Bt", cache),
               lambda n, k: msp.assoc_bell(n, k, cache)),
        "S": (2, lambda n, k: msp.convolution_recurrence(n, k, "S", cache),
              lambda n, k: msp.stirling_first_explicit(n, k, cache)),
    }


@_check("cor4.4-derivative", 12, "1<=k<=n<={d}, 1<=j<=n-k+1")
def _derivative_law(depth, rng, cache):
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            b = msp.bell_explicit(n, k, cache)
            for j in range(1, n - k + 2):
                want = msp.bell_explicit(n - j, k - 1, cache) * comb(n, j)
                if b.partial_derivative(j) != want:
                    return f"dB[{n},{k}]/dX{j} != C({n},{j})B[{n - j},{k - 1}]"
    return None


@_identity("cor4.5-expansion", 12)
def _cor45(depth, cache):
    return {"B": (1, lambda n, k: msp.cor45_expand(n, k, cache),
                  lambda n, k: msp.bell_explicit(n, k, cache))}


@_identity("eq6.8-inversion", 12)
def _eq68(depth, cache):
    return {"Bt": (1, lambda n, k: msp.eq68_invert(n, k, cache),
                   lambda n, k: msp.assoc_bell(n, k, cache))}


@_check("eq6.1-nested", 8, "2<=n<={d}")
def _eq61(depth, rng, cache):
    for n in range(2, depth + 1):
        got = msp.snk1_nested(n, cache)
        want = msp.stirling_first_explicit(n, 1, cache)
        if got != want:
            return f"n={n}: nested sum {got} != {want}"
    return None


@_identity("thm6.4-schloemilch-poly", 9)
def _thm64(depth, cache):
    return {
        "(i)": (1, lambda n, k: msp.first_from_second_schloemilch(n, k, cache),
                lambda n, k: msp.lie_first(n, k, cache)),
        "(ii)": (1, lambda n, k: msp.second_from_first(n, k, cache),
                 lambda n, k: msp.bell_explicit(n, k, cache)),
    }


@_check("cor6.3-type-identity", 12, "1<=k<=n<={d}, all types")
def _cor63(depth, rng, cache):
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            for pt in partition_types(2 * n - 1 - k, n - 1):
                r1 = pt.r[0] if pt.r else 0
                lhs = comb(2 * n - 1 - k, r1) * stirling_fn(pt)
                sign = 1 if (n - 1 - r1) % 2 == 0 else -1
                rhs = sign * comb(2 * n - 2 - r1, k - 1) * subset_fn(pt)
                if lhs != rhs:
                    return f"({n},{k}) type {pt}: {lhs} != {rhs}"
    return None


@_identity("prop3.7-coefficient-sums", 15)
def _coefficient_sums(depth, cache):
    ones = [1] * depth
    return {
        "S": (1, lambda n, k: msp.stirling_first_explicit(n, k, cache).eval_rat(ones),
              stirling.s1_table(depth).value),
        "B": (1, lambda n, k: msp.bell_explicit(n, k, cache).eval_rat(ones),
              stirling.s2_table(depth).value),
    }


@_check("rem3.4-degrees", 12, "1<=k<=n<={d}")
def _degrees(depth, rng, cache):
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            s = msp.stirling_first_explicit(n, k, cache)
            b = msp.bell_explicit(n, k, cache)
            if s.homogeneous_degree() != n - 1 or s.isobaric_degree() != 2 * n - 1 - k:
                return f"S[{n},{k}] degrees {s.homogeneous_degree()}/{s.isobaric_degree()}"
            if b.homogeneous_degree() != k or b.isobaric_degree() != n:
                return f"B[{n},{k}] degrees {b.homogeneous_degree()}/{b.isobaric_degree()}"
    return None


@_check("rem5.4-x1-bounds", 12, "1<=k<=n<={d}")
def _x1_bounds(depth, rng, cache):
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            s_min = msp.stirling_first_explicit(n, k, cache).min_x1_power()
            if s_min < k - 1:
                return f"S[{n},{k}] has a term with X1 power {s_min} < {k - 1}"
            b_min = msp.bell_explicit(n, k, cache).min_x1_power()
            if b_min < max(0, 2 * k - n):
                return f"B[{n},{k}] has a term with X1 power {b_min} < {2 * k - n}"
    return None


@_check("rem5.7-associated-values", 8, "1<=n<={d}")
def _assoc_values(depth, rng, cache):
    for n in range(1, depth + 1):
        odd_ff = 1
        for i in range(1, 2 * n, 2):
            odd_ff *= i
        want = MPoly.monomial(odd_ff, (0, n))
        got = msp.assoc_bell(2 * n, n, cache)
        if got != want:
            return f"Bt[{2 * n},{n}] = {got} != {want}"
        for ell in range(1, n):
            if not msp.assoc_bell(2 * n - ell, n, cache).is_zero:
                return f"Bt[{2 * n - ell},{n}] != 0"
    return None


@_identity("cor4.6-lah-substitution", 10)
def _lah_substitution(depth, cache):
    subs = [MPoly.var(j) * factorial(j) for j in range(1, depth + 1)]
    return {"L": (1, lambda n, k: msp.lah_poly(n, k, cache),
                  lambda n, k: msp.bell_explicit(n, k, cache).substitute(subs))}


# ---------------------------------------------------------------------------
# number-level checks
# ---------------------------------------------------------------------------


@_identity("eq6.7-cycle-formula", 12)
def _eq67(depth, cache):
    return {"s2": (1, lambda n, k: stirling.s2_via_cycle(n, k),
                   stirling.s2_table(depth).value)}


@_identity("eq6.9-schloemilch-numbers", 15)
def _eq69(depth, cache):
    s2 = stirling.s2_table(2 * depth)
    return {"s1": (1, lambda n, k: stirling.s1_schloemilch(n, k, s2),
                   stirling.s1_table(depth).value)}


@_identity("eq6.10-assoc-numbers", 15)
def _eq610(depth, cache):
    assoc = stirling.assoc_s2_table(2 * depth)
    return {"s1": (1, lambda n, k: stirling.s1_via_assoc(n, k, assoc),
                   stirling.s1_table(depth).value)}


@_identity("rem4.1-bertrand", 15)
def _bertrand(depth, cache):
    return {"s2": (1, lambda n, k: stirling.s2_bertrand(n, k),
                   stirling.s2_table(depth).value)}


@_check("ex5.2-orthogonality", 15, "n<={d}")
def _orthogonality(depth, rng, cache):
    if not stirling.stirling_orthogonality_check(depth):
        return "s1*s2 product is not the identity"
    return None


@_check("ex5.2-lah-self-inverse", 15, "n<={d}")
def _lah_inverse(depth, rng, cache):
    if not stirling.lah_self_inverse_check(depth):
        return "signed Lah table is not self-inverse"
    return None


@_check("ex5.8-summation-identities", 12, "n<={d}")
def _ex58(depth, rng, cache):
    if not stirling.example58_identities(depth):
        return "cycle/subset summation identity fails"
    return None


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
    p = []
    for n in range(depth + 1):
        acc = MPoly.zero()
        for k in range(n + 1):
            acc = acc + msp.bell_explicit(n, k, cache) * q[k]
        p.append(acc)
    for n in range(depth + 1):
        acc = LaurentX1.zero()
        for k in range(n + 1):
            acc = acc + msp.family("A", n, k, cache) * p[k]
        if acc != LaurentX1.from_poly(q[n]):
            return f"n={n}: recovered {acc} != original {q[n]}"
    return None


@_check("sec7-revert-three-paths", 10, "30 random inputs, order<={d}")
def _three_paths(depth, rng, cache):
    for trial in range(30):
        f = _random_egf(rng, depth)
        a = series.revert_msp(f)
        b = series.revert_comtet(f, cache)
        c = series.revert_oracle(f)
        if a != b or a != c:
            return f"trial {trial}: f={list(f)} gives {list(a)} / {list(b)} / {list(c)}"
    return None


@_check("prop7.1-involution", 8, "20 random inputs, order<={d}")
def _involution(depth, rng, cache):
    for trial in range(20):
        f = _random_egf(rng, depth)
        if series.revert_msp(series.revert_msp(f)) != f:
            return f"trial {trial}: revert(revert(f)) != f for f={list(f)}"
    return None


@_check("sec7-compose-inverse", 8, "20 random inputs, order<={d}")
def _compose_inverse(depth, rng, cache):
    ident = series.identity_egf(depth)
    for trial in range(20):
        f = _random_egf(rng, depth)
        g = series.revert_msp(f)
        if series.egf_compose(f, g) != ident or series.egf_compose(g, f) != ident:
            return f"trial {trial}: f(g(x)) != x for f={list(f)}"
    return None


@_check("sec7-named-series", 12, "n<={d}")
def _named_series(depth, rng, cache):
    # rooted labeled trees: inverse of the series with f_j = (-1)^(j-1) j
    trees = series.EgfCoeffs(
        tuple(Fraction((-1) ** (j - 1) * j) for j in range(1, depth + 1))
    )
    got = series.revert_msp(trees)
    for n in range(1, depth + 1):
        if got.f(n) != n ** (n - 1):
            return f"rooted trees: n={n} gives {got.f(n)} != {n ** (n - 1)}"
    # the logarithm: inverse of the all-ones series
    ones = series.EgfCoeffs((Fraction(1),) * depth)
    got = series.revert_comtet(ones, cache)
    for n in range(1, depth + 1):
        want = (-1) ** (n - 1) * factorial(n - 1)
        if got.f(n) != want:
            return f"logarithm: n={n} gives {got.f(n)} != {want}"
    # total partitions: recurrence against all reversion paths
    tp = series.total_partitions_egf(depth)
    t = series.total_partitions_recurrence(depth)
    for path in (series.revert_msp, series.revert_oracle):
        got = path(tp)
        for n in range(1, depth + 1):
            if got.f(n) != t[n - 1]:
                return f"total partitions via {path.__name__}: n={n}"
    rows = series.total_partitions_triangle(depth)
    for n in range(1, depth + 1):
        row = rows[n]
        if row[1] != 2 ** (n - 1) or row[n] != factorial(n):
            return f"triangle row {n} boundary values wrong"
        if n >= 2 and row[2] != 2 ** (n - 1) * (2**n - n - 1):
            return f"triangle row {n}: b(n,2) wrong"
    return None


@_check("prop7.3-rows", 10, "n<={d}")
def _prop73(depth, rng, cache):
    s1 = stirling.s1_table(depth)
    s2 = stirling.s2_table(depth)
    ones = series.EgfCoeffs((Fraction(1),) * depth)
    for n, row in enumerate(series.exp_transform(ones), start=1):
        for k in range(n + 1):
            if row.coefficient(k) != s2.value(n, k):
                return f"forward row {n}: t^{k} coefficient != s2({n},{k})"
    inverse_rows = series.exp_transform_inverse(ones)
    for n, row in enumerate(inverse_rows, start=1):
        for k in range(n + 1):
            if row.coefficient(k) != s1.value(n, k):
                return f"inverse row {n}: t^{k} coefficient != s1({n},{k})"
    # consistency of the two routes to the inverse rows
    reverted = series.exp_transform(series.revert_msp(ones))
    if reverted != inverse_rows:
        return "exp transform of the inverse differs from the direct inverse rows"
    bell = stirling.bell_numbers(depth)
    for n, row in enumerate(series.exp_transform(ones), start=1):
        if row.evaluate(1) != bell[n]:
            return f"row {n} at t=1 != Bell number {bell[n]}"
    return None


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def run_suite(
    max_n: int,
    selection: list[str] | None = None,
    seed: int = 0,
    cache: msp.MspCache | None = None,
) -> list[CheckResult]:
    """Run the selected checks (all by default) scaled to depth max_n."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    known = check_ids()
    if selection is not None:
        if not selection:
            raise ValueError(f"empty check selection; valid ids: {', '.join(known)}")
        bad = [cid for cid in selection if cid not in known]
        if bad:
            raise ValueError(
                f"unknown check ids {bad}; valid ids: {', '.join(known)}"
            )
    if cache is None:
        cache = msp.MspCache()
    results = []
    for check_id, cap, params, fn in _REGISTRY:
        if selection is not None and check_id not in selection:
            continue
        depth = min(cap, max_n)
        rng = random.Random(f"{seed}:{check_id}")
        start = time.perf_counter()
        counterexample = fn(depth, rng, cache)
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


def golden_table_check(cache: msp.MspCache | None = None) -> CheckResult:
    """Run only the golden-table comparison at full depth."""
    return run_suite(6, selection=["table1-golden"], cache=cache)[0]


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


def table1_latex(nmax: int = 6, cache: msp.MspCache | None = None) -> str:
    """Two-column LaTeX table juxtaposing the generations of both families."""
    lines = [
        r"\begin{tabular}{| l | l |}",
        r"\hline",
        r"\textbf{MSP of the 1st kind} & \textbf{MSP of the 2nd kind} \\ \hline\hline",
    ]
    for n in range(1, nmax + 1):
        for k in range(1, n + 1):
            s = msp.stirling_first_explicit(n, k, cache).to_latex()
            b = msp.bell_explicit(n, k, cache).to_latex()
            tail = r" \\ \hline" if k == n else r" \\"
            lines.append(f"$S_{{{n},{k}}}={s}$ & $B_{{{n},{k}}}={b}$" + tail)
    lines.append(r"\end{tabular}")
    return "\n".join(lines)
