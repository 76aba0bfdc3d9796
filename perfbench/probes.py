"""Single-op timings, tracing off, for the baseline table in ROADMAP.md.

Each probe starts from a fresh MspCache and reports the median of a few
repeats in milliseconds.  `DEFAULT_GEN_DEPTH = 12` and the "n around 20"
ceiling of `msp gen` can be re-derived from the S-row probes.
"""

from __future__ import annotations

import gc
import random
from statistics import median
from time import perf_counter

import oracles
from workloads import random_egf

REPEATS = 3


def _time(fn) -> tuple[float, object]:
    times, result = [], None
    for _ in range(REPEATS):
        gc.collect()
        t0 = perf_counter()
        result = fn()
        times.append((perf_counter() - t0) * 1000.0)
    return median(times), result


def run(mods, seed: int) -> tuple[dict[str, float], list[str]]:
    """Probe timings by metric name, and a list of wrong results."""
    msp, series, stirling = mods.msp, mods.series, mods.stirling
    rng = random.Random(f"probe:{seed}")
    f30 = series.EgfCoeffs(tuple(random_egf(rng, 30)))
    g30 = series.EgfCoeffs(tuple(random_egf(rng, 30)))
    f20 = f30.truncate(20)
    s1 = stirling.s1_table(30)
    out: dict[str, float] = {}
    errors: list[str] = []

    def row(fn, n):
        cache = msp.MspCache()
        return [fn(n, k, cache) for k in range(1, n + 1)]

    def check_s_row(name, polys, n):
        if [sum(c for _, c in p.terms()) for p in polys] != [s1.value(n, k) for k in range(1, n + 1)]:
            errors.append(name)

    for n in (12, 20, 24, 30):
        out[f"probe.S_row_ms.{n}"], polys = _time(lambda: row(msp.stirling_first_explicit, n))
        check_s_row(f"probe.S_row_ms.{n}", polys, n)
    out["probe.S20_recursive_ms"], polys = _time(lambda: row(msp.stirling_first_recursive, 20))
    check_s_row("probe.S20_recursive_ms", polys, 20)
    out["probe.B30_row_ms"], polys = _time(lambda: row(msp.bell_explicit, 30))
    s2 = stirling.s2_table(30)
    if [sum(c for _, c in p.terms()) for p in polys] != [s2.value(30, k) for k in range(1, 31)]:
        errors.append("probe.B30_row_ms")

    inverses = {}
    for order, f in ((20, f20), (30, f30)):
        for path in ("msp", "comtet", "oracle"):
            if path == "comtet" and order == 30:
                continue
            fn = getattr(series, f"revert_{path}")
            args = (f, msp.MspCache()) if path == "comtet" else (f,)
            out[f"probe.revert_{path}_ms.{order}"], inverses[path, order] = _time(lambda: fn(*args))
    if not (inverses["msp", 20] == inverses["comtet", 20] == inverses["oracle", 20]):
        errors.append("probe.revert_ms.20")
    if inverses["msp", 30] != inverses["oracle", 30]:
        errors.append("probe.revert_ms.30")
    if not oracles.is_inverse(list(f20), list(inverses["msp", 20])):
        errors.append("probe.revert_msp_ms.20")

    out["probe.compose_ms.30"], h = _time(lambda: series.egf_compose(f30, g30, 30))
    if list(h) != oracles.compose(list(f30), list(g30), 30):
        errors.append("probe.compose_ms.30")
    return out, errors
