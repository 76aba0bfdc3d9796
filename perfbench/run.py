"""Run one mspkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gen-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  The run sets up the workload several times and reports the median
set-up time, then times whole blocks of ops until `--seconds` of op time
have passed.  Times are reported at a reference host speed: the speed
probe, a fixed mix of pure-Python work, runs between ops, and each op's
wall time is multiplied by REF_PROBE_MS over the probe times around it.
Every op's output goes through an oracle of the benchmark's own, outside
the timed region, and a per-op output digest is written to
`.bench_out/` so that two runs can be diffed for byte-identity.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1` the same loop runs first, then its first blocks are
replayed once without and once with the span tracer for the per-layer
metrics, then the single-op probes run with tracing off.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it holds run metadata.  The exit status is
0 when every op passed its oracle and every guard held, 1 otherwise, and
2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # so that at least 10 samples lie beyond op_ms_p90
# The host's core speed can swing 1.6x for seconds at a time, and the
# interpreter slows with it.  speed_probe() takes about REF_PROBE_MS on a
# 2-vCPU cloud host in its fast state; reported times are scaled to that.
REF_PROBE_MS = 1.3
PROBE_EVERY_S = 0.05  # wall time between speed probes in the op loop

# per-layer call counts and the workloads on which each must be nonzero;
# a zero means the tracer missed a binding
_POLY_KERNELS = ("verify-suite", "transforms-warm")
_SERIES = ("series-numeric", "verify-suite")
MUST_CALL = {
    "ptypes.partition_types.calls": ("gen-cold", "series-numeric", "verify-suite"),
    "ptypes.weight.calls": ("gen-cold", "series-numeric", "verify-suite"),
    "poly.init.calls": ("gen-cold", "verify-suite", "transforms-warm"),
    "poly.format.calls": ("gen-cold",),
    "poly.mul.calls": _POLY_KERNELS,
    "poly.add.calls": _POLY_KERNELS,
    "poly.partial_derivative.calls": _POLY_KERNELS,
    "poly.substitute.calls": _POLY_KERNELS,
    "poly.laurent.calls": _POLY_KERNELS,
    "poly.eval_rat.calls": _SERIES,
    "msp.explicit.calls": ("gen-cold", "series-numeric", "verify-suite", "transforms-warm"),
    "msp.recursive.calls": _POLY_KERNELS,
    "msp.transform.calls": _POLY_KERNELS,
    "stirling.table.calls": ("verify-suite",),
    "stirling.closed_form.calls": ("verify-suite",),
    "series.compose.calls": _SERIES,
    "series.exp_transform.calls": _SERIES,
    "series.exp_transform_inverse.calls": ("verify-suite",),
    "series.revert_msp.calls": _SERIES,
    "series.revert_comtet.calls": _SERIES,
    "series.revert_oracle.calls": _SERIES,
    "cli.main.calls": ("gen-cold", "series-numeric"),
}


def import_mspkit():
    """A fresh import of every mspkit module from the checkout's `src/`."""
    for name in [m for m in sys.modules if m == "mspkit" or m.startswith("mspkit.")]:
        del sys.modules[name]
    importlib.import_module("mspkit")
    names = ("cli", "msp", "poly", "ptypes", "series", "stirling", "verify")
    return SimpleNamespace(**{name: importlib.import_module(f"mspkit.{name}") for name in names})


def speed_probe() -> float:
    """Time of a fixed mix of the interpreter work mspkit does, in ms:
    small-int arithmetic, tuple-keyed dict stores, big-int products,
    Fraction sums and string building."""
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(4_000):
        acc = (acc + i * i) % 1_000_003
        table[(i & 63, i >> 6)] = acc
    big = 3**200
    for i in range(300):
        big = (big * (i + 7)) % 5**300
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(i % 7 - 3, i)
    " ".join(str(x) for x in range(600)).split()
    return (perf_counter() - t0) * 1000.0


def calibrate() -> float:
    """Median of nine speed probes, in ms: the `calib_ms` diagnostic."""
    return median(speed_probe() for _ in range(9))


def speed_scale(probes_ms: list[float]) -> float:
    """Factor from wall time to time at the reference speed."""
    return REF_PROBE_MS / median(probes_ms)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Record:
    """Latencies, oracle outcomes and digests of one loop over blocks."""

    def __init__(self, segment: str):
        self.segment = segment
        self.wall: list[float] = []
        self.probe_index: list[int] = []  # last speed probe before each op
        self.probes: list[float] = []
        self.block_seconds: list[float] = []  # wall op time per block
        self.failed = 0
        self.output_bytes = 0
        self.digests: list[str] = []

    @property
    def latencies(self) -> list[float]:
        """Op times in s at the reference speed.  An op is scaled by the
        median of the two probes on each side of it, so that one probe
        slowed by an interrupt does not skew it."""
        return [elapsed * speed_scale(self.probes[max(0, j - 1):j + 3])
                for elapsed, j in zip(self.wall, self.probe_index)]

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    def probe(self):
        self.probes.append(speed_probe())

    def add(self, workload, op, elapsed, result):
        self.wall.append(elapsed)
        self.probe_index.append(len(self.probes) - 1)
        label = " ".join(str(x) for x in op if isinstance(x, (str, int)))
        if isinstance(result, Exception):
            ok, dig, nbytes, why = False, "-", 0, f"raised {type(result).__name__}: {result}"
        else:
            try:
                ok, dig, nbytes = workload.check(op, result)
                why = f"wrong output, digest {dig}"
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                ok, dig, nbytes, why = False, "-", 0, f"unreadable output: {exc!r}"
        self.output_bytes += nbytes
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {workload.name} [{label}]: {why}", file=sys.stderr)
        self.digests.append(f"{self.segment}\t{len(self.digests)}\t{label}\t{'ok' if ok else 'FAIL'}\t{dig}")


def run_blocks(workload, indices, segment, tracer=None, seconds=None) -> Record:
    """Run whole blocks; with `seconds`, stop at the first block boundary
    after that much wall op time, `MIN_OPS` ops and the traced blocks."""
    rec = Record(segment)
    rec.probe()
    last_probe = perf_counter()
    for i in indices:
        block_start = len(rec.wall)
        for op in workload.block(i):
            call = workload.prepare(op)
            gc.collect()
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result = call()
            except Exception as exc:  # an op that raises is a failed op
                result = exc
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            rec.add(workload, op, elapsed, result)
            if perf_counter() - last_probe >= PROBE_EVERY_S:
                rec.probe()
                last_probe = perf_counter()
        rec.probe()  # so that every op has a probe after it
        last_probe = perf_counter()
        rec.block_seconds.append(sum(rec.wall[block_start:]))
        if seconds is not None and sum(rec.block_seconds) >= seconds and len(rec.wall) >= MIN_OPS \
                and len(rec.block_seconds) >= workload.traced_blocks:
            break
    return rec


def layer_metrics(tracer, traced: Record, replay: Record) -> dict[str, float]:
    values: dict[str, float] = {}
    for key, (calls, seconds) in tracer.spans.items():
        values[f"{key}.calls"] = calls
        values[f"{key}.self_s"] = seconds
    c = tracer.counts
    lookups = c["cache_hits"] + c["cache_misses"]
    values.update({
        "ptypes.types_out": c["types_out"],
        "poly.mul.term_pairs": c["term_pairs"],
        "poly.max_terms": c["max_terms"],
        "poly.max_coeff_bits": c["max_coeff_bits"],
        "msp.cache.hits": c["cache_hits"],
        "msp.cache.misses": c["cache_misses"],
        "msp.cache.hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
        "msp.cache.entries": c["cache_entries"],
        "cli.output_bytes": traced.output_bytes,
        "trace_overhead_ratio": traced.seconds / replay.seconds,
    })
    return values


def emit(meta: dict, correct: bool, attempted: int, failed: int, values: dict, specs: list) -> int:
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name.startswith("verify.check_ms."):
            values.setdefault(name, 0.0)
        if name not in values:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mspkit" / "__init__.py").is_file():
        print(f"error: no mspkit sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    os.environ.pop("MSPKIT_MAX_N", None)

    import probes
    from tracing import Tracer
    from workloads import WORKLOADS, GuardError

    if args.workload not in WORKLOADS or args.seconds <= 0:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} and --seconds positive")
    calib_start = calibrate()
    try:
        setup_times, setup_wall = [], []
        for _ in range(WORKLOADS[args.workload].setup_repeats):
            workload = None
            gc.collect()
            probes_ms = [speed_probe() for _ in range(3)]
            t0 = perf_counter()
            workload = WORKLOADS[args.workload](import_mspkit(), args.seed)
            elapsed = perf_counter() - t0
            probes_ms += [speed_probe() for _ in range(3)]
            setup_wall.append(elapsed)
            setup_times.append(elapsed * speed_scale(probes_ms))
        workload.prepare_oracles()
        gc.collect()
        gc.freeze()  # set-up objects are not rescanned by the per-op collections

        untraced = run_blocks(workload, itertools.count(), "untraced", seconds=args.seconds)
        # per-check wall times of the untraced passes only
        check_ms = {f"verify.check_ms.{cid}": median(times)
                    for cid, times in getattr(workload, "check_ms", {}).items() if times}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        guards = [workload.check_run()]
        records = [untraced]
        if args.trace:
            # the replay without the tracer runs in the same warm process
            # state as the traced one, for trace_overhead_ratio
            replay = run_blocks(workload, range(workload.traced_blocks), "replay")
            tracer = Tracer(workload.mods)
            tracer.install()
            try:
                traced = run_blocks(workload, range(workload.traced_blocks), "traced", tracer=tracer)
            finally:
                tracer.uninstall()
            records += [replay, traced]
            guards.append(workload.check_run(tracer))
            probe_values, probe_errors = probes.run(workload.mods, args.seed)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calib_end = calibrate()

    attempted = sum(len(r.wall) for r in records)
    failed = sum(r.failed for r in records)
    problems = [g for g in guards if g]
    latencies_ms = sorted(x * 1000.0 for x in untraced.latencies)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
        "sizes": workload.sizes(), "block_seconds": untraced.block_seconds,
        "setup_s_each": setup_times, "setup_wall_s_each": setup_wall,
        "speed_probe_ms": quantiles(untraced.probes, n=4),
        "ops_per_wall_s": len(untraced.wall) / sum(untraced.wall), "calib_ms_start": calib_start, "calib_ms_end": calib_end,
        "op_ms_p90_samples": len(latencies_ms),
        "op_ms_p90_beyond": len(latencies_ms) - 1 - int(0.9 * (len(latencies_ms) - 1)),
        "error_rate": failed / attempted,
    }

    if args.trace:
        values = layer_metrics(tracer, traced, replay)
        values.update(check_ms)
        values.update(probe_values)
        values["calib_ms"] = median([calib_start, calib_end])
        problems += [f"probe result wrong: {name}" for name in probe_errors]
        problems += [f"tracer saw no calls for {name}" for name, workloads in MUST_CALL.items()
                     if args.workload in workloads and not values.get(name)]
        meta["layer_self_share"] = tracer.layer_shares()
        specs = spec["per_layer"]
    else:
        values = {
            "ops_per_s": len(latencies_ms) / untraced.seconds,
            "op_ms_p50": median(latencies_ms),
            "op_ms_p90": quantiles(latencies_ms, n=10, method="inclusive")[8],
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        specs = spec["end_to_end"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    digest_file = out_dir / f"digests-{args.workload}-seed{args.seed}-trace{args.trace}.tsv"
    lines = [line for r in records for line in r.digests]
    digest_file.write_text("\n".join(lines) + "\n")
    # over a fixed prefix, so that runs of one seed compare whatever their length
    prefix = sum(len(workload.block(i)) for i in range(workload.traced_blocks))
    meta["output_digest"] = hashlib.sha256("\n".join(untraced.digests[:prefix]).encode()).hexdigest()[:16]
    meta["digest_file"] = str(digest_file.relative_to(ROOT))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    meta["problems"] = problems
    return emit(meta, failed == 0 and not problems, attempted, failed, values, specs)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
