"""The benchmark's span tracer (perfbench/tracing.py) against the library.

The tracer wraps mspkit's public functions from outside the package; these
tests load it by path, so a renamed or inlined function, or a weight
function captured where the tracer cannot patch it, fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from mspkit import cli, msp, poly, ptypes, series, stirling, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_msp_layer(capsys, monkeypatch):
    mods = SimpleNamespace(
        cli=cli, msp=msp, poly=poly, ptypes=ptypes, series=series, stirling=stirling, verify=verify
    )
    monkeypatch.setattr(msp, "_DEFAULT_CACHE", msp.MspCache())
    originals = (msp.bell_explicit, msp.subset_fn, msp.partition_types, msp._GENERATORS["B"])
    tracer = load_tracing().Tracer(mods)
    tracer.install()
    tracer.enabled = True
    spans = tracer.spans
    keys = ("ptypes.partition_types", "ptypes.weight", "msp.explicit")
    try:
        for kind in ("S", "B", "Bt", "L", "A"):
            # a cold default cache, as in a fresh `msp gen` process
            msp._DEFAULT_CACHE = msp.MspCache()
            before = [spans[key][0] for key in keys]
            assert cli.main(["msp", "gen", "--kind", kind, "--n", "6"]) == 0
            after = [spans[key][0] for key in keys]
            assert after[2] > before[2], kind
            if kind in ("S", "B", "L", "A"):
                # the block descent enumerates no type list and calls no weight
                assert after[:2] == before[:2], kind
            else:
                assert after[0] > before[0] and after[1] > before[1], kind
        msp.cor45_expand(6, 3, msp.MspCache())
        msp.bell_recursive(6, 3, msp.MspCache())
    finally:
        tracer.uninstall()
    assert "trace:" not in capsys.readouterr().err
    for key in ("msp.explicit", "msp.transform", "msp.recursive",
                "ptypes.partition_types", "ptypes.weight"):
        assert spans[key][0] > 0, key
    assert tracer.counts["cache_misses"] > 0
    assert (msp.bell_explicit, msp.subset_fn, msp.partition_types, msp._GENERATORS["B"]) == originals


def test_tracer_sees_verify_calls(capsys):
    # the triangle checks must call msp and stirling through their modules,
    # where the tracer's wrappers sit, and not through captured functions
    mods = SimpleNamespace(
        cli=cli, msp=msp, poly=poly, ptypes=ptypes, series=series, stirling=stirling, verify=verify
    )
    tracer = load_tracing().Tracer(mods)
    tracer.install()
    tracer.enabled = True
    keys = ("msp.recursive", "msp.transform", "stirling.closed_form")
    try:
        before = [tracer.spans[key][0] for key in keys]
        results = verify.run_suite(
            4, selection=["crosspath-bell", "thm6.4-schloemilch-poly", "eq6.9-schloemilch-numbers"]
        )
        after = [tracer.spans[key][0] for key in keys]
    finally:
        tracer.uninstall()
    assert "trace:" not in capsys.readouterr().err
    assert all(r.passed for r in results)
    for key, b, a in zip(keys, before, after):
        assert a > b, key


def test_tracer_sees_every_verify_suite_span(capsys):
    # the benchmark's own guard: every span that perfbench/run.py requires on
    # the verify-suite workload must grow under the whole suite, so a check
    # that captured a function object at import fails here first
    spec = importlib.util.spec_from_file_location("perfbench_run", TRACING.with_name("run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    keys = [name.removesuffix(".calls") for name, workloads in run.MUST_CALL.items()
            if "verify-suite" in workloads]
    mods = SimpleNamespace(
        cli=cli, msp=msp, poly=poly, ptypes=ptypes, series=series, stirling=stirling, verify=verify
    )
    tracer = load_tracing().Tracer(mods)
    tracer.install()
    tracer.enabled = True
    try:
        before = [tracer.spans[key][0] for key in keys]
        results = verify.run_suite(4, cache=msp.MspCache())
        after = [tracer.spans[key][0] for key in keys]
    finally:
        tracer.uninstall()
    assert "trace:" not in capsys.readouterr().err
    assert keys and all(r.passed for r in results)
    for key, b, a in zip(keys, before, after):
        assert a > b, key


def test_tracer_sees_every_transforms_warm_span(capsys, monkeypatch):
    # the same guard for transforms-warm: one op of each of the workload's
    # transforms, snk1_nested and the two recursive generators, on a cache
    # prefilled and warmed as the workload's set-up does, must make every
    # span that perfbench/run.py requires there grow, so a kernel that stops
    # calling into a traced layer fails here first
    monkeypatch.syspath_prepend(str(TRACING.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", TRACING.with_name("run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    keys = [name.removesuffix(".calls") for name, workloads in run.MUST_CALL.items()
            if "transforms-warm" in workloads]
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  TRACING.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    mods = SimpleNamespace(
        cli=cli, msp=msp, poly=poly, ptypes=ptypes, series=series, stirling=stirling, verify=verify
    )

    class SmallTransformsWarm(workloads.TransformsWarm):
        NS = (6,)
        NESTED_NS = (6,)

    workload = SmallTransformsWarm(mods, seed=1)
    ops = list({op[0]: op for op in workload.block(0)}.values())
    labels = {op[0] for op in ops}
    assert labels == {f[0] for f in workload.FAMILIES} | {"snk1_nested", *workload.RECURSIVE}
    tracer = load_tracing().Tracer(mods)
    tracer.install()
    try:
        before = [tracer.spans[key][0] for key in keys]
        tracer.enabled = True
        results = [workload.prepare(op)() for op in ops]
        tracer.enabled = False
        after = [tracer.spans[key][0] for key in keys]
    finally:
        tracer.uninstall()
    assert "trace:" not in capsys.readouterr().err
    assert all(workload.check(op, result)[0] for op, result in zip(ops, results))
    assert workload.check_run() is None
    assert keys
    for key, b, a in zip(keys, before, after):
        assert a > b, key


def load_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(TRACING.parent))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", TRACING.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_cold_workload_guards_hold(capsys, monkeypatch, workload_cls, ops_of):
    # run the ops that ops_of picks from the workload through its own
    # prepare and check under the tracer: every span that perfbench/run.py
    # requires on the workload must grow, and its cold-cache guard must hold
    run = load_perfbench(monkeypatch, "run")
    keys = [name.removesuffix(".calls") for name, workloads in run.MUST_CALL.items()
            if workload_cls.name in workloads]
    monkeypatch.setattr(msp, "_DEFAULT_CACHE", msp.MspCache())
    mods = SimpleNamespace(
        cli=cli, msp=msp, poly=poly, ptypes=ptypes, series=series, stirling=stirling, verify=verify
    )
    workload = workload_cls(mods, seed=1)
    workload.prepare_oracles()
    ops = ops_of(workload)
    tracer = load_tracing().Tracer(mods)
    tracer.install()
    try:
        before = [tracer.spans[key][0] for key in keys]
        tracer.enabled = True
        results = [workload.prepare(op)() for op in ops]
        tracer.enabled = False
        after = [tracer.spans[key][0] for key in keys]
    finally:
        tracer.uninstall()
    assert "trace:" not in capsys.readouterr().err
    assert all(workload.check(op, result)[0] for op, result in zip(ops, results))
    assert workload.check_run(tracer) is None
    assert keys
    for key, b, a in zip(keys, before, after):
        assert a > b, key


def test_tracer_sees_every_gen_cold_span(capsys, monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")

    class SmallGenCold(workloads.GenCold):
        NS = (6,)

    def ops_of(w):
        return [(kind, n, fmt) for kind in w.KINDS for n in w.NS for fmt in w.FORMATS]

    assert_cold_workload_guards_hold(capsys, monkeypatch, SmallGenCold, ops_of)


def test_tracer_sees_every_series_numeric_span(capsys, monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")

    class SmallSeriesNumeric(workloads.SeriesNumeric):
        ORDERS = COMTET_ORDERS = (6,)

    def ops_of(w):
        ops = w.block(0)  # one op of each command at the one order
        assert sorted(op[0] for op in ops) == sorted(w.COMMANDS + w.COMTET_COMMANDS)
        return ops

    assert_cold_workload_guards_hold(capsys, monkeypatch, SmallSeriesNumeric, ops_of)
