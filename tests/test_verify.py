"""Tests for the identity-suite runner itself."""

from __future__ import annotations

import pytest

from mspkit import msp, series, stirling, verify
from mspkit.poly import LaurentX1, MPoly


def test_suite_passes_at_depth_6():
    results = verify.run_suite(6)
    assert results, "registry must not be empty"
    assert all(r.passed for r in results)
    assert len(results) == len(verify.check_ids())


def test_suite_minimal_depth():
    results = verify.run_suite(1)
    assert all(r.passed for r in results)


def test_check_ids_unique_and_stable():
    ids = verify.check_ids()
    assert len(ids) == len(set(ids))
    assert "table1-golden" in ids
    assert "thm5.1-inversion" in ids


def test_selection_and_unknown_id():
    results = verify.run_suite(4, selection=["table1-golden", "rem3.4-degrees"])
    assert [r.check_id for r in results] == ["table1-golden", "rem3.4-degrees"]
    with pytest.raises(ValueError) as err:
        verify.run_suite(4, selection=["no-such-check"])
    assert "table1-golden" in str(err.value)


def test_fault_injection_names_the_cell():
    cache = msp.MspCache()
    cache.put("B", 4, 2, MPoly.var(1))  # corrupt one cache entry
    result = verify.run_suite(6, selection=["table1-golden"], cache=cache)[0]
    assert not result.passed
    assert result.counterexample is not None
    assert "(B,4,2)" in result.counterexample


def test_failing_results_carry_counterexamples():
    cache = msp.MspCache()
    cache.put("S", 3, 1, MPoly.var(2))
    results = verify.run_suite(
        3, selection=["table1-golden", "crosspath-stirling"], cache=cache
    )
    for r in results:
        assert not r.passed
        assert r.counterexample


def test_reports_are_deterministic():
    a = verify.run_suite(5, seed=17)
    b = verify.run_suite(5, seed=17)
    assert verify.report_json(a, 5, 17) == verify.report_json(b, 5, 17)
    assert verify.report_text(a) == verify.report_text(b)
    # a different seed changes the random draws but not the ids
    c = verify.run_suite(5, seed=18)
    assert [r.check_id for r in c] == [r.check_id for r in a]
    assert all(r.passed for r in c)


@pytest.mark.parametrize(
    "seed", [True, False, 1.0, "1", None, object()],
    ids=["true", "false", "float", "str", "none", "object"],
)
def test_seed_must_be_an_int(seed):
    # True == 1, yet it would seed a stream of its own and report "seed": true
    with pytest.raises(ValueError, match="seed must be an int"):
        verify.run_suite(2, selection=["table1-golden"], seed=seed)


def test_negative_seed_is_valid():
    a = verify.run_suite(4, seed=-1)
    assert all(r.passed for r in a)
    assert verify.report_json(a, 4, -1) == verify.report_json(verify.run_suite(4, seed=-1), 4, -1)
    assert '"seed": -1' in verify.report_json(a, 4, -1)


def test_report_text_shape():
    results = verify.run_suite(2)
    text = verify.report_text(results)
    lines = text.splitlines()
    assert lines[-1].endswith("0 failure(s)")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_golden_table_check_op():
    [result] = verify.run_suite(6, selection=["table1-golden"])
    assert result.passed
    assert result.check_id == "table1-golden"


def test_max_n_validation():
    with pytest.raises(ValueError):
        verify.run_suite(0)


def test_wall_times_recorded_but_not_reported():
    results = verify.run_suite(2)
    assert all(r.wall_ms >= 0 for r in results)
    assert "wall" not in verify.report_json(results, 2, 0)


def test_empty_selection_rejected():
    with pytest.raises(ValueError, match="empty check selection"):
        verify.run_suite(3, selection=[])


@pytest.mark.parametrize(
    "check_id, name, want",
    [
        ("crosspath-bell", "bell_recursive", "B at (3,2): 3*X1*X2 != 1 + 3*X1*X2"),
        ("crosspath-stirling", "stirling_first_recursive",
         "S at (3,2): -3*X1*X2 != 1 - 3*X1*X2"),
        ("thm6.1-assoc-expansion", "stirling_first_from_assoc",
         "S at (3,2): -3*X1*X2 != 1 - 3*X1*X2"),
        ("cor4.5-expansion", "cor45_expand", "B at (3,2): 1 + 3*X1*X2 != 3*X1*X2"),
        ("eq6.8-inversion", "eq68_invert", "Bt at (3,2): 1 != 0"),
        ("thm6.4-schloemilch-poly", "first_from_second_schloemilch",
         "(i) at (3,2): (-3*X2 + X1^4)/X1^4 != -3*X2/X1^4"),
        ("thm6.4-schloemilch-poly", "second_from_first", "(ii) at (3,2): 1 + 3*X1*X2 != 3*X1*X2"),
        ("cor5.4-compose", "compose_transform", "(i) at (3,2): 1 - 3*X1*X2 != -3*X1*X2"),
        ("cor5.4-compose", "compose_transform_second", "(ii) at (3,2): 1 + 3*X1*X2 != 3*X1*X2"),
    ],
)
def test_triangle_driver_names_identity_cell_and_values(monkeypatch, check_id, name, want):
    # the driver looks msp functions up when it calls them, so a patched
    # transform is what gets compared
    real = getattr(msp, name)

    def off_by_one(n, k, cache=None):
        got = real(n, k, cache)
        return got + 1 if (n, k) == (3, 2) else got

    monkeypatch.setattr(msp, name, off_by_one)
    result = verify.run_suite(5, selection=[check_id])[0]
    assert not result.passed
    assert result.counterexample == want
    assert verify.report_text([result]) == (
        f"FAIL  {check_id}  [1<=k<=n<=5]  -- {want}\n1 checks, 1 failure(s)")


@pytest.mark.parametrize(
    "check_id, name, params, want",
    [
        # a closed formula against its table, off by one at (3,2)
        ("eq6.7-cycle-formula", "s2_via_cycle", "1<=k<=n<=5", "s2 at (3,2): 4 != 3"),
        ("eq6.9-schloemilch-numbers", "s1_schloemilch", "1<=k<=n<=5", "s1 at (3,2): -2 != -3"),
        ("eq6.10-assoc-numbers", "s1_via_assoc", "1<=k<=n<=5", "s1 at (3,2): -2 != -3"),
        ("rem4.1-bertrand", "s2_bertrand", "1<=k<=n<=5", "s2 at (3,2): 4 != 3"),
        # a whole-table predicate that fails
        ("ex5.2-orthogonality", "stirling_orthogonality_check", "n<=5",
         "s1*s2 = identity: False != True"),
        ("ex5.2-lah-self-inverse", "lah_self_inverse_check", "n<=5",
         "signed Lah table is self-inverse: False != True"),
        ("ex5.8-summation-identities", "example58_identities", "n<=5",
         "cycle/subset summation identities: False != True"),
    ],
)
def test_number_checks_name_the_cell_or_table_and_values(monkeypatch, check_id, name, params,
                                                         want):
    # the driver looks stirling functions up when it calls them, so a patched
    # formula or predicate is what gets checked
    real = getattr(stirling, name)

    def corrupted(n, *args):
        if not args:  # a predicate, called with the depth alone
            return False
        got = real(n, *args)
        return got + 1 if (n, args[0]) == (3, 2) else got

    monkeypatch.setattr(stirling, name, corrupted)
    result = verify.run_suite(5, selection=[check_id])[0]
    assert not result.passed
    assert result.counterexample == want
    assert verify.report_text([result]) == (
        f"FAIL  {check_id}  [{params}]  -- {want}\n1 checks, 1 failure(s)")


@pytest.mark.parametrize(
    "check_id, name, key, want",
    [
        ("thm5.1-inversion", "lie_first", (4, 2), "sum_j A[4,j]B[j,1]: X2^2/X1^6 != 0"),
        ("cor5.2-sequence-inversion", "family", ("A", 5, 3),
         "n=5: recovered vs original: (44*X1^2*X2 + 93*X2*X3^3 + 195*X2^2*X3^2"
         " - 63*X1*X2^3*X3^2 + 105*X1*X2^5 - 13*X1^2*X2^3*X3 + 26*X1^2*X2^3*X3*X4"
         " + 291*X1^3*X2^4 + 45*X1^6*X2 + 26*X1^6*X2^3*X3^2 - 85*X1^8*X2^3*X3^2)/X1^6"
         " != 45*X2 + 26*X2^3*X3^2 - 85*X1^2*X2^3*X3^2"),
    ],
    ids=["thm5.1-inversion", "cor5.2-sequence-inversion"],
)
def test_laurent_checks_report_the_sum_and_the_target(monkeypatch, check_id, name, key, want):
    # X2 added to one numerator of the Laurent family A; each check sums
    # its sides over a common power of X1 and prints the sum in lowest terms
    real = getattr(msp, name)

    def corrupted(*args):
        got = real(*args)
        if args[: len(key)] == key:
            return LaurentX1(got.num + MPoly.var(2), got.x1_den)
        return got

    monkeypatch.setattr(msp, name, corrupted)
    result = verify.run_suite(8, selection=[check_id], seed=0)[0]
    assert not result.passed
    assert result.counterexample == want


@pytest.mark.parametrize("max_n", [True, 2.5, "4"])
def test_max_n_must_be_an_int(max_n):
    with pytest.raises(ValueError, match="max_n must be an int"):
        verify.run_suite(max_n)


def test_selection_must_not_be_a_string():
    with pytest.raises(ValueError, match="list of check ids"):
        verify.run_suite(4, selection="table1-golden")


@pytest.mark.parametrize(
    "selection",
    [2.0, True, -1, object(), (cid for cid in ["table1-golden"])],
    ids=["float", "bool", "int", "object", "generator"],
)
def test_selection_must_be_a_list_or_tuple(selection):
    with pytest.raises(ValueError, match="list of check ids"):
        verify.run_suite(4, selection=selection)


def _bump_last(g):
    return series.EgfCoeffs(g.coeffs[:-1] + (g.coeffs[-1] + 1,))


@pytest.mark.parametrize(
    "check_id, module, name, key, nth, change, want",
    [
        # a loop over the cells and the indeterminates of each cell
        ("cor4.4-derivative", msp, "bell_explicit", (3, 2), 1, lambda p: p + MPoly.var(1),
         lambda *_: "dB[3,2]/dX1 = C(3,1)B[2,1]: 1 + 3*X2 != 3*X2"),
        # a predicate
        ("rem5.4-x1-bounds", msp, "stirling_first_explicit", (3, 2), 1,
         lambda p: p.shift_x1(-1), lambda *_: "S[3,2] lowest X1 power 0 >= 1: False != True"),
        # a number table
        ("rem4.1-bertrand", stirling, "s2_bertrand", (4, 2), 1, lambda v: v + 1,
         lambda *_: "s2 at (4,2): 8 != 7"),
        # random trials: the oracle path goes wrong on the third input
        ("sec7-revert-three-paths", series, "revert_oracle", (), 3, _bump_last,
         lambda f, good, bad: f"trial 2: f={list(f)}, oracle vs MSP: {list(bad)} != {list(good)}"),
    ],
    ids=["cor4.4-derivative", "rem5.4-x1-bounds", "rem4.1-bertrand", "sec7-revert-three-paths"],
)
def test_counterexample_names_cell_or_trial_and_both_values(
    monkeypatch, check_id, module, name, key, nth, change, want
):
    # corrupt the nth result of module.name among the calls whose leading
    # arguments are `key`
    real = getattr(module, name)
    calls, corruption = [], []

    def corrupted(*args):
        got = real(*args)
        if args[: len(key)] == key:
            calls.append(args)
            if len(calls) == nth:
                corruption[:] = [args[0], got, change(got)]
                return corruption[2]
        return got

    monkeypatch.setattr(module, name, corrupted)
    result = verify.run_suite(5, selection=[check_id])[0]
    assert not result.passed
    assert result.counterexample == want(*corruption)


def _raise_at(n, exc):
    """A stand-in for msp.cor45_expand that raises `exc` at row n."""
    real = msp.cor45_expand

    def patched(m, k, cache=None):
        if m == n:
            raise exc
        return real(m, k, cache)

    return patched


def test_a_check_that_raises_fails_and_the_suite_goes_on(monkeypatch):
    monkeypatch.setattr(msp, "cor45_expand",
                        _raise_at(7, ValueError("value has denominator X1^1")))
    results = verify.run_suite(8)
    assert len(results) == len(verify.check_ids()) == 31
    failed = [r for r in results if not r.passed]
    assert [r.check_id for r in failed] == ["cor4.5-expansion"]
    assert failed[0].counterexample == "raised ValueError: value has denominator X1^1"
    assert failed[0].wall_ms >= 0
    line = "FAIL  cor4.5-expansion  [1<=k<=n<=8]  -- raised ValueError: value has denominator X1^1"
    assert line in verify.report_text(results).splitlines()


@pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(3)],
                         ids=["KeyboardInterrupt", "SystemExit"])
def test_an_interrupt_inside_a_check_still_stops_the_suite(monkeypatch, exc):
    monkeypatch.setattr(msp, "cor45_expand", _raise_at(2, exc))
    with pytest.raises(type(exc)):
        verify.run_suite(4)
