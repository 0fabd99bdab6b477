import itertools
import math
import pathlib
from collections import Counter

import pytest

from padic_fixvec import gl2_dims, global_bounds, representations, verify
from padic_fixvec.budget import BudgetExceededError
from padic_fixvec.cli import main
from padic_fixvec.representations import (
    ConductorWindow,
    GenericRepresentation,
    Representation,
)
from padic_fixvec.verify import (
    MAX_FAILURE_DETAILS,
    SUITES,
    Check,
    SuiteReport,
    run_all,
)


def test_suite_registry():
    assert list(SUITES) == ["cosets", "characters", "supercuspidal", "windows"]
    assert all(callable(fn) for fn in SUITES.values())


def test_characters_suite_passes():
    report = SUITES["characters"]()
    assert report.suite == "characters"
    assert report.passed
    assert report.checks
    assert all(check.ok for check in report.checks)


def test_cosets_suite_passes_under_tiny_budget_with_notes():
    # A tiny budget forces the enumeration oracles to skip instances; the
    # suite must still pass on what remains and record each skip as a note.
    report = SUITES["cosets"](budget=1000)
    assert report.passed
    assert report.notes
    assert all("budget" in note for note in report.notes)
    names = [check.name for check in report.checks]
    assert all(note.split(": ", 1)[0] in names for note in report.notes)


def test_cosets_suite_runs_every_index_instance_at_default_budget(
    default_report,
):
    report, _ = default_report("cosets")
    assert report.passed
    assert report.notes == []
    (index,) = [c for c in report.checks
                if c.name == "parabolic_index_closed equals parabolic_index_enumerated"]
    assert index.detail == "18 instances"


def test_run_all_mirrors_registry_order(monkeypatch):
    # Stub suites: the order and the budget are all this test checks.
    calls, made = [], []

    def stub(name):
        def runner(budget):
            calls.append((name, budget))
            made.append(SuiteReport(name))
            return made[-1]
        return runner

    monkeypatch.setattr(verify, "SUITES", {name: stub(name) for name in SUITES})
    reports = run_all(budget=1000)
    assert calls == [(name, 1000) for name in SUITES]
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r is m for r, m in zip(reports, made, strict=True))


def test_suite_report_bookkeeping():
    # Every check and note is written by SuiteReport.check.
    report = SuiteReport("demo")
    report.check(((k,) for k in range(7)), {"fine": lambda k: None})
    assert report.passed
    assert report.checks[-1] == Check("fine", True, "7 instances")

    total = MAX_FAILURE_DETAILS + 3
    report.check(((k,) for k in range(10)),
                 {"broken": lambda k: k < total and f"case {k}"})
    assert not report.passed
    bad = report.checks[-1]
    assert not bad.ok
    assert "case 0" in bad.detail
    assert f"case {MAX_FAILURE_DETAILS - 1}" in bad.detail
    assert f"case {MAX_FAILURE_DETAILS}" not in bad.detail
    assert bad.detail.endswith(f"; ... {total} failures total")

    # A check with no instances verified nothing, so it fails.
    report.check([], {"empty": lambda: None})
    assert report.checks[-1] == Check("empty", False, "0 instances")
    assert report.notes == []

    def oracle(k):
        if k > 8:
            raise BudgetExceededError(k, 8, f"oracle at k={k}")
        return k == 5 and "fails at five"

    runner = SuiteReport("runner")
    runner.check([(1,), (9,)], {"counted": oracle})
    assert runner.checks == [Check("counted", True, "1 instances")]
    (skip,) = runner.notes
    assert skip.startswith("counted: (9,) skipped") and "budget" in skip

    runner.check([(9,)], {"all skipped": oracle})
    assert runner.checks[-1] == Check("all skipped", False, "0 instances")
    assert runner.notes[-1].startswith("all skipped: (9,) skipped")

    runner.check([(1,), (5,)], {"named": oracle})
    assert runner.checks[-1] == Check("named", False, "(5,): fails at five")

    runner.check(((k,) for k in range(4)), {
        "first": oracle,
        "second": lambda k: k > 3 and "too big",
    })
    assert runner.checks[-2:] == [
        Check("first", True, "4 instances"),
        Check("second", True, "4 instances"),
    ]


def test_run_all_fails_when_a_check_runs_no_instance():
    # At budget 1 every matrix and unit-dual oracle skips all its instances.
    reports = run_all(budget=1)
    assert not all(r.passed for r in reports)
    empty = [c for r in reports for c in r.checks if not c.ok]
    assert empty and all(c.detail == "0 instances" for c in empty)


GLOBAL_BOUNDS_CHECK = "local windows compose to products inside the global bounds"


def _global_bounds_detail(monkeypatch, case) -> str:
    """The windows suite's global-bounds check run on the one case."""
    monkeypatch.setattr(verify, "_global_bounds_cases", lambda: iter([case]))
    checks = {c.name: c for c in SUITES["windows"]().checks}
    assert checks[GLOBAL_BOUNDS_CHECK].ok is False
    return checks[GLOBAL_BOUNDS_CHECK].detail


def test_global_bounds_check_names_the_first_offending_prime_powers(
    monkeypatch,
):
    # Rigged local windows [1, 2 * n * e] give N = 12 = 2^2 * 3 at n = 2
    # the exponents {1, 4, 8} at 2 and {1, 2, 4} at 3, so powers (2, 16,
    # 256) and (3, 9, 81). Within the bounds [6, 144], (2, 3) and (2, 9)
    # pass; (2, 81) is the first of itertools.product's tuples outside.
    monkeypatch.setattr(global_bounds, "local_conductor_window",
                        lambda n, e: ConductorWindow(1, 2 * n * e))
    case = (2, global_bounds.GlobalLevel(12), None)
    assert (_global_bounds_detail(monkeypatch, case)
            == f"{case}: prime powers (2, 81): 162")


def test_global_bounds_check_names_an_offender_below_the_lower_bound(
    monkeypatch,
):
    # Rigged local windows [0, n * e] give N = 12 at n = 2 the exponents
    # {0, 2, 4} at 2 and {0, 1, 2} at 3. The greatest product 16 * 9 = 144
    # meets the upper bound, so only the least, (1, 1), fails: 1 < 6.
    monkeypatch.setattr(global_bounds, "local_conductor_window",
                        lambda n, e: ConductorWindow(0, n * e))
    case = (2, global_bounds.GlobalLevel(12), None)
    assert (_global_bounds_detail(monkeypatch, case)
            == f"{case}: prime powers (1, 1): 1")


def _exponent_table(window) -> dict:
    """The windows suite's (n, e) -> ascending low, middle and high
    exponents, built from the local window function given."""
    table = {}
    for n, e in itertools.product(range(1, 5), range(1, 14)):
        w = window(n, e)
        table[n, e] = sorted({w.lo, (w.lo + w.hi) // 2, w.hi})
    return table


def _bounds_hold_reference(n, level, literal, exponents) -> str | None:
    """_bounds_hold as it was before it decided from two products: every
    product is built in one list and its least and greatest compared."""
    N, bounds = level.N, level.conductor_bounds(n)
    lo, hi = bounds.lo, bounds.hi
    if literal is not None and (lo, hi) != literal:
        return f"bounds {(lo, hi)} != {literal}"
    if not lo <= N <= hi:
        return "N outside bounds"
    if n == 1 and hi != N:
        return f"upper {hi} != N"
    choices = [[p**c for c in exponents[n, e]] for p, e in level.factorization]
    products = [1]
    for powers in choices:
        products = [x * y for x in products for y in powers]
    if lo <= min(products) and max(products) <= hi:
        return None
    for powers in itertools.product(*choices):
        product = math.prod(powers)
        if not lo <= product <= hi:
            return f"prime powers {powers}: {product}"


def test_bounds_hold_equals_the_list_of_all_products():
    levels = [global_bounds.GlobalLevel(N) for N in range(1, 2001)]
    cases = [(n, level, None) for level in levels for n in range(1, 5)]
    cases += [(2, global_bounds.GlobalLevel(12), (6, 144)),
              (2, global_bounds.GlobalLevel(12), (6, 145))]
    paper = _exponent_table(global_bounds.local_conductor_window)
    assert [verify._bounds_hold(*case, paper) for case in cases] == [
        _bounds_hold_reference(*case, paper) for case in cases
    ]
    # Rigged windows fail the lower edge only ([0, n * e]), mostly the
    # upper one ([1, 2 * n * e]) or both at once ([0, 2 * n * e]: N = 12 at
    # n = 2 has least product 1 < 6 and greatest 256 * 81 > 144).
    for lo, scale in [(0, 1), (1, 2), (0, 2)]:
        rigged = _exponent_table(
            lambda n, e: ConductorWindow(lo, scale * n * e))
        got = [verify._bounds_hold(*case, rigged) for case in cases]
        assert got == [_bounds_hold_reference(*case, rigged) for case in cases]
        assert any(detail and detail.startswith("prime powers")
                   for detail in got)


def test_global_bounds_check_reports_a_literal_mismatch(monkeypatch):
    case = (2, global_bounds.GlobalLevel(12), (6, 145))
    assert (_global_bounds_detail(monkeypatch, case)
            == f"{case}: bounds (6, 144) != (6, 145)")


# Instances each check runs per suite at the default budget. A change that
# makes verify faster must not make it check less.
EXPECTED_INSTANCES = {
    "cosets": {
        "enumerated |GL_n(Z/p^m)| equals gl_order": 8,
        "enumerated parabolic size equals parabolic_order": 14,
        "gl_order(m+1) = gl_order(m) * q^(n^2)": 72,
        "is_invertible(a @ b) = is_invertible(a) and is_invertible(b)": 600,
        "parabolic_index_closed equals parabolic_index_enumerated": 18,
        "Borel index = q^(r-1) * (q+1)": 30,
        "index of a refinement is divisible by index of a coarsening": 84,
    },
    "characters": {
        "enumerated conductor histogram equals class-count formula": 20,
        "unit dual size equals (p-1) * p^(r-1)": 16,
        "class counts: running total equals (q-1) * q^(r-1)": 64,
    },
    "supercuspidal": {
        "closed form = lattice sum = Kirillov basis count": 220,
        "materialized Kirillov basis matches its interval count": 48,
        "dimension at the minimal level": 35,
        "twisting is invisible once the level passes the twisted conductor":
            2205,
        "principal series minus Steinberg twist is the trivial-quotient line":
            252,
        "dimension is nondecreasing in the level": 525,
        "positive dimension exactly when the level is >= min_level": 4725,
        "positive dimension exactly when conductor <= 2 * level": 2205,
        "unramified principal series dimension equals the coset count": 7,
    },
    "windows": {
        "conductor criterion agrees with depth criterion": 630,
        "GL_2 supercuspidal depth matches the general formula": 19,
        "min_level is the least level with a fixed vector": 9999,
        "single-block conductors lie in the square-integrable window": 36,
        "conductors lie in the generic window [m, mn]": 9999,
        "local windows compose to products inside the global bounds": 40001,
    },
}


def test_run_all_instance_counts_at_default_budget(default_report):
    # Lists, not dicts: EXPECTED_INSTANCES is in report order, and so must
    # each suite's checks be.
    reports = [default_report(suite)[0] for suite in SUITES]
    assert all(r.passed and r.notes == [] for r in reports)
    counts = {
        r.suite: [(c.name, c.detail) for c in r.checks] for r in reports
    }
    assert counts == {
        suite: [(name, f"{n} instances") for name, n in checks.items()]
        for suite, checks in EXPECTED_INSTANCES.items()
    }
    total = sum(sum(checks.values()) for checks in EXPECTED_INSTANCES.values())
    assert total == 71_832


def test_check_names_are_unique(default_report):
    # The acceptance tests and EXPECTED_INSTANCES key checks by name alone.
    names = [c.name for suite in SUITES for c in default_report(suite)[0].checks]
    assert len(names) == len(set(names))


def test_windows_grid_checks_share_one_pass(monkeypatch):
    # Both grid checks hold one stream of induced reps, which a windows run
    # walks once, not once per check.
    yielded = 0
    induced_reps = verify._all_induced_reps

    def counted(*args):
        nonlocal yielded
        for rep in induced_reps(*args):
            yielded += 1
            yield rep

    monkeypatch.setattr(verify, "_all_induced_reps", counted)
    checks = {c.name: c.detail for c in SUITES["windows"]().checks}
    assert yielded == 9999
    assert checks["min_level is the least level with a fixed vector"] == (
        "9999 instances")
    assert checks["conductors lie in the generic window [m, mn]"] == (
        "9999 instances")


def test_twist_grid_checks_share_one_pass(monkeypatch):
    # Both supercuspidal checks on the (q, s, c_chi, m) twist grid hold one
    # stream, which a supercuspidal run walks once, not once per check.
    yielded = 0
    twist_cases = verify._twist_cases

    def counted():
        nonlocal yielded
        for case in twist_cases():
            yielded += 1
            yield case

    monkeypatch.setattr(verify, "_twist_cases", counted)
    checks = {c.name: c.detail for c in SUITES["supercuspidal"]().checks}
    assert yielded == 2205
    assert checks[
        "twisting is invisible once the level passes the twisted conductor"
    ] == "2205 instances"
    assert checks["positive dimension exactly when conductor <= 2 * level"] == (
        "2205 instances")


VERIFY_BUDGET_1000 = (
    pathlib.Path(__file__).parent / "data" / "verify_budget_1000.json")


def test_verify_json_at_budget_1000_is_golden(capsys):
    # The skip path: 15 budget notes, six from the parabolic enumerator, each
    # with its required budget. To record the file again (only after a
    # deliberate change of output):
    #   padic-fixvec verify --suite all --json --budget 1000 > <the file>
    argv = ["verify", "--suite", "all", "--json", "--budget", "1000"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == VERIFY_BUDGET_1000.read_bytes()


VERIFY_DEFAULT = pathlib.Path(__file__).parent / "data" / "verify_default.json"


def test_verify_json_at_the_default_budget_is_golden(capsys):
    # Every check's name, order, verdict and instance count at the default
    # budget, byte for byte; recorded before the oracles counted in bulk.
    # To record the file again (only after a deliberate change of output):
    #   padic-fixvec verify --suite all --json > <the file>
    assert main(["verify", "--suite", "all", "--json"]) == 0
    assert capsys.readouterr().out.encode() == VERIFY_DEFAULT.read_bytes()


def _count_calls(monkeypatch, owner, name: str, calls: Counter) -> None:
    """Rebind owner.name, as bench/spans.py rebinds what it traces, to a
    wrapper that counts each call in calls[name]."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_run_all_makes_each_subject_call_it_checks(monkeypatch):
    # A faster pass must still call every subject once per case: these are
    # the calls of one default-budget run_all, counted through the same
    # module and class attributes that bench/spans.py rebinds.
    calls: Counter = Counter()
    for owner, name in [(global_bounds, "factorize"),
                        (global_bounds.GlobalLevel, "conductor_bounds"),
                        (representations, "has_fixed_vector"),
                        (representations, "conductor_window")]:
        _count_calls(monkeypatch, owner, name, calls)
    assert all(r.passed for r in run_all())
    assert calls == {"factorize": 10_001, "conductor_bounds": 40_001,
                     "has_fixed_vector": 79_334, "conductor_window": 10_035}


SHARED_DIMENSION_ROWS = (
    "twisting is invisible once the level passes the twisted conductor",
    "dimension is nondecreasing in the level",
    "positive dimension exactly when the level is >= min_level",
    "positive dimension exactly when conductor <= 2 * level",
)


def test_shared_dimension_rows_compute_each_dimension_once(monkeypatch):
    # The four supercuspidal rows that read GL_2 dimensions, run alone,
    # call Representation.dim once per distinct (q, rep, m) they check.
    rows = verify._checks

    monkeypatch.setattr(verify, "_checks", lambda budget: [
        row for row in rows(budget) if row[1] in SHARED_DIMENSION_ROWS])
    seen: Counter = Counter()
    real = Representation.dim

    def dim(rep, q, m):
        seen[q, rep, m] += 1
        return real(rep, q, m)

    monkeypatch.setattr(Representation, "dim", dim)
    report = SUITES["supercuspidal"]()
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        (name, True, f"{n} instances")
        for name, n in zip(SHARED_DIMENSION_ROWS, (2205, 525, 4725, 2205))
    ]
    reps = [gl2_dims.Supercuspidal(s, c) for s in range(2, 9) for c in range(7)]
    reps += [GenericRepresentation.from_pairs([(1, c1), (1, c2)])
             for c1 in range(7) for c2 in range(7)]
    reps += [gl2_dims.SteinbergTwist(c) for c in range(7)]
    assert seen == dict.fromkeys(
        itertools.product((2, 3, 4, 5, 7), reps, range(9)), 1)


def _reports(reports) -> list:
    return [(r.suite, r.checks, r.notes) for r in reports]


@pytest.mark.parametrize("budget", [None, 1000])
def test_suites_run_alone_match_run_all(budget):
    # No memo outlives its pass: each suite run alone, in reverse order,
    # reports what it reports inside run_all, and so does a second run_all.
    together = _reports(run_all(budget))
    alone = [SUITES[name](budget) for name in reversed(SUITES)]
    assert _reports(reversed(alone)) == together
    assert _reports(run_all(budget)) == together


def _failed_details(report) -> dict:
    return {c.name: c.detail for c in report.checks if not c.ok}


def test_least_level_failure_lists_every_level(monkeypatch):
    # has_fixed_vector rigged to turn true one level early, on one rep of
    # least level 2: the detail lists the levels 0..6 both ways.
    rep = GenericRepresentation.from_pairs([(1, 2), (1, 1)])
    monkeypatch.setattr(verify, "_all_induced_reps", lambda *_: iter([rep]))
    real = representations.has_fixed_vector
    monkeypatch.setattr(representations, "has_fixed_vector",
                        lambda rep, m: real(rep, m + 1))
    failed = _failed_details(SUITES["windows"]())
    assert failed["min_level is the least level with a fixed vector"] == (
        f"{(rep, 2)}: [False, True, True, True, True, True, True]"
        " != [False, False, True, True, True, True, True]")
    assert set(failed) == {
        "min_level is the least level with a fixed vector",
        "conductor criterion agrees with depth criterion",
    }


def test_shared_dimension_failures_name_their_case(monkeypatch):
    # One supercuspidal dimension off by one: Supercuspidal(3).dim(2, 0) is
    # 1, not 0. Each row that reads it names that one case, as it did when
    # each row computed its own dimensions.
    real = Representation.dim

    def rigged(rep, q, m):
        return real(rep, q, m) + ((q, rep.s, rep.c_chi, m) == (2, 3, 0, 0))

    monkeypatch.setattr(gl2_dims.Supercuspidal, "dim", rigged)
    rep = gl2_dims.Supercuspidal(3, 0)
    assert _failed_details(SUITES["supercuspidal"]()) == {
        "twisting is invisible once the level passes the twisted conductor":
            "(2, 3, 0, 0): 1 != 0",
        "dimension is nondecreasing in the level":
            f"{(2, rep)}: [1, 0, 3, 9, 21, 45, 93, 189, 381]",
        "positive dimension exactly when the level is >= min_level":
            f"{(2, rep, 0)}: True != False",
        "positive dimension exactly when conductor <= 2 * level":
            "(2, 3, 0, 0): True != False",
    }
