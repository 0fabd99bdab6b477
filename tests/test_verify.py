from padic_fixvec.budget import ENV_BUDGET
from padic_fixvec.verify import (
    MAX_FAILURE_DETAILS,
    SUITES,
    SuiteReport,
    run_all,
    run_characters,
    run_cosets,
)


def test_suite_registry():
    assert list(SUITES) == ["cosets", "characters", "supercuspidal", "windows"]
    assert all(callable(fn) for fn in SUITES.values())


def test_characters_suite_passes():
    report = run_characters()
    assert report.suite == "characters"
    assert report.passed
    assert report.checks
    assert all(check.ok for check in report.checks)


def test_cosets_suite_passes_under_tiny_budget_with_notes():
    # A tiny budget forces the enumeration oracles to skip instances; the
    # suite must still pass on what remains and record each skip as a note.
    report = run_cosets(budget=1000)
    assert report.passed
    assert report.notes
    assert all("budget" in note for note in report.notes)


def test_cosets_suite_runs_every_index_instance_at_default_budget(monkeypatch):
    monkeypatch.delenv(ENV_BUDGET, raising=False)
    report = run_cosets()
    assert report.passed
    assert report.notes == []
    (index,) = [c for c in report.checks
                if c.name == "parabolic_index_closed equals parabolic_index_enumerated"]
    assert index.detail == "18 instances"


def test_run_all_mirrors_registry_order():
    reports = run_all(budget=1000)
    assert [r.suite for r in reports] == list(SUITES)


def test_suite_report_bookkeeping():
    report = SuiteReport("demo")
    report.add("fine", [], instances=7)
    assert report.passed
    assert report.checks[-1].ok
    assert "7 instances" in report.checks[-1].detail

    failures = [f"case {i}" for i in range(MAX_FAILURE_DETAILS + 3)]
    report.add("broken", failures, instances=10)
    assert not report.passed
    bad = report.checks[-1]
    assert not bad.ok
    assert "case 0" in bad.detail
    assert f"case {MAX_FAILURE_DETAILS - 1}" in bad.detail
    assert f"case {MAX_FAILURE_DETAILS}" not in bad.detail

    report.note("heads-up")
    assert report.notes == ["heads-up"]


def test_run_all_fails_when_a_check_runs_no_instance():
    # At budget 1 every matrix and unit-dual oracle skips all its instances.
    reports = run_all(budget=1)
    assert not all(r.passed for r in reports)
    empty = [c for r in reports for c in r.checks if not c.ok]
    assert empty and all(c.detail == "0 instances" for c in empty)
