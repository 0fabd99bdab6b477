"""Acceptance gate: eight oracle-backed criteria, one test each.

Each criterion is a view over named checks of the verify suites, which hold
its only definition. A test reads its suite's default-budget report from
the session cache in conftest.py, where each suite runs once, and prints
the verdict line

    ACCEPTANCE <k> <name>: PASS|FAIL (<elapsed>s, <suite> suite)

then one line per check it reads, with that check's instance count, and
asserts that those checks passed and that the suite recorded no note. A plain
``pytest -s tests/test_acceptance.py`` doubles as a readable report.
Criteria with a stated runtime budget also assert the suite's elapsed time,
measured when the cache ran it.
"""


def _accept(default_report, num, name, suite, check_names, limit=None):
    report, elapsed = default_report(suite)
    checks = [check for check in report.checks if check.name in check_names]
    over_time = limit is not None and elapsed >= limit
    passed = (len(checks) == len(check_names) and not report.notes
              and all(check.ok for check in checks) and not over_time)
    timing = f"{elapsed:.2f}s" + (f" of {limit:.0f}s allowed" if limit else "")
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'}"
          f" ({timing}, {suite} suite)")
    for check in checks:
        print(f"ACCEPTANCE {num} CHECK {check.name}: {check.detail}")
    for note in report.notes:
        print(f"ACCEPTANCE {num} NOTE: {note}")
    assert len(checks) == len(check_names), "a named verify check is missing"
    assert all(check.ok for check in checks), [c.detail for c in checks]
    assert not report.notes, f"{len(report.notes)} skipped instance(s)"
    assert not over_time, f"runtime {elapsed:.2f}s exceeds {limit:.0f}s budget"


def test_01_borel_coset_coefficient(default_report):
    _accept(default_report, 1, "borel coset coefficient", "cosets", [
        "parabolic_index_closed equals parabolic_index_enumerated",
        "Borel index = q^(r-1) * (q+1)",
    ], limit=60)


def test_02_character_class_counts(default_report):
    _accept(default_report, 2, "character class counts", "characters", [
        "enumerated conductor histogram equals class-count formula",
        "unit dual size equals (p-1) * p^(r-1)",
    ], limit=30)


def test_03_supercuspidal_dimension_identity(default_report):
    _accept(default_report, 3, "supercuspidal dimension identity",
            "supercuspidal", [
        "closed form = lattice sum = Kirillov basis count",
    ], limit=5)


def test_04_minimal_level_values(default_report):
    _accept(default_report, 4, "minimal level dimension values",
            "supercuspidal", [
        "dimension at the minimal level",
    ])


def test_05_level_criteria_equivalence(default_report):
    _accept(default_report, 5, "level criteria equivalence and windows",
            "windows", [
        "conductor criterion agrees with depth criterion",
        "min_level is the least level with a fixed vector",
        "single-block conductors lie in the square-integrable window",
        "conductors lie in the generic window [m, mn]",
    ])


def test_06_exact_sequence_identity(default_report):
    _accept(default_report, 6, "principal series minus Steinberg identity",
            "supercuspidal", [
        "principal series minus Steinberg twist is the trivial-quotient line",
    ])


def test_07_global_conductor_bounds(default_report):
    _accept(default_report, 7, "global conductor bounds", "windows", [
        "local windows compose to products inside the global bounds",
    ], limit=30)


def test_08_level_monotonicity(default_report):
    _accept(default_report, 8, "level monotonicity", "supercuspidal", [
        "dimension is nondecreasing in the level",
    ])
