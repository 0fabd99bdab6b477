"""Acceptance gate: eight oracle-backed criteria, one test each.

Every test prints a single line

    ACCEPTANCE <k> <name>: PASS|FAIL (<elapsed>s, <instances> checks)

before asserting, so a plain ``pytest -s tests/test_acceptance.py`` doubles
as a readable report. Criteria with a stated runtime budget also assert the
elapsed time.
"""

import itertools
import time
import warnings

from padic_fixvec import (
    PrincipalSeries,
    SteinbergTwist,
    Supercuspidal,
    conductor_bounds,
    delta_leq,
    depth_esi,
    dim_principal_series,
    dim_steinberg_twist,
    dim_supercuspidal_lattice,
    dim_supercuspidal_minimal,
    enumerate_unit_dual,
    factorize,
    has_fixed_vector,
    has_fixed_vector_depth,
    kirillov_basis_count,
    local_conductor_window,
    parabolic_index_closed,
    parabolic_index_enumerated,
)
from padic_fixvec.representations import (
    GenericRepresentation,
    ImplausibleConductorWarning,
)


def _finish(num, name, started, failures, instances, limit=None):
    elapsed = time.perf_counter() - started
    over_time = limit is not None and elapsed >= limit
    status = "FAIL" if (failures or over_time) else "PASS"
    timing = f"{elapsed:.2f}s" + (f" of {limit:.0f}s allowed" if limit else "")
    print(f"ACCEPTANCE {num} {name}: {status} ({timing}, {instances} checks)")
    for failure in failures[:10]:
        print(f"ACCEPTANCE {num} DETAIL: {failure}")
    assert not failures, f"{len(failures)} failure(s); first: {failures[0]}"
    assert not over_time, f"runtime {elapsed:.2f}s exceeds {limit:.0f}s budget"


def test_01_borel_coset_coefficient():
    started = time.perf_counter()
    failures, instances = [], 0
    for p in (2, 3, 5):
        for m in (1, 2):
            instances += 1
            expected = p ** (m - 1) * (p + 1)
            closed = parabolic_index_closed((1, 1), p, m)
            enumerated = parabolic_index_enumerated((1, 1), p, m)
            if not (closed == enumerated == expected):
                failures.append(
                    f"(1,1) p={p} m={m}: closed={closed}"
                    f" enumerated={enumerated} expected={expected}"
                )
    instances += 1
    closed = parabolic_index_closed((2, 1), 2, 1)
    enumerated = parabolic_index_enumerated((2, 1), 2, 1)
    if not (closed == enumerated == 7):
        failures.append(f"(2,1) p=2 m=1: {closed}, {enumerated} != 7")
    _finish(1, "borel coset coefficient", started, failures, instances,
            limit=60)


def test_02_character_class_counts():
    started = time.perf_counter()
    failures, instances = [], 0
    for p in (2, 3, 5, 7):
        for r in range(0, 5):
            if p**r > 10**6:
                continue
            instances += 1
            dual = enumerate_unit_dual(p, r)
            histogram = [0] * (r + 1)
            for _, cond in dual:
                histogram[cond] += 1
            expected = [
                1 if i == 0 else
                p - 2 if i == 1 else
                (p - 1) ** 2 * p ** (i - 2)
                for i in range(r + 1)
            ]
            if histogram != expected:
                failures.append(f"p={p} r={r}: {histogram} != {expected}")
            total = 1 if r == 0 else (p - 1) * p ** (r - 1)
            if len(dual) != total:
                failures.append(f"p={p} r={r}: total {len(dual)} != {total}")
    _finish(2, "character class counts", started, failures, instances,
            limit=30)


def test_03_supercuspidal_dimension_identity():
    started = time.perf_counter()
    failures, instances = [], 0
    for q in (2, 3, 4, 5, 7):
        for s in range(2, 9):
            for m in range(-(-s // 2), 9):
                instances += 1
                closed = dim_supercuspidal_minimal(q, s, m)
                lattice = dim_supercuspidal_lattice(q, s, m)
                kirillov = kirillov_basis_count(q, s, 0, m)
                if not (closed == lattice == kirillov):
                    failures.append(
                        f"q={q} s={s} m={m}: {closed}, {lattice}, {kirillov}"
                    )
    _finish(3, "supercuspidal dimension identity", started, failures,
            instances, limit=5)


def test_04_minimal_level_values():
    started = time.perf_counter()
    failures, instances = [], 0
    for q in (2, 3, 4, 5, 7):
        for s in range(2, 9):
            instances += 1
            if s % 2 == 0:
                m = s // 2
                expected = (q - 1) * q ** (s // 2 - 1)
            else:
                m = (s + 1) // 2
                expected = (q + 1) * (q - 1) * q ** (s // 2 - 1)
            got = dim_supercuspidal_minimal(q, s, m)
            if got != expected:
                failures.append(f"q={q} s={s} m={m}: {got} != {expected}")
    for q, s, m, expected in ((3, 2, 1, 2), (3, 3, 2, 8)):
        instances += 1
        got = dim_supercuspidal_minimal(q, s, m)
        if got != expected:
            failures.append(f"spot q={q} s={s} m={m}: {got} != {expected}")
    _finish(4, "minimal level dimension values", started, failures, instances)


def _all_induced_reps(max_n, max_c):
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            for sizes in itertools.product(range(1, n + 1), repeat=k):
                if sum(sizes) != n:
                    continue
                for conductors in itertools.product(
                    range(max_c + 1), repeat=k
                ):
                    yield GenericRepresentation.from_pairs(
                        list(zip(sizes, conductors))
                    )


def test_05_level_criteria_equivalence():
    started = time.perf_counter()
    failures, instances = [], 0
    strict_count, strict_witnesses = 0, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImplausibleConductorWarning)
        for rep in _all_induced_reps(4, 8):
            pairs = [(b.n, b.conductor) for b in rep.blocks]
            ml = rep.min_level()
            for m in range(0, 7):
                instances += 1
                by_conductor = has_fixed_vector(rep, m)
                by_min_level = ml <= m
                if by_conductor != by_min_level:
                    failures.append(f"{pairs} m={m}: criteria disagree")
                if m >= 1:
                    by_depth = all(
                        has_fixed_vector_depth(depth_esi(b.n, b.conductor), m)
                        for b in rep.blocks
                    )
                    if by_depth != by_conductor:
                        failures.append(
                            f"{pairs} m={m}: depth criterion differs"
                        )
            c_total, n_total = rep.conductor(), rep.n
            if ml >= 1:
                instances += 1
                if len(rep.blocks) == 1:
                    if not ((ml - 1) * n_total < c_total <= ml * n_total):
                        failures.append(
                            f"{pairs}: c={c_total} outside"
                            f" (({ml}-1)*{n_total}, {ml}*{n_total}]"
                        )
                else:
                    if not (ml <= c_total <= ml * n_total):
                        failures.append(
                            f"{pairs}: c={c_total} outside"
                            f" [{ml}, {ml}*{n_total}]"
                        )
                    if c_total == ml:
                        strict_count += 1
                        if len(strict_witnesses) < 3:
                            strict_witnesses.append(str(pairs))
    if strict_count:
        print(
            f"ACCEPTANCE 5 NOTE: {strict_count} multi-block reps attain the"
            f" weak window's lower edge c = m (strict lower bound c > m"
            f" fails there), e.g. {', '.join(strict_witnesses)}"
        )
    _finish(5, "level criteria equivalence and windows", started, failures,
            instances)


def test_06_exact_sequence_identity():
    started = time.perf_counter()
    failures, instances = [], 0
    for q in range(2, 8):
        for c in range(0, 7):
            for r in range(1, 7):
                instances += 1
                difference = dim_principal_series(q, c, c, r) - (
                    dim_steinberg_twist(q, c, r)
                )
                if difference != delta_leq(c, r):
                    failures.append(f"q={q} c={c} r={r}: {difference}")
    _finish(6, "principal series minus Steinberg identity", started,
            failures, instances)


def test_07_global_conductor_bounds():
    started = time.perf_counter()
    failures, instances = [], 0
    instances += 1
    spot = conductor_bounds(2, 12)
    if (spot.lower, spot.upper) != (6, 144):
        failures.append(f"(n=2, N=12): got {(spot.lower, spot.upper)}")
    for N in range(1, 10_001):
        level = factorize(N)
        for n in range(1, 5):
            instances += 1
            bounds = conductor_bounds(n, N)
            if not (bounds.lower <= N <= bounds.upper):
                failures.append(f"(n={n}, N={N}): N outside bounds")
            if n == 1 and bounds.upper != N:
                failures.append(f"(n=1, N={N}): upper != N")
            windows = [
                local_conductor_window(n, e) for _, e in level.factorization
            ]
            for pick in (0, 1):
                product = 1
                for (p, _), (lo, hi) in zip(level.factorization, windows):
                    product *= p ** (lo if pick == 0 else hi)
                if not (bounds.lower <= product <= bounds.upper):
                    failures.append(
                        f"(n={n}, N={N}): endpoint product {product}"
                        f" outside [{bounds.lower}, {bounds.upper}]"
                    )
    _finish(7, "global conductor bounds", started, failures, instances,
            limit=30)


def test_08_level_monotonicity():
    started = time.perf_counter()
    failures, instances = [], 0
    reps = (
        [Supercuspidal(s) for s in range(2, 9)]
        + [PrincipalSeries(c1, c2)
           for c1 in range(7) for c2 in range(7)]
        + [SteinbergTwist(c) for c in range(7)]
    )
    for q in (2, 3, 4, 5, 7):
        for rep in reps:
            instances += 1
            dims = [rep.dim(q, m) for m in range(0, 9)]
            if dims != sorted(dims):
                failures.append(f"q={q} {rep}: {dims}")
    _finish(8, "level monotonicity", started, failures, instances)
