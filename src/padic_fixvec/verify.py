"""Identity-verification suites: closed forms checked against enumeration.

Four suites, each pure and deterministic:

- cosets: group orders against literal enumeration over Z/p^m, parabolic
  coset indices against the oracle that counts cosets by the flags of
  their trailing row spans, the Borel index coefficient, and divisibility
  under partition refinement.
- characters: unit-dual conductor histograms against the discrete-log
  oracle and the class-count closed forms.
- supercuspidal: the three independent GL_2 dimension computations, the
  minimal-level values, twist invariance, the principal-series/Steinberg
  exact-sequence identity, monotonicity, and vanishing thresholds.
- windows: conductor/depth/level criteria for induced representations,
  exhaustively on a small grid, plus the global conductor-bound sweeps.

Instances that exceed the enumeration budget are recorded as notes, not
failures. A check that runs no instance at all fails, so no suite passes
vacuously.
"""

import itertools
import math
import random
import warnings
from dataclasses import dataclass, field

from . import characters as chars
from . import cosets, finite_ring, gl2_dims, global_bounds, representations
from .budget import BudgetExceededError

MAX_FAILURE_DETAILS = 5

# (n, p, m) of the enumerated GL_n(Z/p^m) counts, and (partition, p, m) of
# the enumerated parabolic counts (those with at most 200,000 elements).
GL_COUNT_CASES = [(2, p, m) for p in (2, 3, 5) for m in (1, 2)]
GL_COUNT_CASES += [(3, 2, 1), (3, 3, 1)]
PARABOLIC_COUNT_CASES = [
    (part, p, m)
    for part in ((1, 1), (2, 1), (1, 2), (1, 1, 1))
    for p in (2, 3) for m in (1, 2)
    if finite_ring.parabolic_order(part, p, m) <= 200_000
]


@dataclass
class Check:
    """One verified identity: a name, a verdict, and failure details."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    """Outcome of one suite: its checks plus informational notes."""

    suite: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, failures: list[str], instances: int) -> None:
        """Record a check that collected per-instance failure strings. A
        check with no instances fails: it verified nothing."""
        if failures:
            shown = "; ".join(failures[:MAX_FAILURE_DETAILS])
            if len(failures) > MAX_FAILURE_DETAILS:
                shown += f"; ... {len(failures)} failures total"
            self.checks.append(Check(name, False, shown))
        else:
            self.checks.append(
                Check(name, instances > 0, f"{instances} instances")
            )

    def note(self, text: str) -> None:
        self.notes.append(text)


def run_cosets(budget: int | None = None) -> SuiteReport:
    """Enumeration-vs-closed-form checks for GL_n(Z/p^m) and its parabolics."""
    report = SuiteReport("cosets")

    # Enumerated group sizes match the order formulas.
    failures: list[str] = []
    instances = 0
    for n, p, m in GL_COUNT_CASES:
        try:
            count = sum(1 for _ in finite_ring._enumerate_gl_rows(n, p, m, budget))
        except BudgetExceededError as exc:
            report.note(f"gl count n={n} p={p} m={m} skipped: {exc}")
            continue
        instances += 1
        expected = finite_ring.gl_order(n, p, m)
        if count != expected:
            failures.append(f"n={n} p={p} m={m}: {count} != {expected}")
    report.add("enumerated |GL_n(Z/p^m)| equals gl_order", failures, instances)

    failures, instances = [], 0
    for part, p, m in PARABOLIC_COUNT_CASES:
        try:
            count = sum(
                1 for _ in finite_ring._enumerate_parabolic_rows(
                    part, p, m, budget
                )
            )
        except BudgetExceededError as exc:
            report.note(f"parabolic count {part} p={p} m={m} skipped: {exc}")
            continue
        instances += 1
        expected = finite_ring.parabolic_order(part, p, m)
        if count != expected:
            failures.append(f"{part} p={p} m={m}: {count} != {expected}")
    report.add(
        "enumerated parabolic size equals parabolic_order", failures, instances
    )

    # Order ratio when the level rises by one.
    failures, instances = [], 0
    for n, q, m in itertools.product((1, 2, 3, 4), (2, 3, 4, 5, 7, 9), (1, 2, 3)):
        instances += 1
        lhs = finite_ring.gl_order(n, q, m + 1)
        rhs = finite_ring.gl_order(n, q, m) * q ** (n * n)
        if lhs != rhs:
            failures.append(f"n={n} q={q} m={m}: {lhs} != {rhs}")
    report.add("gl_order(m+1) = gl_order(m) * q^(n^2)", failures, instances)

    # Invertibility is multiplicative (determinants of products).
    failures, instances = [], 0
    rng = random.Random(20260815)
    for n, p, m in ((2, 3, 2), (3, 2, 1), (2, 2, 3)):
        pm = p**m
        for _ in range(200):
            a = finite_ring.MatrixModPM(p, m, tuple(
                tuple(rng.randrange(pm) for _ in range(n)) for _ in range(n)
            ))
            b = finite_ring.MatrixModPM(p, m, tuple(
                tuple(rng.randrange(pm) for _ in range(n)) for _ in range(n)
            ))
            instances += 1
            lhs = finite_ring.is_invertible(a @ b)
            rhs = finite_ring.is_invertible(a) and finite_ring.is_invertible(b)
            if lhs != rhs:
                failures.append(f"n={n} p={p} m={m}: {a.rows} x {b.rows}")
    report.add(
        "is_invertible(a @ b) = is_invertible(a) and is_invertible(b)",
        failures, instances,
    )

    # Closed-form index equals the enumerated double-coset count.
    failures, instances = [], 0
    index_cases = [((1, 1), p, m) for p in (2, 3, 5) for m in (1, 2)]
    index_cases += [(part, p, 1) for part in ((2, 1), (1, 2), (1, 1, 1))
                    for p in (2, 3, 5)]
    index_cases += [(part, 2, 2) for part in ((2, 1), (1, 2), (1, 1, 1))]
    for part, p, m in index_cases:
        closed = cosets.parabolic_index_closed(part, p, m)
        try:
            enumerated = cosets.parabolic_index_enumerated(
                part, p, m, budget=budget
            )
        except BudgetExceededError as exc:
            report.note(f"index {part} p={p} m={m} skipped: {exc}")
            continue
        instances += 1
        if closed != enumerated:
            failures.append(f"{part} p={p} m={m}: {closed} != {enumerated}")
    report.add(
        "parabolic_index_closed equals parabolic_index_enumerated",
        failures, instances,
    )

    # Borel index coefficient.
    failures, instances = [], 0
    for q, r in itertools.product((2, 3, 4, 5, 7), range(1, 7)):
        instances += 1
        closed = cosets.parabolic_index_closed((1, 1), q, r)
        expected = q ** (r - 1) * (q + 1)
        if closed != expected:
            failures.append(f"q={q} r={r}: {closed} != {expected}")
    report.add("Borel index = q^(r-1) * (q+1)", failures, instances)

    # Finer partitions give indices divisible by coarser ones.
    failures, instances = [], 0
    refinement_pairs = [
        ((1, 1, 1), (2, 1)), ((1, 1, 1), (1, 2)),
        ((1, 1, 1, 1), (2, 2)), ((1, 1, 1, 1), (2, 1, 1)),
        ((1, 1, 1, 1), (1, 3)), ((2, 1, 1), (3, 1)), ((2, 1, 1), (2, 2)),
    ]
    for (fine, coarse), q, m in itertools.product(
        refinement_pairs, (2, 3, 5, 7), (1, 2, 3)
    ):
        instances += 1
        fine_index = cosets.parabolic_index_closed(fine, q, m)
        coarse_index = cosets.parabolic_index_closed(coarse, q, m)
        if fine_index % coarse_index != 0:
            failures.append(
                f"{fine} vs {coarse} q={q} m={m}: {fine_index} % {coarse_index}"
            )
    report.add(
        "index of a refinement is divisible by index of a coarsening",
        failures, instances,
    )
    return report


def run_characters(budget: int | None = None) -> SuiteReport:
    """Unit-dual enumeration against the conductor class-count formulas."""
    report = SuiteReport("characters")

    failures: list[str] = []
    instances = 0
    for p in (2, 3, 5, 7):
        for r in range(0, 5):
            try:
                hist = chars.conductor_histogram(p, r, budget=budget)
            except BudgetExceededError as exc:
                report.note(f"histogram p={p} r={r} skipped: {exc}")
                continue
            instances += 1
            expected = [chars.num_classes_exact(p, i) for i in range(r + 1)]
            if hist != expected:
                failures.append(f"p={p} r={r}: {hist} != {expected}")
    report.add(
        "enumerated conductor histogram equals class-count formula",
        failures, instances,
    )

    failures, instances = [], 0
    for p in (2, 3, 5, 7):
        for r in range(1, 5):
            try:
                dual = chars.enumerate_unit_dual(p, r, budget=budget)
            except BudgetExceededError as exc:
                report.note(f"dual total p={p} r={r} skipped: {exc}")
                continue
            instances += 1
            expected = (p - 1) * p ** (r - 1)
            if len(dual) != expected:
                failures.append(f"p={p} r={r}: {len(dual)} != {expected}")
    report.add(
        "unit dual size equals (p-1) * p^(r-1)", failures, instances
    )

    failures, instances = [], 0
    for q, r in itertools.product(range(2, 10), range(1, 9)):
        instances += 1
        total = chars.num_classes_upto(q, r)
        by_sum = sum(chars.num_classes_exact(q, i) for i in range(r + 1))
        closed = (q - 1) * q ** (r - 1)
        if not (total == by_sum == closed):
            failures.append(f"q={q} r={r}: {total}, {by_sum}, {closed}")
    report.add(
        "class counts: running total equals (q-1) * q^(r-1)",
        failures, instances,
    )
    return report


def _gl2_grid() -> list[tuple[int, int]]:
    """The (q, s) grid shared by the supercuspidal identity checks."""
    return [(q, s) for q in (2, 3, 4, 5, 7) for s in range(2, 9)]


def run_supercuspidal(budget: int | None = None) -> SuiteReport:
    """Agreement of the three GL_2 dimension computations and their
    consequences (minimal-level values, twisting, monotonicity, vanishing)."""
    report = SuiteReport("supercuspidal")

    failures: list[str] = []
    instances = 0
    for q, s in _gl2_grid():
        for m in range(-(-s // 2), 9):
            instances += 1
            closed = gl2_dims.dim_supercuspidal_minimal(q, s, m)
            lattice = gl2_dims.dim_supercuspidal_lattice(q, s, m)
            basis = gl2_dims.kirillov_basis_count(q, s, 0, m)
            if not (closed == lattice == basis):
                failures.append(
                    f"q={q} s={s} m={m}: {closed}, {lattice}, {basis}"
                )
    report.add(
        "closed form = lattice sum = Kirillov basis count", failures, instances
    )

    # The interval count really is the size of the materialized basis.
    failures, instances = [], 0
    for q, s in itertools.product((2, 3), range(2, 6)):
        for c_psi, m in itertools.product((0, 1), range(-(-s // 2), 5)):
            instances += 1
            counted = gl2_dims.kirillov_basis_count(q, s, c_psi, m)
            materialized = gl2_dims.kirillov_basis(q, s, c_psi, m)
            if counted != len(materialized):
                failures.append(f"q={q} s={s} c_psi={c_psi} m={m}")
            elif len(set(materialized)) != len(materialized):
                failures.append(f"q={q} s={s} c_psi={c_psi} m={m}: duplicates")
    report.add(
        "materialized Kirillov basis matches its interval count",
        failures, instances,
    )

    failures, instances = [], 0
    for q, s in _gl2_grid():
        instances += 1
        if s % 2 == 0:
            m = s // 2
            expected = (q - 1) * q ** (s // 2 - 1)
        else:
            m = (s + 1) // 2
            expected = (q + 1) * (q - 1) * q ** (s // 2 - 1)
        got = gl2_dims.dim_supercuspidal_minimal(q, s, m)
        if got != expected:
            failures.append(f"q={q} s={s} m={m}: {got} != {expected}")
    report.add("dimension at the minimal level", failures, instances)

    failures, instances = [], 0
    for q, s in _gl2_grid():
        for c_chi, m in itertools.product(range(0, 7), range(0, 9)):
            instances += 1
            c = gl2_dims.twisted_conductor_minimal(s, c_chi)
            got = gl2_dims.dim_supercuspidal(q, s, c_chi, m)
            expected = (
                gl2_dims.dim_supercuspidal_minimal(q, s, m) if c <= 2 * m else 0
            )
            if got != expected:
                failures.append(f"q={q} s={s} c_chi={c_chi} m={m}: {got}")
    report.add(
        "twisting is invisible once the level passes the twisted conductor",
        failures, instances,
    )

    failures, instances = [], 0
    for q, c, r in itertools.product(range(2, 8), range(0, 7), range(1, 7)):
        instances += 1
        ps = gl2_dims.dim_principal_series(q, c, c, r)
        st = gl2_dims.dim_steinberg_twist(q, c, r)
        if ps != gl2_dims.delta_leq(c, r) + st:
            failures.append(f"q={q} c={c} r={r}: {ps} vs {st}")
    report.add(
        "principal series minus Steinberg twist is the trivial-quotient line",
        failures, instances,
    )

    failures, instances = [], 0
    level_failures: list[str] = []
    reps: list[gl2_dims.GL2Representation] = [
        gl2_dims.Supercuspidal(s, c_chi)
        for s in range(2, 9) for c_chi in range(0, 7)
    ]
    reps += [gl2_dims.PrincipalSeries(c1, c2)
             for c1 in range(0, 7) for c2 in range(0, 7)]
    reps += [gl2_dims.SteinbergTwist(c) for c in range(0, 7)]
    for q in (2, 3, 4, 5, 7):
        for rep in reps:
            dims = [rep.dim(q, m) for m in range(0, 9)]
            instances += 1
            if any(a > b for a, b in zip(dims, dims[1:])):
                failures.append(f"q={q} {rep}: {dims}")
            least = rep.min_level()
            if [d > 0 for d in dims] != [m >= least for m in range(0, 9)]:
                level_failures.append(f"q={q} {rep}: {dims}, min_level {least}")
    report.add("dimension is nondecreasing in the level", failures, instances)
    report.add(
        "positive dimension exactly when the level is >= min_level",
        level_failures, instances * 9,
    )

    failures, instances = [], 0
    for q, s in _gl2_grid():
        for c_chi, m in itertools.product(range(0, 7), range(0, 9)):
            instances += 1
            rep = gl2_dims.Supercuspidal(s, c_chi)
            positive = rep.dim(q, m) > 0
            expected = rep.effective_conductor <= 2 * m
            if positive != expected:
                failures.append(f"q={q} s={s} c_chi={c_chi} m={m}")
    report.add(
        "positive dimension exactly when conductor <= 2 * level",
        failures, instances,
    )

    failures, instances = [], 0
    for p, r in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        try:
            enumerated = cosets.parabolic_index_enumerated(
                (1, 1), p, r, budget=budget
            )
        except BudgetExceededError as exc:
            report.note(f"unramified PS oracle p={p} r={r} skipped: {exc}")
            continue
        instances += 1
        ps = gl2_dims.dim_principal_series(p, 0, 0, r)
        induced = representations.dim_induced_general((1, 1), p, r, (1, 1))
        if not (ps == induced == enumerated):
            failures.append(f"p={p} r={r}: {ps}, {induced}, {enumerated}")
    report.add(
        "unramified principal series dimension equals the coset count",
        failures, instances,
    )
    return report


def _all_induced_reps(max_n: int, max_c: int):
    """Every ordered block decomposition with sizes summing to <= max_n and
    block conductors in [0, max_c]."""
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            for sizes in itertools.product(range(1, n + 1), repeat=k):
                if sum(sizes) != n:
                    continue
                for conductors in itertools.product(
                    range(0, max_c + 1), repeat=k
                ):
                    yield representations.GenericRepresentation.from_pairs(
                        list(zip(sizes, conductors))
                    )


def run_windows(budget: int | None = None) -> SuiteReport:
    """Conductor/depth/level criteria for induced representations and the
    global conductor-bound consistency sweeps."""
    report = SuiteReport("windows")

    # The two single-block fixed-vector criteria agree.
    failures: list[str] = []
    instances = 0
    for n, c, m in itertools.product(range(1, 6), range(0, 21), range(1, 7)):
        instances += 1
        by_conductor = representations.has_fixed_vector_esi(n, c, m)
        by_depth = representations.has_fixed_vector_depth(
            representations.depth_esi(n, c), m
        )
        if by_conductor != by_depth:
            failures.append(f"n={n} c={c} m={m}")
    report.add(
        "conductor criterion agrees with depth criterion", failures, instances
    )

    failures, instances = [], 0
    for c in range(2, 21):
        instances += 1
        if representations.depth_esi(2, c) != (
            representations.depth_supercuspidal_gl2(c)
        ):
            failures.append(f"c={c}")
    report.add(
        "GL_2 supercuspidal depth matches the general formula",
        failures, instances,
    )

    min_level_failures: list[str] = []
    esi_failures: list[str] = []
    generic_failures: list[str] = []
    instances = single_block_instances = 0
    with warnings.catch_warnings():
        warnings.simplefilter(
            "ignore", representations.ImplausibleConductorWarning
        )
        for rep in _all_induced_reps(4, 8):
            instances += 1
            pairs = [(b.n, b.conductor) for b in rep.blocks]
            ml = rep.min_level()
            if not representations.has_fixed_vector(rep, ml):
                min_level_failures.append(f"{pairs}: no vector at {ml}")
            if ml >= 1 and representations.has_fixed_vector(rep, ml - 1):
                min_level_failures.append(f"{pairs}: vector below {ml}")
            c = rep.conductor()
            if len(rep.blocks) == 1:
                single_block_instances += 1
                window = representations.conductor_window(
                    rep.n, ml, square_integrable=True
                )
                if not window.contains(c):
                    esi_failures.append(f"{pairs}: c={c} not in {window}")
            window = representations.conductor_window(rep.n, ml)
            if not window.contains(c):
                generic_failures.append(f"{pairs}: c={c} not in {window}")
    report.add(
        "min_level is the least level with a fixed vector",
        min_level_failures, instances,
    )
    report.add(
        "single-block conductors lie in the square-integrable window",
        esi_failures, single_block_instances,
    )
    report.add(
        "conductors lie in the generic window [m, mn]",
        generic_failures, instances,
    )

    # Global bound formulas and the per-prime window consistency sweep.
    failures, instances = [], 0
    spot = global_bounds.conductor_bounds(2, 12)
    instances += 1
    if (spot.lower, spot.upper) != (6, 144):
        failures.append(f"(n=2, N=12): {(spot.lower, spot.upper)}")
    for N in range(1, 10_001):
        level = global_bounds.factorize(N)
        for n in range(1, 5):
            bounds = level.conductor_bounds(n)
            instances += 1
            if not (bounds.lower <= N <= bounds.upper):
                failures.append(f"(n={n}, N={N}): N outside bounds")
            if n == 1 and bounds.upper != N:
                failures.append(f"(n=1, N={N}): upper {bounds.upper} != N")
            # Each prime's distinct exponent choices, as prime powers.
            choices = []
            for p, e in level.factorization:
                lo, hi = global_bounds.local_conductor_window(n, e)
                choices.append([p**c for c in sorted({lo, (lo + hi) // 2, hi})])
            for powers in itertools.product(*choices):
                product = math.prod(powers)
                if not (bounds.lower <= product <= bounds.upper):
                    failures.append(
                        f"(n={n}, N={N}) prime powers {powers}: {product}"
                    )
    report.add(
        "local windows compose to products inside the global bounds",
        failures, instances,
    )
    return report


SUITES = {
    "cosets": run_cosets,
    "characters": run_characters,
    "supercuspidal": run_supercuspidal,
    "windows": run_windows,
}


def run_all(budget: int | None = None) -> list[SuiteReport]:
    """Run every suite in declaration order."""
    return [runner(budget) for runner in SUITES.values()]
