"""Identity-verification suites: closed forms checked against enumeration.

Four suites, each pure and deterministic:

- cosets: group orders against enumeration over Z/p^m, counted without
  building the matrices: |GL_n| sums the lists of last rows that complete
  each prefix of n - 1 rows to a unit determinant, |P| multiplies the
  lengths of the blocks' row-group lists. Parabolic coset indices against
  the oracle that counts cosets by the flags of their trailing row spans,
  the Borel index coefficient, and divisibility under partition
  refinement.
- characters: unit-dual conductor histograms against the discrete-log
  oracle and the class-count closed forms.
- supercuspidal: the GL_2 closed form against the twist-class sum (the
  lattice sum is the Kirillov count at c_psi = 0), the minimal-level
  values, twist invariance, the principal-series/Steinberg exact-sequence
  identity, monotonicity, and vanishing thresholds. A principal series is
  the induced representation of its two characters.
- windows: conductor/depth/level criteria for induced representations,
  exhaustively on a small grid, plus the global conductor-bound sweeps.

Every check is one row (suite, name, cases, test) of the table that
_checks(budget) builds, in report order. A test takes the arguments of one
case and returns a failure detail, or a false value when its identity
holds. A pass is one distinct cases object of a suite with the tests of
the rows that hold it, run by SuiteReport.check, the only writer of checks
and notes; the checks are then reported in table order. Rows that read
the same values share a memo made per _checks call, so a pass computes
each GL_2 dimension once. Building the table runs no case: a stream that
needs the package's objects is a generator. Cases that exceed the
enumeration budget are recorded as notes, not failures. A check that runs
no instance at all fails, so no suite passes vacuously. The acceptance
tests in tests/test_acceptance.py read these checks by name.

run_all may fork one helper, which claims passes, numbered in table
order, from the back while the runners claim theirs from the front. A
claim moves the two ends under one record lock, so each pass runs in one
process; the helper sends each pass's checks and notes, or the exception
it raised, to the runner that owns the pass.
"""

import functools
import itertools
import math
import os
import pickle
import random
import signal
import struct
import threading
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import characters as chars
from . import cosets, finite_ring, gl2_dims, global_bounds, representations
from .budget import BudgetExceededError

MAX_FAILURE_DETAILS = 5

# (n, p, m) of the enumerated GL_n(Z/p^m) counts, and (partition, p, m) of
# the enumerated parabolic counts (those with at most 200,000 elements) and
# of the coset-index oracle.
GL_COUNT_CASES = [(2, p, m) for p in (2, 3, 5) for m in (1, 2)]
GL_COUNT_CASES += [(3, 2, 1), (3, 3, 1)]
PARABOLIC_COUNT_CASES = [
    (part, p, m)
    for part in ((1, 1), (2, 1), (1, 2), (1, 1, 1))
    for p in (2, 3) for m in (1, 2)
    if finite_ring.parabolic_order(part, p, m) <= 200_000
]
INDEX_CASES = [((1, 1), p, m) for p in (2, 3, 5) for m in (1, 2)]
INDEX_CASES += [(part, p, 1) for part in ((2, 1), (1, 2), (1, 1, 1))
                for p in (2, 3, 5)]
INDEX_CASES += [(part, 2, 2) for part in ((2, 1), (1, 2), (1, 1, 1))]

# (fine, coarse) partitions of the refinement divisibility check.
REFINEMENT_PAIRS = [
    ((1, 1, 1), (2, 1)), ((1, 1, 1), (1, 2)),
    ((1, 1, 1, 1), (2, 2)), ((1, 1, 1, 1), (2, 1, 1)),
    ((1, 1, 1, 1), (1, 3)), ((2, 1, 1), (3, 1)), ((2, 1, 1), (2, 2)),
]

# The (q, s) grid shared by the supercuspidal identity checks.
GL2_GRID = [(q, s) for q in (2, 3, 4, 5, 7) for s in range(2, 9)]


class Check(NamedTuple):
    """One verified identity: a name, a verdict, and failure details."""

    name: str
    ok: bool
    detail: str = ""


class SuiteReport:
    """Outcome of one suite: its checks plus informational notes."""

    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[Check] = []
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, cases: Iterable[tuple], tests: dict[str, Callable]):
        """Run every named test on every case and record one Check per name,
        in the order of `tests`.

        A case is a tuple of arguments; a test returns a failure detail, or
        a false value when its identity holds for the case. The cases are
        iterated once, so a generator is never held in memory. A case whose
        oracle exceeds the budget becomes a note naming the check, and is
        not counted as an instance. A check with no instances fails: it
        verified nothing. At most MAX_FAILURE_DETAILS failures are shown.
        """
        # (name, test, failure details); a check's instances are the cases
        # less its skips, so a passing instance costs no bookkeeping.
        runs = [(name, test, []) for name, test in tests.items()]
        skipped = dict.fromkeys(tests, 0)
        total = 0
        for case in cases:
            total += 1
            for name, test, failed in runs:
                try:
                    detail = test(*case)
                except BudgetExceededError as exc:
                    self.notes.append(f"{name}: {case} skipped: {exc}")
                    skipped[name] += 1
                    continue
                if detail:
                    failed.append(f"{case}: {detail}")
        for name, _, failed in runs:
            instances = total - skipped[name]
            shown = "; ".join(failed[:MAX_FAILURE_DETAILS])
            if len(failed) > MAX_FAILURE_DETAILS:
                shown += f"; ... {len(failed)} failures total"
            self.checks.append(Check(name, not failed and instances > 0,
                                     shown or f"{instances} instances"))


def _differ(*values) -> str | None:
    """None when all values are equal, else them all as a failure detail."""
    if values.count(values[0]) == len(values):
        return None
    return " != ".join(map(str, values))


def _random_matrix_pairs():
    """(p, p**m, a, b): 200 seeded pairs of random matrices a, b over each
    of three rings Z/p^m."""
    rng = random.Random(20260815)
    for n, p, m in ((2, 3, 2), (3, 2, 1), (2, 2, 3)):
        for _ in range(200):
            yield p, p**m, *(
                tuple(tuple(rng.randrange(p**m) for _ in range(n))
                      for _ in range(n))
                for _ in range(2)
            )


def _twist_cases():
    """(q, s, c_chi, m): the GL_2 grid by twist conductor and level."""
    for (q, s), c_chi, m in itertools.product(GL2_GRID, range(7), range(9)):
        yield q, s, c_chi, m


def _gl2_reps(supercuspidal) -> list[representations.Representation]:
    """The supercuspidals supercuspidal(s, c_chi), principal series and
    Steinberg twists that the monotonicity and vanishing checks test."""
    reps = [supercuspidal(s, c_chi)
            for s in range(2, 9) for c_chi in range(0, 7)]
    reps += [_principal_series(c1, c2)
             for c1 in range(0, 7) for c2 in range(0, 7)]
    return reps + [gl2_dims.SteinbergTwist(c) for c in range(0, 7)]


def _gl2_reps_by_q(reps, *levels):
    """(q, rep, *level) over the list reps(), built when the stream starts."""
    yield from itertools.product((2, 3, 4, 5, 7), reps(), *levels)


def _kirillov_materialized(q: int, s: int, c_psi: int, r: int) -> str | None:
    """The level-r fixed Kirillov functions, one (twist conductor, class
    index, support order) triple each, built from the class counts and the
    twisted conductors, not from kirillov_groups: each class of conductor
    i <= r is supported on the orders from c(twist) + c_psi - r to
    c_psi + r. Their number is the interval count and the lattice sum."""
    functions = {
        (i, index, order)
        for i in range(r + 1)
        for index in range(chars.num_classes_exact(q, i))
        for order in range(gl2_dims.Supercuspidal(s, i).conductor() + c_psi - r,
                           c_psi + r + 1)
    }
    return _differ(len(functions),
                   gl2_dims.kirillov_basis_count(q, s, c_psi, r),
                   gl2_dims.dim_supercuspidal_lattice(q, s, r))


def _minimal_level_dim(q: int, s: int) -> str | None:
    """The supercuspidal dimension at its minimal level, as a literal."""
    if s % 2 == 0:
        m, expected = s // 2, (q - 1) * q ** (s // 2 - 1)
    else:
        m, expected = (s + 1) // 2, (q + 1) * (q - 1) * q ** (s // 2 - 1)
    return _differ(gl2_dims.dim_supercuspidal_minimal(q, s, m), expected)


def _principal_series(c1: int, c2: int):
    return representations.GenericRepresentation.from_pairs([(1, c1), (1, c2)])


def _blocks(max_n: int, max_c: int) -> dict:
    """The blocks SquareIntegrableBlock(n, c) of each size n <= max_n, for the
    max_c + 1 conductors c from n - 1, the least a block of GL_n has."""
    return {n: [representations.SquareIntegrableBlock(n, c)
                for c in range(n - 1, n + max_c)] for n in range(1, max_n + 1)}


def _single_block_reps(max_n: int, max_c: int):
    """Each block of _blocks(max_n, max_c) as a representation of its own."""
    for block in itertools.chain(*_blocks(max_n, max_c).values()):
        yield representations.GenericRepresentation((block,))


def _all_induced_reps(max_n: int, max_c: int):
    """Every ordered block decomposition with sizes summing to <= max_n and
    the conductors of a size-n block in [n - 1, n - 1 + max_c]. The reps
    share their (immutable) blocks, in the tuples that itertools.product
    builds from each size's blocks in ascending conductor, which makes the
    stream cheap to generate."""
    by_size = _blocks(max_n, max_c)
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            for sizes in itertools.product(range(1, n + 1), repeat=k):
                if sum(sizes) != n:
                    continue
                for chosen in itertools.product(*[by_size[i] for i in sizes]):
                    yield representations.GenericRepresentation(chosen)


def _with_min_level(reps):
    """(rep, rep.min_level()) cases: the level that the grid checks test."""
    for rep in reps:
        yield rep, rep.min_level()


def _least_level(rep, least: int) -> str | None:
    """has_fixed_vector, which never reads min_level, turns true exactly at
    min_level: compared at every level from 0 to max(6, min_level)."""
    has_fixed_vector = representations.has_fixed_vector
    levels = range(max(6, least) + 1)
    for m in levels:
        if has_fixed_vector(rep, m) != (m >= least):
            found = [has_fixed_vector(rep, k) for k in levels]
            return _differ(found, [k >= least for k in levels])


def _in_window(rep, least: int, square_integrable=False) -> str | None:
    """The conductor lies in the window of the rep's least level."""
    window = representations.conductor_window(rep.n, least, square_integrable)
    c = rep.conductor()
    return not window.contains(c) and f"c={c} not in {window}"


def _global_bounds_cases():
    """(n, GlobalLevel(N), literal (lo, hi) or None): one literal spot, then
    every n <= 4 and N <= 10^4, factorizing each N once."""
    yield 2, global_bounds.GlobalLevel(12), (6, 144)
    for N in range(1, 10_001):
        level = global_bounds.GlobalLevel(N)
        for n in range(1, 5):
            yield n, level, None


def _bounds_hold(n: int, level, literal, exponents: dict) -> str | None:
    """N lies in its global bounds (equal to the upper one for n = 1), and
    so does every product of each prime's low, middle and high local
    exponent, exponents[n, e] in ascending order.

    Every prime is at least 2 and its exponents ascend, so the products of
    the lowest and of the highest powers are the least and the greatest:
    those two decide the case. itertools.product is walked only to name the
    first offending tuple of powers."""
    N, bounds = level.N, level.conductor_bounds(n)
    lo, hi = bounds.lo, bounds.hi
    if literal is not None and (lo, hi) != literal:
        return f"bounds {(lo, hi)} != {literal}"
    if not lo <= N <= hi:
        return "N outside bounds"
    if n == 1 and hi != N:
        return f"upper {hi} != N"
    least = greatest = 1
    for p, e in level.factorization:
        powers = exponents[n, e]
        least *= p ** powers[0]
        greatest *= p ** powers[-1]
    if lo <= least and greatest <= hi:
        return None
    choices = [[p**c for c in exponents[n, e]] for p, e in level.factorization]
    for powers in itertools.product(*choices):
        product = math.prod(powers)
        if not lo <= product <= hi:
            return f"prime powers {powers}: {product}"


class _LocalExponents(dict):
    """(n, e) -> the ascending low, middle and high exponents of the local
    conductor window, computed when first read."""

    def __missing__(self, key):
        window = global_bounds.local_conductor_window(*key)
        self[key] = sorted(
            {window.lo, (window.lo + window.hi) // 2, window.hi}
        )
        return self[key]


def _checks(budget: int | None) -> list[tuple]:
    """Every check as a row (suite, name, cases, test), in report order. The
    tests that run an enumeration oracle pass it budget."""
    induced = _with_min_level(_all_induced_reps(4, 8))
    # The two twist-grid rows hold this one stream, so they share one pass.
    twists = _twist_cases()
    # They and the two _gl2_reps_by_q rows read one memo of dimensions. Its
    # reps are built once each, so a lookup finds its key by identity.
    supercuspidal = functools.cache(gl2_dims.Supercuspidal)
    gl2_reps = functools.cache(lambda: _gl2_reps(supercuspidal))
    dims = functools.cache(lambda q, rep: [rep.dim(q, m) for m in range(9)])
    lattice = functools.cache(gl2_dims.dim_supercuspidal_lattice)
    exponents = _LocalExponents()
    # The two unit-dual rows share one build per (p, r) in this table.
    dual = functools.lru_cache(
        lambda p, r: chars.enumerate_unit_dual(p, r, budget=budget))
    return [
        ("cosets", "enumerated |GL_n(Z/p^m)| equals gl_order", GL_COUNT_CASES,
         lambda n, p, m: _differ(
             sum(len(rows) for _, rows in finite_ring._gl_last_rows(
                 n, p, m, budget
             )),
             finite_ring.gl_order(n, p, m),
         )),
        ("cosets", "enumerated parabolic size equals parabolic_order",
         PARABOLIC_COUNT_CASES,
         lambda part, p, m: _differ(
             math.prod(map(len, finite_ring._parabolic_row_groups(
                 part, p, m, budget
             ))),
             finite_ring.parabolic_order(part, p, m),
         )),
        ("cosets", "gl_order(m+1) = gl_order(m) * q^(n^2)",
         itertools.product((1, 2, 3, 4), (2, 3, 4, 5, 7, 9), (1, 2, 3)),
         lambda n, q, m: _differ(
             finite_ring.gl_order(n, q, m + 1),
             finite_ring.gl_order(n, q, m) * q ** (n * n),
         )),
        ("cosets",
         "is_invertible(a @ b) = is_invertible(a) and is_invertible(b)",
         _random_matrix_pairs(),
         lambda p, pm, a, b: _differ(
             finite_ring.det_int(finite_ring.mat_mul(a, b, pm)) % p != 0,
             finite_ring.det_int(a) % p != 0
             and finite_ring.det_int(b) % p != 0,
         )),
        ("cosets", "parabolic_index_closed equals parabolic_index_enumerated",
         INDEX_CASES,
         lambda part, p, m: _differ(
             cosets.parabolic_index_closed(part, p, m),
             cosets.parabolic_index_enumerated(part, p, m, budget=budget),
         )),
        ("cosets", "Borel index = q^(r-1) * (q+1)",
         itertools.product((2, 3, 4, 5, 7), range(1, 7)),
         lambda q, r: _differ(
             cosets.parabolic_index_closed((1, 1), q, r),
             q ** (r - 1) * (q + 1),
         )),
        ("cosets",
         "index of a refinement is divisible by index of a coarsening",
         (pair + (q, m) for pair, q, m in itertools.product(
             REFINEMENT_PAIRS, (2, 3, 5, 7), (1, 2, 3)
         )),
         lambda fine, coarse, q, m: _differ(
             cosets.parabolic_index_closed(fine, q, m)
             % cosets.parabolic_index_closed(coarse, q, m),
             0,
         )),
        ("characters",
         "enumerated conductor histogram equals class-count formula",
         itertools.product((2, 3, 5, 7), range(0, 5)),
         lambda p, r: _differ(
             chars.conductor_histogram(dual(p, r), r),
             [chars.num_classes_exact(p, i) for i in range(r + 1)],
         )),
        ("characters", "unit dual size equals (p-1) * p^(r-1)",
         itertools.product((2, 3, 5, 7), range(1, 5)),
         lambda p, r: _differ(
             len(dual(p, r)),
             (p - 1) * p ** (r - 1),
         )),
        ("characters", "class counts: running total equals (q-1) * q^(r-1)",
         itertools.product(range(2, 10), range(1, 9)),
         lambda q, r: _differ(
             sum(chars.num_classes_exact(q, i) for i in range(r + 1)),
             (q - 1) * q ** (r - 1),
         )),
        ("supercuspidal", "closed form = lattice sum = Kirillov basis count",
         ((q, s, m) for q, s in GL2_GRID for m in range(-(-s // 2), 9)),
         lambda q, s, m: _differ(
             gl2_dims.dim_supercuspidal_minimal(q, s, m),
             lattice(q, s, m),
             gl2_dims.kirillov_basis_count(q, s, 0, m),
         )),
        ("supercuspidal",
         "materialized Kirillov basis matches its interval count",
         ((q, s, c_psi, m)
          for q, s in itertools.product((2, 3), range(2, 6))
          for c_psi, m in itertools.product((0, 1), range(-(-s // 2), 5))),
         _kirillov_materialized),
        ("supercuspidal", "dimension at the minimal level", GL2_GRID,
         _minimal_level_dim),
        ("supercuspidal",
         "twisting is invisible once the level passes the twisted conductor",
         twists,
         lambda q, s, c_chi, m: _differ(
             dims(q, supercuspidal(s, c_chi))[m],
             # False at m = 0, which the lattice sum rejects.
             lattice(q, s, m)
             if supercuspidal(s, c_chi).conductor() <= 2 * m
             else 0,
         )),
        ("supercuspidal",
         "principal series minus Steinberg twist is the trivial-quotient line",
         itertools.product(range(2, 8), range(0, 7), range(1, 7)),
         lambda q, c, r: _differ(
             _principal_series(c, c).dim(q, r),
             (c <= r) + gl2_dims.SteinbergTwist(c).dim(q, r),
         )),
        ("supercuspidal", "dimension is nondecreasing in the level",
         _gl2_reps_by_q(gl2_reps),
         lambda q, rep: dims(q, rep) != sorted(dims(q, rep))
         and str(dims(q, rep))),
        ("supercuspidal",
         "positive dimension exactly when the level is >= min_level",
         _gl2_reps_by_q(gl2_reps, range(0, 9)),
         lambda q, rep, m: _differ(dims(q, rep)[m] > 0, m >= rep.min_level())),
        ("supercuspidal",
         "positive dimension exactly when conductor <= 2 * level",
         twists, lambda q, s, c_chi, m: _differ(
             dims(q, supercuspidal(s, c_chi))[m] > 0,
             supercuspidal(s, c_chi).conductor() <= 2 * m)),
        ("supercuspidal",
         "unramified principal series dimension equals the coset count",
         [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)],
         lambda p, r: _differ(
             cosets.parabolic_index_enumerated((1, 1), p, r, budget=budget),
             _principal_series(0, 0).dim(p, r),
         )),
        ("windows", "conductor criterion agrees with depth criterion",
         ((rep, m) for rep in _single_block_reps(5, 20) for m in range(1, 7)),
         lambda rep, m: _differ(
             representations.has_fixed_vector(rep, m),
             representations.has_fixed_vector_depth(rep.depth(), m),
         )),
        ("windows", "GL_2 supercuspidal depth matches the general formula",
         ((c,) for c in range(2, 21)),
         lambda c: _differ(
             gl2_dims.Supercuspidal(c).depth(), Fraction(c - 2, 2)
         )),
        # The two grid checks hold the same stream, so they share one pass.
        ("windows", "min_level is the least level with a fixed vector",
         induced, _least_level),
        ("windows",
         "single-block conductors lie in the square-integrable window",
         _with_min_level(_single_block_reps(4, 8)),
         lambda rep, least: _in_window(rep, least, True)),
        ("windows", "conductors lie in the generic window [m, mn]",
         induced, _in_window),
        ("windows",
         "local windows compose to products inside the global bounds",
         _global_bounds_cases(),
         functools.partial(_bounds_hold, exponents=exponents)),
    ]


def _passes(budget: int | None) -> tuple[list[str], list[tuple]]:
    """The table's check names in report order, and its passes: one (suite,
    cases, {name: test}) per distinct cases object of a suite, numbered in
    table order."""
    table = _checks(budget)
    passes: dict[tuple, tuple] = {}  # (suite, id(cases)) -> pass
    for suite, name, cases, test in table:
        tests = passes.setdefault((suite, id(cases)), (suite, cases, {}))[2]
        tests[name] = test
    return [row[1] for row in table], list(passes.values())


class _Helper:
    """A forked process that runs the passes of _passes(budget) from the
    back while run_all's runners take them from the front. It sends each
    through a pipe, as a length-prefixed pickle of (index, (checks, notes))
    or of (index, the exception the pass raised)."""

    def __init__(self, budget: int | None):
        passes = _passes(budget)[1]
        self.fd = os.memfd_create("verify-ends")  # [front, back): unclaimed
        os.pwrite(self.fd, struct.pack("2i", 0, len(passes)), 0)
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:  # the only way out: no stdio flush, no finally, no atexit
                os.close(read)
                self._serve(passes, os.fdopen(write, "wb"))
            finally:
                os._exit(0)
        os.close(write)
        self.pipe, self.sent = os.fdopen(read, "rb"), {}

    def _claim(self, index: int | None) -> int | None:
        """Claim pass index for the parent, or given None the last unclaimed
        pass for the helper; None if the other process holds it. The ends
        move only under the file's lock, which the kernel drops if its
        holder dies."""
        os.lockf(self.fd, os.F_LOCK, 0)
        try:
            front, back = struct.unpack("2i", os.pread(self.fd, 8, 0))
            if index is None and front < back:
                index = back = back - 1
            elif index is not None and index < back:
                front = max(front, index + 1)
            else:
                return None
            os.pwrite(self.fd, struct.pack("2i", front, back), 0)
            return index
        finally:
            os.lockf(self.fd, os.F_ULOCK, 0)

    def _serve(self, passes: list[tuple], pipe) -> None:
        while (index := self._claim(None)) is not None:
            suite, cases, tests = passes[index]
            report = SuiteReport(suite)
            try:
                report.check(cases, tests)
                found = report.checks, report.notes
            except Exception as exc:  # take raises it in the parent
                found = exc
            data = pickle.dumps((index, found))
            pickle.loads(data)  # one it cannot rebuild is left to the parent
            pipe.write(len(data).to_bytes(8, "big") + data)
            pipe.flush()

    def take(self, index: int) -> tuple | None:
        """None when the parent claims pass index, or when the helper left
        without sending it; else the helper's (checks, notes) of it."""
        if self._claim(index) is not None:
            return None
        while index not in self.sent:
            size = int.from_bytes(self.pipe.read(8), "big")
            data = self.pipe.read(size)
            if not size or len(data) < size:  # the helper is gone
                return None
            sent, found = pickle.loads(data)
            self.sent[sent] = found
        found = self.sent.pop(index)
        if isinstance(found, Exception):
            raise found
        return found

    def close(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pipe.close()
        os.close(self.fd)


# .helper: the _Helper of the run_all call that this thread is in, if any.
# The SUITES entries take only a budget, so this is how they find it.
_local = threading.local()


def _runner(suite: str) -> Callable[..., SuiteReport]:
    """The SUITES entry of one suite: it runs the suite's passes, each with
    one SuiteReport.check unless run_all's helper claimed it, and reports
    the checks in table order."""

    def run(budget: int | None = None) -> SuiteReport:
        names, passes = _passes(budget)
        helper = getattr(_local, "helper", None)
        report = SuiteReport(suite)
        for index, (owner, cases, tests) in enumerate(passes):
            if owner != suite:
                continue
            found = helper.take(index) if helper else None
            if found is None:
                report.check(cases, tests)
            else:
                report.checks += found[0]
                report.notes += found[1]
        report.checks.sort(key=lambda check: names.index(check.name))
        return report

    return run


SUITES = {suite: _runner(suite)
          for suite in dict.fromkeys(row[0] for row in _checks(None))}


def run_all(budget: int | None = None) -> list[SuiteReport]:
    """Run every suite in declaration order. When this process may use two
    CPUs, can fork (every system with memfd_create can) and runs no other
    thread, a _Helper runs passes meanwhile; it is killed and reaped
    before this returns or raises."""
    helper = None
    if (hasattr(os, "memfd_create") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1):
        helper = _Helper(budget)
    _local.helper = helper
    try:
        return [runner(budget) for runner in SUITES.values()]
    finally:
        _local.helper = None
        if helper is not None:
            helper.close()
