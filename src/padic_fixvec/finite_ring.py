"""Exact arithmetic over Z/p^m and exhaustive enumeration of GL_n(Z/p^m).

Everything here is plain Python integer arithmetic: orders of the finite
groups grow like q**(n*n*m) and would overflow any fixed-width type. The
enumeration routines are the ground-truth oracles that the closed-form
order and index formulas are checked against, so they decide invertibility
by a unit determinant, computed by cofactor expansion, never by an order
formula. The GL oracle lists, for each prefix of n - 1 rows, the last rows
that make the determinant a unit; the parabolic oracle lists, per diagonal
block, its groups of rows (an invertible block with free entries to its
right). A stream builds every matrix from those lists, and a count sums or
multiplies their lengths without building one. A matrix is a tuple of row
tuples (Rows) of reduced entries. Every enumeration, the parabolic rows
included, passes budget.require before it builds any candidate.

Every module imports this one, so it holds the one check of each input
domain, with one message: check_q (q >= 2), check_level (m >= 0, or m >= 1
over Z/p^m), check_size (n >= 1), check_conductor (c >= 0), check_block
(c >= n - 1), check_partition (nonempty, parts >= 1) and check_prime.
"""

from itertools import accumulate, product
from math import prod
from operator import mul
from typing import Iterator, Sequence

from .budget import DEFAULT_CANDIDATE_BUDGET, require

Rows = tuple[tuple[int, ...], ...]


# The first 13 primes: trial divisors, then strong-probable-prime bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all of _SMALL_PRIMES as bases (Sorenson and
# Webster, Math. Comp. 86 (2017)), so the test is a proof below it.
PRIME_CAP = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test for n < PRIME_CAP: the package's one primality
    test. Trial division by _SMALL_PRIMES, then a strong-probable-prime
    (Miller-Rabin) test to each of them as a base. Raises ValueError for
    n >= PRIME_CAP rather than guess."""
    if n >= PRIME_CAP:
        raise ValueError(
            f"primality is proven only below {PRIME_CAP}, got {n}"
        )
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_q(q: int) -> None:
    """The package's one check of a residue field size: q >= 2."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")


def check_level(m: int, least: int) -> None:
    if m < least:
        raise ValueError(f"level must be >= {least}, got {m}")


def check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def check_conductor(c: int) -> None:
    if c < 0:
        raise ValueError(f"conductor must be >= 0, got {c}")


def check_block(n: int, c: int) -> None:
    """A block of GL_n, essentially square integrable, has c >= n - 1."""
    check_conductor(c)
    if c < n - 1:
        raise ValueError(f"conductor of a GL_{n} block must be >= {n - 1}, got {c}")


def check_partition(partition: Sequence[int]) -> None:
    if not partition or min(partition) < 1:
        raise ValueError("partition must be nonempty with parts >= 1,"
                         f" got {tuple(partition)}")


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


class FieldError(ValueError):
    """A constructor's refusal of one argument, raised by FieldError.check:
    .field names its slot, and the message is the refusing check's."""

    @classmethod
    def check(cls, field: str, check, *args):
        """check(*args), its refusal raised as a FieldError naming field."""
        try:
            return check(*args)
        except ValueError as exc:
            error = cls(str(exc))
            error.field = field
            raise error from None


def above_blocks(partition: Sequence[int]) -> int:
    """d = sum_{i<j} n_i*n_j, the entries above the block diagonal."""
    return (sum(partition) ** 2 - sum(part * part for part in partition)) // 2


def mat_mul(a: Rows, b: Rows, modulus: int) -> Rows:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % modulus for j in range(n))
        for i in range(n)
    )


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by exact integer cofactor expansion (n <= 3 unrolled)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    for j, pivot in enumerate(rows[0]):
        if pivot == 0:
            continue
        minor = [list(row[:j]) + list(row[j + 1 :]) for row in rows[1:]]
        total += (-1) ** j * pivot * det_int(minor)
    return total


def gl_order(n: int, q: int, m: int) -> int:
    """Order of GL_n over the residue ring at level m:
    q**(n*n*(m-1)) * prod_{i<n} (q**n - q**i), as an exact integer."""
    check_size(n)
    check_level(m, 1)
    check_q(q)
    order = q ** (n * n * (m - 1))
    qn = q**n
    for i in range(n):
        order *= qn - q**i
    return order


def parabolic_order(partition: Sequence[int], q: int, m: int) -> int:
    """Order of the standard block-upper-triangular subgroup attached to the
    partition, over the residue ring at level m."""
    check_partition(partition)
    return (prod([gl_order(part, q, m) for part in partition])
            * q ** (m * above_blocks(partition)))


def _block_starts(partition: Sequence[int]) -> list[int]:
    return list(accumulate(partition, initial=0))[:-1]


def _gl_last_rows(
    n: int, p: int, m: int, budget: int | None = None
) -> Iterator[tuple[Rows, list[tuple[int, ...]]]]:
    """(prefix, last rows) for each prefix of n - 1 rows, in lexicographic
    order: the rows r, in lexicographic order, that complete the prefix to
    an invertible matrix. For n = 1 the prefix is empty and the single
    entry of r must be a unit.

    Expanded along the last row r, det = sum_j cof_j * r_j, where cof is
    the cofactor vector of the prefix. So each prefix computes cof mod p
    once, and takes the rows r with a unit sum_j cof_j * r_j from a list
    filtered once per distinct residue of cof. A count sums the lengths of
    the lists, without building a matrix.
    """
    check_size(n)
    check_level(m, 1)
    check_prime(p)
    require(p ** (m * n * n), budget, DEFAULT_CANDIDATE_BUDGET,
            f"enumerating GL_{n}(Z/{p}^{m})")
    row_space = list(product(range(p**m), repeat=n))
    if n == 1:
        yield (), [row for row in row_space if row[0] % p]
        return
    last_rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for prefix in product(row_space, repeat=n - 1):
        cof = tuple(
            (-1) ** (n - 1 + j)
            * det_int([row[:j] + row[j + 1 :] for row in prefix]) % p
            for j in range(n)
        )
        if cof not in last_rows:
            last_rows[cof] = [
                r for r in row_space if sum(map(mul, cof, r)) % p
            ]
        yield prefix, last_rows[cof]


def _enumerate_gl_rows(n: int, p: int, m: int, budget: int | None = None) -> Iterator[Rows]:
    """Raw row-tuples of the invertible matrices, in lexicographic order:
    each prefix of _gl_last_rows with each of its last rows."""
    for prefix, last_rows in _gl_last_rows(n, p, m, budget):
        for r in last_rows:
            yield (*prefix, r)


def enumerate_gl(n: int, p: int, m: int, budget: int | None = None) -> Iterator[Rows]:
    """Yield the rows of each invertible matrix over Z/p^m exactly once, in
    the lexicographic order of its (row-major) entries.

    Raises BudgetExceededError when p**(m*n*n) candidates exceed the budget;
    the message carries the required budget.
    """
    return _enumerate_gl_rows(n, p, m, budget)


def _parabolic_row_groups(
    partition: Sequence[int], p: int, m: int, budget: int | None = None
) -> list[list[Rows]]:
    """The row groups of the invertible block-upper-triangular matrices,
    one list per diagonal block.

    A block's group of rows is a zero prefix up to the block's first
    column, the rows of an invertible block, then free entries to the
    right; each list holds every such group, the GL block rows enumerated
    with every choice of tails. The matrices are the product of the lists,
    so a count multiplies their lengths. Gated, before any group is built,
    by the p**(m * sum_i n_i * (n - start_i)) block-upper-triangular
    candidates, after the level, the partition and p are checked.
    """
    check_level(m, 1)
    check_partition(partition)
    check_prime(p)
    n = sum(partition)
    starts = _block_starts(partition)
    require(
        p ** (m * sum(part * (n - start) for start, part in zip(starts, partition))),
        budget, DEFAULT_CANDIDATE_BUDGET,
        f"enumerating the parabolic {tuple(partition)} of GL_{n}(Z/{p}^{m})",
    )
    pm = p**m
    groups = []
    for start, part in zip(starts, partition):
        prefix = (0,) * start
        tails = list(product(range(pm), repeat=n - start - part))
        groups.append([
            tuple(prefix + row + tail for row, tail in zip(block, block_tails))
            for block in _enumerate_gl_rows(part, p, m, budget)
            for block_tails in product(tails, repeat=part)
        ])
    return groups


def _enumerate_parabolic_rows(
    partition: Sequence[int], p: int, m: int, budget: int | None = None
) -> Iterator[Rows]:
    """Raw row-tuples of the invertible block-upper-triangular matrices:
    the product of the _parabolic_row_groups lists, exactly
    parabolic_order(partition, p, m) of them, far fewer candidates than
    filtering all of M_n."""
    for choice in product(*_parabolic_row_groups(partition, p, m, budget)):
        yield sum(choice, ())
