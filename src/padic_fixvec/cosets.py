"""Double-coset counts P \\ GL_n / K(m).

Reduction mod p^m turns the count into the index of the block-upper-
triangular subgroup P inside GL_n(Z/p^m), which we compute two ways:
in closed form, as a power of q times a Gaussian multinomial, and by
counting cosets over the finite ring (the oracle, restricted to residue
degree 1). The oracle keys each coset by the flag of row spans of its
trailing blocks, in the canonical echelon form of spans in (Z/p^m)^n
(Howell, "Spans in the module (Z_m)^s", 1986). It grows the flags from the
bottom row up, one row at a time, and keeps each partial flag once. A
partial flag is extended by each line of the rows that are 0 at its pivot
columns and independent of it mod p, tried once through its generator that
is 1 at its first unit entry; it uses no order formula.
"""

import math
from itertools import product
from typing import Sequence

from .budget import DEFAULT_CANDIDATE_BUDGET, require
from .finite_ring import (Rows, above_blocks, check_level, check_partition,
                          check_prime, check_q)


def parabolic_index_closed(partition: Sequence[int], q: int, m: int) -> int:
    """[GL_n : P] over the residue ring at level m >= 1, in closed form:
    q**((m-1)*d), d = sum_{i<j} n_i*n_j, for the kernel of reduction to
    level 1, times the level-1 index, the Gaussian multinomial
    prod_{j<=n} (q**j - 1) / prod_i prod_{j<=n_i} (q**j - 1).

    The division is exact; a non-exact division means an internal error and
    raises RuntimeError.
    """
    check_level(m, 1)
    check_q(q)
    check_partition(partition)
    n = sum(partition)
    falling = [1]  # falling[k] = prod_{j<=k} (q**j - 1)
    for j in range(1, n + 1):
        falling.append(falling[-1] * (q**j - 1))
    total = falling[n]
    sub = math.prod([falling[part] for part in partition])
    if total % sub != 0:
        raise RuntimeError(
            f"internal check failed: prod (q^j - 1) = {total} not divisible by"
            f" {sub} for partition {tuple(partition)}, q={q}, m={m}"
        )
    return q ** ((m - 1) * above_blocks(partition)) * (total // sub)


def _add_row(row: tuple[int, ...], echelon: Rows, pm: int) -> Rows:
    """The unit echelon form of the span of row and of echelon, itself a
    unit echelon form. row must be 0 at the pivot columns of echelon and
    equal to 1 at its first unit entry, which becomes its pivot column.

    Each row of a unit echelon form is 0 mod p before its pivot, so its
    first entry equal to 1 marks its pivot column. The new row's pivot
    column is cleared from the old rows, and the row goes in pivot order.
    """
    col = row.index(1)
    above = [
        tuple((x - lead[col] * y) % pm for x, y in zip(lead, row))
        if lead[col] else lead
        for lead in echelon
    ]
    at = sum(1 for lead in echelon if lead.index(1) < col)
    return (*above[:at], row, *above[at:])


def parabolic_index_enumerated(
    partition: Sequence[int], p: int, m: int, budget: int | None = None
) -> int:
    """Count the distinct left cosets P*g in GL_n(Z/p^m) by their flags.

    Left multiplication by P mixes each block's rows only with the rows of
    the blocks below it, so P*g is fixed by the flag of spans of g's
    trailing blocks: the last block's rows, the last two blocks' rows, and
    so on. Rows independent mod p are exactly the trailing rows of some
    invertible g. So the flags grow from the bottom row up, as a set of
    partial flags: the unit echelon forms of the finished trailing blocks
    and of the rows taken so far. Each step puts rows of (Z/p^m)^n on top
    of each partial flag, keeping those independent mod p. The span of a
    new row with an old span depends on the old span only through its
    echelon form, so equal partial flags are extended once, and _add_row
    adds the new row to that stored form instead of echelonizing the whole
    stack again. A row gives the same span as its reduction against the
    form, which is 0 at every pivot column, so only those rows are tried,
    from a list filtered once per tuple of pivot columns; and since
    span(u*r) = span(r) for a unit u, only the one generator of each line
    that is 1 at its first unit entry. Gated by the p**(m*n*(n - n_1))
    choices of the rows below the first block against the candidate
    budget; that count bounds the echelon forms computed.
    """
    check_level(m, 1)
    partition = tuple(partition)
    check_partition(partition)
    check_prime(p)
    n = sum(partition)
    require(p ** (m * n * (n - partition[0])), budget, DEFAULT_CANDIDATE_BUDGET,
            f"coset enumeration for partition {partition} over Z/{p}^{m}")
    pm = p**m
    lines = [row for row in product(range(pm), repeat=n)
             if next((x for x in row if x % p), None) == 1]
    reduced: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): lines}

    def reduced_rows(echelon: Rows) -> list[tuple[int, ...]]:
        pivots = tuple(lead.index(1) for lead in echelon)
        if pivots not in reduced:
            reduced[pivots] = [
                row for row in lines if not any(row[j] for j in pivots)
            ]
        return reduced[pivots]

    states: set[tuple] = {((), ())}
    for size in reversed(partition[1:]):
        for _ in range(size):
            states = {
                (done, _add_row(row, rows, pm))
                for done, rows in states
                for row in reduced_rows(rows)
            }
        states = {((*done, rows), rows) for done, rows in states}
    return len(states)
