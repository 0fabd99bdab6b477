import itertools
import random

import pytest

from padic_fixvec.budget import BudgetExceededError
from padic_fixvec.cosets import (
    _add_row,
    parabolic_index_closed,
    parabolic_index_enumerated,
)
from padic_fixvec.finite_ring import det_int, gl_order, parabolic_order
from padic_fixvec.representations import GenericRepresentation
from padic_fixvec.verify import INDEX_CASES


@pytest.mark.parametrize("partition,q,m,expected", [
    ((1, 1), 3, 1, 4),
    ((1, 1), 3, 2, 12),
    ((2, 1), 2, 1, 7),
    ((1, 1, 1), 2, 1, 21),
    ((1, 1, 1), 3, 1, 52),
    ((2,), 5, 3, 1),
])
def test_closed_index_values(partition, q, m, expected):
    assert parabolic_index_closed(partition, q, m) == expected


def test_closed_index_rejects_level_zero():
    with pytest.raises(ValueError):
        parabolic_index_closed((1, 1), 3, 0)


def test_closed_index_equals_the_ratio_of_group_orders():
    # The reference: |GL_n| // |P| at level m, the index from the order
    # formulas, on every composition of n <= 5.
    compositions = [c for n in range(1, 6) for k in range(1, n + 1)
                    for c in itertools.product(range(1, n + 1), repeat=k)
                    if sum(c) == n]
    for parts, q, m in itertools.product(
            compositions, (2, 3, 4, 5, 7, 8, 9), range(1, 7)):
        total, sub = gl_order(sum(parts), q, m), parabolic_order(parts, q, m)
        assert total % sub == 0
        assert parabolic_index_closed(parts, q, m) == total // sub, (parts, q, m)


@pytest.mark.parametrize("partition,q", [((), 3), ((1, 0), 3), ((1, 1), 1)])
def test_closed_index_rejects_bad_input(partition, q):
    with pytest.raises(ValueError):
        parabolic_index_closed(partition, q, 1)


@pytest.mark.parametrize("partition", [(1, 1), (1, 1, 1), (1,)])
def test_index_m0(partition):
    # One double coset at level 0: the dimension is 1 when every block is
    # unramified, and 0 when one is not.
    k = len(partition)
    assert GenericRepresentation.from_pairs([(1, 0)] * k).dim(3, 0) == 1
    assert GenericRepresentation.from_pairs(
        [(1, 0)] * (k - 1) + [(1, 1)]).dim(3, 0) == 0


def test_index_m0_rejects_empty():
    with pytest.raises(ValueError, match="at least one block"):
        GenericRepresentation(())
    with pytest.raises(ValueError, match="at least one block"):
        GenericRepresentation.from_pairs([])


@pytest.mark.parametrize("partition,p,m,expected", [
    ((1, 1), 2, 1, 3),
    ((1, 1), 3, 2, 12),
    ((3,), 2, 1, 1),
    ((2, 1), 2, 1, 7),
    ((1, 2), 2, 1, 7),
    ((1, 1, 1), 2, 1, 21),
    ((2, 1), 5, 1, 31),
    ((1, 2), 5, 1, 31),
    ((1, 1, 1), 5, 1, 186),
    ((2, 1), 2, 2, 28),
    ((1, 2), 2, 2, 28),
    # Past verify's INDEX_CASES: n = 3 at m = 2, p = 7, and m = 3.
    ((2, 1), 3, 2, 117),
    ((2, 1), 5, 2, 775),
    ((1, 2), 3, 2, 117),
    ((1, 1, 1), 3, 2, 1_404),
    ((1, 1), 7, 2, 56),
    ((1, 1), 3, 3, 36),
])
def test_enumerated_index_values(partition, p, m, expected):
    assert parabolic_index_enumerated(partition, p, m) == expected
    assert parabolic_index_closed(partition, p, m) == expected


@pytest.mark.parametrize("partition,expected", [
    ((2, 2), 35),
    ((1, 1, 1, 1), 315),
    ((1, 3), 15),
    ((1, 1, 2), 105),
    ((2, 1, 1), 105),
])
def test_enumerated_index_at_n4(partition, expected):
    assert parabolic_index_enumerated(partition, 2, 1) == expected
    assert parabolic_index_closed(partition, 2, 1) == expected


def _random_rows(rng, k, n, pm):
    return tuple(tuple(rng.randrange(pm) for _ in range(n)) for _ in range(k))


def _echelon_from_scratch(rows, p, pm):
    """Reference: Gauss-Jordan elimination of the whole stack, column by
    column, with a unit pivot; None when the rows are dependent mod p."""
    echelon = [list(row) for row in rows]
    rank = 0
    for col in range(len(echelon[0]) if echelon else 0):
        pivot = next(
            (i for i in range(rank, len(echelon)) if echelon[i][col] % p), None
        )
        if pivot is None:
            continue
        echelon[rank], echelon[pivot] = echelon[pivot], echelon[rank]
        unit = pow(echelon[rank][col], -1, pm)
        lead = echelon[rank] = [x * unit % pm for x in echelon[rank]]
        for i, row in enumerate(echelon):
            c = row[col]
            if i != rank and c:
                echelon[i] = [(x - c * y) % pm for x, y in zip(row, lead)]
        rank += 1
    if rank < len(echelon):
        return None
    return tuple(tuple(row) for row in echelon)


def _add_row_reference(row, echelon, p, pm):
    """Reference for _add_row that takes any row: the unit echelon form of
    the span of row and of echelon; None when row is dependent on it mod p.
    The row is reduced against the old rows, normalised at its first unit
    entry, and that column is cleared from the old rows."""
    pivots = [lead.index(1) for lead in echelon]
    for lead, pivot in zip(echelon, pivots):
        c = row[pivot]
        if c:
            row = tuple((x - c * y) % pm for x, y in zip(row, lead))
    col = next((j for j, x in enumerate(row) if x % p), None)
    if col is None:
        return None
    unit = pow(row[col], -1, pm)
    row = tuple(x * unit % pm for x in row)
    above = [
        tuple((x - lead[col] * y) % pm for x, y in zip(lead, row))
        if lead[col] else lead
        for lead in echelon
    ]
    at = sum(1 for pivot in pivots if pivot < col)
    return (*above[:at], row, *above[at:])


def _unit_echelon(rows, p, pm):
    """The oracle's key of the span of rows: _add_row_reference folded over
    them, first to last; None when they are dependent mod p."""
    echelon = ()
    for row in rows:
        echelon = _add_row_reference(row, echelon, p, pm)
        if echelon is None:
            return None
    return echelon


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_unit_echelon_is_a_canonical_span_key(p, m):
    # The row-by-row oracle keys partial flags by folding its one-row step,
    # so the key must depend on the span alone and absorb a new row the
    # same way. The reference step _add_row_reference(row, key) must equal
    # the echelon form of the whole stack from scratch, and be None exactly
    # when the new row is dependent mod p. The oracle's _add_row, given
    # only the rows that are 0 at the key's pivots and 1 at their first
    # unit entry, one per line, must agree with it on each of them and
    # reach every span that the reference reaches from all of (Z/p^m)^n.
    pm = p**m
    rng = random.Random(p * 10 + m)
    for n in (1, 2, 3):
        space = list(itertools.product(range(pm), repeat=n))
        for k in range(1, n + 1):
            for _ in range(8):
                rows = _random_rows(rng, k, n, pm)
                while _unit_echelon(rows, p, pm) is None:
                    rows = _random_rows(rng, k, n, pm)
                a = _random_rows(rng, k, k, pm)
                while det_int(a) % p == 0:
                    a = _random_rows(rng, k, k, pm)
                mixed = tuple(
                    tuple(sum(a[i][t] * rows[t][j] for t in range(k)) % pm
                          for j in range(n))
                    for i in range(k)
                )
                key = _unit_echelon(rows, p, pm)
                assert key == _echelon_from_scratch(rows, p, pm)
                assert _unit_echelon(mixed, p, pm) == key
                dependent = 0
                spans = set()
                for row in space:
                    scratch = _echelon_from_scratch((row, *rows), p, pm)
                    assert _unit_echelon((row, *key), p, pm) == scratch
                    assert _unit_echelon((row, *rows), p, pm) == scratch
                    assert _add_row_reference(row, key, p, pm) == scratch
                    dependent += scratch is None
                    spans.add(scratch)
                pivots = [lead.index(1) for lead in key]
                lines = [row for row in space
                         if not any(row[j] for j in pivots)
                         and next((x for x in row if x % p), None) == 1]
                for row in lines:
                    assert (_add_row(row, key, pm)
                            == _add_row_reference(row, key, p, pm))
                assert ({_add_row(row, key, pm) for row in lines}
                        == spans - {None})
                # The p**(m*k) rows of the span itself are dependent, so
                # the None branch is reached.
                assert dependent >= p ** (m * k)
                # A stack that is itself dependent mod p has no key.
                for row in (rows[0], tuple(p * x % pm for x in rows[-1])):
                    assert _echelon_from_scratch((*rows, row), p, pm) is None
                    assert _unit_echelon((*rows, row), p, pm) is None


def test_enumerated_index_budget():
    with pytest.raises(BudgetExceededError) as info:
        parabolic_index_enumerated((1, 1, 1), 5, 1, budget=100)
    assert info.value.required == 15_625


def test_method_validation():
    with pytest.raises(ValueError):
        parabolic_index_enumerated((1, 1), 2, 0)


def test_closed_division_always_exact():
    for partition in ((1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2), (3, 1)):
        for q in (2, 3, 4, 5, 7, 9):
            for m in (1, 2, 3):
                index = parabolic_index_closed(partition, q, m)
                assert index >= 1


def _index_trying_every_row(partition, p, m):
    """Reference: the coset count that puts every row of (Z/p^m)^n on each
    partial flag, not only one generator of each line of the rows that are
    0 at the pivot columns, through _add_row_reference."""
    n, pm = sum(partition), p**m
    row_space = list(itertools.product(range(pm), repeat=n))
    states = {((), ())}
    for size in reversed(partition[1:]):
        for _ in range(size):
            states = {
                (done, echelon)
                for done, rows in states
                for row in row_space
                for echelon in [_add_row_reference(row, rows, p, pm)]
                if echelon is not None
            }
        states = {((*done, rows), rows) for done, rows in states}
    return len(states)


@pytest.mark.parametrize("partition,p,m", [
    *INDEX_CASES,
    *((part, 2, 1) for part in
      ((2, 2), (1, 3), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1))),
])
def test_pivot_filtered_index_equals_trying_every_row(partition, p, m):
    assert (parabolic_index_enumerated(partition, p, m)
            == _index_trying_every_row(partition, p, m))
