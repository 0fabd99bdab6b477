import math
import random
from itertools import product, zip_longest
from typing import Sequence

import pytest

from padic_fixvec.budget import BudgetExceededError
from padic_fixvec.cli import SpecError, _printable_q, parse_spec
from padic_fixvec.finite_ring import (
    PRIME_CAP,
    Rows,
    _block_starts,
    _enumerate_gl_rows,
    _enumerate_parabolic_rows,
    _gl_last_rows,
    _parabolic_row_groups,
    det_int,
    enumerate_gl,
    gl_order,
    is_prime,
    mat_mul,
    parabolic_order,
)
from padic_fixvec.verify import GL_COUNT_CASES, PARABOLIC_COUNT_CASES

# Above this many candidates, filtering all of GL_n by _rows_in_parabolic
# is too slow for a unit test; the structured reference still runs.
GL_FILTER_LIMIT = 10**6


# Membership in the standard parabolic, the reference that the structured
# parabolic enumeration is checked against.
def in_parabolic(rows: Rows, partition: Sequence[int]) -> bool:
    """True iff every entry strictly below the block diagonal is 0."""
    if sum(partition) != len(rows):
        raise ValueError(
            f"partition {tuple(partition)} does not sum to matrix size {len(rows)}"
        )
    starts = _block_starts(partition)
    for bi, start in enumerate(starts):
        for i in range(start, start + partition[bi]):
            for j in range(start):
                if rows[i][j] != 0:
                    return False
    return True


@pytest.mark.parametrize("n,expected", [
    (0, False), (1, False), (2, True), (3, True), (4, False), (9, False),
    (97, True), (91, False), (2 ** 13 - 1, True),
    (10**18 + 3, True), (10**18 + 1, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_sympy():
    from sympy import isprime

    assert all(is_prime(n) is isprime(n) for n in range(-2, 10**5))
    rng = random.Random(1)
    for n in (rng.randrange(10**17, 10**18) for _ in range(2000)):
        assert is_prime(n) is isprime(n), n


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # to bases 2, ..., 23
    318665857834031151167461,  # to bases 2, ..., 37; base 41 exposes it
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert is_prime(n) is False


def test_is_prime_refuses_at_its_cap():
    assert PRIME_CAP == 3317044064679887385961981
    assert is_prime(PRIME_CAP - 2) is False
    for n in (PRIME_CAP, PRIME_CAP + 2, 10**30):
        with pytest.raises(ValueError, match=str(PRIME_CAP)):
            is_prime(n)


def test_local_field_params():
    # The CLI reads the field: q = p**f, f defaults to 1, p must be prime
    # and f >= 1.
    def field(obj):
        return parse_spec({"field": obj, "rep": {"type": "steinberg-twist",
                                                 "c_chi": 0}})

    parsed = field({"p": 3, "f": 2})
    assert (parsed.p, parsed.f, _printable_q(parsed)) == (3, 2, 9)
    assert field({"p": 5}).f == 1
    with pytest.raises(SpecError, match="field.p: p must be prime, got 4"):
        field({"p": 4})
    with pytest.raises(SpecError, match="field.f: residue degree must be >= 1, got 0"):
        field({"p": 3, "f": 0})


@pytest.mark.parametrize("n,q,m,expected", [
    (2, 2, 1, 6),
    (2, 3, 2, 3888),
    (1, 5, 2, 20),
    (3, 2, 1, 168),
    (2, 4, 1, (16 - 1) * (16 - 4)),
])
def test_gl_order_values(n, q, m, expected):
    assert gl_order(n, q, m) == expected


def test_gl_order_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gl_order(0, 2, 1)
    with pytest.raises(ValueError):
        gl_order(2, 2, 0)
    with pytest.raises(ValueError):
        gl_order(2, 1, 1)


def test_gl_order_level_ratio():
    for n in (1, 2, 3):
        for q in (2, 3, 5, 9):
            for m in (1, 2, 3):
                assert gl_order(n, q, m + 1) == gl_order(n, q, m) * q ** (n * n)


@pytest.mark.parametrize("partition,q,m,expected", [
    ((1, 1), 3, 1, 12),
    ((2, 1), 2, 1, 24),
    ((3,), 2, 1, 168),
    ((2,), 3, 2, gl_order(2, 3, 2)),
])
def test_parabolic_order_values(partition, q, m, expected):
    assert parabolic_order(partition, q, m) == expected


def test_parabolic_order_rejects_empty_partition():
    with pytest.raises(ValueError):
        parabolic_order((), 2, 1)


def test_matrix_product():
    a = ((1, 2), (0, 1))
    b = ((1, 0), (3, 1))
    assert mat_mul(a, b, 9) == ((7, 2), (3, 1))
    assert mat_mul(a, b, 4) == ((3, 2), (3, 1))


def test_det_int_small_sizes():
    assert det_int(((7,),)) == 7
    assert det_int(((1, 2), (3, 4))) == -2
    assert det_int(((1, 2, 3), (4, 5, 6), (7, 8, 10))) == -3
    # size 4 goes through the cofactor branch
    eye4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert det_int(eye4) == 1


def test_det_int_multiplicative_mod_pm():
    rows_a = ((1, 2, 0), (0, 1, 5), (3, 0, 1))
    rows_b = ((2, 1, 1), (0, 3, 0), (1, 0, 4))
    product = mat_mul(rows_a, rows_b, 25)
    assert det_int(product) % 25 == (det_int(rows_a) * det_int(rows_b)) % 25


@pytest.mark.parametrize("rows,p,m,expected", [
    (((1, 0), (0, 1)), 2, 2, True),
    (((0, 0), (0, 0)), 2, 2, False),
    (((1, 0), (0, 2)), 2, 2, False),
    (((1, 1), (1, 2)), 3, 1, True),
])
def test_is_invertible(rows, p, m, expected):
    # Invertible over Z/p^m exactly when the determinant is a unit, that
    # is nonzero mod p; the enumerations and the verify check test this.
    assert any(rows == r for r in enumerate_gl(len(rows), p, m)) is expected
    assert (det_int(rows) % p != 0) is expected


def test_in_parabolic():
    eye = ((1, 0), (0, 1))
    assert in_parabolic(eye, (1, 1)) is True
    assert in_parabolic(((1, 0), (1, 1)), (1, 1)) is False
    assert in_parabolic(((1, 1), (0, 1)), (1, 1)) is True
    with pytest.raises(ValueError):
        in_parabolic(eye, (1, 1, 1))


@pytest.mark.parametrize("n,p,m", [(2, 2, 1), (1, 3, 2), (3, 2, 1), (2, 3, 2)])
def test_enumerate_gl_count(n, p, m):
    mats = list(enumerate_gl(n, p, m))
    assert len(mats) == gl_order(n, p, m)
    assert len(set(mats)) == len(mats)
    assert all(det_int(rows) % p != 0 for rows in mats)


def test_enumerate_gl_is_sorted_stream():
    rows = list(enumerate_gl(2, 2, 1))
    assert rows == sorted(rows)
    assert rows[0] == ((0, 1), (1, 0))


def test_enumerate_gl_budget():
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_gl(2, 2, 2, budget=100))
    assert info.value.required == 2 ** 8
    assert "256" in str(info.value)


@pytest.mark.parametrize("partition,p,m", [
    ((1, 1), 3, 1), ((2, 1), 2, 1), ((1, 1), 2, 2), ((1, 1, 1), 2, 1),
])
def test_enumerate_parabolic_count(partition, p, m):
    rows = list(_enumerate_parabolic_rows(partition, p, m))
    assert len(rows) == parabolic_order(partition, p, m)
    assert len(set(rows)) == len(rows)
    assert all(in_parabolic(r, partition) for r in rows)
    assert all(det_int(r) % p != 0 for r in rows)


def _flat_gl_rows(n, p, m):
    """Reference: the flat-product loop that slices every n*n-tuple of
    Z/p^m into rows and keeps those with a unit determinant."""
    for flat in product(range(p**m), repeat=n * n):
        rows = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if det_int(rows) % p != 0:
            yield rows


def _base_matrix_parabolic_rows(partition, p, m):
    """Reference: fill a base matrix with each choice of invertible
    diagonal blocks, then with each choice of the entries above them."""
    n = sum(partition)
    starts = _block_starts(partition)
    block_lists = [list(_flat_gl_rows(part, p, m)) for part in partition]
    above_positions = [
        (i, j)
        for bi, start in enumerate(starts)
        for i in range(start, start + partition[bi])
        for j in range(start + partition[bi], n)
    ]
    for blocks in product(*block_lists):
        base = [[0] * n for _ in range(n)]
        for block, start in zip(blocks, starts):
            for i, row in enumerate(block):
                base[start + i][start : start + len(row)] = row
        for values in product(range(p**m), repeat=len(above_positions)):
            for (i, j), v in zip(above_positions, values):
                base[i][j] = v
            yield tuple(tuple(row) for row in base)


# GL_COUNT_CASES has only n = 2 and 3; the enumeration tests the single
# entry at n = 1, and n = 4 (65,536 candidates) takes its cofactors from
# 3 x 3 minors.
@pytest.mark.parametrize("n,p,m", [
    *GL_COUNT_CASES,
    *((1, p, m) for p in (2, 3, 5) for m in (1, 2)),
    (4, 2, 1),
])
def test_gl_rows_stream_equals_flat_reference(n, p, m):
    pairs = zip_longest(_flat_gl_rows(n, p, m), _enumerate_gl_rows(n, p, m))
    assert all(ref == got for ref, got in pairs)


@pytest.mark.parametrize("partition,p,m", PARABOLIC_COUNT_CASES)
def test_parabolic_rows_equal_references(partition, p, m):
    rows = list(_enumerate_parabolic_rows(partition, p, m))
    got = set(rows)
    assert len(got) == len(rows)
    assert got == set(_base_matrix_parabolic_rows(partition, p, m))
    n = sum(partition)
    if p ** (m * n * n) <= GL_FILTER_LIMIT:
        assert got == {
            r for r in _enumerate_gl_rows(n, p, m)
            if in_parabolic(r, partition)
        }


@pytest.mark.parametrize("n,p,m", [(1, 5, 3), (2, 2, 2), (3, 3, 1)])
def test_gl_rows_budget(n, p, m):
    required = p ** (m * n * n)
    with pytest.raises(BudgetExceededError) as info:
        next(_enumerate_gl_rows(n, p, m, budget=required - 1))
    assert (info.value.required, info.value.budget) == (required, required - 1)
    rows = _enumerate_gl_rows(n, p, m, budget=required)
    assert sum(1 for _ in rows) == gl_order(n, p, m)


def test_parabolic_rows_budget():
    # The budget gates the p**(m * sum_i n_i * (n - start_i)) candidate
    # block-upper-triangular matrices: 2**(2 * (1*3 + 2*2)) here.
    with pytest.raises(BudgetExceededError) as info:
        next(_enumerate_parabolic_rows((1, 2), 2, 2, budget=100))
    assert info.value.required == 2 ** 14


def test_parabolic_rows_budget_bounds_the_whole_enumeration():
    # Every diagonal block is GL_1(Z/9), well inside the budget; the 3**20
    # candidate matrices are not.
    with pytest.raises(BudgetExceededError) as info:
        next(_enumerate_parabolic_rows((1, 1, 1, 1), 3, 2, budget=1000))
    assert (info.value.required, info.value.budget) == (3 ** 20, 1000)


@pytest.mark.parametrize("budget", [True, 1.5, 0, -1])
def test_an_explicit_budget_must_be_a_positive_int(budget):
    # True is an int equal to 1, so only the bool test refuses it.
    with pytest.raises(ValueError) as info:
        next(enumerate_gl(1, 2, 1, budget=budget))
    assert str(info.value) == (
        f"budget must be an integer >= 1, got {budget!r}")


# The verify cosets suite counts through the helpers that build the streams,
# without building a matrix; the counts must be the streams' lengths.
@pytest.mark.parametrize("n,p,m", GL_COUNT_CASES)
def test_gl_bulk_count_equals_the_stream_length(n, p, m):
    count = sum(len(rows) for _, rows in _gl_last_rows(n, p, m))
    assert count == len(list(_enumerate_gl_rows(n, p, m)))


@pytest.mark.parametrize("partition,p,m", PARABOLIC_COUNT_CASES)
def test_parabolic_bulk_count_equals_the_stream_length(partition, p, m):
    count = math.prod(map(len, _parabolic_row_groups(partition, p, m)))
    assert count == len(list(_enumerate_parabolic_rows(partition, p, m)))


def test_count_helpers_keep_the_budget_gates():
    with pytest.raises(BudgetExceededError) as info:
        next(_gl_last_rows(2, 2, 2, budget=100))
    assert "enumerating GL_2(Z/2^2)" in str(info.value)
    with pytest.raises(BudgetExceededError) as info:
        _parabolic_row_groups((1, 2), 2, 2, budget=100)
    assert info.value.required == 2 ** 14


# Out-of-domain parabolic rows are refused by the shared checks, before the
# budget gate: at budget 1 a gate that ran first would raise
# BudgetExceededError, and an empty partition would count one matrix.
PARABOLIC_ROWS_REFUSALS = [
    (((), 2, 1), "partition must be nonempty with parts >= 1, got ()"),
    (((1, 0), 2, 1), "partition must be nonempty with parts >= 1, got (1, 0)"),
    (((1, 1), 4, 1), "p must be prime, got 4"),
    (((1, 1), 2, 0), "level must be >= 1, got 0"),
]


@pytest.mark.parametrize("args,message", PARABOLIC_ROWS_REFUSALS)
def test_parabolic_rows_refuse_out_of_domain(args, message):
    with pytest.raises(ValueError) as info:
        _parabolic_row_groups(*args, budget=1)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        next(_enumerate_parabolic_rows(*args, budget=1))
    assert str(info.value) == message
