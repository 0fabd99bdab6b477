import pytest

from padic_fixvec.budget import BudgetExceededError
from padic_fixvec.characters import (
    conductor_histogram,
    enumerate_unit_dual,
    num_classes_exact,
)


@pytest.mark.parametrize("q,i,expected", [
    (3, 1, 1),
    (5, 3, 80),
    (2, 1, 0),
    (7, 0, 1),
    (4, 2, 9),
])
def test_num_classes_exact(q, i, expected):
    assert num_classes_exact(q, i) == expected


@pytest.mark.parametrize("q,r,expected", [
    (5, 3, 100),
    (3, 1, 2),
    (2, 0, 1),
    (9, 0, 1),
])
def test_num_classes_upto(q, r, expected):
    assert sum(num_classes_exact(q, i) for i in range(r + 1)) == expected


def test_num_classes_upto_closed_identity():
    for q in range(2, 10):
        for r in range(1, 9):
            total = sum(num_classes_exact(q, i) for i in range(r + 1))
            assert total == (q - 1) * q ** (r - 1)


@pytest.mark.parametrize("p,r,expected", [
    (5, 2, [1, 3, 16]),
    (2, 1, [1, 0]),
    (3, 2, [1, 1, 4]),
    (2, 3, [1, 0, 1, 2]),
    (7, 1, [1, 5]),
    (2, 2, [1, 0, 1]),
    (3, 1, [1, 1]),
])
def test_conductor_histograms(p, r, expected):
    assert conductor_histogram(p, r) == expected


@pytest.mark.parametrize("p,r", [(2, 5), (3, 4), (5, 3), (7, 2)])
def test_dual_size_is_unit_group_order(p, r):
    dual = enumerate_unit_dual(p, r)
    assert len(dual) == (p - 1) * p ** (r - 1)
    ids = [char_id for char_id, _ in dual]
    assert ids == sorted(set(ids))


def test_dual_is_deterministic():
    assert enumerate_unit_dual(3, 3) == enumerate_unit_dual(3, 3)


def test_dual_trivial_group():
    assert enumerate_unit_dual(5, 0) == [(0, 0)]
    assert enumerate_unit_dual(2, 1) == [(0, 0)]


def test_dual_budget():
    with pytest.raises(BudgetExceededError) as info:
        enumerate_unit_dual(2, 21)
    assert info.value.required == 2 ** 21
