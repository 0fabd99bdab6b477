import ast
import pathlib

import pytest

from padic_fixvec import characters
from padic_fixvec.budget import BudgetExceededError
from padic_fixvec.characters import (
    _dlog_table,
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
    assert conductor_histogram(enumerate_unit_dual(p, r), r) == expected


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


def _levels(p, cap):
    r = 0
    while p**r <= cap:
        yield r
        r += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_dlog_table_is_a_discrete_log(p):
    # 2 is not a primitive root mod 7 or mod 17: the search must pass it by.
    for r in _levels(p, 5 * 10**4):
        pm = p**r
        orders, table = _dlog_table(p, r)
        units = {u for u in range(pm) if u % p} if r else {0}
        assert set(table) == units
        assert len(set(table.values())) == len(table)
        assert all(0 <= e < order for exps in table.values()
                   for e, order in zip(exps, orders))
        # Multiplying by the unit with exponent vector e_k adds 1 to the
        # k-th exponent: the table is a homomorphism onto the exponents.
        unit_of = {exps: u for u, exps in table.items()}
        for k, order in enumerate(orders):
            g = unit_of[tuple(int(i == k) for i in range(len(orders)))]
            for u, exps in table.items():
                step = list(exps)
                step[k] = (step[k] + 1) % order
                assert table[u * g % pm] == tuple(step)


@pytest.mark.parametrize("p,levels", [
    (11, range(4)), (13, range(4)), (17, range(4)), (2, range(13)),
])
def test_conductor_histogram_matches_class_counts(p, levels):
    for r in levels:
        assert conductor_histogram(enumerate_unit_dual(p, r), r) == [
            num_classes_exact(p, i) for i in range(r + 1)
        ]


def _package_imports(source: str) -> set[str]:
    """The package modules a module of padic_fixvec imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= ({node.module} if node.module
                    else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("padic_fixvec")):
            out.add(node.module.rpartition(".")[2])
        elif isinstance(node, ast.Import):
            out |= {alias.name.rpartition(".")[2] for alias in node.names
                    if alias.name.startswith("padic_fixvec.")}
    return out


def test_characters_imports_only_budget_and_finite_ring():
    source = pathlib.Path(characters.__file__).read_text(encoding="utf-8")
    assert _package_imports(source) == {"budget", "finite_ring"}
