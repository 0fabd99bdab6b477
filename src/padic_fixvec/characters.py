"""Quasi-characters of a p-adic multiplicative group, up to unramified twist.

The dimension formulas use only the number of twist classes of each
conductor, num_classes_exact, a closed form. Its oracle, enumerate_unit_dual,
enumerates the full dual of (Z/p^r)^x additively: a character is an exponent
vector against generators that _dlog_table finds by search, and its value on
a unit is read from the unit's discrete log, with no complex arithmetic. Each
conductor is then computed from its definition, as the least j for which
the character is trivial on every unit congruent to 1 mod p^j.
"""

from itertools import product
from math import lcm
from operator import mul

from .budget import DEFAULT_UNIT_DUAL_BUDGET, require
from .finite_ring import check_conductor, check_level, check_prime, check_q


def num_classes_exact(q: int, i: int) -> int:
    """Number of unramified-twist classes with conductor exactly i:
    1 for i=0, q-2 for i=1, (q-1)**2 * q**(i-2) for i >= 2."""
    check_q(q)
    check_conductor(i)
    if i == 0:
        return 1
    if i == 1:
        return q - 2
    return (q - 1) ** 2 * q ** (i - 2)


def _dlog_table(p: int, r: int) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Generator orders, and the exponent vector of every unit of Z/p^r
    against the generators. For p odd the generator is the least g whose
    powers give every unit; for p = 2 the generators are -1 and 5 (3 at
    r = 2). A generator set is accepted only when its table holds all
    (p-1) * p**(r-1) units; RuntimeError if none is."""
    pm = p**r
    units = (p - 1) * p ** (r - 1) if r else 1
    if p == 2:
        trials = [[-1, 5] if r >= 3 else [3] if r == 2 else []]
    else:
        trials = ([g] for g in range(2, pm) if g % p) if r else [[]]
    for gens in trials:
        powers = [[1] for _ in gens]
        for g, row in zip(gens, powers):
            while (u := row[-1] * g % pm) != 1:
                row.append(u)
        table: dict[int, tuple[int, ...]] = {}
        for exps in product(*(range(len(row)) for row in powers)):
            u = 1 % pm
            for row, e in zip(powers, exps):
                u = u * row[e] % pm
            table[u] = exps
        if len(table) == units:
            return [len(row) for row in powers], table
    raise RuntimeError(f"no generators found for (Z/{p}^{r})^x")


def enumerate_unit_dual(
    p: int, r: int, budget: int | None = None
) -> list[tuple[int, int]]:
    """All characters of (Z/p^r)^x with their conductors.

    Each character is an exponent vector against the generators of
    _dlog_table, encoded into a single integer id (mixed radix, most
    significant generator first). Its conductor is the least j <= r such
    that it is trivial on the units congruent to 1 mod p^j (j=0: trivial on
    all units). The units other than 1 fall into shells j < r, u = 1 mod p^j
    but not mod p^(j+1); walking the shells down from r - 1, the first unit
    off the kernel lies in shell c - 1, and a character with none has c = 0.

    Gated by p**r <= budget (default 10**6).
    """
    check_prime(p)
    check_level(r, 0)
    require(p**r, budget, DEFAULT_UNIT_DUAL_BUDGET, f"dual of (Z/{p}^{r})^x")

    orders, dlog = _dlog_table(p, r)
    exponent = lcm(*orders)
    weights = [exponent // order for order in orders]
    shells: list[list[tuple[int, ...]]] = [[] for _ in range(r)]
    for u, exps in dlog.items():
        if u != 1 % p**r:
            shells[max(j for j in range(r) if (u - 1) % p**j == 0)].append(exps)

    def conductor(coeffs: tuple[int, ...]) -> int:
        scaled = list(map(mul, coeffs, weights))
        return next((j + 1 for j in reversed(range(r)) if any(
            sum(map(mul, scaled, exps)) % exponent for exps in shells[j])), 0)

    return list(enumerate(map(conductor, product(*map(range, orders)))))


def conductor_histogram(dual: list[tuple[int, int]], r: int) -> list[int]:
    """Count of the characters of dual, the enumerate_unit_dual list of a
    level r, per conductor, index 0..r."""
    hist = [0] * (r + 1)
    for _, cond in dual:
        hist[cond] += 1
    return hist
