"""Quasi-characters of a p-adic multiplicative group, up to unramified twist.

None of the implemented formulas needs character values, only the number
of twist classes of each conductor. Those counts have closed forms; the
oracle enumerates the full dual of (Z/p^r)^x additively (exponent vectors
against fixed generators, no complex arithmetic) and recomputes each
conductor from discrete logs.
"""

from itertools import product
from math import lcm

from .budget import DEFAULT_UNIT_DUAL_BUDGET, require
from .finite_ring import is_prime
from .global_bounds import factorize


def num_classes_exact(q: int, i: int) -> int:
    """Number of unramified-twist classes with conductor exactly i:
    1 for i=0, q-2 for i=1, (q-1)**2 * q**(i-2) for i >= 2."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if i < 0:
        raise ValueError(f"conductor must be >= 0, got {i}")
    if i == 0:
        return 1
    if i == 1:
        return q - 2
    return (q - 1) ** 2 * q ** (i - 2)


def _primitive_root(p: int, r: int) -> int:
    """A generator of the cyclic group (Z/p^r)^x, p odd."""
    phi_p = p - 1
    prime_divs = [ell for ell, _ in factorize(phi_p)]
    g = 2
    while any(pow(g, phi_p // ell, p) == 1 for ell in prime_divs):
        g += 1
    # lift to a generator mod p^r
    if r >= 2 and pow(g, phi_p, p * p) == 1:
        g += p
    return g


def _unit_group_generators(p: int, r: int) -> list[tuple[int, int]]:
    """(generator, order) pairs for (Z/p^r)^x."""
    if r == 0:
        return []
    if p == 2:
        if r == 1:
            return []
        if r == 2:
            return [(3, 2)]
        return [(2**r - 1, 2), (5, 2 ** (r - 2))]
    return [(_primitive_root(p, r), (p - 1) * p ** (r - 1))]


def _dlog_table(p: int, r: int, gens: list[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """Exponent vector of every unit of Z/p^r against the fixed generators."""
    pm = p**r
    if not gens:
        return {1 % pm: ()}
    table: dict[int, tuple[int, ...]] = {}
    for exps in product(*(range(order) for _, order in gens)):
        u = 1
        for (g, _), e in zip(gens, exps):
            u = u * pow(g, e, pm) % pm
        table[u] = exps
    return table


def _level_subgroup_generators(p: int, r: int, j: int, gens) -> list[int]:
    """Generators of the units congruent to 1 mod p^j, inside (Z/p^r)^x."""
    if j == 0 or (p == 2 and j == 1):
        return [g for g, _ in gens]  # 1+2Z hits every odd residue
    if j >= r:
        return []
    return [1 + p**j]


def enumerate_unit_dual(
    p: int, r: int, budget: int | None = None
) -> list[tuple[int, int]]:
    """All characters of (Z/p^r)^x with their conductors.

    Each character is an exponent vector against the fixed generating set,
    encoded into a single integer id (mixed radix, most significant
    generator first). Its conductor is the least j <= r such that it is
    trivial on the units congruent to 1 mod p^j (j=0: trivial on all units).

    The multiset of conductors reproduces num_classes_exact(p, i) for each
    i <= r. Gated by p**r <= budget (default 10**6).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if r < 0:
        raise ValueError(f"level must be >= 0, got {r}")
    require(p**r, budget, DEFAULT_UNIT_DUAL_BUDGET, f"dual of (Z/{p}^{r})^x")

    gens = _unit_group_generators(p, r)
    orders = [order for _, order in gens]
    dlog = _dlog_table(p, r, gens)
    exponent = lcm(*orders) if orders else 1
    weights = [exponent // order for order in orders]
    level_dlogs = [
        [dlog[g % p**r] for g in _level_subgroup_generators(p, r, j, gens)]
        for j in range(r + 1)
    ]

    out: list[tuple[int, int]] = []
    char_id = 0
    for coeffs in product(*(range(order) for order in orders)):
        cond = r
        for j in range(r + 1):
            killed = all(
                sum(a * e * w for a, e, w in zip(coeffs, vec, weights)) % exponent == 0
                for vec in level_dlogs[j]
            )
            if killed:
                cond = j
                break
        out.append((char_id, cond))
        char_id += 1
    return out


def conductor_histogram(p: int, r: int, budget: int | None = None) -> list[int]:
    """Count of enumerated dual characters per conductor, index 0..r."""
    hist = [0] * (r + 1)
    for _, cond in enumerate_unit_dual(p, r, budget):
        hist[cond] += 1
    return hist
