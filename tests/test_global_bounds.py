import random

import pytest

from padic_fixvec.finite_ring import is_prime
from padic_fixvec.global_bounds import (
    MAX_N,
    TRIAL_BOUND,
    GlobalLevel,
    _pollard_brent,
    factorize,
    local_conductor_window,
)
from padic_fixvec.representations import ConductorWindow, conductor_window


@pytest.mark.parametrize("N,pairs", [
    (12, ((2, 2), (3, 1))),
    (1, ()),
    (360, ((2, 3), (3, 2), (5, 1))),
    (97, ((97, 1),)),
    (1024, ((2, 10),)),
])
def test_factorize(N, pairs):
    assert factorize(N) == pairs
    level = GlobalLevel(N)
    assert level.N == N
    assert level.factorization == pairs


def test_factorize_matches_sympy():
    from sympy import factorint

    def expected(N):
        return tuple(sorted(factorint(N).items()))

    rng = random.Random(1)
    samples = [rng.randrange(1, 10**18) for _ in range(500)]
    # A semiprime near 10^18 with both prime factors near 10^9.
    samples.append(999999929 * 999999937)
    for N in [*range(1, 10**4 + 1), *samples]:
        assert factorize(N) == expected(N), N


@pytest.mark.parametrize("N,pairs", [
    (1009**2 * 1013**3, ((1009, 2), (1013, 3))),
    (999999937**2, ((999999937, 2),)),
])
def test_factorize_adds_a_prime_that_pollard_brent_returns_twice(N, pairs):
    # Both primes lie past trial division, so every factor comes from
    # Pollard-Brent and each repeated prime adds to its exponent.
    assert factorize(N) == pairs


def _factorize_by_odd_divisors(N):
    """Reference: factorize as it was before its trial divisors came from a
    wheel, trial division by 2 and by every odd d < TRIAL_BOUND."""
    exponents = {}
    for d in (2, *range(3, TRIAL_BOUND, 2)):
        if d * d > N:
            break
        if N % d == 0:
            exponents[d] = 0
            while N % d == 0:
                exponents[d] += 1
                N //= d
    pending = [N] if N > 1 else []
    while pending:
        n = pending.pop()
        if n < TRIAL_BOUND**2 or is_prime(n):
            exponents[n] = exponents.get(n, 0) + 1
        else:
            d = _pollard_brent(n)
            pending += [d, n // d]
    return tuple(sorted(exponents.items()))


def test_factorize_equals_the_odd_trial_loop():
    near = [p for p in range(900, 1100) if is_prime(p)]
    above = [p for p in range(TRIAL_BOUND, 3000) if is_prime(p)]
    samples = [
        *range(1, 2 * 10**5 + 1),
        *(p * q for p in near for q in near if p <= q),
        *(p * q * r for p, q, r in zip(near, near[1:], near[2:])),
        *(p * p for p in above),
        999999937**2,
        10**18 - 1, 10**18 - 11, 10**18,
    ]
    for N in samples:
        assert factorize(N) == _factorize_by_odd_divisors(N), N


@pytest.mark.parametrize("N", [0, -5, MAX_N + 1])
def test_factorize_domain(N):
    with pytest.raises(ValueError):
        factorize(N)


@pytest.mark.parametrize("N,rad", [(12, 6), (1, 1), (360, 30), (49, 7)])
def test_radical(N, rad):
    assert GlobalLevel(N).radical == rad


def test_global_level_validation():
    with pytest.raises(ValueError):
        GlobalLevel(0)
    with pytest.raises(ValueError):
        GlobalLevel(MAX_N + 1)


@pytest.mark.parametrize("n,N,lower,upper", [
    (2, 12, 6, 144),
    (3, 8, 4, 512),
    (2, 1, 1, 1),
    (1, 100, 10, 100),
])
def test_conductor_bounds(n, N, lower, upper):
    bounds = GlobalLevel(N).conductor_bounds(n)
    assert bounds == ConductorWindow(lower, upper)
    assert str(bounds) == f"[{lower}, {upper}]"


def test_conductor_bounds_domain():
    with pytest.raises(ValueError):
        GlobalLevel(12).conductor_bounds(0)


@pytest.mark.parametrize("n,e_p,window", [
    (2, 2, (1, 4)),
    (3, 1, (1, 3)),
    (2, 4, (3, 8)),
])
def test_local_conductor_window(n, e_p, window):
    local = local_conductor_window(n, e_p)
    assert (local.lo, local.hi) == window
    assert str(local) == str(list(window))


def test_local_conductor_window_domain():
    with pytest.raises(ValueError):
        local_conductor_window(0, 2)
    with pytest.raises(ValueError):
        local_conductor_window(2, 0)


def test_lower_bound_brackets_every_admissible_exponent_product():
    # For each N, any choice of local exponents c_p within the windows has
    # prod p**c_p landing inside [lower, upper].
    for n in (1, 2, 3):
        for N in (2, 12, 60, 360, 1024):
            level = GlobalLevel(N)
            bounds = level.conductor_bounds(n)
            assert bounds.contains(N)
            for pick in ("lo", "hi"):
                prod = 1
                for p, e in level.factorization:
                    window = local_conductor_window(n, e)
                    prod *= p ** getattr(window, pick)
                assert bounds.lo <= prod <= bounds.hi


def test_sharp_window_lies_in_the_paper_window():
    # The sharp generic window [e, e*n] of minimal level e sits inside the
    # paper's local window [max(e - 1, 1), e*n] with the same upper edge,
    # and the square-integrable window inside the generic one.
    for n in range(1, 5):
        for e in range(1, 9):
            sharp = conductor_window(n, e)
            paper = local_conductor_window(n, e)
            single = conductor_window(n, e, square_integrable=True)
            assert paper.lo <= sharp.lo and sharp.hi == paper.hi
            assert sharp.lo <= single.lo and single.hi == sharp.hi
