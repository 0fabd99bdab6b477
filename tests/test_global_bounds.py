import pytest

from padic_fixvec.global_bounds import (
    MAX_N,
    BoundsResult,
    GlobalLevel,
    conductor_bounds,
    factorize,
    local_conductor_window,
    radical,
)


@pytest.mark.parametrize("N,pairs", [
    (12, ((2, 2), (3, 1))),
    (1, ()),
    (360, ((2, 3), (3, 2), (5, 1))),
    (97, ((97, 1),)),
    (1024, ((2, 10),)),
])
def test_factorize(N, pairs):
    level = factorize(N)
    assert level.N == N
    assert level.factorization == pairs


@pytest.mark.parametrize("N", [0, -5, MAX_N + 1])
def test_factorize_domain(N):
    with pytest.raises(ValueError):
        factorize(N)


@pytest.mark.parametrize("N,rad", [(12, 6), (1, 1), (360, 30), (49, 7)])
def test_radical(N, rad):
    assert radical(N) == rad


def test_global_level_validation():
    with pytest.raises(ValueError):
        GlobalLevel(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        GlobalLevel(12, ((2, 2), (3, 0)))  # zero exponent
    with pytest.raises(ValueError):
        GlobalLevel(12, ((4, 1), (3, 1)))  # composite base
    with pytest.raises(ValueError):
        GlobalLevel(12, ((2, 1), (3, 1)))  # wrong product
    with pytest.raises(ValueError):
        GlobalLevel(0, ())


@pytest.mark.parametrize("n,N,lower,upper", [
    (2, 12, 6, 144),
    (3, 8, 4, 512),
    (2, 1, 1, 1),
    (1, 100, 10, 100),
])
def test_conductor_bounds(n, N, lower, upper):
    assert conductor_bounds(n, N) == BoundsResult(lower, upper)


def test_level_conductor_bounds_matches_free_function():
    for N in range(1, 201):
        level = factorize(N)
        for n in range(1, 5):
            assert level.conductor_bounds(n) == conductor_bounds(n, N)
    with pytest.raises(ValueError):
        factorize(12).conductor_bounds(0)


def test_conductor_bounds_domain():
    with pytest.raises(ValueError):
        conductor_bounds(0, 12)
    with pytest.raises(ValueError):
        conductor_bounds(2, 0)


def test_bounds_result_validation():
    with pytest.raises(ValueError):
        BoundsResult(5, 4)
    with pytest.raises(ValueError):
        BoundsResult(0, 4)


@pytest.mark.parametrize("n,e_p,window", [
    (2, 2, (1, 4)),
    (3, 1, (1, 3)),
    (2, 4, (3, 8)),
])
def test_local_conductor_window(n, e_p, window):
    assert local_conductor_window(n, e_p) == window


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
            bounds = conductor_bounds(n, N)
            assert bounds.lower <= N <= bounds.upper
            level = factorize(N)
            for pick in ("lo", "hi"):
                prod = 1
                for p, e in level.factorization:
                    lo, hi = local_conductor_window(n, e)
                    prod *= p ** (lo if pick == "lo" else hi)
                assert bounds.lower <= prod <= bounds.upper
