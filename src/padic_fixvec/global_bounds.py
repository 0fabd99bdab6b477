"""Conductor bounds for automorphic representations from a minimal level N.

A representation with fixed vectors at principal congruence level N (and at
no proper divisor of N) has conductor bounded below by max(rad(N), N/rad(N))
and above by N**n, the product over p | N of the local windows
[max(e_p - 1, 1), e_p * n]. The entry point is GlobalLevel(N): its
radical and its conductor_bounds(n). Everything here is arithmetic over the
ground field of rational numbers; number-field generality is out of scope.
"""

from itertools import count
from math import gcd, prod

from .finite_ring import check_level, check_size, is_prime
from .representations import ConductorWindow, Value

MAX_N = 10**18
# factorize trial-divides below TRIAL_BOUND; Pollard-Brent takes the rest,
# with GCD_BATCH differences multiplied together per gcd.
TRIAL_BOUND = 1000
GCD_BATCH = 128
# The trial divisors: 2, 3, 5, 7 and the numbers below TRIAL_BOUND prime to
# all four (a wheel of 210). They hold every prime below TRIAL_BOUND, and
# composites only from 121 = 11**2 on; a composite divides nothing that is
# left, because its primes were divided out first.
_TRIAL_DIVISORS = (2, 3, 5, 7) + tuple(
    d for d in range(11, TRIAL_BOUND, 2) if d % 3 and d % 5 and d % 7
)


class GlobalLevel(Value):
    """A level 1 <= N <= 10**18 with its prime factorization from
    factorize(N): (prime, exponent) pairs, primes strictly increasing; and
    its radical, the product of the distinct primes dividing N (1 when
    N = 1). Both are computed once, when the level is built."""

    __slots__ = ("N", "factorization", "radical")

    def __init__(self, N: int):
        factorization = factorize(N)
        _set_N(self, N)
        _set_factorization(self, factorization)
        _set_radical(self, prod([p for p, _ in factorization]))

    def conductor_bounds(self, n: int) -> ConductorWindow:
        """Conductor range for a group size n at this minimal level:
        [max(rad(N), N // rad(N)), N**n]."""
        check_size(n)
        N, rad = self.N, self.radical
        lo = N // rad
        return ConductorWindow(lo if lo > rad else rad, N**n)


# The slots' own setters, as ConductorWindow's; a verify pass builds 10,001
# levels.
_set_N, _set_factorization, _set_radical = (
    GlobalLevel.N.__set__, GlobalLevel.factorization.__set__,
    GlobalLevel.radical.__set__)


def factorize(N: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of 1 <= N <= 10**18, as (prime,
    exponent) pairs sorted by prime; () for N = 1.

    Trial division by the wheel's divisors below TRIAL_BOUND, then
    Pollard-Brent splits each composite cofactor; is_prime is exact on the
    whole range."""
    if not (1 <= N <= MAX_N):
        raise ValueError(f"level must be in [1, 10^18], got {N}")
    exponents = {}
    for d in _TRIAL_DIVISORS:
        if d * d > N:
            break
        if N % d == 0:
            e = 0
            while N % d == 0:
                e += 1
                N //= d
            exponents[d] = e
    pending = [N] if N > 1 else []
    while pending:
        n = pending.pop()
        # No prime below TRIAL_BOUND divides n, so n is prime if it is small.
        if n < TRIAL_BOUND**2 or is_prime(n):
            exponents[n] = exponents.get(n, 0) + 1
        else:
            d = _pollard_brent(n)
            pending += [d, n // d]
    return tuple(sorted(exponents.items()))


def _pollard_brent(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below
    TRIAL_BOUND: Brent's cycle-finding rho (BIT 20, 1980) on x -> x*x + c,
    batching GCD_BATCH differences per gcd. A c whose cycle closes modulo n
    itself gives the trivial divisor n, and the next c is tried."""
    for c in count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(GCD_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += GCD_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def local_conductor_window(n: int, e_p: int) -> ConductorWindow:
    """Conductor exponent range at a prime dividing the level with
    exponent e_p: [max(e_p - 1, 1), e_p * n]."""
    check_size(n)
    check_level(e_p, 1)  # e_p is the local level at p
    return ConductorWindow(max(e_p - 1, 1), e_p * n)
