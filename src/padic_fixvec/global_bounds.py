"""Conductor bounds for automorphic representations from a minimal level N.

A representation with fixed vectors at principal congruence level N (and at
no proper divisor of N) has conductor bounded below by max(rad(N), N/rad(N))
and above by N**n, the product over p | N of the local windows
[max(e_p - 1, 1), e_p * n]. The entry point is GlobalLevel(N): its
radical and its conductor_bounds(n). Everything here is arithmetic over the
ground field of rational numbers; number-field generality is out of scope.
"""

from dataclasses import dataclass, field

MAX_N = 10**18


@dataclass(frozen=True)
class GlobalLevel:
    """A level 1 <= N <= 10**18 with its prime factorization from
    factorize(N): (prime, exponent) pairs, primes strictly increasing."""

    N: int
    factorization: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "factorization", factorize(self.N))

    @property
    def radical(self) -> int:
        """Product of the distinct primes dividing N (1 when N = 1)."""
        rad = 1
        for p, _ in self.factorization:
            rad *= p
        return rad

    def conductor_bounds(self, n: int) -> "BoundsResult":
        """Conductor range for a group size n at this minimal level:
        lower = max(rad(N), N // rad(N)), upper = N**n."""
        if n < 1:
            raise ValueError(f"group size must be >= 1, got {n}")
        rad = self.radical
        return BoundsResult(max(rad, self.N // rad), self.N**n)


@dataclass(frozen=True)
class BoundsResult:
    """An inclusive conductor range."""

    lower: int
    upper: int

    def __post_init__(self):
        if not (1 <= self.lower <= self.upper):
            raise ValueError(
                f"need 1 <= lower <= upper, got ({self.lower}, {self.upper})"
            )


def factorize(N: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of 1 <= N <= 10**18, as (prime,
    exponent) pairs sorted by prime; () for N = 1.

    sympy is imported here, not at module level, so importing this module
    stays cheap.
    """
    if not (1 <= N <= MAX_N):
        raise ValueError(f"level must be in [1, 10^18], got {N}")
    from sympy import factorint

    return tuple(sorted(factorint(N).items()))


def local_conductor_window(n: int, e_p: int) -> tuple[int, int]:
    """Inclusive conductor range at a prime dividing the level with
    exponent e_p: [max(e_p - 1, 1), e_p * n]."""
    if n < 1:
        raise ValueError(f"group size must be >= 1, got {n}")
    if e_p < 1:
        raise ValueError(f"exponent must be >= 1, got {e_p}")
    return (max(e_p - 1, 1), e_p * n)
