"""Symbolic data for generic representations of GL_n over a p-adic field.

A generic irreducible representation is carried by its ordered list of
essentially-square-integrable blocks (size, conductor); a principal series
of GL_2 is the one with two GL_1 blocks. The fixed-vector criteria for
principal congruence subgroups, the depth, the conductor windows and the
fixed-space dimension of an induced representation all reduce to exact
integer and rational arithmetic on this data. has_fixed_vector is the one
statement of the blockwise criterion: a K(m)-fixed vector exists iff
c <= m*n for every block. A block answers its own depth, max((c - n)/n, 0),
which an induced representation and each GL_2 type of gl2_dims read.

Every value type of the package is a Value: immutable, with __slots__, and
equal to another exactly when both have the same type and fields. Each
representation type is a Representation, whose one dim answers 0 below
min_level() and gives each type's closed form only from there on. A depth
imports fractions where it builds one, so no other query loads it.
"""

from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from .cosets import parabolic_index_closed
from .finite_ring import (FieldError, above_blocks, check_block, check_level,
                          check_q, check_size)

if TYPE_CHECKING:
    from fractions import Fraction


class Value:
    """Base of the immutable value types. A subclass names its fields in
    __slots__ and sets them in __init__ with object.__setattr__ or the slots'
    own setters. Equality (same type only), hashing and the repr
    Type(field=value, ...) read them; copy and pickle restore them."""

    __slots__ = ()

    def __init_subclass__(cls):
        # _fields(self) reads the slots in C (a one-slot type's is its value).
        cls._fields = attrgetter(*cls.__slots__ or ("__class__",))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is immutable: {name}")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Representation(Value):
    """Base of GenericRepresentation and the GL_2 types SteinbergTwist and
    Supercuspidal. A subclass gives conductor(), min_level(), depth(),
    dim_exponent(m) and _dim(q, m), its closed form from min_level() on.
    Each method raises ValueError where the type has no answer."""

    __slots__ = ()

    def conductor(self) -> int: ...

    def min_level(self) -> int: ...

    def depth(self) -> "Fraction": ...

    def _dim(self, q: int, m: int) -> int: ...

    def dim(self, q: int, m: int) -> int:
        """Checks q and m; 0 below min_level(), else the closed form _dim."""
        check_q(q)
        check_level(m, 0)
        return self._dim(q, m) if m >= self.min_level() else 0

    def dim_exponent(self, m: int) -> int:
        """An e with dim(q, m) >= q**e for every q once m >= min_level():
        the size of the dimension, known before it is computed."""


class SquareIntegrableBlock(Value):
    """One essentially square integrable block: GL_n with its conductor c >= n - 1."""

    __slots__ = ("n", "conductor")

    def __init__(self, n: int, conductor: int):
        FieldError.check("n", check_size, n)
        FieldError.check("conductor", check_block, n, conductor)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "conductor", conductor)

    def depth(self) -> "Fraction":
        """The block's depth: max((c - n)/n, 0), exactly."""
        from fractions import Fraction

        return max(Fraction(self.conductor - self.n, self.n), Fraction(0))


class GenericRepresentation(Representation):
    """Ordered square-integrable blocks of a parabolically induced
    representation; a Representation, like the GL_2 types in gl2_dims."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[SquareIntegrableBlock]):
        if len(blocks) == 0:
            raise ValueError("a representation needs at least one block")
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "GenericRepresentation":
        return cls(tuple(SquareIntegrableBlock(n, c) for n, c in pairs))

    # n, conductor() and min_level() loop: three times as fast as sum() or
    # max() over a list, and a verify pass reads each about 10,000 times.
    @property
    def n(self) -> int:
        n = 0
        for b in self.blocks:
            n += b.n
        return n

    @property
    def partition(self) -> tuple[int, ...]:
        return tuple([b.n for b in self.blocks])

    def conductor(self) -> int:
        """The sum of block conductors (conductors are additive across
        parabolic induction)."""
        c = 0
        for b in self.blocks:
            c += b.conductor
        return c

    def min_level(self) -> int:
        """Least level with a fixed vector: max over blocks of ceil(c_i / n_i)."""
        least = 0
        for b in self.blocks:
            if b.conductor > least * b.n:  # ceil(c_i / n_i) > least
                least = -(-b.conductor // b.n)
        return least

    def depth(self) -> "Fraction":
        """The greatest block depth: parabolic induction preserves depth."""
        return max(b.depth() for b in self.blocks)

    def dim(self, q: int, m: int) -> int:
        """Refuses a block of size >= 2 before any other check."""
        for i, block in enumerate(self.blocks):
            if block.n >= 2:
                raise ValueError(
                    f"rep.blocks[{i}]: dimension of an induced representation "
                    f"needs the inner fixed-space dimension of each block, "
                    f"which a size-{block.n} block's conductor alone does not"
                    " determine; use principal-series, steinberg-twist or"
                    " supercuspidal for the GL_2 fine types"
                )
        return super().dim(q, m)

    def _dim(self, q: int, m: int) -> int:
        """The coset index [GL_n : P]; 1 at level 0, where the integral group
        absorbs everything, and for one block, where P is the whole group."""
        if m == 0 or len(self.blocks) == 1:
            return 1
        return parabolic_index_closed(self.partition, q, m)

    def dim_exponent(self, m: int) -> int:
        """m*d with d = sum_{i<j} n_i*n_j: the coset index, a factor of the
        dimension, is at least q**(m*d)."""
        return m * above_blocks(self.partition)


def has_fixed_vector_depth(depth: "Fraction", m: int) -> bool:
    """Depth criterion at positive level m: depth <= m - 1, compared exactly."""
    check_level(m, 1)
    return depth <= m - 1


def has_fixed_vector(rep: GenericRepresentation, m: int) -> bool:
    """The blockwise criterion: a fixed vector at level m >= 0 exists iff
    every block has conductor c <= m*n. The blocks checked their own n and
    c when built, so only m is checked here. It never reads min_level,
    which the verify suites check against it."""
    check_level(m, 0)
    # A loop, not all() over a generator: it is twice as fast, and the
    # verify windows suite calls this about 80,000 times.
    for b in rep.blocks:
        if b.conductor > m * b.n:
            return False
    return True


class ConductorWindow(Value):
    """Inclusive integer range [lo, hi], 0 <= lo <= hi: the conductors (or
    the conductor exponents at one prime) that a closed-form criterion
    allows. The verify windows suite checks every window on a grid."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if not 0 <= lo <= hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def contains(self, c: int) -> bool:
        return self.lo <= c <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# A third faster than object.__setattr__; a verify pass builds 50,000 windows.
_set_lo, _set_hi = ConductorWindow.lo.__set__, ConductorWindow.hi.__set__


def conductor_window(n: int, m: int, square_integrable: bool = False) -> ConductorWindow:
    """Window of possible conductors for a representation of GL_n whose least
    fixed-vector level is m: [m, m*n] generically, [(m-1)*n + 1, m*n] for
    a single square-integrable block, and [0, 0] when m = 0."""
    check_size(n)
    check_level(m, 0)
    lo = (m - 1) * n + 1 if square_integrable else m
    return ConductorWindow(max(lo, 0), m * n)
