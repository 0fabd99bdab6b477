"""Fixed-vector dimensions for irreducible representations of GL_2.

The entry points are the representation types SteinbergTwist and
Supercuspidal; a principal series is the GenericRepresentation of two GL_1
blocks. Each subclasses representations.Representation, whose dim checks
q and the level and answers 0 below min_level(); each type gives conductor(),
min_level(), depth(), dim_exponent(m) and its closed form _dim(q, m).

Each type owns its closed forms. The twisted Steinberg dimension is the
single closed form of its _dim. A Supercuspidal states the twist rule in
conductor(), c = max(s, 2*c_chi), reads its depth from the GL_2 block of
that conductor, and holds the minimal-conductor closed form in _dim: a
non-minimal supercuspidal has the dimensions of the minimal member of its
twist orbit from its least level on. dim_supercuspidal_minimal(q, s, m) is
Supercuspidal(s).dim(q, m) under a name of its own.

Minimal supercuspidal dimensions are computed two ways that must agree.
One is a sum over twist classes, the count of Kirillov functions grouped
by kirillov_groups: twist class conductor i adds num_classes_exact(q, i) *
(2r - c_i + 1). The twist-class lattice sum is that count at c_psi = 0.
The other, the closed form, is the same sum summed, in O(1) big-int
operations, so the two are not independent.
"""

from typing import TYPE_CHECKING, Iterator

from .characters import num_classes_exact
from .finite_ring import FieldError, check_conductor, check_level
from .representations import Representation, SquareIntegrableBlock

if TYPE_CHECKING:
    from fractions import Fraction


class SteinbergTwist(Representation):
    """Steinberg twisted by a quasi-character of conductor c_chi."""

    __slots__ = ("c_chi",)

    def __init__(self, c_chi: int):
        FieldError.check("c_chi", check_conductor, c_chi)
        object.__setattr__(self, "c_chi", c_chi)

    def conductor(self) -> int:
        raise ValueError(
            "rep: the conductor of a Steinberg twist is not determined by"
            " the twist conductor carried here; not supported"
        )

    def min_level(self) -> int:
        return max(self.c_chi, 1)

    def depth(self) -> "Fraction":
        """max(c_chi - 1, 0), the twisting character's; Steinberg's is 0."""
        return SquareIntegrableBlock(1, self.c_chi).depth()

    def _dim(self, q: int, m: int) -> int:
        return q**m + q ** (m - 1) - 1

    def dim_exponent(self, m: int) -> int:
        return m - 2


class Supercuspidal(Representation):
    """A supercuspidal given by the minimal conductor s among its twists
    (always >= 2) and the conductor of the twisting quasi-character."""

    __slots__ = ("s", "c_chi")

    def __init__(self, s: int, c_chi: int = 0):
        FieldError.check("s", _check_supercuspidal, s)
        FieldError.check("c_chi", check_conductor, c_chi)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c_chi", c_chi)

    def conductor(self) -> int:
        """The twist rule: s if 2*c_chi <= s, else 2*c_chi."""
        return self.s if 2 * self.c_chi <= self.s else 2 * self.c_chi

    def min_level(self) -> int:
        return -(-self.conductor() // 2)

    def depth(self) -> "Fraction":
        """The depth of the GL_2 block of its conductor."""
        return SquareIntegrableBlock(2, self.conductor()).depth()

    def _dim(self, q: int, m: int) -> int:
        """The minimal member's closed form: the twist is invisible from the
        least level on, where s <= 2m. With r = floor(s/2):

            (2m - s + 1)(q-1)q**(r-1) + sum_{i=r+1}^{m} (2(m-i)+1)(q-1)**2 q**(i-2)

        With k = m - r, the sum is q**(r-1) * (q-1)**2
        * sum_{j<k} (2k - 1 - 2j) q**j, summed here in closed form.
        """
        s = self.s
        r, k = s // 2, m - s // 2
        qk = q**k  # series is (q-1)**2 * sum_{j<k} (2k - 1 - 2j) q**j
        series = (2 * k - 1) * (q - 1) * (qk - 1) - 2 * (q - k * qk + (k - 1) * qk * q)
        return q ** (r - 1) * ((2 * m - s + 1) * (q - 1) + series)

    def dim_exponent(self, m: int) -> int:
        return m - 2


def _check_supercuspidal(s: int) -> None:
    """The one check of a minimal conductor, s >= 2."""
    if s < 2:
        raise ValueError(f"minimal supercuspidal conductor must be >= 2, got {s}")


def dim_supercuspidal_minimal(q: int, s: int, m: int) -> int:
    """Fixed-space dimension of a minimal supercuspidal of conductor s at
    level m: the closed form of Supercuspidal._dim, 0 whenever s > 2m."""
    return Supercuspidal(s).dim(q, m)


def dim_supercuspidal_lattice(q: int, s: int, r: int) -> int:
    """Fixed-space dimension of a minimal supercuspidal at level r >= 1,
    summed over unramified-twist classes:

        sum_{i=0}^{r} |classes of conductor i| * (2r - c(twist by class) + 1)

    with the twisted conductor given by Supercuspidal.conductor. That is
    the Kirillov basis count at c_psi = 0, so it is computed as one. Every
    term is >= 1 when s <= 2r, and the sum is 0 when s > 2r.
    """
    check_level(r, 1)
    return kirillov_basis_count(q, s, 0, r)


def kirillov_groups(
    q: int, s: int, c_psi: int, r: int
) -> Iterator[tuple[int, int, int, int]]:
    """The level-r fixed Kirillov functions of a minimal supercuspidal of
    conductor s, for an additive character of conductor c_psi, grouped by
    twist class conductor i <= r.

    Yields (i, class count, support min, support max) for each nonempty
    group. Every class of conductor i contributes one function per integer
    support order in [c(twist) + c_psi - r, c_psi + r]. Requires
    r >= -c_psi, checked when iteration starts.
    """
    _check_supercuspidal(s)  # before any class is built: at r < 0, none is
    if r < -c_psi:
        raise ValueError(f"need level r >= -c_psi, got r={r}, c_psi={c_psi}")
    for i in range(max(r + 1, 0)):
        lo, hi = Supercuspidal(s, i).conductor() + c_psi - r, c_psi + r
        classes = num_classes_exact(q, i)
        if lo <= hi and classes:
            yield i, classes, lo, hi


def kirillov_basis_count(q: int, s: int, c_psi: int, r: int) -> int:
    """Number of level-r fixed Kirillov functions: classes of a common
    conductor share their support interval, so each kirillov_groups group
    contributes class count times interval length. The interval shifts
    with c_psi but keeps its length, so the count does not depend on c_psi;
    at c_psi = 0 it is dim_supercuspidal_lattice(q, s, r)."""
    return sum(
        classes * (hi - lo + 1)
        for _, classes, lo, hi in kirillov_groups(q, s, c_psi, r)
    )
