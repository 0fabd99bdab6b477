import time

import pytest

from padic_fixvec.characters import num_classes_exact
from padic_fixvec.cosets import parabolic_index_closed
from padic_fixvec.finite_ring import gl_order
from padic_fixvec.gl2_dims import (
    SteinbergTwist,
    Supercuspidal,
    dim_supercuspidal_lattice,
    dim_supercuspidal_minimal,
    kirillov_basis_count,
    kirillov_groups,
)
from padic_fixvec.representations import GenericRepresentation


def principal_series(c1: int, c2: int) -> GenericRepresentation:
    """The principal series of two characters: two GL_1 blocks."""
    return GenericRepresentation.from_pairs([(1, c1), (1, c2)])


def principal_series_dim(q: int, c1: int, c2: int, r: int) -> int:
    """The reference: q**(r-1) * (q+1) at level r >= 1 when both conductors
    are <= r, else 0."""
    return q ** (r - 1) * (q + 1) if max(c1, c2) <= r else 0


@pytest.mark.parametrize("q,c1,c2,r,expected", [
    (3, 0, 0, 1, 4),
    (3, 2, 0, 1, 0),
    (2, 1, 1, 2, 6),
])
def test_dim_principal_series(q, c1, c2, r, expected):
    assert principal_series(c1, c2).dim(q, r) == expected
    assert principal_series_dim(q, c1, c2, r) == expected


def test_principal_series_matches_its_closed_form():
    for q in (2, 3, 4, 5, 7, 9):
        for c1 in range(6):
            for c2 in range(6):
                for r in range(1, 9):
                    assert principal_series(c1, c2).dim(q, r) == (
                        principal_series_dim(q, c1, c2, r)
                    )


@pytest.mark.parametrize("q,c_chi,r,expected", [
    (3, 0, 1, 3),
    (2, 0, 2, 5),
    (3, 2, 1, 0),
])
def test_dim_steinberg_twist(q, c_chi, r, expected):
    assert SteinbergTwist(c_chi).dim(q, r) == expected


@pytest.mark.parametrize("s,c_chi,expected", [
    (4, 1, 4),
    (3, 2, 4),
    (2, 0, 2),
    (2, 3, 6),
])
def test_twisted_conductor_minimal(s, c_chi, expected):
    assert Supercuspidal(s, c_chi).conductor() == expected


def test_twisted_conductor_rejects_small_s():
    with pytest.raises(ValueError):
        Supercuspidal(1, 0).conductor()


@pytest.mark.parametrize("q,s,m,expected", [
    (3, 2, 1, 2),
    (3, 3, 2, 8),
    (2, 2, 2, 4),
    (3, 4, 1, 0),
    (5, 2, 1, 4),
])
def test_dim_supercuspidal_minimal(q, s, m, expected):
    assert dim_supercuspidal_minimal(q, s, m) == expected


@pytest.mark.parametrize("q,s,r,expected", [
    (2, 2, 2, 4),
    (3, 2, 1, 2),
    (3, 4, 1, 0),
])
def test_dim_supercuspidal_lattice(q, s, r, expected):
    assert dim_supercuspidal_lattice(q, s, r) == expected


def test_supercuspidal_closed_and_lattice_agree():
    for q in (2, 3, 4, 5, 7):
        for s in range(2, 9):
            for m in range(-(-s // 2), 9):
                assert dim_supercuspidal_minimal(q, s, m) == (
                    dim_supercuspidal_lattice(q, s, m)
                )
    # Far past the grid, where the closed form's big powers dominate.
    for q in (2, 3):
        for s in range(2, 9):
            for m in (50, 200):
                assert dim_supercuspidal_minimal(q, s, m) == (
                    dim_supercuspidal_lattice(q, s, m)
                )


def test_supercuspidal_closed_form_is_constant_time():
    # Deep in the level, where an O(m) loop takes about 0.2 s a call.
    start = time.process_time()
    for _ in range(100):
        dim_supercuspidal_minimal(2, 7, 14000)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("q,s,c_chi,m,expected", [
    (3, 2, 1, 1, 2),
    (3, 2, 2, 1, 0),
    (3, 3, 0, 2, 8),
])
def test_dim_supercuspidal_twisted(q, s, c_chi, m, expected):
    assert Supercuspidal(s, c_chi).dim(q, m) == expected


def test_kirillov_basis_small():
    # One class of each conductor 0 and 1, both supported on order 1.
    assert list(kirillov_groups(3, 2, 0, 1)) == [(0, 1, 1, 1), (1, 1, 1, 1)]
    assert kirillov_basis_count(3, 2, 0, 1) == 2
    assert kirillov_basis_count(2, 2, 0, 2) == 4
    assert kirillov_basis_count(3, 4, 0, 1) == 0


def _kirillov_functions(q, s, c_psi, r):
    """Reference enumeration: one (twist conductor, class index, support
    order) triple per fixed Kirillov function, each class of conductor i
    supported on the orders from c(twist) + c_psi - r to c_psi + r."""
    return [
        (i, index, order)
        for i in range(r + 1)
        for index in range(num_classes_exact(q, i))
        for order in range(Supercuspidal(s, i).conductor() + c_psi - r,
                           c_psi + r + 1)
    ]


def test_kirillov_basis_count_matches_materialization():
    for q in (2, 3):
        for s in range(2, 6):
            for c_psi in (-1, 0, 1):
                for r in range(max(-c_psi, 1), 5):
                    functions = _kirillov_functions(q, s, c_psi, r)
                    assert len(set(functions)) == len(functions)
                    assert kirillov_basis_count(q, s, c_psi, r) == len(functions)


def test_kirillov_support_interval():
    # (twist conductor, classes, support min, support max) per nonempty group
    assert list(kirillov_groups(3, 2, 0, 2)) == [
        (0, 1, 0, 2), (1, 1, 0, 2), (2, 4, 2, 2),
    ]
    assert list(kirillov_groups(2, 2, 0, 2)) == [(0, 1, 0, 2), (2, 1, 2, 2)]
    # empty when the conductor exceeds twice the level
    assert list(kirillov_groups(3, 4, 0, 1)) == []


def test_kirillov_basis_requires_level_at_least_minus_c_psi():
    with pytest.raises(ValueError):
        kirillov_basis_count(3, 2, -2, 1)
    with pytest.raises(ValueError):
        list(kirillov_groups(3, 2, -2, 1))


def test_rep_constructors_validate():
    with pytest.raises(ValueError):
        Supercuspidal(1)
    with pytest.raises(ValueError):
        Supercuspidal(2, -1)
    with pytest.raises(ValueError):
        principal_series(-1, 0)
    with pytest.raises(ValueError):
        SteinbergTwist(-1)
    assert Supercuspidal(3, 2).conductor() == 4


def test_dim_gl2_level_zero():
    assert principal_series(0, 0).dim(5, 0) == 1
    assert principal_series(1, 0).dim(5, 0) == 0
    assert SteinbergTwist(0).dim(5, 0) == 0
    assert Supercuspidal(2).dim(3, 0) == 0


def test_dim_gl2_dispatch():
    assert Supercuspidal(2).dim(3, 1) == 2
    assert principal_series(0, 0).dim(3, 1) == 4
    assert SteinbergTwist(0).dim(3, 1) == 3
    with pytest.raises(ValueError):
        SteinbergTwist(0).dim(3, -1)


def test_exact_sequence_identity():
    for q in range(2, 8):
        for c in range(0, 7):
            for r in range(1, 7):
                assert principal_series_dim(q, c, c, r) == (
                    principal_series(c, c).dim(q, r)
                ) == (c <= r) + SteinbergTwist(c).dim(q, r)


def test_dim_induced_general():
    def dim(conductors, q, m):
        return GenericRepresentation.from_pairs(
            [(1, c) for c in conductors]).dim(q, m)

    assert dim((0, 0), 3, 1) == 4 == principal_series_dim(3, 0, 0, 1)
    assert dim((2,), 3, 2) == 1
    assert dim((0, 0, 0), 2, 1) == 21
    assert dim((0, 1), 3, 0) == 0
    assert dim((0, 0), 3, 0) == 1
    with pytest.raises(ValueError, match="level must be >= 0"):
        dim((0, 0), 3, -1)
    with pytest.raises(ValueError, match="rep.blocks"):
        GenericRepresentation.from_pairs([(2, 2)]).dim(3, 2)


def test_level_monotonicity_spot():
    reps = [principal_series(2, 1), SteinbergTwist(2), Supercuspidal(5, 1)]
    for rep in reps:
        dims = [rep.dim(3, m) for m in range(0, 8)]
        assert dims == sorted(dims)


@pytest.mark.parametrize("q", [1, 0, -3])
@pytest.mark.parametrize("rep", [
    principal_series(2, 1),
    GenericRepresentation.from_pairs([(1, 1)]),
    SteinbergTwist(2),
    Supercuspidal(3, 2),
], ids=["principal-series", "gl1", "steinberg-twist", "supercuspidal"])
def test_dim_refuses_q_below_2(q, rep):
    # Below the least level each type used to answer 0, and above it a
    # negative or meaningless dimension.
    for m in (rep.min_level() - 1, rep.min_level() + 1):
        with pytest.raises(ValueError, match=f"q must be >= 2, got {q}"):
            rep.dim(q, m)


@pytest.mark.parametrize("q", [1, 0, -3])
def test_supercuspidal_sums_refuse_q_below_2(q):
    for m in (1, 3):  # below and above the least level 2 of conductor 4
        with pytest.raises(ValueError, match=f"q must be >= 2, got {q}"):
            dim_supercuspidal_minimal(q, 4, m)
        with pytest.raises(ValueError, match=f"q must be >= 2, got {q}"):
            dim_supercuspidal_lattice(q, 4, m)
    # One check, one wording, in every closed form that takes q.
    for call in (lambda: num_classes_exact(q, 2), lambda: gl_order(2, q, 1),
                 lambda: parabolic_index_closed((1, 1), q, 1)):
        with pytest.raises(ValueError, match=f"q must be >= 2, got {q}"):
            call()


def test_block_size_refusal_precedes_the_q_check():
    with pytest.raises(ValueError, match="rep.blocks"):
        GenericRepresentation.from_pairs([(2, 2)]).dim(0, 2)
