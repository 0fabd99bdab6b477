import copy
import itertools
import json
import pickle
import time
from fractions import Fraction
from pathlib import Path

import pytest

from padic_fixvec.cli import SpecError, load_spec
from padic_fixvec.cosets import parabolic_index_closed, parabolic_index_enumerated
from padic_fixvec.finite_ring import FieldError
from padic_fixvec.gl2_dims import SteinbergTwist, Supercuspidal
from padic_fixvec.global_bounds import GlobalLevel
from padic_fixvec.representations import (
    ConductorWindow,
    GenericRepresentation,
    Representation,
    SquareIntegrableBlock,
    conductor_window,
    has_fixed_vector,
    has_fixed_vector_depth,
)


def rep(*pairs):
    return GenericRepresentation.from_pairs(pairs)


def one_block_reps():
    """(n, c, the rep of the one block (n, c)) for n <= 5 and the 21
    conductors c from n - 1, the least a block of GL_n has."""
    return [(n, c, rep((n, c))) for n in range(1, 6) for c in range(n - 1, n + 20)]


@pytest.mark.parametrize("pairs,expected", [
    (((2, 3), (1, 0)), 3),
    (((1, 0),), 0),
    (((2, 2),), 2),
])
def test_conductor_is_block_sum(pairs, expected):
    assert rep(*pairs).conductor() == expected


@pytest.mark.parametrize("n,c,expected", [
    (2, 5, Fraction(3, 2)),
    (3, 3, Fraction(0)),
    (2, 1, Fraction(0)),  # the least conductor of a GL_2 block
    (4, 10, Fraction(3, 2)),
])
def test_depth_esi(n, c, expected):
    # The depth of an essentially square integrable block, its own method.
    value = SquareIntegrableBlock(n, c).depth()
    assert value == expected
    assert isinstance(value, Fraction)


def test_depth_esi_rejects_bad_parameters():
    # A depth is asked of a built block, which refuses these.
    with pytest.raises(ValueError):
        SquareIntegrableBlock(0, 1)
    with pytest.raises(ValueError):
        SquareIntegrableBlock(2, -1)


@pytest.mark.parametrize("n,c,m,expected", [
    (2, 4, 2, True),
    (2, 5, 2, False),
    (1, 0, 0, True),
])
def test_has_fixed_vector_esi(n, c, m, expected):
    assert has_fixed_vector(rep((n, c)), m) is expected


def test_has_fixed_vector_on_one_block():
    for n, c, pi in one_block_reps():
        for m in range(0, 7):
            assert has_fixed_vector(pi, m) is (c <= m * n), (n, c, m)


@pytest.mark.parametrize("depth,m,expected", [
    (Fraction(3, 2), 2, False),
    (Fraction(3, 2), 3, True),
    (Fraction(0), 1, True),
])
def test_has_fixed_vector_depth(depth, m, expected):
    assert has_fixed_vector_depth(depth, m) is expected


def test_depth_criterion_requires_positive_level():
    with pytest.raises(ValueError):
        has_fixed_vector_depth(Fraction(0), 0)


def test_has_fixed_vector_blockwise():
    pi = rep((2, 3), (1, 1))
    assert has_fixed_vector(pi, 2) is True
    assert has_fixed_vector(pi, 1) is False
    assert has_fixed_vector(rep((1, 0)), 0) is True


@pytest.mark.parametrize("pairs,expected", [
    (((2, 3),), 2),
    (((1, 2), (1, 0)), 2),
    (((1, 0), (1, 0)), 0),
    (((3, 7),), 3),
])
def test_min_level(pairs, expected):
    assert rep(*pairs).min_level() == expected


def test_criteria_agree_on_a_grid():
    for n, c, pi in one_block_reps():
        for m in range(1, 7):
            assert has_fixed_vector(pi, m) == has_fixed_vector_depth(
                SquareIntegrableBlock(n, c).depth(), m
            ), (n, c, m)


def test_conductor_window_esi():
    window = conductor_window(2, 2, square_integrable=True)
    assert (window.lo, window.hi) == (3, 4)
    assert not window.contains(2)
    assert window.contains(3) and window.contains(4)
    assert not window.contains(5)
    assert str(window) == "[3, 4]"


def test_conductor_window_generic():
    window = conductor_window(3, 1)
    assert (window.lo, window.hi) == (1, 3)
    assert str(window) == "[1, 3]"
    assert conductor_window(1, 1).contains(1)


def test_conductor_window_level_zero():
    for square_integrable in (False, True):
        window = conductor_window(2, 0, square_integrable)
        assert window.contains(0)
        assert not window.contains(1)
        assert str(window) == "[0, 0]"


def test_conductor_window_validation():
    # Edges are conductors, so the lower one may be 0 but never negative.
    assert ConductorWindow(0, 0).contains(0)
    with pytest.raises(ValueError):
        ConductorWindow(-1, 4)
    with pytest.raises(ValueError):
        ConductorWindow(5, 4)


@pytest.mark.parametrize("c,expected", [
    (2, Fraction(0)),
    (5, Fraction(3, 2)),
    (4, Fraction(1)),
])
def test_depth_supercuspidal_gl2(c, expected):
    assert Supercuspidal(c).depth() == expected


def test_depth_supercuspidal_gl2_rejects_small_conductor():
    with pytest.raises(ValueError):
        Supercuspidal(1)


def test_gl2_depths_agree():
    # The general formula max((c - n)/n, 0) at n = 2, c >= 2, as a literal:
    # Supercuspidal.depth reads the block's, so comparing the two would
    # compare one method with itself.
    for c in range(2, 21):
        assert Supercuspidal(c).depth() == Fraction(c - 2, 2)


@pytest.mark.parametrize("pairs,expected", [
    (((1, 0), (1, 2)), Fraction(1)),
    (((2, 3), (1, 1)), Fraction(1, 2)),
    (((1, 0), (1, 0), (1, 0)), Fraction(0)),
    (((1, 5), (3, 7), (2, 2)), Fraction(4)),
])
def test_depth_is_the_greatest_block_depth(pairs, expected):
    assert rep(*pairs).depth() == expected


def test_steinberg_twist_depth_is_its_character_depth():
    assert [SteinbergTwist(c).depth() for c in range(5)] == [0, 0, 1, 2, 3]


LEVELS = range(1, 9)


def _depth_criterion(rep_) -> list[bool]:
    return [has_fixed_vector_depth(rep_.depth(), m) for m in LEVELS]


def test_depth_criterion_is_positive_dimension_on_every_type():
    # The paper's criterion at m >= 1: a K(m)-fixed vector exists exactly
    # when depth <= m - 1, compared with dim > 0 for every type that has a
    # dimension.
    reps = [rep(*((1, c) for c in cs)) for k in (1, 2, 3)
            for cs in itertools.product(range(5), repeat=k)]
    reps += [SteinbergTwist(c) for c in range(7)]
    reps += [Supercuspidal(s, c) for s in range(2, 9) for c in range(6)]
    for rep_, q in itertools.product(reps, (2, 3, 4, 5)):
        assert _depth_criterion(rep_) == [rep_.dim(q, m) > 0 for m in LEVELS], (
            rep_, q)


def test_depth_criterion_is_the_blockwise_criterion_with_size_2_blocks():
    shapes = [((2, a),) for a in range(1, 7)]
    shapes += [((2, a), (1, b)) for a in range(1, 7) for b in range(5)]
    shapes += [((1, b), (2, a)) for a in range(1, 7) for b in range(5)]
    shapes += [((2, a), (2, b)) for a in range(1, 7) for b in range(1, 7)]
    for pairs in shapes:
        rep_ = rep(*pairs)
        assert _depth_criterion(rep_) == [
            has_fixed_vector(rep_, m) for m in LEVELS], pairs


def test_depth_criterion_on_the_unramified_principal_series_by_counting():
    # Against the coset oracle, which uses no closed form.
    series = rep((1, 0), (1, 0))
    for p, top in ((2, 8), (3, 4), (5, 3)):
        levels = range(1, top + 1)
        assert [has_fixed_vector_depth(series.depth(), m) for m in levels] == [
            parabolic_index_enumerated((1, 1), p, m) > 0 for m in levels], p


def test_block_validation():
    # A block of GL_n has conductor >= n - 1; each refusal names its slot.
    for n, c, field in ((0, 1, "n"), (2, -1, "conductor"), (2, 0, "conductor"),
                        (3, 1, "conductor"), (5, 3, "conductor")):
        with pytest.raises(FieldError) as info:
            SquareIntegrableBlock(n, c)
        assert info.value.field == field, (n, c)
        assert pickle.loads(pickle.dumps(info.value)).field == field
    for n, c in ((1, 0), (2, 1), (2, 2), (3, 2), (5, 4)):
        assert SquareIntegrableBlock(n, c).conductor == c


def test_generic_representation_shape():
    pi = rep((2, 3), (1, 1))
    assert pi.n == 3
    assert pi.partition == (2, 1)
    assert [b.conductor for b in pi.blocks] == [3, 1]
    with pytest.raises(ValueError):
        GenericRepresentation(())


def test_min_level_matches_brute_force_small():
    for pairs in (((2, 3),), ((1, 2), (1, 0)), ((3, 5), (1, 1)), ((2, 8),)):
        pi = rep(*pairs)
        ml = pi.min_level()
        assert has_fixed_vector(pi, ml)
        if ml >= 1:
            assert not has_fixed_vector(pi, ml - 1)


def test_block_loops_match_their_reductions():
    # n, conductor() and min_level() loop over the blocks. sum() and max()
    # are the reference, on every block list of total size <= 4 whose block
    # conductors are the six from n - 1.
    sizes = [ns for k in range(1, 5)
             for ns in itertools.product(range(1, 5), repeat=k) if sum(ns) <= 4]
    for ns in sizes:
        for cs in itertools.product(*[range(n - 1, n + 5) for n in ns]):
            pi = rep(*zip(ns, cs))
            assert pi.n == sum(ns)
            assert pi.conductor() == sum(cs)
            assert pi.min_level() == max(-(-c // n) for n, c in zip(ns, cs))


def _golden_reps():
    """The distinct representations in the golden CLI file's valid specs."""
    path = Path(__file__).parent / "data" / "cli_golden.json"
    reps = {}
    for entry in json.loads(path.read_text(encoding="utf-8")):
        argv = entry["argv"]
        if argv[0] in ("global-bounds", "verify"):
            continue
        try:
            parsed = load_spec(argv[1])
        except SpecError:
            continue
        reps[parsed.rep] = None
    return list(reps)


def test_depth_criterion_on_the_golden_reps():
    # Each depth that the golden file records meets the criterion: against
    # dim > 0 where the type has a dimension, else blockwise.
    for rep_ in _golden_reps():
        blocks = getattr(rep_, "blocks", ())
        if any(b.n >= 2 for b in blocks):
            expected = [has_fixed_vector(rep_, m) for m in LEVELS]
        else:
            expected = [rep_.dim(4, m) > 0 for m in LEVELS]
        assert _depth_criterion(rep_) == expected, rep_


def test_dim_exponent_is_a_lower_bound():
    # Every type, past its least level: dim(q, m) >= q**dim_exponent(m),
    # compared exactly where the exponent is negative. Induced reps with a
    # block of size >= 2 have no dimension and are left out.
    reps = [r for r in _golden_reps()
            if all(b.n == 1 for b in getattr(r, "blocks", ()))]
    assert {type(r).__name__ for r in reps} == {
        "GenericRepresentation", "SteinbergTwist", "Supercuspidal"}
    # The golden principal series are the reps of two GL_1 blocks, whose
    # dimension from level 1 on is q**(m-1) * (q+1).
    series = [r for r in reps if getattr(r, "partition", None) == (1, 1)]
    assert len(series) >= 2
    for r, q in itertools.product(series, (2, 3, 4, 5, 7)):
        for m in range(max(r.min_level(), 1), 9):
            assert r.dim(q, m) == q ** (m - 1) * (q + 1), (r, q, m)
    reps += [Supercuspidal(s, c) for s in range(2, 9) for c in range(4)]
    for r, q in itertools.product(reps, (2, 3, 4, 5, 7)):
        for m in range(r.min_level(), 9):
            assert r.dim(q, m) >= Fraction(q) ** r.dim_exponent(m), (r, q, m)


def _dim_induced_general_reference(partition, q, m, block_dims) -> int:
    """Reference: the helper that GenericRepresentation.dim called with its
    blocks' 0/1 indicators of c_i <= m, before it answered 0 below
    min_level. The coset index, 1 at level 0 or for one block, times the
    product of the block dimensions."""
    partition = tuple(partition)
    if not partition:
        raise ValueError("partition must be nonempty")
    if len(block_dims) != len(partition):
        raise ValueError(
            f"{len(block_dims)} block dimensions for {len(partition)} blocks"
        )
    if m < 0:
        raise ValueError(f"level must be >= 0, got {m}")
    dim = 1 if m == 0 or len(partition) == 1 else parabolic_index_closed(partition, q, m)
    for d in block_dims:
        dim *= d
    return dim


def test_induced_dim_equals_the_coset_index_times_indicators():
    # Every spec of GL_1 blocks with n <= 3 and conductors <= 3.
    for k in range(1, 4):
        for conductors in itertools.product(range(4), repeat=k):
            r = rep(*((1, c) for c in conductors))
            for q, m in itertools.product((2, 3, 4), range(5)):
                indicators = [1 if c <= m else 0 for c in conductors]
                assert r.dim(q, m) == _dim_induced_general_reference(
                    r.partition, q, m, indicators), (conductors, q, m)


def test_induced_dim_below_min_level_builds_no_coset_index():
    # At q = 2, m = 10**7 the group orders have tens of millions of bits.
    start = time.process_time()
    assert rep((1, 0), (1, 10**12)).dim(2, 10**7) == 0
    assert SteinbergTwist(10**12).dim(2, 10**7) == 0
    assert Supercuspidal(2, 10**12).dim(2, 10**7) == 0
    assert time.process_time() - start < 0.5


def test_gl2_types_share_the_one_dim():
    # The zero below min_level is written once, in the base class.
    assert SteinbergTwist.dim is Representation.dim
    assert Supercuspidal.dim is Representation.dim


# Each value type with its fields, its constructor arguments (built twice,
# to give equal values) and the arguments of a different value.
VALUES = [
    (SquareIntegrableBlock, ("n", "conductor"), (2, 3), (2, 4)),
    (GenericRepresentation, ("blocks",), ((SquareIntegrableBlock(1, 2),),),
     ((SquareIntegrableBlock(1, 3),),)),
    (ConductorWindow, ("lo", "hi"), (1, 2), (1, 3)),
    (GlobalLevel, ("N", "factorization", "radical"), (12,), (18,)),
    (SteinbergTwist, ("c_chi",), (3,), (4,)),
    (Supercuspidal, ("s", "c_chi"), (2, 3), (2, 1)),
]


@pytest.mark.parametrize("cls,fields,args,other", VALUES,
                         ids=[case[0].__name__ for case in VALUES])
def test_value_semantics(cls, fields, args, other):
    value = cls(*args)
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    assert value != cls(*other)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value
        assert hash(clone) == hash(value)


def test_values_of_different_types_differ():
    assert Supercuspidal(2, 3) != SquareIntegrableBlock(2, 3)
    assert SquareIntegrableBlock(2, 3) != Supercuspidal(2, 3)
    assert ConductorWindow(1, 2) != (1, 2)
    assert SteinbergTwist(3) != (3,)


def test_value_repr_names_its_fields():
    assert repr(GlobalLevel(12).conductor_bounds(2)) == (
        "ConductorWindow(lo=6, hi=144)")
    assert repr(Supercuspidal(3)) == "Supercuspidal(s=3, c_chi=0)"
