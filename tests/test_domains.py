"""Input domains: each is refused by one shared check, with one message.

The table holds, for every public function that checks a domain, each
out-of-domain argument and the exact message it must raise; a second table
holds each spec field the CLI reads, refused as "<JSON path>: <message>".
The source walk finds every ValueError or SpecError whose message states a
domain, and requires it to be raised inside a shared check.
"""

import ast
import json
import pathlib
import re
import sys
from fractions import Fraction

import pytest

from padic_fixvec import representations
from padic_fixvec.characters import enumerate_unit_dual, num_classes_exact
from padic_fixvec.cli import (
    EXIT_INPUT,
    SPECS,
    _has_fixed_rows,
    load_spec,
    main,
    parse_spec,
    spec_to_dict,
)
from padic_fixvec.cosets import parabolic_index_closed, parabolic_index_enumerated
from padic_fixvec.finite_ring import (
    PRIME_CAP,
    enumerate_gl,
    gl_order,
    parabolic_order,
)
from padic_fixvec.gl2_dims import (
    SteinbergTwist,
    Supercuspidal,
    dim_supercuspidal_lattice,
    dim_supercuspidal_minimal,
    kirillov_basis_count,
    kirillov_groups,
)
from padic_fixvec.global_bounds import GlobalLevel, local_conductor_window
from padic_fixvec.representations import (
    GenericRepresentation,
    SquareIntegrableBlock,
    conductor_window,
    has_fixed_vector,
    has_fixed_vector_depth,
)

SRC = pathlib.Path(__file__).parents[1] / "src" / "padic_fixvec"

LEVEL_0 = "level must be >= 0, got -1"
LEVEL_1 = "level must be >= 1, got 0"
SIZE = "n must be >= 1, got 0"
CONDUCTOR = "conductor must be >= 0, got -1"
PRIME = "p must be prime, got 4"
Q = "q must be >= 2, got 1"
S = "minimal supercuspidal conductor must be >= 2, got 1"
BLOCK_2 = "conductor of a GL_2 block must be >= 1, got 0"
BLOCK_3 = "conductor of a GL_3 block must be >= 2, got 1"


def partition(parts) -> str:
    return f"partition must be nonempty with parts >= 1, got {parts}"


def _induced():
    return GenericRepresentation.from_pairs([(1, 0), (1, 1)])


# (function, out-of-domain argument, call, exact message). Generators are
# advanced once, since their checks run when iteration starts.
DOMAIN_REFUSALS = [
    ("gl_order", "n=0", lambda: gl_order(0, 2, 1), SIZE),
    ("gl_order", "m=0", lambda: gl_order(1, 2, 0), LEVEL_1),
    ("gl_order", "q=1", lambda: gl_order(1, 1, 1), Q),
    ("parabolic_order", "()", lambda: parabolic_order((), 2, 1),
     partition(())),
    ("parabolic_order", "(1, 0)", lambda: parabolic_order([1, 0], 2, 1),
     partition((1, 0))),
    ("parabolic_order", "m=0", lambda: parabolic_order((1, 1), 2, 0), LEVEL_1),
    ("enumerate_gl", "n=0", lambda: next(enumerate_gl(0, 2, 1)), SIZE),
    ("enumerate_gl", "m=0", lambda: next(enumerate_gl(1, 2, 0)), LEVEL_1),
    ("enumerate_gl", "p=4", lambda: next(enumerate_gl(1, 4, 1)), PRIME),
    ("parabolic_index_closed", "m=0",
     lambda: parabolic_index_closed((1, 1), 2, 0), LEVEL_1),
    ("parabolic_index_closed", "q=1",
     lambda: parabolic_index_closed((1, 1), 1, 1), Q),
    ("parabolic_index_closed", "()",
     lambda: parabolic_index_closed((), 2, 1), partition(())),
    ("parabolic_index_closed", "(1, 0)",
     lambda: parabolic_index_closed((1, 0), 2, 1), partition((1, 0))),
    ("parabolic_index_enumerated", "m=0",
     lambda: parabolic_index_enumerated((1, 1), 2, 0), LEVEL_1),
    ("parabolic_index_enumerated", "()",
     lambda: parabolic_index_enumerated((), 2, 1), partition(())),
    ("parabolic_index_enumerated", "(1, 0)",
     lambda: parabolic_index_enumerated([1, 0], 2, 1), partition((1, 0))),
    ("parabolic_index_enumerated", "p=4",
     lambda: parabolic_index_enumerated((1, 1), 4, 1), PRIME),
    ("num_classes_exact", "q=1", lambda: num_classes_exact(1, 0), Q),
    ("num_classes_exact", "i=-1", lambda: num_classes_exact(2, -1), CONDUCTOR),
    ("enumerate_unit_dual", "p=4", lambda: enumerate_unit_dual(4, 1), PRIME),
    ("enumerate_unit_dual", "r=-1", lambda: enumerate_unit_dual(2, -1),
     LEVEL_0),
    ("SteinbergTwist", "c_chi=-1", lambda: SteinbergTwist(-1), CONDUCTOR),
    ("Supercuspidal", "s=1", lambda: Supercuspidal(1), S),
    ("Supercuspidal", "c_chi=-1", lambda: Supercuspidal(2, -1), CONDUCTOR),
    ("dim_supercuspidal_minimal", "q=1",
     lambda: dim_supercuspidal_minimal(1, 2, 1), Q),
    ("dim_supercuspidal_minimal", "s=1",
     lambda: dim_supercuspidal_minimal(2, 1, 1), S),
    ("dim_supercuspidal_minimal", "m=-1",
     lambda: dim_supercuspidal_minimal(2, 2, -1), LEVEL_0),
    ("dim_supercuspidal_lattice", "r=0",
     lambda: dim_supercuspidal_lattice(2, 2, 0), LEVEL_1),
    ("kirillov_groups", "s=1", lambda: next(kirillov_groups(2, 1, 0, 1)), S),
    ("kirillov_basis_count", "s=1", lambda: kirillov_basis_count(2, 1, 0, 1),
     S),
    ("SteinbergTwist.dim", "m=-1", lambda: SteinbergTwist(1).dim(2, -1),
     LEVEL_0),
    ("SteinbergTwist.dim", "q=1", lambda: SteinbergTwist(1).dim(1, 1), Q),
    ("Supercuspidal.dim", "m=-1", lambda: Supercuspidal(2).dim(2, -1),
     LEVEL_0),
    ("GenericRepresentation.dim", "m=-1", lambda: _induced().dim(2, -1),
     LEVEL_0),
    ("SquareIntegrableBlock", "n=0", lambda: SquareIntegrableBlock(0, 0),
     SIZE),
    ("SquareIntegrableBlock", "conductor=-1",
     lambda: SquareIntegrableBlock(1, -1), CONDUCTOR),
    ("SquareIntegrableBlock", "n=2, conductor=0",
     lambda: SquareIntegrableBlock(2, 0), BLOCK_2),
    ("SquareIntegrableBlock", "n=3, conductor=1",
     lambda: SquareIntegrableBlock(3, 1), BLOCK_3),
    ("has_fixed_vector_depth", "m=0",
     lambda: has_fixed_vector_depth(Fraction(0), 0), LEVEL_1),
    ("has_fixed_vector", "m=-1", lambda: has_fixed_vector(_induced(), -1),
     LEVEL_0),
    ("conductor_window", "n=0", lambda: conductor_window(0, 1), SIZE),
    ("conductor_window", "m=-1", lambda: conductor_window(1, -1), LEVEL_0),
    ("GlobalLevel.conductor_bounds", "n=0",
     lambda: GlobalLevel(12).conductor_bounds(0), SIZE),
    ("local_conductor_window", "n=0", lambda: local_conductor_window(0, 1),
     SIZE),
    ("local_conductor_window", "e_p=0", lambda: local_conductor_window(1, 0),
     LEVEL_1),
    ("cli._has_fixed_rows", "m=-1", lambda: _has_fixed_rows(load_spec(
        '{"field": {"p": 3}, "rep": {"type": "steinberg-twist", "c_chi": 1}}'
    ), -1), LEVEL_0),
    # When several arguments are out of domain, the first check still wins.
    ("GenericRepresentation.from_pairs", "n=0, c=-1",
     lambda: GenericRepresentation.from_pairs([(0, -1)]), SIZE),
    ("gl_order", "n=0, q=1, m=0", lambda: gl_order(0, 1, 0), SIZE),
    ("parabolic_index_closed", "(), q=1, m=0",
     lambda: parabolic_index_closed((), 1, 0), LEVEL_1),
    # The constructor checks s before dim checks q.
    ("dim_supercuspidal_minimal", "q=1, s=1, m=-1",
     lambda: dim_supercuspidal_minimal(1, 1, -1), S),
    ("SquareIntegrableBlock", "n=3, conductor=-1",
     lambda: SquareIntegrableBlock(3, -1), CONDUCTOR),
]


@pytest.mark.parametrize(
    "call,message",
    [pytest.param(call, message, id=f"{name}[{argument}]")
     for name, argument, call, message in DOMAIN_REFUSALS],
)
def test_out_of_domain_arguments_get_the_one_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_has_fixed_vector_checks_only_the_level(monkeypatch):
    # Built blocks checked their own n and c, so the blockwise criterion
    # makes one check call, of m, however many blocks it compares.
    pi = GenericRepresentation.from_pairs([(1, 0), (1, 1), (2, 3), (1, 2)])
    calls = []

    def counted(name, check):
        def wrapper(*args):
            calls.append(name)
            return check(*args)
        return wrapper

    for name in dir(representations):
        if name.startswith("check_"):
            monkeypatch.setattr(representations, name,
                                counted(name, getattr(representations, name)))
    assert has_fixed_vector(pi, 2) is True
    assert calls == ["check_level"]


# A valid rep object of each spec type, with two blocks for induced.
VALID_REPS = {
    "induced": {"type": "induced", "blocks": [{"n": 1, "conductor": 0},
                                              {"n": 2, "conductor": 3}]},
    "principal-series": {"type": "principal-series", "c1": 0, "c2": 1},
    "steinberg-twist": {"type": "steinberg-twist", "c_chi": 1},
    "supercuspidal": {"type": "supercuspidal", "minimal_conductor": 3,
                      "twist_conductor": 1},
}
ST = VALID_REPS["steinberg-twist"]


# The checks that load_spec runs on VALID_REPS, after field.p's, in order:
# one per "rep" field, run by the constructor that takes it and never by the
# CLI. A principal series is two GL_1 blocks, whose size 1 is checked too.
FIELD_CHECKS = {
    "induced": ["check_size", "check_block"] * 2,
    "principal-series": ["check_size", "check_block"] * 2,
    "steinberg-twist": ["check_conductor"],
    "supercuspidal": ["_check_supercuspidal", "check_conductor"],
}


def _is_check(code) -> bool:
    return (code.co_name.startswith(("check_", "_check_"))
            and pathlib.Path(code.co_filename).parent == SRC)


def _outermost_checks(call) -> list[str]:
    """The names of the checks that call() runs, in order. A profiler sees
    every call of a check, even through a reference that a table holds. A
    check called by another (check_block runs check_conductor) is part of
    it, so only outermost calls are counted."""
    calls = []

    def profile(frame, event, _):
        if (event == "call" and _is_check(frame.f_code)
                and not _is_check(frame.f_back.f_code)):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("spec_type", FIELD_CHECKS)
def test_each_spec_field_is_checked_once(spec_type):
    spec = json.dumps({"field": {"p": 3}, "rep": VALID_REPS[spec_type]})
    calls = _outermost_checks(lambda: load_spec(spec))
    assert calls == ["check_prime", *FIELD_CHECKS[spec_type]]


# A rep of each spec type whose dim reaches its closed form at level 4: an
# induced one of GL_1 blocks only, since dim refuses a larger block unchecked.
QUERY_REPS = {
    "induced": GenericRepresentation.from_pairs([(1, 0), (1, 1), (1, 2)]),
    "principal-series": GenericRepresentation.from_pairs([(1, 0), (1, 1)]),
    "steinberg-twist": SteinbergTwist(1),
    "supercuspidal": Supercuspidal(3, 2),
}
QUERIES = {
    "conductor": lambda rep: rep.conductor(),
    "min_level": lambda rep: rep.min_level(),
    "depth": lambda rep: rep.depth(),
    "dim": lambda rep: rep.dim(3, 4),
}
# The checks each query runs on a built rep: only those of its own arguments.
# A GL_2 type's depth builds the one block of its conductor, which checks
# itself; an induced dim's coset index is a closed form of its own, which
# checks its arguments too.
DIM = ["check_q", "check_level"]
INDUCED = {"conductor": [], "min_level": [], "depth": [],
           "dim": [*DIM, "check_level", "check_q", "check_partition"]}
GL2 = {"conductor": [], "min_level": [], "depth": ["check_size", "check_block"],
       "dim": DIM}
QUERY_CHECKS = {"induced": INDUCED, "principal-series": INDUCED,
                "steinberg-twist": GL2, "supercuspidal": GL2}


@pytest.mark.parametrize("spec_type,query", [
    pytest.param(spec_type, query, id=f"{spec_type}.{query}")
    for spec_type in QUERY_CHECKS for query in QUERIES])
def test_each_query_checks_only_its_own_arguments(spec_type, query):
    def ask():
        try:
            QUERIES[query](QUERY_REPS[spec_type])
        except ValueError:  # a Steinberg twist refuses its conductor
            assert (spec_type, query) == ("steinberg-twist", "conductor")

    assert _outermost_checks(ask) == QUERY_CHECKS[spec_type][query]


def test_field_checks_cover_every_spec_type():
    assert set(FIELD_CHECKS) == set(QUERY_CHECKS) == set(QUERY_REPS) == set(SPECS)


def _with_block(i, key, value):
    blocks = [dict(block) for block in VALID_REPS["induced"]["blocks"]]
    blocks[i][key] = value
    return {"type": "induced", "blocks": blocks}


def _with(spec_type, key, value):
    return {**VALID_REPS[spec_type], key: value}


# (JSON path, field object, rep object, the one check's exact message): each
# integer field of each spec type out of its domain, then p and f. p is one
# check, run in full before f is read, so p = 4 with f = 0 names field.p.
SPEC_REFUSALS = [
    ("rep.blocks[0].n", {"p": 3}, _with_block(0, "n", 0), SIZE),
    ("rep.blocks[1].n", {"p": 3}, _with_block(1, "n", -2),
     "n must be >= 1, got -2"),
    ("rep.blocks[0].conductor", {"p": 3}, _with_block(0, "conductor", -1),
     CONDUCTOR),
    ("rep.blocks[1].conductor", {"p": 3}, _with_block(1, "conductor", -1),
     CONDUCTOR),
    ("rep.blocks[1].conductor", {"p": 3}, _with_block(1, "conductor", 0),
     BLOCK_2),
    ("rep.blocks[1].conductor", {"p": 3},
     {"type": "induced", "blocks": [{"n": 1, "conductor": 0},
                                    {"n": 3, "conductor": 1}]}, BLOCK_3),
    ("rep.c1", {"p": 3}, _with("principal-series", "c1", -1), CONDUCTOR),
    ("rep.c2", {"p": 3}, _with("principal-series", "c2", -1), CONDUCTOR),
    ("rep.c_chi", {"p": 3}, _with("steinberg-twist", "c_chi", -1), CONDUCTOR),
    ("rep.minimal_conductor", {"p": 3},
     _with("supercuspidal", "minimal_conductor", 1), S),
    ("rep.minimal_conductor", {"p": 3},
     _with("supercuspidal", "minimal_conductor", -7),
     "minimal supercuspidal conductor must be >= 2, got -7"),
    ("rep.twist_conductor", {"p": 3},
     _with("supercuspidal", "twist_conductor", -1), CONDUCTOR),
    ("field.p", {"p": 1}, ST, "p must be prime, got 1"),
    ("field.p", {"p": 4, "f": 0}, ST, PRIME),
    ("field.p", {"p": 313 * 317}, ST, "p must be prime, got 99221"),
    ("field.p", {"p": PRIME_CAP + 2}, ST,
     f"primality is proven only below {PRIME_CAP}, got {PRIME_CAP + 2}"),
    ("field.f", {"p": 3, "f": 0}, ST, "residue degree must be >= 1, got 0"),
    ("field.f", {"p": 3, "f": -5}, ST, "residue degree must be >= 1, got -5"),
]


@pytest.mark.parametrize(
    "path,field,rep,message",
    [pytest.param(*row, id=f"{row[0]}={row[3].rsplit(' ', 1)[1]}")
     for row in SPEC_REFUSALS],
)
def test_spec_fields_are_refused_by_the_one_check(capsys, path, field, rep,
                                                  message):
    spec = json.dumps({"field": field, "rep": rep})
    assert main(["min-level", spec]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


# (rep object with two faults, the refusal): within one JSON object every
# type is read before a constructor checks any domain, and blocks are read
# and built one at a time, in index order.
FIRST_FAULTS = [
    ({"type": "supercuspidal", "minimal_conductor": 1, "twist_conductor": "x"},
     'rep.twist_conductor: expected an integer, got "x"'),
    ({"type": "principal-series", "c1": -1, "c2": "x"},
     'rep.c2: expected an integer, got "x"'),
    ({"type": "induced", "blocks": [{"n": 0, "conductor": "x"}]},
     'rep.blocks[0].conductor: expected an integer, got "x"'),
    ({"type": "induced", "blocks": [{"n": 2, "conductor": 0},
                                    {"n": "x", "conductor": 1}]},
     f"rep.blocks[0].conductor: {BLOCK_2}"),
    ({"type": "induced", "blocks": [{"n": 1, "conductor": 0},
                                    {"n": 3, "conductor": 1},
                                    {"n": 1, "conductor": -1}]},
     f"rep.blocks[1].conductor: {BLOCK_3}"),
]


@pytest.mark.parametrize("rep,message", FIRST_FAULTS)
def test_every_type_is_read_before_any_domain(capsys, rep, message):
    spec = json.dumps({"field": {"p": 3}, "rep": rep})
    assert main(["min-level", spec]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_spec_refusals_cover_every_integer_field():
    # The paths of every integer field that spec_to_dict writes back, with
    # block indices as [i], are the paths of the table.
    def paths(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from paths(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for item in value:
                yield from paths(item, f"{path}[i]")
        elif isinstance(value, int):
            yield path

    assert set(VALID_REPS) == set(SPECS)
    written = {path for rep in VALID_REPS.values() for path in paths(
        spec_to_dict(parse_spec({"field": {"p": 3}, "rep": rep})), "")}
    assert written == {re.sub(r"\[\d+\]", "[i]", path)
                       for path, *_ in SPEC_REFUSALS}


# The shared checks, and the words that mark a domain refusal's message.
SHARED_CHECKS = {
    "finite_ring.check_q", "finite_ring.check_level", "finite_ring.check_size",
    "finite_ring.check_conductor", "finite_ring.check_block",
    "finite_ring.check_partition",
    "finite_ring.check_prime", "gl2_dims._check_supercuspidal",
    "cli._check_degree",
}
DOMAIN_WORDS = ("must be >=", "must be prime", "must be nonempty")


def _message_text(node: ast.expr) -> str:
    """The literal text of a message: a string, or an f-string's constant
    parts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value for part in node.values
                       if isinstance(part, ast.Constant))
    return ""


def _domain_raises(tree: ast.Module, module: str):
    """(qualified name of the enclosing function, message) of each
    `raise ValueError(message)` or `raise SpecError(message)` whose message
    states a domain."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Raise)
                    and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None)
                    in ("ValueError", "SpecError")
                    and child.exc.args):
                text = _message_text(child.exc.args[0])
                if any(word in text for word in DOMAIN_WORDS):
                    yield where, text
            yield from walk(child, where)

    return list(walk(tree, module))


def test_domain_refusals_are_raised_only_by_the_shared_checks():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += _domain_raises(tree, path.stem)
    where = [function for function, _ in found]
    # Each shared check raises exactly once, and nothing else does.
    assert sorted(where) == sorted(SHARED_CHECKS), found
