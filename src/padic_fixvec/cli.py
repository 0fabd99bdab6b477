"""Command-line surface.

Subcommands take a representation spec (a JSON file path or an inline JSON
string), dispatch to the closed-form computations, and print either a
human-readable key/value listing or, with --json, a canonical JSON object
(UTF-8, keys sorted, byte-identical across identical invocations). main
loads every spec, answers --emit-spec and passes the parsed spec on to the
command; _emit writes every key/value answer. A closed stdout exits 1 quietly.

The five spec queries (dim, has-fixed, min-level, conductor, depth) are one
command driven by the QUERIES table: each entry asks the representation's
own methods and returns ordered (key, value) rows, from which both outputs
are built. SPECS maps each spec type to how its "rep" object is read and
to the labels printed with its answers. parse_spec keeps the integers it
read, defaults filled in, and spec_to_dict writes them back, so no spec is
read back out of a representation. A principal-series spec is read as two
induced GL_1 blocks and keeps its own name and labels. Every representation
subclasses representations.Representation, so no query asks its type: even
the size guard reads the dimension's lower bound q**rep.dim_exponent(m)
from it.

Exit codes: 0 success, 1 input error, 2 verification failure.

Spec schema. A field is refused as "<JSON path>: <message>" by its one check:
a "rep" field by its constructor, once its object's types are all read; p by
check_prime and f, which only the CLI takes, by _check_degree::

    {
      "field": {"p": <prime>, "f": <residue degree, default 1>},
      "rep":   {"type": "induced",
                "blocks": [{"n": <size>, "conductor": <c>}, ...]}
             | {"type": "principal-series", "c1": <c>, "c2": <c>}
             | {"type": "steinberg-twist", "c_chi": <c>}
             | {"type": "supercuspidal",
                "minimal_conductor": <s >= 2>, "twist_conductor": <c>}
    }
"""

import argparse
import itertools
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple

from .budget import parse_budget
from .finite_ring import FieldError, check_level, check_prime
from .gl2_dims import SteinbergTwist, Supercuspidal, kirillov_groups
from .global_bounds import GlobalLevel, local_conductor_window
from .representations import (GenericRepresentation, Representation,
                              SquareIntegrableBlock)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


class SpecError(ValueError):
    """Invalid representation spec; the message carries the field path."""


class ParsedSpec(NamedTuple):
    """A checked spec: a prime p, a residue degree f >= 1, a representation,
    the spec type it was read as, a key of SPECS, and the other keys of its
    "rep" object as read, defaults filled in."""

    p: int
    f: int
    rep: Representation
    type: str
    fields: dict


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_degree(f: int) -> None:
    if f < 1:
        raise ValueError(f"residue degree must be >= 1, got {f}")


def _get_int(obj: dict, key: str, path: str, check=None, default=None) -> int:
    if key not in obj:
        if default is not None:
            return default
        raise SpecError(f"{path}.{key}: missing required integer")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"{path}.{key}: expected an integer, got {json.dumps(value)}"
        )
    if check is not None:
        try:
            check(value)
        except ValueError as exc:
            raise SpecError(f"{path}.{key}: {exc}") from None
    return value


def _reject_extra_keys(obj: dict, allowed: set[str], path: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise SpecError(f"{path}: unexpected key(s) {', '.join(extra)}")


def _built(obj: dict, path: str, build, fields, allowed=()):
    """(build(*the integers of obj at path), {JSON key: integer}), all read
    before build checks any: fields holds (JSON key, build's slot, default)
    for each, in order, and a default of None makes the key required. A
    refused slot names its key."""
    keys = {slot: key for key, slot, _ in fields}
    _reject_extra_keys(obj, {*allowed, *keys.values()}, path)
    read = {key: _get_int(obj, key, path, default=default)
            for key, _, default in fields}
    try:
        return build(*read.values()), read
    except FieldError as exc:
        raise SpecError(f"{path}.{keys[exc.field]}: {exc}") from None


def _parse_induced(rep_obj: dict) -> tuple[GenericRepresentation, dict]:
    _reject_extra_keys(rep_obj, {"type", "blocks"}, "rep")
    blocks = rep_obj.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise SpecError("rep.blocks: expected a nonempty array")
    fields = [("n", "n", None), ("conductor", "conductor", None)]
    paths = [f"rep.blocks[{i}]" for i in range(len(blocks))]
    built, read = zip(*[  # a list: each block is built once read
        _built(_as_object(block, path), path, SquareIntegrableBlock, fields)
        for block, path in zip(blocks, paths)])
    return GenericRepresentation(built), {"blocks": list(read)}


class SpecType(NamedTuple):
    parse: Callable  # the "rep" object -> (the representation, its keys as read)
    branch: str  # names the formula behind dim
    convention: str | None  # names the conductor's rule; None if it refuses


def _int_fields(build, *fields) -> Callable:
    """parse for build's integer fields (see _built)."""
    return lambda rep_obj: _built(rep_obj, "rep", build, fields, {"type"})


SPECS = {
    "induced": SpecType(
        _parse_induced, "induced from characters: coset index times indicators",
        "sum of block conductors"),
    "principal-series": SpecType(_int_fields(  # each block refused as its key
        lambda c1, c2: GenericRepresentation([FieldError.check(
            key, SquareIntegrableBlock, 1, c) for key, c in (("c1", c1), ("c2", c2))]),
        ("c1", "c1", None), ("c2", "c2", None)),
        "principal series closed form", "sum of the two character conductors"),
    "steinberg-twist": SpecType(_int_fields(SteinbergTwist, ("c_chi", "c_chi", None)),
                                "Steinberg twist closed form", None),
    "supercuspidal": SpecType(
        _int_fields(Supercuspidal, ("minimal_conductor", "s", None),
                    ("twist_conductor", "c_chi", 0)),
        "supercuspidal closed form", "max(minimal_conductor, 2 * twist_conductor)"),
}


def parse_spec(data) -> ParsedSpec:
    """Validate a decoded spec object and build the in-memory representation."""
    root = _as_object(data, "spec")
    _reject_extra_keys(root, {"field", "rep"}, "spec")
    if "field" not in root:
        raise SpecError("spec.field: missing")
    if "rep" not in root:
        raise SpecError("spec.rep: missing")

    field_obj = _as_object(root["field"], "field")
    _reject_extra_keys(field_obj, {"p", "f"}, "field")
    p = _get_int(field_obj, "p", "field", check_prime)  # also p >= PRIME_CAP
    f = _get_int(field_obj, "f", "field", _check_degree, default=1)

    rep_obj = _as_object(root["rep"], "rep")
    rep_type = rep_obj.get("type")
    # A type that is not a string, even an unhashable one, is no spec type.
    spec = SPECS.get(rep_type) if isinstance(rep_type, str) else None
    if spec is None:
        raise SpecError(f"rep.type: expected one of {', '.join(SPECS)};"
                        f" got {json.dumps(rep_type)}")
    rep, fields = spec.parse(rep_obj)
    return ParsedSpec(p, f, rep, rep_type, fields)


def load_spec(argument: str) -> ParsedSpec:
    """Read a spec from a file path or from an inline JSON string."""
    stripped = argument.strip()
    if stripped.startswith("{"):
        text = stripped
    elif os.path.isfile(argument):
        with open(argument, encoding="utf-8") as handle:
            text = handle.read()
    else:
        raise SpecError(
            f"spec: {argument!r} is neither an existing file nor inline JSON"
        )
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
        raise SpecError(f"spec: invalid JSON ({exc})") from exc
    except ValueError:  # an integer literal that int() refuses to read
        raise SpecError("spec: an integer has more digits than the"
                        " interpreter's printing limit") from None
    return parse_spec(data)


def spec_to_dict(parsed: ParsedSpec) -> dict:
    """Canonical JSON form of a parsed spec, as read with defaults filled in;
    reparsing it reproduces parsed."""
    return {"field": {"p": parsed.p, "f": parsed.f},
            "rep": {"type": parsed.type, **parsed.fields}}


def _print_json(payload) -> int:
    print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    return EXIT_OK


def _emit(args, payload: dict, rows: Iterable[tuple[str, object]]) -> int:
    """payload as JSON under --json, else rows as a table, with booleans as
    JSON spells them. Only the table reads rows, which may be a generator."""
    if args.json:
        return _print_json(payload)
    rows = list(rows)
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        if isinstance(value, bool):
            value = json.dumps(value)
        print(f"{key.ljust(width)}  {value}")
    return EXIT_OK


# kirillov-basis refuses a level r at which q**r has more than this // r
# digits: its r + 1 groups would print about r*r*log10(q) digits in all.
KIRILLOV_DIGITS = 5 * 10**6


def _has_more_digits(q: int, k: int, digits: int) -> bool:
    """Whether q**k (q >= 0) has more than `digits` decimal digits. It
    computes q**k only when bit lengths leave the answer open: with
    b = q.bit_length(), 2**(k*(b-1)) <= q**k < 2**(k*b) for k >= 1, which
    also holds at q = 1, and 2**(3*digits) <= 10**digits < 2**(3.4*digits)."""
    b = q.bit_length()
    if k * b < 3 * digits:
        return False
    if 10 * k * (b - 1) > 34 * digits:
        return True
    return q**k >= 10**digits


def _refuse_past(base: int, exp: int, cause: str, digits=None,
                 limit: str = "the interpreter's printing limit") -> None:
    """Refuse an answer of at least base**exp (a lower bound, checked before
    the answer is computed, or the answer itself) of more than `digits`
    digits: by default the interpreter's printing limit, or 4,300 where it
    sets none. `cause` names the input that drives the answer's size."""
    if digits is None:
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if _has_more_digits(base, exp, digits):
        raise SpecError(f"{cause} of more than {digits} digits, past {limit}")


def _printable_q(spec: ParsedSpec) -> int:
    _refuse_past(spec.p, spec.f, f"field.f: {spec.f} gives q = p**f")
    return spec.p**spec.f


def _dim_rows(spec: ParsedSpec, m: int) -> list[tuple[str, object]]:
    """Refused when the dimension cannot be printed: from its lower bound
    q**rep.dim_exponent(m) before it is computed, then from itself. Below
    min_level the dimension is 0: the base Representation.dim answers 0
    there before any arithmetic of the size of q**m, so the bound is read
    only from min_level on, where it holds."""
    rep = spec.rep
    q = _printable_q(spec)
    cause = f"level: {m} gives a dimension at field.f = {spec.f}"
    if m >= rep.min_level():
        _refuse_past(q, rep.dim_exponent(m), cause)
    dimension = rep.dim(q, m)
    _refuse_past(dimension, 1, cause)
    return [("dimension", dimension), ("level", m), ("q", q),
            ("branch", SPECS[spec.type].branch)]


def _has_fixed_rows(spec: ParsedSpec, m: int) -> list[tuple[str, object]]:
    check_level(m, 0)
    return [("has_fixed_vector", m >= spec.rep.min_level()), ("level", m),
            ("q", _printable_q(spec))]


def _conductor_rows(spec: ParsedSpec, _) -> list[tuple[str, object]]:
    conductor = spec.rep.conductor()  # a sum, or twice a twist conductor
    _refuse_past(conductor, 1, "rep: its conductors give a conductor")
    return [("conductor", conductor),
            ("convention", SPECS[spec.type].convention)]


class Query(NamedTuple):
    help: str
    with_level: bool
    rows: Callable  # (parsed spec, level or None) -> [(key, value), ...]


QUERIES = {
    "dim": Query("fixed-space dimension at a level", True, _dim_rows),
    "has-fixed": Query("whether a nonzero fixed vector exists at a level",
                       True, _has_fixed_rows),
    "min-level": Query("least level with a nonzero fixed vector", False,
                       lambda spec, _: [("min_level", spec.rep.min_level()),
                                        ("q", _printable_q(spec))]),
    # conductor and depth neither compute nor print q: they answer for any f.
    "conductor": Query("conductor of the represented data", False,
                       _conductor_rows),
    "depth": Query("depth, printed as an exact fraction", False,
                   lambda spec, _: [("depth", str(spec.rep.depth()))]),
}


def cmd_query(args) -> int:
    rows = args.query.rows(args.spec, getattr(args, "level", None))
    return _emit(args, dict(rows), rows)


def cmd_global_bounds(args) -> int:
    level = GlobalLevel(args.level_N)
    _refuse_past(level.N, args.n, f"--n: {args.n} gives an upper bound N**n")
    bounds = level.conductor_bounds(args.n)
    windows = [(p, e, local_conductor_window(args.n, e))
               for p, e in level.factorization]
    payload = {
        "N": level.N,
        "factorization": [[p, e] for p, e in level.factorization],
        "local_windows": [{"p": p, "e": e, "lo": w.lo, "hi": w.hi}
                          for p, e, w in windows],
        "lower": bounds.lo,
        "n": args.n,
        "upper": bounds.hi,
    }
    factor_str = " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in level.factorization
    ) or "1"
    window_str = "; ".join(f"p={p}: {w}" for p, _, w in windows) or "(none)"
    rows = [
        ("N", f"{level.N} = {factor_str}"),
        ("n", args.n),
        ("lower", bounds.lo),
        ("upper", bounds.hi),
        ("local windows", window_str),
    ]
    return _emit(args, payload, rows)


def cmd_kirillov_basis(args) -> int:
    parsed = args.spec
    rep = parsed.rep
    if not isinstance(rep, Supercuspidal):
        raise SpecError("rep.type: kirillov-basis needs a supercuspidal spec")
    if rep.c_chi != 0:
        raise SpecError(
            "rep.twist_conductor: kirillov-basis supports minimal"
            " supercuspidals only (twist_conductor 0); twisted conductors of"
            " individual classes are not determined by conductors alone"
        )
    # The counts sum to dim's answer, so dim's refusals cover them. Groups
    # are built only below the cap.
    r = args.level
    _dim_rows(parsed, r)
    q = parsed.p**parsed.f
    _refuse_past(q, r, f"level: {r} gives Kirillov basis groups with counts"
                 f" near q**{r}", KIRILLOV_DIGITS // max(r, 1),
                 f"the kirillov-basis cap of {KIRILLOV_DIGITS} digits in all")
    groups = [
        {"twist_conductor": i, "num_classes": classes, "support_min": lo,
         "support_max": hi, "count": classes * (hi - lo + 1)}
        for i, classes, lo, hi in kirillov_groups(q, rep.s, args.c_psi, r)
    ]
    if groups:  # supports run from the first group's minimum to a common maximum
        _refuse_past(max(-groups[0]["support_min"], groups[0]["support_max"]),
                     1, f"--c-psi: {args.c_psi} gives support orders")
    dimension = sum(g["count"] for g in groups)
    payload = {"c_psi": args.c_psi, "dimension": dimension, "groups": groups,
               "level": r, "q": q}
    # At large levels the group lines are slow to build, and --json skips them.
    lines = ((f"twist conductor {g['twist_conductor']}",
              f"classes {g['num_classes']}, supports"
              f" [{g['support_min']}..{g['support_max']}], count {g['count']}")
             for g in groups)
    return _emit(args, payload, itertools.chain(
        [("dimension", dimension), ("level", r), ("q", q), ("c_psi", args.c_psi)],
        lines if groups else [("basis", "(empty)")]))


def cmd_verify(args) -> int:
    from . import verify

    budget = None if args.budget is None else parse_budget(args.budget)
    if args.suite == "all":
        reports = verify.run_all(budget)
    else:
        reports = [verify.SUITES[args.suite](budget)]
    if args.json:
        _print_json([{**vars(r), "checks": [c._asdict() for c in r.checks],
                      "passed": r.passed} for r in reports])
    else:
        for r in reports:
            for check in r.checks:
                status = "ok" if check.ok else "FAIL"
                print(f"[{r.suite}] {check.name}: {status} ({check.detail})")
            for note in r.notes:
                print(f"[{r.suite}] NOTE: {note}")
            print(f"[{r.suite}] {'passed' if r.passed else 'FAILED'}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with exit code 2; this CLI reserves 2
    for verification failures and uses 1 for every input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_spec_command(subparsers, name: str, func, help_text: str,
                      with_level: bool):
    sub = subparsers.add_parser(name, help=help_text)
    sub.add_argument("spec", help="path to a spec JSON file, or inline JSON")
    if with_level:
        sub.add_argument("--level", type=int, required=True, metavar="M",
                         help="principal congruence level m >= 0")
    sub.add_argument("--json", action="store_true",
                     help="emit a canonical JSON object")
    sub.add_argument("--emit-spec", action="store_true",
                     help="print the normalized spec JSON and exit")
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padic-fixvec",
        description="Fixed vectors of admissible GL_n representations under"
                    " principal congruence subgroups: dimensions, conductors,"
                    " depths, levels and identity verification.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, query in QUERIES.items():
        _add_spec_command(
            subparsers, name, cmd_query, query.help, query.with_level,
        ).set_defaults(query=query)

    bounds = subparsers.add_parser(
        "global-bounds",
        help="conductor bounds from a minimal principal congruence level N",
    )
    bounds.add_argument("--n", type=int, required=True,
                        help="group size n >= 1")
    bounds.add_argument("--level-N", dest="level_N", type=int, required=True,
                        metavar="N", help="minimal level, 1 <= N <= 10^18")
    bounds.add_argument("--json", action="store_true",
                        help="emit a canonical JSON object")
    bounds.set_defaults(func=cmd_global_bounds)

    kirillov = _add_spec_command(
        subparsers, "kirillov-basis", cmd_kirillov_basis,
        "fixed-space basis counts in the Kirillov realization",
        with_level=True,
    )
    kirillov.add_argument("--c-psi", dest="c_psi", type=int, default=0,
                          help="additive character conductor (default 0)")

    ver = subparsers.add_parser(
        "verify", help="run the identity-verification suites",
    )
    ver.add_argument(
        "--suite", default="all",
        choices=["all", "cosets", "characters", "supercuspidal", "windows"],
    )
    ver.add_argument("--budget", default=None,
                     help="enumeration budget, e.g. 10^8, 1e8 or 100000000")
    ver.add_argument("--json", action="store_true",
                     help="emit the reports as a canonical JSON array")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "spec" in args:
            args.spec = load_spec(args.spec)
        code = (_print_json(spec_to_dict(args.spec))
                if getattr(args, "emit_spec", False) else args.func(args))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader has gone: the exit-time flush writes to nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
