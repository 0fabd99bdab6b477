"""Property test of the command line: every call of cli.main either answers
(exit 0) or is refused as an input error (exit 1, counting argparse's
SystemExit(1)), never raises, prints nothing on stdout when refused, never
shows a traceback or the interpreter's own digit-limit message, and takes
under a second of CPU time (CPU time, so that a busy machine does not fail
it).

The argv are random and adversarial: huge and negative levels, residue
degrees and group sizes; p near the primality cap; N up to 10**18 and out
of range; up to a few thousand blocks; malformed, mistyped and deeply
nested JSON. Hypothesis runs derandomized, so the examples are the same on
every run.
"""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padic_fixvec.cli import EXIT_INPUT, EXIT_OK, main
from padic_fixvec.finite_ring import PRIME_CAP, is_prime

LARGEST_PRIME = next(n for n in range(PRIME_CAP - 2, 0, -2) if is_prime(n))
EDGE_INTS = [0, 1, 2, -1, 9000, 14283, 10**5, 10**9, 10**18, 10**18 + 1,
             -(10**18), 10**4299, -(10**4299), int("9" * 4300)]

ints = st.one_of(
    st.integers(-3, 40),
    st.integers(-(10**6), 10**6),
    st.sampled_from(EDGE_INTS),
    st.integers(-(10**4300) + 1, 10**4300 - 1),
)
# Mostly small values, so that many calls compute an answer.
small = st.integers(0, 12)
value = st.one_of(small, small, small, ints)
primes = st.one_of(st.sampled_from([2, 3, 5, 7]), st.sampled_from([
    2, 3, 5, 7, 10007, 20000000000021, LARGEST_PRIME, PRIME_CAP - 1,
    PRIME_CAP, PRIME_CAP + 2, 4, 1, 0, -3,
]))
field = st.fixed_dictionaries({"p": primes}, optional={
    "f": st.one_of(st.integers(1, 3), value)})
block = st.fixed_dictionaries({"n": st.one_of(st.integers(1, 3), ints),
                               "conductor": value})
small_block = st.fixed_dictionaries({"n": st.integers(1, 3),
                                     "conductor": small})
blocks = st.one_of(
    st.lists(block, min_size=1, max_size=8),
    st.lists(small_block.filter(lambda b: b["n"] == 1), min_size=1,
             max_size=8),
    st.builds(lambda b, k: [b] * k, small_block, st.integers(1, 3000)),
)
supercuspidal = st.fixed_dictionaries(
    {"type": st.just("supercuspidal"),
     "minimal_conductor": st.one_of(st.integers(2, 12), ints)},
    optional={"twist_conductor": value},
)
rep = st.one_of(
    st.fixed_dictionaries({"type": st.just("induced"), "blocks": blocks}),
    st.fixed_dictionaries({"type": st.just("principal-series"),
                           "c1": value, "c2": value}),
    st.fixed_dictionaries({"type": st.just("steinberg-twist"),
                           "c_chi": value}),
    supercuspidal,
)
# Any JSON value, for mistyped fields and malformed specs.
junk = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5) | ints,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=10,
)
valid = st.fixed_dictionaries({"field": field, "rep": rep})
spec_object = st.one_of(
    valid, valid, valid,
    st.fixed_dictionaries({"field": st.one_of(field, junk),
                           "rep": st.one_of(rep, junk)}),
    junk,
)


def nested(depth: int) -> str:
    return '{"field": ' + "[" * depth + "]" * depth + ', "rep": {}}'


spec_text = st.one_of(
    spec_object.map(json.dumps),
    spec_object.map(json.dumps),
    spec_object.map(json.dumps),
    st.integers(1, 5000).map(nested),
    st.text(max_size=30),
    st.sampled_from([".", "/", "", "/no/such/spec.json", "{", "{}"]),
)
level_arg = st.one_of(st.integers(-2, 60).map(str), ints.map(str),
                      st.sampled_from(["1.5", "two", "1e3"]))
COMMANDS = ["dim", "has-fixed", "min-level", "conductor", "depth",
            "kirillov-basis"]


@st.composite
def argv(draw):
    command = draw(st.sampled_from(COMMANDS + ["global-bounds"]))
    if command == "global-bounds":
        args = ["--n", draw(level_arg), "--level-N", str(draw(st.one_of(
            ints, st.integers(1, 10**18), st.integers(10**18 - 5, 10**18 + 5),
        )))]
    else:
        if command == "kirillov-basis" and draw(st.booleans()):
            args = [json.dumps({"field": draw(field),
                                "rep": draw(supercuspidal)})]
        else:
            args = [draw(spec_text)]
        # A missing --level, which argparse refuses, now and then.
        if command in ("dim", "has-fixed", "kirillov-basis") and draw(
                st.sampled_from([True, True, True, True, False])):
            args += ["--level", draw(level_arg)]
        if command == "kirillov-basis" and draw(st.booleans()):
            args += ["--c-psi", draw(level_arg)]
    if draw(st.booleans()):
        args.append("--json")
    return [command, *args]


def check_call(args: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    elapsed = time.process_time() - start
    context = (args[:1] + [a[:200] for a in args[1:]], err.getvalue()[:500])
    assert code in (EXIT_OK, EXIT_INPUT), context
    if code == EXIT_INPUT:
        assert out.getvalue() == "", context
    assert "Traceback" not in err.getvalue(), context
    assert "Exceeds the limit" not in err.getvalue(), context
    assert elapsed < 1, (elapsed, context)


def induced(conductors: list) -> str:
    """An induced spec at p = 2 of GL_1 blocks with these conductors."""
    blocks = [{"n": 1, "conductor": c} for c in conductors]
    return json.dumps({"field": {"p": 2},
                       "rep": {"type": "induced", "blocks": blocks}})


def principal_series(p: int, c1: int, c2: int) -> str:
    return json.dumps({"field": {"p": p}, "rep": {
        "type": "principal-series", "c1": c1, "c2": c2}})


# Below the least level the dimension is 0: answered without the coset
# index, whose group orders have millions of bits at these levels.
@example(["dim", induced([0, 10**12]), "--level", "10000000"])
@example(["dim", induced([0] * 999 + [5]), "--level", "2"])
# The greatest depth of thousands of blocks at the digit limit.
@example(["depth", induced([int("9" * 4300)] * 3000)])
# A principal-series dimension past the digit limit, refused from its bound.
@example(["dim", principal_series(20000000000021, 0, 0), "--level", "10000"])
@example(["dim", principal_series(2, 3, 1), "--level", str(10**9), "--json"])
@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv())
def test_every_call_answers_or_is_refused_quickly(args):
    check_call(args)
