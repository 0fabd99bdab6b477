import argparse
import ast
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import padic_fixvec
from padic_fixvec.budget import parse_budget
from padic_fixvec.cli import (
    EXIT_INPUT,
    EXIT_OK,
    SPECS,
    SpecError,
    _has_more_digits,
    build_parser,
    load_spec,
    main,
    parse_spec,
    spec_to_dict,
)
from padic_fixvec.cosets import parabolic_index_closed
from padic_fixvec.finite_ring import PRIME_CAP
from padic_fixvec.gl2_dims import SteinbergTwist, Supercuspidal
from padic_fixvec.representations import GenericRepresentation

PS_00 = '{"field": {"p": 3}, "rep": {"type": "principal-series", "c1": 0, "c2": 0}}'
SC_33 = (
    '{"field": {"p": 3},'
    ' "rep": {"type": "supercuspidal", "minimal_conductor": 3}}'
)
# The README's kirillov-basis spec.
SC_2_2 = (
    '{"field": {"p": 2}, "rep": {"type": "supercuspidal",'
    ' "minimal_conductor": 2}}'
)
INDUCED_2_1 = (
    '{"field": {"p": 5}, "rep": {"type": "induced",'
    ' "blocks": [{"n": 2, "conductor": 3}, {"n": 1, "conductor": 1}]}}'
)
BOREL3 = (
    '{"field": {"p": 2}, "rep": {"type": "induced", "blocks":'
    ' [{"n": 1, "conductor": 0}, {"n": 1, "conductor": 0},'
    ' {"n": 1, "conductor": 0}]}}'
)


def run_ok(capsys, argv):
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out


def run_json(capsys, argv):
    return json.loads(run_ok(capsys, argv + ["--json"]))


def run_err(capsys, argv):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


def test_dim_principal_series(capsys):
    payload = run_json(capsys, ["dim", PS_00, "--level", "1"])
    assert payload == {
        "branch": "principal series closed form",
        "dimension": 4,
        "level": 1,
        "q": 3,
    }


def test_dim_supercuspidal(capsys):
    payload = run_json(capsys, ["dim", SC_33, "--level", "2"])
    assert payload["dimension"] == 8
    assert payload["branch"] == "supercuspidal closed form"
    below = (
        '{"field": {"p": 3},'
        ' "rep": {"type": "supercuspidal", "minimal_conductor": 4}}'
    )
    assert run_json(capsys, ["dim", below, "--level", "1"])["dimension"] == 0


def test_dim_steinberg(capsys):
    spec = '{"field": {"p": 2}, "rep": {"type": "steinberg-twist", "c_chi": 0}}'
    payload = run_json(capsys, ["dim", spec, "--level", "2"])
    assert payload["dimension"] == 5


def test_dim_induced_borel(capsys):
    payload = run_json(capsys, ["dim", BOREL3, "--level", "1"])
    assert payload["dimension"] == 21
    assert payload["branch"] == (
        "induced from characters: coset index times indicators"
    )


def test_dim_human_output(capsys):
    out = run_ok(capsys, ["dim", PS_00, "--level", "1"])
    assert "dimension" in out
    assert " 4" in out


def test_dim_rejects_large_blocks(capsys):
    err = run_err(capsys, ["dim", INDUCED_2_1, "--level", "1"])
    assert "rep.blocks[0]" in err


def test_has_fixed(capsys):
    spec = (
        '{"field": {"p": 7}, "rep": {"type": "induced",'
        ' "blocks": [{"n": 1, "conductor": 0}]}}'
    )
    payload = run_json(capsys, ["has-fixed", spec, "--level", "0"])
    assert payload == {"has_fixed_vector": True, "level": 0, "q": 7}
    out = run_ok(capsys, ["has-fixed", spec, "--level", "0"])
    assert "true" in out

    payload = run_json(capsys, ["has-fixed", SC_33, "--level", "1"])
    assert payload["has_fixed_vector"] is False


def test_min_level(capsys):
    payload = run_json(capsys, ["min-level", INDUCED_2_1])
    assert payload["min_level"] == 2
    assert run_json(capsys, ["min-level", SC_33])["min_level"] == 2
    assert run_json(capsys, ["min-level", PS_00])["min_level"] == 0


def test_conductor(capsys):
    spec = (
        '{"field": {"p": 5}, "rep": {"type": "induced",'
        ' "blocks": [{"n": 2, "conductor": 3}, {"n": 1, "conductor": 0}]}}'
    )
    payload = run_json(capsys, ["conductor", spec])
    assert payload["conductor"] == 3
    assert payload["convention"] == "sum of block conductors"

    sc = (
        '{"field": {"p": 3}, "rep": {"type": "supercuspidal",'
        ' "minimal_conductor": 3, "twist_conductor": 4}}'
    )
    assert run_json(capsys, ["conductor", sc])["conductor"] == 8

    st = '{"field": {"p": 3}, "rep": {"type": "steinberg-twist", "c_chi": 1}}'
    run_err(capsys, ["conductor", st])


def test_depth(capsys):
    spec = (
        '{"field": {"p": 3}, "rep": {"type": "induced",'
        ' "blocks": [{"n": 2, "conductor": 5}]}}'
    )
    payload = run_json(capsys, ["depth", spec])
    assert payload == {"depth": "3/2"}
    assert run_json(capsys, ["depth", SC_33]) == {"depth": "1/2"}
    # The greatest block depth, max(1/2, 0), and the characters' depths.
    assert run_json(capsys, ["depth", INDUCED_2_1]) == {"depth": "1/2"}
    assert run_json(capsys, ["depth", PS_00]) == {"depth": "0"}
    ps = _spec(3, {"type": "principal-series", "c1": 1, "c2": 3})
    assert run_json(capsys, ["depth", ps]) == {"depth": "2"}
    for c_chi, depth in ((0, "0"), (1, "0"), (4, "3")):
        st = _spec(3, {"type": "steinberg-twist", "c_chi": c_chi})
        assert run_json(capsys, ["depth", st]) == {"depth": depth}


def test_global_bounds(capsys):
    payload = run_json(capsys, ["global-bounds", "--n", "2", "--level-N", "12"])
    assert payload == {
        "N": 12,
        "factorization": [[2, 2], [3, 1]],
        "local_windows": [
            {"p": 2, "e": 2, "lo": 1, "hi": 4},
            {"p": 3, "e": 1, "lo": 1, "hi": 2},
        ],
        "lower": 6,
        "n": 2,
        "upper": 144,
    }
    out = run_ok(capsys, ["global-bounds", "--n", "3", "--level-N", "8"])
    assert "2^3" in out
    assert "512" in out
    trivial = run_json(capsys, ["global-bounds", "--n", "2", "--level-N", "1"])
    assert (trivial["lower"], trivial["upper"]) == (1, 1)
    assert trivial["factorization"] == []
    run_err(capsys, ["global-bounds", "--n", "0", "--level-N", "8"])


def test_kirillov_basis(capsys):
    spec = SC_2_2
    payload = run_json(capsys, ["kirillov-basis", spec, "--level", "2"])
    assert payload["dimension"] == 4
    assert payload["c_psi"] == 0
    assert [g["count"] for g in payload["groups"]] == [3, 1]
    assert payload["groups"][0] == {
        "twist_conductor": 0,
        "num_classes": 1,
        "support_min": 0,
        "support_max": 2,
        "count": 3,
    }
    shifted = run_json(
        capsys, ["kirillov-basis", spec, "--level", "2", "--c-psi", "1"]
    )
    assert shifted["dimension"] == 4
    assert shifted["groups"][0]["support_min"] == 1

    run_err(capsys, ["kirillov-basis", PS_00, "--level", "2"])
    twisted = (
        '{"field": {"p": 2}, "rep": {"type": "supercuspidal",'
        ' "minimal_conductor": 2, "twist_conductor": 3}}'
    )
    run_err(capsys, ["kirillov-basis", twisted, "--level", "2"])


def test_kirillov_basis_table(capsys):
    out = run_ok(capsys, ["kirillov-basis", SC_2_2, "--level", "2"])
    assert out == (
        "dimension          4\n"
        "level              2\n"
        "q                  2\n"
        "c_psi              0\n"
        "twist conductor 0  classes 1, supports [0..2], count 3\n"
        "twist conductor 2  classes 1, supports [2..2], count 1\n"
    )


def test_kirillov_basis_emit_spec(capsys):
    out = run_ok(capsys, ["kirillov-basis", SC_2_2, "--level", "2",
                          "--emit-spec"])
    assert json.loads(out) == {
        "field": {"p": 2, "f": 1},
        "rep": {"type": "supercuspidal", "minimal_conductor": 2,
                "twist_conductor": 0},
    }


def _cli_process(argv, env=None):
    return subprocess.Popen(
        [sys.executable, "-m", "padic_fixvec.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["table", "json"])
def test_a_closed_stdout_ends_the_process_quietly(extra):
    # About 900 KB of output, far past a pipe's buffer, so the process is
    # still writing when the reader goes.
    proc = _cli_process(["kirillov-basis", SC_2_2, "--level", "1500", *extra])
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_INPUT
    assert err == b""  # no traceback


def test_a_stdout_closed_before_a_buffered_answer_ends_quietly():
    # Block-buffered, a short answer is written only when it is flushed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = _cli_process(["global-bounds", "--n", "2", "--level-N", "12"], env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_INPUT
    assert err == b""


def test_kirillov_basis_rejects_a_negative_level(capsys):
    for extra in ([], ["--c-psi", "5"]):
        assert main(["kirillov-basis", SC_33, "--level", "-3", *extra]) == (
            EXIT_INPUT)
        out, err = capsys.readouterr()
        assert out == ""
        assert "level must be >= 0" in err


@pytest.mark.parametrize("p,level", [(3, 9020), (3, 13000), (2, 3 * 10**6)])
def test_kirillov_basis_refuses_unprintable_counts(capsys, p, level):
    spec = (f'{{"field": {{"p": {p}}}, "rep": {{"type": "supercuspidal",'
            ' "minimal_conductor": 7}}')
    assert main(["kirillov-basis", spec, "--level", str(level)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: level: {level} gives") and "4300" in err


@pytest.mark.parametrize("n,level", [(1500, 500000), (10**8, 51), (2471, 55)])
def test_global_bounds_refuses_unprintable_upper_bounds(capsys, n, level):
    start = time.perf_counter()
    code = main(["global-bounds", "--n", str(n), "--level-N", str(level)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: --n: {n} gives") and "4300" in err
    assert elapsed < 0.5


def test_global_bounds_answers_up_to_the_digit_limit(capsys):
    # 55**2470 has 4,299 digits and 55**2471 has 4,301; N = 1 answers for
    # every n.
    out = run_json(capsys, ["global-bounds", "--n", "2470", "--level-N", "55"])
    assert len(str(out["upper"])) == 4299
    out = run_json(capsys, ["global-bounds", "--n", str(10**8), "--level-N", "1"])
    assert (out["lower"], out["upper"]) == (1, 1)


def _spec(p, rep, f=1):
    return json.dumps({"field": {"p": p, "f": f}, "rep": rep})


PS_12 = {"type": "principal-series", "c1": 1, "c2": 2}
ST_1 = {"type": "steinberg-twist", "c_chi": 1}
SC_7 = {"type": "supercuspidal", "minimal_conductor": 7}


@pytest.mark.parametrize("argv,names", [
    # A large q at a level past the limit: principal series, supercuspidal.
    (["dim", _spec(20000000000021, PS_12), "--level", "500"], "level:"),
    (["dim", _spec(20000000000021, SC_7), "--level", "400"], "level:"),
    # q = p**f itself past the limit, and far past it.
    (["dim", _spec(3, ST_1, f=20000), "--level", "2"], "field.f:"),
    (["min-level", _spec(3, ST_1, f=6 * 10**7)], "field.f:"),
    # A level so large that computing the dimension would hang.
    (["dim", _spec(2, {"type": "supercuspidal", "minimal_conductor": 5}),
      "--level", str(10**5)], "level:"),
    # q fits but its square does not: refused after computing, naming both.
    (["dim", _spec(2, ST_1, f=10**4), "--level", "2"], "field.f = 10000"),
    (["has-fixed", _spec(5, ST_1, f=10**5), "--level", "2"], "field.f:"),
    (["kirillov-basis", _spec(3, SC_7, f=10**5), "--level", "2"], "field.f:"),
])
def test_unprintable_answers_are_refused_quickly(capsys, argv, names):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert names in err and "4300" in err
    assert "Exceeds the limit" not in err
    assert elapsed < 1


def test_largest_printable_principal_series_level_answers(capsys):
    # 3 * 2**(L-1) is the dimension at level L and q = 2; L is the largest
    # level where it fits in the printing limit, so L + 1 is refused.
    limit = sys.get_int_max_str_digits()
    level = ((10**limit - 1) // 3).bit_length()
    spec = _spec(2, {"type": "principal-series", "c1": 0, "c2": 0})
    payload = run_json(capsys, ["dim", spec, "--level", str(level)])
    assert payload["dimension"] == 3 * 2 ** (level - 1)
    err = run_err(capsys, ["dim", spec, "--level", str(level + 1)])
    assert f"level: {level + 1} gives" in err


def test_queries_that_never_print_q_answer_for_any_f(capsys):
    sc = _spec(3, {"type": "supercuspidal", "minimal_conductor": 5},
               f=6 * 10**7)
    assert run_json(capsys, ["conductor", sc])["conductor"] == 5
    assert run_json(capsys, ["depth", sc]) == {"depth": "3/2"}


def test_gl1_dimension_answers_at_any_level(capsys):
    gl1 = _spec(3, {"type": "induced", "blocks": [{"n": 1, "conductor": 5}]})
    for level, dimension in ((4, 0), (10**9, 1)):
        payload = run_json(capsys, ["dim", gl1, "--level", str(level)])
        assert payload["dimension"] == dimension


def test_kirillov_basis_refuses_counts_just_past_the_limit(capsys):
    # At q = 10007, q**(level-2) fits up to level 1076, but the count
    # already overflows at level 1075: only the computed count shows it.
    spec = _spec(10007, SC_7)
    assert run_json(capsys, ["kirillov-basis", spec, "--level", "1074"])
    err = run_err(capsys, ["kirillov-basis", spec, "--level", "1075"])
    assert "level: 1075 gives" in err and "Exceeds the limit" not in err


def test_has_more_digits_is_exact():
    for q, k in itertools.product((1, 2, 3, 4, 7, 10007), range(0, 1000, 7)):
        assert _has_more_digits(q, k, 300) is (len(str(q**k)) > 300)


def _refused_quickly(capsys, argv, names):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ") and names in err
    assert "Exceeds the limit" not in err
    assert elapsed < 1
    return err


LIMIT_OFF_INPUTS = [
    (["global-bounds", "--n", "100000000", "--level-N", "51"], "--n:"),
    (["dim", _spec(2, {"type": "supercuspidal", "minimal_conductor": 5}),
      "--level", "100000"], "level:"),
    (["min-level", _spec(3, ST_1, f=10**8)], "field.f:"),
]


@pytest.fixture
def digit_limit_off():
    """The interpreter's printing limit set to 0 (none), restored afterwards;
    before Python 3.10.7 there is no limit to switch off."""
    get = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    saved = get()
    set_limit(0)
    yield
    set_limit(saved)


@pytest.mark.parametrize("argv,names", LIMIT_OFF_INPUTS)
def test_refusals_fall_back_to_4300_digits_without_a_limit(
        capsys, digit_limit_off, argv, names):
    assert "4300" in _refused_quickly(capsys, argv, names)


@pytest.mark.parametrize("blocks", [1000, 2000])
def test_induced_dimension_refused_by_its_coset_index(capsys, blocks):
    spec = _spec(2, {"type": "induced",
                     "blocks": [{"n": 1, "conductor": 0}] * blocks})
    _refused_quickly(capsys, ["dim", spec, "--level", "2"], "level: 2 gives")


@pytest.mark.parametrize("n", range(1, 6))
def test_coset_index_bound_is_a_lower_bound(n):
    # The dim refusal bounds an induced rep by q**(m*d), d = sum_{i<j}
    # n_i*n_j: below the coset index of every composition of n, and below
    # the dimension of every rep with n GL_1 blocks.
    compositions = [c for k in range(1, n + 1)
                    for c in itertools.product(range(1, n + 1), repeat=k)
                    if sum(c) == n]
    for parts, q, m in itertools.product(
            compositions, (2, 3, 4, 5, 7, 8, 9), range(1, 7)):
        d = sum(a * b for a, b in itertools.combinations(parts, 2))
        assert q ** (m * d) <= parabolic_index_closed(parts, q, m)
    gl1 = GenericRepresentation.from_pairs([(1, 0)] * n)
    for q, m in itertools.product((2, 3, 4, 5, 7, 8, 9), range(1, 7)):
        assert q ** (m * n * (n - 1) // 2) <= gl1.dim(q, m)


def test_gl2_dimension_bound_is_a_lower_bound():
    # ... and a GL_2 type's nonzero dimension at level m >= 2 by q**(m-2).
    reps = [GenericRepresentation.from_pairs([(1, c1), (1, c2)])
            for c1 in range(4) for c2 in range(4)]
    reps += [SteinbergTwist(c) for c in range(4)]
    reps += [Supercuspidal(s, c) for s in range(2, 9) for c in range(5)]
    for rep, q, m in itertools.product(reps, (2, 3, 4, 5, 7, 8, 9), range(2, 9)):
        if m >= rep.min_level():
            assert q ** (m - 2) <= rep.dim(q, m)


@pytest.mark.parametrize("p,s,level", [(2, 7, 14283), (3, 7, 9000),
                                       (2, 10**10, 10**9)])
def test_kirillov_basis_caps_its_whole_output(capsys, p, s, level):
    # Each count fits the printing limit at s = 7, but all groups together
    # would print tens of millions of digits. At s > 2 * level there are no
    # groups, and the cap keeps short the pass over the twist conductors.
    spec = _spec(p, {"type": "supercuspidal", "minimal_conductor": s})
    argv = ["kirillov-basis", spec, "--level", str(level), "--json"]
    err = _refused_quickly(capsys, argv, f"level: {level} gives")
    assert "cap of 5000000 digits" in err


@pytest.mark.parametrize("p,level", [(2, 1600), (30000000000011, 280)])
def test_kirillov_basis_answers_below_its_cap(capsys, p, level):
    payload = run_json(capsys, ["kirillov-basis", _spec(p, SC_7),
                                "--level", str(level)])
    assert payload["dimension"] == Supercuspidal(7).dim(p, level)


def test_kirillov_basis_refuses_unprintable_support_orders(capsys):
    big = "9" * 4299
    spec = _spec(3, {"type": "supercuspidal", "minimal_conductor": 2})
    assert run_json(capsys, ["kirillov-basis", spec, "--level", "2",
                             "--c-psi", big])["c_psi"] == int(big)
    _refused_quickly(capsys, ["kirillov-basis", spec, "--level", "2",
                              "--c-psi", "9" * 4300], "--c-psi:")
    # Without groups no support order is printed.
    spec = _spec(3, {"type": "supercuspidal", "minimal_conductor": 9})
    assert run_json(capsys, ["kirillov-basis", spec, "--level", "2",
                             "--c-psi", "9" * 4300])["groups"] == []


def test_unprintable_conductor_is_refused(capsys):
    big = "9" * 4300
    twisted = _spec(3, {"type": "supercuspidal", "minimal_conductor": 2,
                        "twist_conductor": int(big)})
    _refused_quickly(capsys, ["conductor", twisted], "rep:")
    assert run_json(capsys, ["depth", twisted])["depth"] == str(int(big) - 1)


def test_integer_past_the_printing_limit_in_a_spec(capsys):
    spec = '{"field": {"p": 3}, "rep": {"type": "steinberg-twist", "c_chi": %s}}'
    _refused_quickly(capsys, ["min-level", spec % ("9" * 4301)], "spec:")


def test_deeply_nested_spec_is_invalid_json(capsys):
    nested = '{"field": ' + "[" * 3000 + "]" * 3000 + ', "rep": {}}'
    _refused_quickly(capsys, ["dim", nested, "--level", "2"],
                     "spec: invalid JSON (")


def test_block_below_its_least_conductor_is_refused(capsys):
    # A block of GL_n has conductor >= n - 1. One below is no block: every
    # command refuses it with exit 1, no answer and one line on stderr.
    spec = _spec(3, {"type": "induced", "blocks": [{"n": 2, "conductor": 0}]})
    for command in ("conductor", "min-level", "depth"):
        assert main([command, spec]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: rep.blocks[0].conductor:"
                                       " conductor of a GL_2 block must be"
                                       " >= 1, got 0\n")


def test_a_directory_is_not_a_spec_file(capsys, tmp_path):
    err = run_err(capsys, ["min-level", str(tmp_path)])
    assert "neither an existing file nor inline JSON" in err


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "characters"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[characters] passed" in out
    assert "FAIL" not in out


def test_verify_json_under_budget(capsys):
    payload = run_json(
        capsys, ["verify", "--suite", "cosets", "--budget", "1000"]
    )
    (report,) = payload
    assert report["suite"] == "cosets"
    assert report["passed"] is True
    assert report["notes"]


def test_verify_rejects_bad_budget(capsys):
    # A zero, negative or fractional budget would skip every oracle.
    # "-10^2" is -(10^2), as written maths reads it, not (-10)^2. A negative
    # power is refused even where it is whole ("1^-1" is 1.0) or undefined
    # ("0^-1"), and an empty budget is given, not absent.
    for budget in ("lots", "0", "-5", "10^-1", "10^100000000", "-10^2", "-2^2",
                   "0^-1", "1^-1", "1^-5", ""):
        err = run_err(capsys, ["verify", "--suite", "characters",
                               f"--budget={budget}"])
        assert "budget must be an integer from 1 to 10^18" in err


def test_parse_budget_reads_e_notation_exactly():
    # Both lie past 2**53, where a float would round them.
    assert parse_budget("9.007199254740993e15") == 9007199254740993
    assert parse_budget("123456789012345678e0") == 123456789012345678
    for text, value in [("1e8", 10**8), ("1.5e3", 1500), ("100.0", 100),
                        (" 1e8 ", 10**8)]:
        assert parse_budget(text) == value
    for text in ("1e-3", "1e19", "nan", "inf", "1e1000000000", "1__0",
                 "1e_8"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget must be an integer"):
            parse_budget(text)
        assert time.perf_counter() - start < 1


def test_verify_budget_reaches_the_unit_dual(capsys):
    # Budget 1 skips every unit dual of order above 1, so the dual-size
    # check runs no instance and fails.
    assert main(["verify", "--suite", "characters", "--budget", "1"]) == 2
    assert "[characters] FAILED" in capsys.readouterr().out


def test_verify_budget_ignores_the_environment(monkeypatch, capsys):
    # The environment does not set the budget; only --budget does.
    monkeypatch.setenv("PADIC_FIXVEC_BUDGET", "1")
    assert main(["verify", "--suite", "characters"]) == EXIT_OK
    assert "[characters] passed" in capsys.readouterr().out


def test_spec_from_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(INDUCED_2_1, encoding="utf-8")
    payload = run_json(capsys, ["min-level", str(path)])
    assert payload["min_level"] == 2


def test_emit_spec_round_trip(capsys):
    for spec in (PS_00, SC_33, INDUCED_2_1, BOREL3):
        out = run_ok(capsys, ["conductor" if "induced" in spec else "min-level",
                              spec, "--emit-spec"])
        emitted = json.loads(out)
        assert parse_spec(emitted) == load_spec(spec)
        assert spec_to_dict(parse_spec(emitted)) == spec_to_dict(load_spec(spec))


def test_every_spec_type_round_trips():
    # One canonical spec, defaults filled in, per SPECS entry.
    specs = [
        {"field": {"p": 2, "f": 1}, "rep": {"type": "induced", "blocks": [
            {"n": 2, "conductor": 3}, {"n": 1, "conductor": 0}]}},
        {"field": {"p": 3, "f": 1},
         "rep": {"type": "principal-series", "c1": 0, "c2": 1}},
        {"field": {"p": 3, "f": 2}, "rep": ST_1},
        {"field": {"p": 5, "f": 1}, "rep": {"type": "supercuspidal",
                                            "minimal_conductor": 3,
                                            "twist_conductor": 2}},
    ]
    assert [spec["rep"]["type"] for spec in specs] == list(SPECS)
    for spec in specs:
        assert spec_to_dict(parse_spec(spec)) == spec


@pytest.mark.parametrize("rep_type", ["[1]", '{"a": 1}', "7", "null"])
def test_a_spec_type_that_is_no_string_is_an_input_error(capsys, rep_type):
    # Not even an unhashable type escapes as a TypeError.
    err = run_err(capsys, ["min-level",
                           '{"field": {"p": 3}, "rep": {"type": %s}}' % rep_type])
    assert ("rep.type: expected one of induced, principal-series,"
            " steinberg-twist, supercuspidal; got ") in err


def test_emit_spec_fills_defaults(capsys):
    out = run_ok(capsys, ["min-level", SC_33, "--emit-spec"])
    emitted = json.loads(out)
    assert emitted["field"]["f"] == 1
    assert emitted["rep"]["twist_conductor"] == 0


def test_json_output_is_deterministic(capsys):
    first = run_ok(capsys, ["dim", PS_00, "--level", "2", "--json"])
    second = run_ok(capsys, ["dim", PS_00, "--level", "2", "--json"])
    assert first == second
    assert first.index("{") == 0
    keys = list(json.loads(first))
    assert keys == sorted(keys)


@pytest.mark.parametrize("spec,fragment", [
    ('{"field": {"p": 4}, "rep": {"type": "steinberg-twist", "c_chi": 0}}',
     "field.p"),
    ('{"field": {"p": 3, "f": 0}, "rep": {"type": "steinberg-twist",'
     ' "c_chi": 0}}', "field.f"),
    ('{"field": {"p": 3}, "rep": {"type": "nonsense"}}', "rep.type"),
    ('{"field": {"p": 3}, "rep": {"type": "induced", "blocks": []}}',
     "rep.blocks"),
    ('{"field": {"p": 3}, "rep": {"type": "principal-series", "c1": -1,'
     ' "c2": 0}}', "rep.c1"),
    ('{"field": {"p": 3}, "rep": {"type": "supercuspidal",'
     ' "minimal_conductor": 1}}', "rep.minimal_conductor"),
    ('{"field": {"p": 3}, "extra": 1, "rep": {"type": "steinberg-twist",'
     ' "c_chi": 0}}', "unexpected key"),
    ('{"field": {"p": 3}, "rep": {"type": "induced", "blocks":'
     ' [{"n": 1, "conductor": 0, "q": 9}]}}', "rep.blocks[0]"),
    ('{"field": {"p": 3}, "rep": {"type": "principal-series", "c1": true,'
     ' "c2": 0}}', "rep.c1"),
    ('{"field": {"p": 3}}', "spec.rep: missing"),
    ("{not json", "invalid JSON"),
    ("/no/such/file.json", "neither an existing file nor inline JSON"),
])
def test_input_errors(capsys, spec, fragment):
    err = run_err(capsys, ["min-level", spec])
    assert fragment in err


def test_missing_level_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dim", PS_00])
    assert excinfo.value.code == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == EXIT_INPUT


def test_parse_spec_rejects_non_object():
    with pytest.raises(SpecError):
        parse_spec([1, 2, 3])


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "padic_fixvec.cli",
         "dim", PS_00, "--level", "1", "--json"],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout)["dimension"] == 4


def test_p_past_the_primality_cap_is_an_input_error(capsys):
    spec = (f'{{"field": {{"p": {PRIME_CAP + 2}}},'
            ' "rep": {"type": "steinberg-twist", "c_chi": 0}}')
    assert main(["min-level", spec]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: field.p: ") and str(PRIME_CAP) in err


# Runs main on its argv with stdout swallowed, then prints the exit code and
# whether sympy got imported.
MAIN_REPORTING_SYMPY = """
import contextlib, io, sys
from padic_fixvec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "sympy" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["dim", PS_00, "--level", "2"],
    ["global-bounds", "--n", "2", "--level-N", str(999999929 * 999999937)],
    ["verify", "--suite", "windows"],
], ids=["dim", "global-bounds", "verify-windows"])
def test_cli_calls_load_no_sympy(argv):
    result = subprocess.run(
        [sys.executable, "-c", MAIN_REPORTING_SYMPY, *argv],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["0", "False"]


def test_no_source_file_imports_sympy():
    package = Path(padic_fixvec.__file__).parent
    for path in sorted(package.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.partition(".")[0] == "sympy" for m in modules), path


def test_verify_suite_choices_follow_the_registry():
    # build_parser spells the suites out, because importing verify there
    # would load it on every call (see the test below).
    from padic_fixvec import verify

    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    suite = next(action for action in commands.choices["verify"]._actions
                 if action.dest == "suite")
    assert suite.choices == ["all", *verify.SUITES]


def test_importing_cli_loads_neither_verify_nor_sympy():
    code = (
        "import sys, padic_fixvec.cli;"
        " print(sorted({'padic_fixvec.verify', 'sympy'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
