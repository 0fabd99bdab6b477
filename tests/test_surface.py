"""The public surface: the package's exports and the demos that use them."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys
import types

import pytest

import padic_fixvec

# Traced by bench/run.py but deleted from the package; its counters read 0
# until the next change to the benchmark retires them.
KNOWN_MISSING_BENCH_NAMES = {"gl2_dims.kirillov_basis"}

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_names_resolve_once():
    names = padic_fixvec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(padic_fixvec, name)]
    assert missing == []


def _imported_from_package(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "padic_fixvec"
            for alias in node.names}


def test_exports_are_few_and_cover_the_docs_and_demos():
    assert len(padic_fixvec.__all__) <= 30
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources = {"README": "\n".join(blocks)}
    sources.update((demo.stem, demo.read_text(encoding="utf-8"))
                   for demo in DEMOS)
    for where, source in sources.items():
        names = _imported_from_package(source)
        assert names, where
        assert names <= set(padic_fixvec.__all__), (where, names)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


# What a padic-fixvec process must not import: dataclasses pulls in
# inspect, ast, dis and tokenize; fractions pulls in decimal. Only depth,
# verify and a budget in e-notation load fractions or decimal, when they run.
HEAVY_MODULES = {"dataclasses", "inspect", "fractions", "decimal"}
CLOSURE = ("import sys; before = set(sys.modules); import padic_fixvec.cli;"
           " print(*sorted(set(sys.modules) - before))")


def test_cli_import_closure_is_light():
    result = subprocess.run([sys.executable, "-c", CLOSURE],
                            capture_output=True, text=True, timeout=60,
                            check=True)
    added = set(result.stdout.split())
    assert "padic_fixvec.cli" in added
    assert added & HEAVY_MODULES == set()


def test_verify_import_closure_has_no_dataclasses():
    # Its reports are a NamedTuple and a plain class.
    code = CLOSURE.replace("padic_fixvec.cli", "padic_fixvec.verify")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=60,
                            check=True)
    added = set(result.stdout.split())
    assert "padic_fixvec.verify" in added
    assert added & {"dataclasses", "inspect", "ast", "dis"} == set()


def _bench_constant(script: str, name: str):
    """A literal constant of a bench script, read without importing bench/."""
    tree = ast.parse((ROOT / "bench" / script).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{script} defines no {name}")


def test_bench_names_resolve():
    # bench/spans.py wraps each ORACLES entry when it installs its tracer
    # and fails on a missing one; bench/run.py counts L3_FUNCTIONS calls.
    names = {f"{module}.{attr}"
             for module, attr, *_ in _bench_constant("spans.py", "ORACLES")}
    names |= set(_bench_constant("run.py", "L3_FUNCTIONS"))
    missing = set()
    for name in names:
        module, attr = name.split(".")
        if not hasattr(importlib.import_module(f"padic_fixvec.{module}"), attr):
            missing.add(name)
    assert missing == KNOWN_MISSING_BENCH_NAMES


# Each oracle, and the closed forms it must never reach, by module.function.
ORACLE_FORBIDDEN = {
    "characters.enumerate_unit_dual": {"characters.num_classes_exact"},
    "cosets.parabolic_index_enumerated": {
        "cosets.parabolic_index_closed", "finite_ring.gl_order",
        "finite_ring.parabolic_order"},
    "finite_ring._enumerate_gl_rows": {"finite_ring.gl_order"},
    "finite_ring._enumerate_parabolic_rows": {
        "finite_ring.parabolic_order", "finite_ring.gl_order"},
    # The helpers that the verify counts call instead of the streams.
    **dict.fromkeys(
        ("finite_ring._gl_last_rows", "finite_ring._parabolic_row_groups"),
        {"finite_ring.gl_order", "finite_ring.parabolic_order",
         "cosets.parabolic_index_closed"}),
}


def _code_names(code: types.CodeType) -> set[str]:
    """The names a code object loads, with those of the code nested in its
    constants: comprehensions, generator expressions and lambdas live
    there before Python 3.12, which inlines comprehensions."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _qualified(function) -> str:
    return f"{function.__module__.rpartition('.')[2]}.{function.__name__}"


def _reachable(function) -> set[str]:
    """Every package function that function can reach by name: a name it
    loads resolves in its module's globals, or as an attribute of a
    package module or class found there, and is followed in turn."""
    seen, todo = set(), [function]
    while todo:
        function = todo.pop()
        if _qualified(function) in seen:
            continue
        seen.add(_qualified(function))
        names = _code_names(function.__code__)
        scopes = [function.__globals__]
        for name in names:
            value = function.__globals__.get(name)
            if isinstance(value, (types.ModuleType, type)) and (
                    getattr(value, "__module__", value.__name__)
                    .startswith("padic_fixvec")):
                scopes.append(vars(value))
        for scope in scopes:
            for name in names:
                value = scope.get(name)
                if isinstance(value, types.FunctionType) and (
                        value.__module__.startswith("padic_fixvec")):
                    todo.append(value)
    return seen


@pytest.mark.parametrize("oracle", sorted(ORACLE_FORBIDDEN))
def test_no_oracle_calls_the_closed_form_it_checks(oracle):
    module, attr = oracle.split(".")
    reached = _reachable(getattr(
        importlib.import_module(f"padic_fixvec.{module}"), attr))
    # The walk follows the oracle's own helpers, so it does see calls.
    assert "budget.require" in reached
    assert reached & ORACLE_FORBIDDEN[oracle] == set()
