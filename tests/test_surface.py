"""The public surface: the package's exports and the demos that use them."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

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
