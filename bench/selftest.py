"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks the benchmark's own answer formulas against plain loops and fixed
literals, checks BENCHMARK.json against the benchmark contract, runs each
workload at minimal length untraced and twice traced with one seed, and
asserts that every metric BENCHMARK.json names is printed
with its unit and that every traced count repeats exactly. Finally it runs
the benchmark in a directory that holds only BENCHMARK.json and bench/ and
asserts that it fails there without printing a result. Takes some minutes.
"""

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import cases
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_formulas() -> None:
    for q, s, m in itertools.product(range(2, 10), range(2, 14), range(0, 16)):
        assert cases.supercuspidal_dim(q, s, m) == (
            cases.supercuspidal_dim_by_sum(q, s, m) if s <= 2 * m else 0
        ), (q, s, m)

    def gl_order(n, q, m):
        order = q ** (n * n * (m - 1))
        for i in range(n):
            order *= q**n - q**i
        return order

    for partition in ((1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2), (1, 3),
                      (2, 1, 1), (1, 1, 1, 1)):
        n = sum(partition)
        above = sum(a * b for i, a in enumerate(partition)
                    for b in partition[i + 1:])
        for q, m in itertools.product((2, 3, 4, 5, 7, 9), (1, 2, 3)):
            parabolic = q ** (m * above)
            for part in partition:
                parabolic *= gl_order(part, q, m)
            assert cases.parabolic_index(partition, q, m) * parabolic == (
                gl_order(n, q, m)), (partition, q, m)
    for q, m in itertools.product((2, 3, 4, 5, 7), range(1, 7)):
        assert cases.parabolic_index((1, 1), q, m) == q ** (m - 1) * (q + 1)
        assert cases.Rep("steinberg-twist", (0,)).dim(q, m) == (
            q**m + q ** (m - 1) - 1)
    payload, rows = cases._global_bounds_case(
        "literal", 2, [(2, 2), (3, 1)], True).answer()
    assert (payload["lower"], payload["upper"]) == (6, 144)
    assert rows["local windows"] == "p=2: [1, 4]; p=3: [1, 2]"
    assert [n for n in range(2, 200) if cases.is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert cases.is_prime(10**18 + 3) and not cases.is_prime(10**18 + 1)
    print("formulas: ok")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][0] == "python3"
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = set()
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[key]:
            assert NAME.fullmatch(entry["name"]), entry
            assert entry["name"] not in names, entry
            names.add(entry["name"])
            if key == "workloads":
                assert set(entry) == {"name", "why"}
                assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
                continue
            assert UNIT.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher"), entry
            if key == "end_to_end":
                assert set(entry) == {"name", "unit", "better", "bound"}
                assert 0 < entry["bound"] <= 0.25, entry
            else:
                assert set(entry) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    print("BENCHMARK.json: ok")


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(run, wanted: list) -> dict:
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, run.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        assert isinstance(result["metrics"][m["name"]]["value"], float), m
    return result


def check_workload(spec: dict, workload: str) -> None:
    result_of(run_bench(ROOT, workload, 0), spec["end_to_end"])
    first, second = (result_of(run_bench(ROOT, workload, 1), spec["per_layer"])
                     for _ in range(2))
    for m in spec["per_layer"]:
        if m["unit"] == "count":
            a = first["metrics"][m["name"]]["value"]
            b = second["metrics"][m["name"]]["value"]
            assert a == b, f"{workload}: {m['name']} {a} != {b}"
    print(f"{workload}: every metric printed with its unit; traced counts "
          "repeat")


def check_bare_directory() -> None:
    bare = ROOT / ".selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        run = run_bench(bare, WORKLOADS[0], 0)
        assert run.returncode != 0 and not run.stdout.strip().startswith("{")
        assert "correct" not in run.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: fails without a result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_formulas()
    check_spec(spec)
    for workload in WORKLOADS:
        check_workload(spec, workload)
    check_bare_directory()


if __name__ == "__main__":
    main()
