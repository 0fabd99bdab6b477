"""Benchmark of padic-fixvec: the CLI process and the verify suites.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from src/ next to this directory.
Workloads (closed loops, one client, one process at a time):

  cli-deep     sequential padic-fixvec processes with inputs at scale, past
               the digit limit, past the seed program's patience, and
               malformed
  verify-all   verify.run_all() at the default budget, one fresh process
               per pass

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The lines before it
say how each number was taken. BENCHMARK.json names the metrics and units;
bench/README.md says what each layer metric should move.
"""

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import cases
import proc
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TIMEOUT_S = 2.5        # per CLI call; a timed-out call counts as failed
TERM_GRACE_S = 0.5     # traced calls get SIGTERM first to write out spans
SETUP_SPAWNS = 8       # fresh interpreters per set-up measurement
OVERHEAD_PAIRS = 6     # traced calls re-run untraced for the overhead ratio
MIN_VERIFY_PASSES = 3  # a median that one slow pass cannot move
VERIFY_TIMEOUT_S = 120  # a pass takes 7-11 s; this only stops a hang
ENTRY = "import sys; from padic_fixvec.cli import main; sys.exit(main())"
SUITES = ("cosets", "characters", "supercuspidal", "windows")


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def child_env() -> dict:
    """The whole environment of every child: no PADIC_FIXVEC_BUDGET, no
    user site-packages, a fixed hash seed and locale."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
    }


def run_child(argv, timeout=TIMEOUT_S, traced=False, op=0):
    env = {**child_env(), "BENCH_OP_ID": str(op)} if traced else child_env()
    return proc.run(argv, env, str(ROOT), timeout,
                    term_grace_s=TERM_GRACE_S if traced else 0.0,
                    extra_pipe=traced)


def cli_argv(args) -> list:
    return [sys.executable, "-c", ENTRY, *args]


def launcher_argv(args) -> list:
    return [sys.executable, str(BENCH / "launcher.py"), *args]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters with warm .pyc files.

def measure_setup(trace: bool) -> tuple[dict, dict]:
    """setup_s is the median time from spawning an interpreter to it having
    imported padic_fixvec.cli. Traced, also the bare interpreter and the
    import split into sympy and the rest, from the launcher's spans."""
    walls = []
    for _ in range(SETUP_SPAWNS):
        result = run_child([sys.executable, "-c", "import padic_fixvec.cli"],
                           timeout=60)
        if result.returncode != 0:
            raise SystemExit(f"importing padic_fixvec.cli failed:\n"
                             f"{result.stderr}")
        walls.append(result.wall_s)
    walls.pop(0)  # the first may write the .pyc files
    say(f"setup_s: median of {len(walls)} fresh interpreters importing "
        f"padic_fixvec.cli: {sorted(walls)}")
    layer = {}
    if trace:
        floor = [run_child([sys.executable, "-c", "pass"], timeout=60).wall_s
                 for _ in range(SETUP_SPAWNS)]
        imports, sympy_imports = [], []
        for _ in range(SETUP_SPAWNS):
            result = run_child(launcher_argv(["cli"]), timeout=60, traced=True)
            busy, _, _ = spans.summarize([json.loads(result.extra)])
            imports.append(busy.get("cli.import", 0.0))
            sympy_imports.append(busy.get("cli.import_sympy", 0.0))
        layer = {"cli.interpreter_s": median(floor),
                 "cli.import_s": median(imports),
                 "cli.import_sympy_s": median(sympy_imports)}
    return {"setup_s": median(walls)}, layer


# ---------------------------------------------------------------------------
# Per-layer metrics from one operation group (a CLI batch or a verify pass).

SPAN_LAYERS = ("L5", "L4", "L3", "L2", "L1")  # L0 is counted, not timed
L3_FUNCTIONS = (
    "gl2_dims.dim_supercuspidal_minimal", "gl2_dims.dim_supercuspidal_lattice",
    "gl2_dims.kirillov_basis_count", "gl2_dims.kirillov_basis",
    "cosets.parabolic_index_closed", "global_bounds.factorize",
    "finite_ring.is_prime",
)


def layer_values(busy: dict, selfs: dict, counts: Counter) -> dict:
    """Layer metrics L0-L3 and the per-layer self times from summarized
    spans and counters."""
    out = {}
    for name in L3_FUNCTIONS:
        out[f"{name}.calls"] = counts[name, "calls"]
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    pie = "cosets.parabolic_index_enumerated"
    skips = counts[pie, "raised:BudgetExceededError"]
    answered = counts[pie, "calls"] - sum(
        c for (n, w), c in counts.items() if n == pie and w.startswith("raised:"))
    out[f"{pie}.calls"] = counts[pie, "calls"]
    out[f"{pie}.busy_s"] = busy.get(pie, 0.0)
    out[f"{pie}.busy_s_per_instance"] = ratio(busy.get(pie, 0.0), answered)
    out["cosets.budget_skips"] = skips
    out["cosets.products_per_coset"] = ratio(
        counts["finite_ring.mat_mul", f"in:{pie}"], counts[pie, "cosets"])
    rows = "finite_ring._enumerate_gl_rows"
    candidates = counts["finite_ring.det_int", f"in:{rows}"]
    out["finite_ring.enumerate_gl.busy_s"] = busy.get(
        "finite_ring.enumerate_gl", 0.0)
    out["finite_ring.enumerate_gl.yielded"] = counts[
        "finite_ring.enumerate_gl", "yielded"]
    out["finite_ring.gl_candidates"] = candidates
    out["finite_ring.gl_candidates_per_s"] = ratio(candidates,
                                                   busy.get(rows, 0.0))
    out["finite_ring.gl_hit_ratio"] = ratio(counts[rows, "yielded"],
                                            candidates)
    parabolic = "finite_ring._enumerate_parabolic_rows"
    out["finite_ring.enumerate_parabolic.rows"] = counts[parabolic, "yielded"]
    out["finite_ring.enumerate_parabolic.busy_s"] = busy.get(parabolic, 0.0)
    dual = "characters.enumerate_unit_dual"
    out[f"{dual}.busy_s"] = busy.get(dual, 0.0)
    out[f"{dual}.characters"] = counts[dual, "characters"]
    out["finite_ring.det_int.calls"] = counts["finite_ring.det_int", "calls"]
    out["finite_ring.mat_mul.calls"] = counts["finite_ring.mat_mul", "calls"]
    for layer in SPAN_LAYERS:
        out[f"layer.{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def say_shares(what: str, wall: float, values: dict) -> None:
    """Print where the wall time of an operation group went, by layer."""
    parts = [f"layer.{layer}.self_s" for layer in SPAN_LAYERS]
    inside = sum(values[name] for name in parts)
    parts.append("cli.main.busy_s")
    say(f"shares of a {what}, {wall:.3f} s wall: " + ", ".join(
        f"{name} {values[name]:.3f} s ({ratio(values[name], wall):.0%})"
        for name in parts) + f"; outside every span (interpreter start "
        f"and exit) {wall - inside:.3f} s ({ratio(wall - inside, wall):.0%})")


def median_of_groups(groups: list[dict]) -> dict:
    return {key: median([g[key] for g in groups]) for key in groups[0]}


def zero_verify_values() -> dict:
    out = {"verify.run_ratio": 0.0}
    for suite in SUITES:
        for what in ("busy_s", "instances", "skipped"):
            out[f"verify.{suite}.{what}"] = 0
    return out


# ---------------------------------------------------------------------------
# cli-deep.

def run_cli(seed: int, seconds: float, trace: bool):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # to read and compare long answers
    batch = cases.deep_batch(random.Random(f"cli-deep:{seed}"))
    size = len(batch)
    for case in cases.warmup_cases():
        result = run_child(cli_argv(case.argv), timeout=60)
        if cases.classify(case, result) != "ok":
            raise SystemExit(f"warm-up call {case.argv} failed:\n"
                             f"{result.stderr}")
    e2e, layer_setup = measure_setup(trace)

    outcomes: Counter = Counter()
    by_category: dict = {}
    walls, rss, groups, pairs, batch_walls = [], [], [], [], []
    lost_traces = 0
    start = time.monotonic()
    while True:
        batch_outcomes: Counter = Counter()
        exported = []
        for case in batch:
            argv = (launcher_argv(["cli", *case.argv]) if trace
                     else cli_argv(case.argv))
            result = run_child(argv, traced=trace, op=len(walls))
            outcome = cases.classify(case, result)
            outcomes[outcome] += 1
            batch_outcomes[outcome] += 1
            by_category.setdefault(case.category, Counter())[outcome] += 1
            walls.append(result.wall_s)
            if not result.timed_out:
                rss.append(result.maxrss_mb)
            if trace:
                try:
                    exported.append(json.loads(result.extra))
                except ValueError:
                    lost_traces += 1
                if (len(pairs) < OVERHEAD_PAIRS and not result.timed_out
                        and not groups):
                    plain = run_child(cli_argv(case.argv))
                    pairs.append(result.wall_s / plain.wall_s)
        if trace:
            busy, selfs, counts = spans.summarize(exported)
            values = layer_values(busy, selfs, counts)
            values["cli.main.busy_s"] = busy.get("cli.main", 0.0)
            values["cli.rejected"] = batch_outcomes["rejected"]
            values["cli.timeouts"] = batch_outcomes["timeout"]
            values["cli.internal_errors"] = batch_outcomes["internal_error"]
            groups.append(values)
            batch_walls.append(sum(walls[-size:]))
        else:
            groups.append({})
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(groups) > seconds:
            break

    attempted = len(walls)
    failed = sum(outcomes[o] for o in cases.FAILED)
    say(f"{attempted} calls: {len(groups)} x a batch of {size}, each call "
        f"under a {TIMEOUT_S} s timeout")
    say("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    for category in sorted(by_category):
        say(f"  {category}: " + ", ".join(
            f"{k} {v}" for k, v in sorted(by_category[category].items())))
    say(f"failed_ratio = {failed}/{attempted} = {ratio(failed, attempted)} "
        f"(failed = wrong, refused, timeout or internal_error)")
    correct = outcomes["wrong"] == 0
    if trace:
        metrics = {**layer_setup, **median_of_groups(groups),
                   **zero_verify_values(),
                   "trace.overhead_ratio": median(pairs)}
        say(f"per-layer values: median over {len(groups)} batches; "
            f"trace.overhead_ratio: median traced/untraced wall time of "
            f"{len(pairs)} calls; {lost_traces} traces lost to SIGKILL")
        say_shares("batch of traced calls", median(batch_walls), metrics)
        return correct, attempted, failed, metrics

    walls_sorted = sorted(walls)
    tail_q = (size - 10) / size
    tail_index = max(math.ceil(tail_q * attempted) - 1, 0)
    metrics = {
        **e2e,
        "op_p50_s": median(walls),
        "op_tail_s": walls_sorted[tail_index],
        "ok_ratio": ratio(attempted - failed, attempted),
        "peak_rss_mb": max(rss, default=0.0),
    }
    say(f"op_p50_s is cli_p50_s: median spawn-to-exit wall time of "
        f"{attempted} padic-fixvec processes (a timeout counts in full)")
    say(f"op_tail_s is cli_tail_s: p{100 * tail_q:.1f} of the same "
        f"{attempted} samples, {attempted - tail_index - 1} beyond it")
    say(f"peak_rss_mb: largest peak RSS of the {len(rss)} processes that "
        f"exited on their own (median {median(rss)}); a process killed at "
        "the timeout holds whatever it had reached")
    return correct, attempted, failed, metrics


# ---------------------------------------------------------------------------
# verify-all.

def verify_pass(traced: bool, op: int):
    """One verify.run_all() in a fresh process: (wall seconds, peak RSS MiB,
    {suite: (passed, instances, skipped)}, exported spans or None)."""
    result = run_child(launcher_argv(["verify"]), timeout=VERIFY_TIMEOUT_S,
                       traced=traced, op=op)
    if result.returncode != 0 or result.timed_out:
        raise SystemExit(f"verify pass failed (exit {result.returncode}):\n"
                         f"{result.stderr}")
    stats = {suite: tuple(v) for suite, v in
             json.loads(result.stdout.strip().splitlines()[-1]).items()}
    exported = json.loads(result.extra) if traced else None
    return result.wall_s, result.maxrss_mb, stats, exported


def run_verify(seed: int, seconds: float, trace: bool):
    e2e, layer_setup = measure_setup(trace)
    walls, rss, stats, traced_walls, groups = [], [], [], [], []
    start = time.monotonic()
    while True:
        traced = trace and bool(walls)  # one untraced pass first
        wall, peak, suites, exported = verify_pass(traced, len(stats))
        stats.append(suites)
        if traced:
            traced_walls.append(wall)
            busy, selfs, counts = spans.summarize([exported])
            values = layer_values(busy, selfs, counts)
            values.update({"cli.main.busy_s": 0.0, "cli.rejected": 0,
                           "cli.timeouts": 0, "cli.internal_errors": 0})
            total_instances = total_skipped = 0
            for suite in SUITES:
                _, instances, skipped = suites[suite]
                values[f"verify.{suite}.busy_s"] = busy.get(f"verify.{suite}",
                                                            0.0)
                values[f"verify.{suite}.instances"] = instances
                values[f"verify.{suite}.skipped"] = skipped
                total_instances += instances
                total_skipped += skipped
            values["verify.run_ratio"] = ratio(
                total_instances, total_instances + total_skipped)
            groups.append(values)
        else:
            walls.append(wall)
            rss.append(peak)
        elapsed = time.monotonic() - start
        enough = (len(traced_walls) >= 1 if trace
                  else len(walls) >= MIN_VERIFY_PASSES)
        if enough and elapsed + elapsed / len(stats) > seconds:
            break

    passes = len(stats)
    failed = sum(1 for s in stats
                 if s != stats[0] or not all(p for p, _, _ in s.values()))
    repeat = all(s == stats[0] for s in stats)
    correct = failed == 0
    instances = sum(i for _, i, _ in stats[0].values())
    say(f"{passes} passes of verify.run_all(), each in a fresh process "
        f"(budget: default, PADIC_FIXVEC_BUDGET cleared); instance counts "
        f"{'repeat exactly' if repeat else 'DIFFER between passes'}")
    for suite in SUITES:
        passed, n, skipped = stats[0][suite]
        say(f"  {suite}: {'passed' if passed else 'FAILED'}, {n} instances, "
            f"{skipped} skipped")
    say(f"verify_instances = {instances} per pass")
    say(f"failed_ratio = {failed}/{passes} = {ratio(failed, passes)} "
        "(a pass fails when a suite fails or the counts change)")
    if trace:
        metrics = {**layer_setup, **median_of_groups(groups),
                   "trace.overhead_ratio": ratio(median(traced_walls),
                                                 median(walls))}
        say(f"per-layer values: median over {len(groups)} traced passes; "
            f"trace.overhead_ratio: {median(traced_walls)} s traced over "
            f"{median(walls)} s untraced")
        say_shares("traced pass", median(traced_walls), metrics)
        return correct, passes, failed, metrics
    metrics = {
        **e2e,
        "op_p50_s": median(walls),
        "op_tail_s": upper_quartile(walls),
        "ok_ratio": ratio(passes - failed, passes),
        "peak_rss_mb": max(rss),
    }
    say(f"op_p50_s is verify_wall_s: median of {len(walls)} passes, spawn "
        f"to exit: {walls} s")
    say(f"op_tail_s: upper quartile of the same {len(walls)} passes (fewer "
        "than 11, so no percentile has ten beyond it)")
    say(f"peak_rss_mb: largest peak RSS of the {len(rss)} pass processes")
    return correct, passes, failed, metrics


# ---------------------------------------------------------------------------

WORKLOADS = ("cli-deep", "verify-all")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "padic_fixvec" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no padic_fixvec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    say(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
        f"trace {args.trace}")
    say(f"python {platform.python_version()}, sympy {metadata.version('sympy')}, "
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
        f"cpu {cpu_model()}")
    if args.workload == "verify-all":
        result = run_verify(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_cli(args.seed, args.seconds, bool(args.trace))
    correct, attempted, failed, values = result
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
