"""Golden outputs of the five spec queries, byte for byte.

Every call in tests/data/cli_golden.json is replayed through cli.main and
must give the recorded exit code, stdout and stderr. The calls cover each
representation type under dim, has-fixed, min-level, conductor and depth,
in table and --json form, at levels 0, 1 and the least level with a fixed
vector, plus --emit-spec, a negative level and the unsupported queries.

To record the file again (only after a deliberate change of output):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

from padic_fixvec.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

# (field, rep, least level with a fixed vector)
REPS = [
    ({"p": 3}, {"type": "induced", "blocks": [
        {"n": 1, "conductor": 0}, {"n": 1, "conductor": 2}]}, 2),
    ({"p": 5}, {"type": "induced", "blocks": [
        {"n": 2, "conductor": 3}, {"n": 1, "conductor": 1}]}, 2),
    ({"p": 2, "f": 2}, {"type": "induced", "blocks": [
        {"n": 2, "conductor": 5}]}, 3),
    ({"p": 7}, {"type": "induced", "blocks": [
        {"n": 1, "conductor": 0}, {"n": 1, "conductor": 0},
        {"n": 1, "conductor": 0}]}, 0),
    ({"p": 3}, {"type": "induced", "blocks": [{"n": 1, "conductor": 2}]}, 2),
    ({"p": 3}, {"type": "principal-series", "c1": 0, "c2": 0}, 0),
    ({"p": 2, "f": 2}, {"type": "principal-series", "c1": 1, "c2": 2}, 2),
    ({"p": 3}, {"type": "steinberg-twist", "c_chi": 0}, 1),
    ({"p": 5}, {"type": "steinberg-twist", "c_chi": 2}, 2),
    ({"p": 3}, {"type": "supercuspidal", "minimal_conductor": 3}, 2),
    ({"p": 2, "f": 2}, {"type": "supercuspidal", "minimal_conductor": 4,
                        "twist_conductor": 3}, 3),
    ({"p": 5}, {"type": "supercuspidal", "minimal_conductor": 2}, 1),
]


def golden_calls() -> list[list[str]]:
    calls = []
    for field, rep, least in REPS:
        spec = json.dumps({"field": field, "rep": rep})
        calls.append(["min-level", spec, "--emit-spec"])
        for command in ("dim", "has-fixed"):
            for level in sorted({0, 1, least}) + [-1]:
                for form in ([], ["--json"]):
                    calls.append([command, spec, "--level", str(level), *form])
        for command in ("min-level", "conductor", "depth"):
            for form in ([], ["--json"]):
                calls.append([command, spec, *form])
    return calls


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_queries_match_golden_outputs():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == golden_calls()
    mismatches = [(entry, got) for entry in golden
                  if (got := run(entry["argv"])) != entry]
    assert not mismatches, (
        f"{len(mismatches)} of {len(golden)} calls differ; first:"
        f" {mismatches[0]}"
    )


if __name__ == "__main__":
    entries = [json.dumps(run(argv), ensure_ascii=False)
               for argv in golden_calls()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
