"""One padic-fixvec operation in a fresh process, traced or not.

    python3 bench/launcher.py cli [CLI ARGS...]
    python3 bench/launcher.py verify

`cli` imports padic_fixvec.cli under a span, rebinds the layer functions
to the wrappers in spans.py, runs cli.main(CLI ARGS) under a span and exits
with its code, as the padic-fixvec entry point does. With no CLI ARGS it
stops after the import. The benchmark runs it only traced; an untraced call
goes through the entry point itself.

`verify` runs one verify.run_all() at the default budget, as a user's
`verify` process does, and prints per suite whether it passed, the
instances it ran (summed from each passing check's "N instances") and the
instances it skipped, as one JSON object on stdout.

A process is traced when BENCH_TRACE_FD names a pipe: the spans, all of
operation BENCH_OP_ID, go there as JSON when the process ends, or when
SIGTERM stops it at the benchmark's timeout.
"""

import builtins
import json
import os
import re
import signal
import sys

from spans import Tracer

INSTANCES = re.compile(r"(\d+) instances")


def suite_stats(reports) -> dict:
    stats = {}
    for report in reports:
        instances = 0
        for check in report.checks:
            found = INSTANCES.fullmatch(check.detail) if check.ok else None
            instances += int(found.group(1)) if found else 0
        skipped = sum(1 for note in report.notes if "skipped" in note)
        stats[report.suite] = [report.passed, instances, skipped]
    return stats


def main() -> None:
    mode, argv = sys.argv[1], sys.argv[2:]
    trace_fd = os.environ.get("BENCH_TRACE_FD")
    tracer = Tracer(int(os.environ.get("BENCH_OP_ID", "0")))
    written = False

    def write_out() -> None:
        nonlocal written
        if written or trace_fd is None:
            return
        written = True
        tracer.close_open()
        with os.fdopen(int(trace_fd), "wb") as out:
            out.write(json.dumps(tracer.export()).encode())

    def on_term(signum, frame):
        write_out()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    real_import = builtins.__import__

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        if (level == 0 and name.partition(".")[0] == "sympy"
                and "sympy" not in sys.modules):
            with tracer.span("cli.import_sympy"):
                return real_import(name, globals, locals, fromlist, level)
        return real_import(name, globals, locals, fromlist, level)

    code = 0
    try:
        if mode == "verify":
            from padic_fixvec import verify
            if trace_fd is not None:
                tracer.install()
            print(json.dumps(suite_stats(verify.run_all())))
        else:
            builtins.__import__ = timed_import
            with tracer.span("cli.import"):
                from padic_fixvec import cli
            tracer.install()
            if argv:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        write_out()
    sys.exit(code)


if __name__ == "__main__":
    main()
