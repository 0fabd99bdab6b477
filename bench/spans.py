"""In-memory spans and counters around the library's layer functions.

The wrappers live here, in the benchmark, and are installed by rebinding
module attributes: every padic_fixvec module that holds the original
function object under some name gets the wrapper instead, so calls made
through `from .finite_ring import mat_mul` in another module are caught too.

A span is (name, parent, op, start, end): start and end in CLOCK_MONOTONIC
nanoseconds, parent the enclosing span or -1, op the operation (one CLI
call or one verify pass) it belongs to. A generator is timed only while it
runs inside next(): it gets one span per call, whose end is its start plus
the time spent inside next(), so the span has the right length but not the
right place; the spans of work done inside next() are its children.
"""

import inspect
import sys
import time
from array import array
from collections import Counter

now_ns = time.monotonic_ns

PACKAGE = "padic_fixvec"

# The closed forms (ROADMAP L3): every public function of these modules,
# found when the wrappers are installed, plus the names below.
L3_MODULES = ("gl2_dims", "representations", "global_bounds")
L3_NAMES = ("characters.num_classes_", "cosets.parabolic_index_closed",
            "finite_ring.is_prime")

# (module, attribute, kind, result measure, layer) of the oracle layers.
# kind "span" times each call, "gen" times each next() of the returned
# generator, "count" only counts (L0, too hot to time).
ORACLES = [
    ("cosets", "parabolic_index_enumerated", "span", "cosets", "L2"),
    ("finite_ring", "enumerate_gl", "gen", None, "L1"),
    ("finite_ring", "_enumerate_gl_rows", "gen", None, "L1"),
    ("finite_ring", "_enumerate_parabolic_rows", "gen", None, "L1"),
    ("characters", "enumerate_unit_dual", "span", "characters", "L1"),
    ("finite_ring", "det_int", "count", None, "L0"),
    ("finite_ring", "mat_mul", "count", None, "L0"),
]

# Layer of each span name that is not an L3 function. The launcher opens
# the L5 spans; install() puts an L4 span around each verify suite.
LAYERS = {"cli.import": "L5", "cli.import_sympy": "L5", "cli.main": "L5",
          **{f"{module}.{attr}": layer
             for module, attr, _, _, layer in ORACLES}}


def layer_of(name: str) -> str:
    if name in LAYERS:
        return LAYERS[name]
    if name.startswith("verify."):
        return "L4"
    return "L3"


def traced_functions() -> list:
    """(module, attribute, kind, result measure) of every function to wrap:
    the oracles and every L3 function of the imported package."""
    out = [entry[:4] for entry in ORACLES]
    for module_name in ("characters", "cosets", "finite_ring", *L3_MODULES):
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        for attr, value in vars(module).items():
            name = f"{module_name}.{attr}"
            if not (inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                continue
            public_l3 = module_name in L3_MODULES and not attr.startswith("_")
            if public_l3 or name.startswith(L3_NAMES):
                out.append((module_name, attr, "span", None))
    return out


# Fields of one span in Tracer.buf; a span is addressed by the offset of
# its first field, and its parent field holds the parent's offset or -1.
NAME, PARENT, OP, START, END = range(5)
WIDTH = 5


class Tracer:
    """Spans and counters of one process, all of operation op.

    Spans are kept in one flat array, WIDTH integers each: a traced verify
    pass makes about 600,000 of them.
    """

    def __init__(self, op: int = 0):
        self.names: list[str] = []
        self.op = op
        self.buf = array("q")
        self.stack: list[int] = []
        # counts[(name, what)]: what is "calls", "yielded", "raised:<type>"
        # or a result measure; for counted-only functions it is the name id
        # of the innermost open span (-1 for none) at the call.
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def enter(self, nid: int) -> int:
        offset = len(self.buf)
        self.buf.extend((nid, self.stack[-1] if self.stack else -1, self.op,
                         now_ns(), 0))
        self.stack.append(offset)
        return offset

    def exit(self, offset: int) -> None:
        self.buf[offset + END] = now_ns()
        self.stack.pop()

    def close_open(self) -> None:
        """End every open span now. A signal handler calls this, between
        any two bytecodes of enter() or exit()."""
        buf, t = self.buf, now_ns()
        for offset in range(0, len(buf), WIDTH):
            if buf[offset + END] == 0:
                buf[offset + END] = t
        self.stack.clear()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- wrappers -----------------------------------------------------

    def wrap(self, fn, name: str, kind: str, measure):
        # The wrappers inline enter() and exit(): a verify pass runs them
        # over a million times, and every attribute lookup shows.
        buf, stack, counts = self.buf, self.stack, self.counts
        nid = self.name_id(name)
        calls = (name, "calls")
        if kind == "count":
            def counted(*args, **kwargs):
                counts[name, buf[stack[-1]] if stack else -1] += 1
                return fn(*args, **kwargs)
            return counted

        tracer = self
        if kind == "gen":
            yielded = (name, "yielded")

            def timed_gen(*args, **kwargs):
                counts[calls] += 1
                inner = fn(*args, **kwargs)
                offset = len(buf)
                start = now_ns()
                buf.extend((nid, stack[-1] if stack else -1, tracer.op,
                            start, start))
                busy = 0
                try:
                    while True:
                        stack.append(offset)
                        t = now_ns()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            busy += now_ns() - t
                            stack.pop()
                        counts[yielded] += 1
                        yield item
                finally:
                    buf[offset + END] = start + busy
            return timed_gen

        def timed(*args, **kwargs):
            counts[calls] += 1
            offset = len(buf)
            buf.extend((nid, stack[-1] if stack else -1, tracer.op,
                        now_ns(), 0))
            stack.append(offset)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[name, "raised:" + type(exc).__name__] += 1
                raise
            finally:
                buf[offset + END] = now_ns()
                stack.pop()
            if measure is not None:
                counts[name, measure] += (
                    result if isinstance(result, int) else len(result)
                )
            return result
        return timed

    def install(self) -> None:
        """Rebind every traced function in every module of the package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for module_name, attr, kind, measure in traced_functions():
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self.wrap(original, f"{module_name}.{attr}", kind,
                                measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        verify = sys.modules.get(f"{PACKAGE}.verify")
        if verify is not None:
            for suite, runner in list(verify.SUITES.items()):
                wrapped = self.wrap(runner, f"verify.{suite}", "span", None)
                verify.SUITES[suite] = wrapped
                setattr(verify, runner.__name__, wrapped)

    def export(self) -> dict:
        """Names, the span buffer and the counters. A count keyed by the
        innermost span's name id becomes "in:<name>", and adds to "calls"."""
        counts: Counter = Counter()
        for (name, what), count in self.counts.items():
            if isinstance(what, int):
                inner = self.names[what] if what >= 0 else ""
                counts[name, "in:" + inner] += count
                counts[name, "calls"] += count
            else:
                counts[name, what] += count
        return {
            "names": self.names,
            "spans": self.buf.tolist(),
            "counts": [[n, w, c] for (n, w), c in counts.items()],
        }


class _Span:
    __slots__ = ("tracer", "nid", "offset")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.offset = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.offset)
        return False


def summarize(exported: list[dict]) -> tuple[dict, dict, Counter]:
    """Reduce exported traces to per-name busy time, per-layer self time and
    summed counters.

    busy[name] sums the durations of the name's spans; no traced function
    calls itself, so no span nests in one of its own name. selfs[layer]
    sums each span's duration minus the part its child spans cover; the
    children of one span never overlap, since one thread opens and closes
    them in stack order.
    """
    busy: Counter = Counter()
    selfs: Counter = Counter()
    counts: Counter = Counter()
    for trace in exported:
        names, buf = trace["names"], trace["spans"]
        covered = [0] * (len(buf) // WIDTH)
        for offset in range(0, len(buf), WIDTH):
            parent = buf[offset + PARENT]
            if parent >= 0:
                covered[parent // WIDTH] += buf[offset + END] - buf[offset + START]
        for index, offset in enumerate(range(0, len(buf), WIDTH)):
            duration = buf[offset + END] - buf[offset + START]
            name = names[buf[offset + NAME]]
            busy[name] += duration
            selfs[layer_of(name)] += duration - covered[index]
        for name, what, count in trace["counts"]:
            counts[name, what] += count
    return ({k: v * 1e-9 for k, v in busy.items()},
            {k: v * 1e-9 for k, v in selfs.items()}, counts)
