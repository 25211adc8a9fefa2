"""Span tracing of the real CLI, for the per-layer metrics.

Inside ``with instrument(tracer):`` every function that one module of the
package imports from another (``cli`` calls ``audio.read_wav``, ``metrics``
calls ``segmentation.segment``, ...) runs in a span named
``<module>.<function>`` after the module that defines it. The CLI's file
helpers run in ``cli.file_io`` spans, and building the parser and parsing
the arguments in ``cli.parse_args`` spans. The caller puts each
``cli.main`` call in a ``cli.<command>`` span and one clip's whole job in
an ``op`` span. So the spans time the program itself, and a call that one
layer makes into another (``metrics.compare`` into the codec and the
segmenter) is a child of the caller's span. The wrappers are removed when
the block ends, so untraced jobs run the program untouched.

Spans hold a name, an id, the parent's id, the op they belong to, and
start and end times. They stay in memory and are written out once, when
the run ends. A span's self time is its duration minus the durations of
its children.
"""

import contextlib
import functools
import json
import sys
import types
from time import perf_counter

# The CLI's private read and temp-file-and-replace write helpers.
FILE_IO = ("_read_bytes", "_read_text", "_write_atomic")


class Tracer:
    """In-memory span recorder; spans nest by the order they are entered."""

    def __init__(self):
        self.spans = []  # [name, id, parent, op, start, end]
        self._stack = []
        self.op = -1

    def span(self, name: str):
        return _Span(self, name)

    def begin_op(self):
        self.op += 1
        return self.span("op")

    def self_ms(self, op: int) -> dict[str, float]:
        """Per span name: total self time in ms of the spans of one op."""
        spans = [s for s in self.spans if s[3] == op]
        child = {}
        for s in spans:
            if s[2] is not None:
                child[s[2]] = child.get(s[2], 0.0) + (s[5] - s[4])
        totals = {}
        for name, sid, _parent, _op, start, end in spans:
            totals[name] = totals.get(name, 0.0) + (end - start - child.get(sid, 0.0)) * 1e3
        return totals

    def op_ms(self, op: int) -> float:
        start, end = next((s[4], s[5]) for s in self.spans if s[3] == op and s[0] == "op")
        return (end - start) * 1e3

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, sid, parent, op, start, end in self.spans:
                handle.write(json.dumps({"name": name, "id": sid, "parent": parent, "op": op,
                                         "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        stack = tracer._stack
        self.tracer = tracer
        self.record = [name, len(tracer.spans), stack[-1] if stack else None, tracer.op, 0.0, 0.0]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record[1])
        self.record[4] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[5] = perf_counter()
        self.tracer._stack.pop()
        return False


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _traced_build_parser(tracer: Tracer, build_parser):
    def traced():
        with tracer.span("cli.parse_args"):
            parser = build_parser()
        parser.parse_args = _traced(tracer, "cli.parse_args", parser.parse_args)
        return parser
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, package: str = "voicesms"):
    """Wrap the package's cross-module calls in spans for the block's duration."""
    prefix = package + "."
    modules = {name: module for name, module in sys.modules.items() if name.startswith(prefix)}
    patches = []
    for name, module in modules.items():
        for attr, value in vars(module).items():
            home = getattr(value, "__module__", "")
            if isinstance(value, types.FunctionType) and home.startswith(prefix) and home != name:
                span = f"{home[len(prefix):]}.{value.__name__}"
                patches.append((module, attr, _traced(tracer, span, value)))
    cli = modules[prefix + "cli"]
    missing = [attr for attr in FILE_IO if not hasattr(cli, attr)]
    if missing:
        print(f"tracing: cli has no {missing}; their time counts as cli glue", file=sys.stderr)
    patches += [(cli, attr, _traced(tracer, "cli.file_io", getattr(cli, attr)))
                for attr in FILE_IO if attr not in missing]
    patches.append((cli, "build_parser", _traced_build_parser(tracer, cli.build_parser)))
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
