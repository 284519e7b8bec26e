"""In-process spans around the package's public functions.

Nothing inside the program is changed on disk: for the length of one
traced call, `instrument` replaces every public function of the layer
modules with a timing wrapper under each name a caller looks it up by
(`tables` imports `invert` and friends by name, `ReciprocalPair` calls
`regular.is_reciprocal_pair`), wraps the constructors of `SexNumber` and
`FloatingSex`, and gives `cli` an `open` that counts bytes.  Spans are
aggregated per name in memory; a span's self time is its duration minus
the time its child spans cover, so the self times of all spans add up to
the duration of the root span, `cli.main`.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "tables", "translit", "regular", "core")


class Stat:
    __slots__ = ("s", "self_s", "calls", "count")

    def __init__(self) -> None:
        self.s = 0.0  # inclusive time
        self.self_s = 0.0  # time not covered by child spans
        self.calls = 0
        self.count = 0  # the span's own work count: chars, digits, findings


class Tracer:
    def __init__(self) -> None:
        self.stats: defaultdict[str, Stat] = defaultdict(Stat)
        self._stack = [[0.0]]  # the bottom frame collects the root spans' time
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def total_s(self) -> float:
        """Duration of all root spans."""
        return self._stack[0][0]

    def self_by_layer(self) -> dict[str, float]:
        busy = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            busy[name.split(".", 1)[0]] += stat.self_s
        return busy

    def wrap(self, name: str, fn, before=None, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                stat.count += before(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat.s += elapsed
                stat.self_s += elapsed - frame[0]
                stat.calls += 1
            if after is not None:
                stat.count += after(result)
            return result

        return span


def _nbytes(text) -> int:
    if isinstance(text, str) and not text.isascii():
        return len(text.encode("utf-8"))
    return len(text)


class _CountingFile:
    """A file handle that adds what passes through it to the tracer."""

    def __init__(self, handle, tracer: Tracer) -> None:
        self._handle = handle
        self._tracer = tracer

    def __enter__(self):
        self._handle.__enter__()
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)

    def read(self, *args):
        data = self._handle.read(*args)
        self._tracer.bytes_in += _nbytes(data)
        return data

    def write(self, data):
        self._tracer.bytes_out += _nbytes(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


# Work counts recorded at the span itself: (counted before the call from
# its arguments, counted after it from its result).
_COUNTS = {
    "translit.parse": (lambda args: len(args[0]), None),
    "translit.to_number": (lambda args: len(args[0].digits), None),
    "translit.format": (None, len),
    "tables.verify_table": (None, lambda report: len(report.bad())),
}


@contextmanager
def instrument(tracer: Tracer, package):
    """Route every lookup of a public layer function through the tracer."""
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") and inspect.isfunction(obj)
            if public and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, *_COUNTS.get(name, (None, None)))
    undo = []  # (target, attribute, original value, or None for a new attribute)
    try:
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    undo.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
        for cls in (modules["core"].SexNumber, modules["core"].FloatingSex):
            undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = tracer.wrap(f"core.{cls.__name__}", cls.__init__)

        def counting_open(*args, **kwargs):
            return _CountingFile(builtins.open(*args, **kwargs), tracer)

        undo.append((modules["cli"], "open", None))
        modules["cli"].open = counting_open
        yield
    finally:
        for target, attr, original in reversed(undo):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
