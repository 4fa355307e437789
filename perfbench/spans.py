"""In-memory spans and counts for the traced benchmark run.

A span is ``[name, parent, start, end, busy]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``busy`` the time the span was running.
``busy`` equals ``end - start`` except for a wrapped generator, which runs
in steps interleaved with its consumer and is busy only during those steps.
Self time is a span's busy time minus the busy time of its children.

Layer calls are traced by replacing module and class attributes of costlab
for the length of a traced run (``Tracer.patched``).  A call is seen only if
it looks the attribute up at call time: the benchmark's own calls do, and so
does ``generate.dual_inputs_scripted``, which imports ``dual_construct``
inside its body, so its construction passes land in ``dual.construct``.
Calls through names bound by ``from .x import y`` when costlab was imported
are not seen and stay in their caller's self time; README.md lists them.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one attribute lookup and a call."""

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: int = 1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


class Tracer:
    """Spans and counts of one traced run, written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        rec = self.spans[idx]
        rec[3] = end
        rec[4] = end - rec[2]

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_generator(self, fn, name: str):
        """Span over a generator that accumulates only the time of its steps."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            idx = len(self.spans)
            rec = [name, self._stack[-1] if self._stack else -1, None, 0.0, 0.0]
            self.spans.append(rec)
            try:
                while True:
                    self._stack.append(idx)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = time.perf_counter()
                        self._stack.pop()
                        if rec[2] is None:
                            rec[2] = t0
                        rec[3] = t1
                        rec[4] += t1 - t0
                    yield item
            finally:
                it.close()
                if rec[2] is None:
                    rec[2] = rec[3] = time.perf_counter()

        return traced

    @contextmanager
    def patched(self, table):
        """Replace each (owner, attribute) in ``table`` by a traced wrapper.

        ``table`` maps a span name to a list of (owner, attribute, kind)
        entries; kind is "call", or "cost" for a cost-function constructor
        whose returned evaluators are traced too.
        """
        saved = []
        try:
            for name, entries in table.items():
                for owner, attr, kind in entries:
                    orig = owner.__dict__[attr]
                    saved.append((owner, attr, orig))
                    wrapper = self._cost_ctor(orig, name) if kind == "cost" else self.wrap(orig, name)
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _cost_ctor(self, ctor, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                c = ctor(*args, **kwargs)
            finally:
                self._close(idx)
            # CostFn is frozen; the object is fresh, so rebinding its
            # evaluators in place changes no other caller's cost function
            object.__setattr__(c, "eval_fn", self.wrap(c.eval_fn, name))
            if c.bulk is not None:
                object.__setattr__(c, "bulk", self.wrap(c.bulk, name))
            if c.stage_scan is not None:
                object.__setattr__(c, "stage_scan", self.wrap_generator(c.stage_scan, name))
            return c

        return traced

    def self_times(self, upto: int | None = None) -> tuple[Counter[str], Counter[str]]:
        """(self seconds, span count) per span name over spans[:upto]."""
        spans = self.spans if upto is None else self.spans[:upto]
        child_busy = [0.0] * len(spans)
        for _name, parent, _s, _e, busy in spans:
            if parent >= 0:
                child_busy[parent] += busy
        selfs: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i, (name, _parent, _s, _e, busy) in enumerate(spans):
            selfs[name] += busy - child_busy[i]
            calls[name] += 1
        return selfs, calls

    def entries_into(self, layer: str, upto: int) -> int:
        """Spans of ``layer`` whose parent belongs to another layer."""
        spans = self.spans[:upto]
        n = 0
        for name, parent, *_ in spans:
            if name.split(".")[0] == layer and (
                parent < 0 or spans[parent][0].split(".")[0] != layer
            ):
                n += 1
        return n

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("index\tname\tparent\tstart\tend\tbusy\n")
            for i, (name, parent, start, end, busy) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{busy:.9f}\n")


def public_functions(module) -> list[str]:
    """Names of the public functions defined in ``module`` itself."""
    return sorted(
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    )
