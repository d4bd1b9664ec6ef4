"""Spans recorded around calls into the program, from outside it.

`Tracer.install` replaces the public functions of the given modules, and
the public methods of their public classes, with wrappers that record a
span per call. Callers inside the program look those names up on the
module or class at call time, so nested calls are recorded too. Nothing
in the program's source changes; `uninstall` puts the originals back.
"""

import functools
import inspect
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    op: int             # op id; -1 for set-up
    size: int | None = None  # result length, where a span records one


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())]
        out.append((s.end - s.start) - covered([k for k in kids if k[1] > k[0]]))
    return out


class Tracer:
    """Records spans while `enabled`; `op` tags new spans with the current op id."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = -1
        self._stack = []
        self._installed = []

    def install(self, modules, suffix=None, sized=()):
        """Wrap every public function and public-class method of `modules`.

        `suffix` maps a span name to a function of the call's result that
        returns a suffix for the span name; `sized` names the spans whose
        result length is recorded.
        """
        suffix = suffix or {}
        for mod in modules:
            prefix = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap(mod, attr, f"{prefix}.{attr}", suffix, sized)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._wrap(obj, meth, f"{prefix}.{attr}.{meth}", suffix, sized)

    def _wrap(self, owner, attr, name, suffix, sized):
        fn = vars(owner)[attr]
        label = suffix.get(name)
        record_size = name in sized

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if label is not None:
                span.name = name + label(result)
            if record_size:
                span.size = len(result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()


def layer_totals(spans) -> dict:
    """{name: [calls, total_s, self_s]} over all spans."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += s.end - s.start
        t[2] += own
    return totals
