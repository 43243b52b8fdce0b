"""In-memory span tracer that wraps the package's public functions at the
places they are imported.

Spans are only recorded from the benchmark: ``Tracer.wrap`` replaces a
module attribute with a timing wrapper and ``Tracer.uninstall`` puts the
original back, so the package itself is never edited.  Each span holds a
name, start, end, parent span and the id of the dataset it belongs to;
spans stay in memory until ``write`` dumps them at the end of a run.
"""

import contextlib
import functools
import json
from time import perf_counter

from stats import self_time


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent, dataset, attrs)
        self.counts = {}
        self.dataset = -1
        self.active = True
        self._stack = []
        self._patched = []

    def wrap(self, module, attr, name, note=None):
        """Time every call of ``module.attr`` as a span called ``name``.

        ``note(args, kwargs, result, exc)`` may return a dict stored with
        the span; exceptions are recorded and re-raised unchanged.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            result = exc = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                attrs = note(args, kwargs, result, exc) if note else None
                tracer.spans[sid] = (name, start, end, parent,
                                     tracer.dataset, attrs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def count(self, module, attr, name):
        """Count calls of ``module.attr`` without a span (hot inner calls)."""
        original = getattr(module, attr)
        tracer = self
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._patched.append((module, attr, original))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (sampling, untimed checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- reading the spans ---------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s is not None and s[0] == name]

    def busy(self, name):
        return sum(s[2] - s[1] for s in self.named(name))

    def self_busy(self, name):
        children = {}
        for sid, span in enumerate(self.spans):
            if span is not None and span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        return sum(self_time(span[1], span[2], children.get(sid, ()))
                   for sid, span in enumerate(self.spans)
                   if span is not None and span[0] == name)

    def write(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                name, start, end, parent, dataset, attrs = span
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "dataset": dataset,
                     "attrs": attrs}) + "\n")


def wrapper_cost_s(calls=20000):
    """Measured extra seconds one traced call costs over a bare call."""
    class Target:
        @staticmethod
        def noop():
            return None

    bare = perf_counter()
    for _ in range(calls):
        Target.noop()
    bare = perf_counter() - bare
    tracer = Tracer()
    tracer.wrap(Target, "noop", "noop")
    traced = perf_counter()
    for _ in range(calls):
        Target.noop()
    traced = perf_counter() - traced
    return max(traced - bare, 0.0) / calls
