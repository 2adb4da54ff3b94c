"""An in-memory span recorder that times calls into ``udcdma`` from outside.

``SpanRecorder.wrap`` rebinds a public function (or a method on its class)
in every ``udcdma`` module that holds it, so calls made through any of those
names are recorded; ``restore`` puts the originals back.  A span is
``[name, start, end, parent, words, comparisons]``, with ``parent`` the index
of the enclosing span or -1.  The layer of a span is its name up to the first
dot, i.e. the ``udcdma`` module the function lives in.
"""
from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, WORDS, COMPS = range(6)


class SpanRecorder:
    """Spans kept in memory, plus the module attributes rebound to record them."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, words=None, comps=None) -> None:
        """Record every call of ``owner.attr`` as a span called ``name``.

        ``words(args, result)`` and ``comps(result)`` give the span's word
        and comparison counts.  For a module-level function, every loaded
        ``udcdma`` module that imported the same object is rebound too.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if words is not None:
                span[WORDS] = words(args, result)
            if comps is not None:
                span[COMPS] = comps(result)
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for key, m in sorted(sys.modules.items())
                        if key.startswith("udcdma.") and m is not owner
                        and getattr(m, attr, None) is original]
        for holder in holders:
            self._patches.append((holder, attr, original))
            setattr(holder, attr, traced)

    def restore(self) -> None:
        """Put back every original, in the reverse order of wrapping."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times in seconds since the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent,words,comparisons\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},"
                        f"{s[PARENT]},{s[WORDS]},{s[COMPS]}\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out
