"""Outside-in tracing: spans around the package's public functions.

The tracer replaces a function on the module attribute its caller looks
up (for example `laha.training.encode_document`, which `training.train`
calls, as well as `laha.data.encode_document`), so nothing in the package
changes.  Spans stay in memory; self time is a span's duration minus the
durations of its direct children, so the self times of every span plus
the root span's own remainder add up to the root's wall time.  Cyclic GC
pauses are timed through `gc.callbacks` and `numeric.Node` constructions
are counted by wrapping `Node.__init__`.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.gc_s = 0.0
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._entered = 0
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._entered, name, time.perf_counter(), 0.0])
        self._entered += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, name, start, end))
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             observe: Callable[[tuple, dict], None] | None = None) -> None:
        """Replace owner.attr by a span-recording wrapper, if it exists."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            self.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.exit()

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count_constructions(self, cls, name: str) -> None:
        original = cls.__dict__.get("__init__") if cls is not None else None
        if original is None:
            self.absent.append(name)
            return
        counts = self.counts

        def init(obj, *args, **kwargs):
            counts[name] += 1
            original(obj, *args, **kwargs)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1

    def install_gc_timer(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output --------------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        """Spans as JSON lines after one header line; times relative to the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(extra) + "\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_s": start - t0, "end_s": end - t0}) + "\n")
