"""Span recorder: times calls into the program's public functions.

The recorder patches named functions and methods of the program with a
thin wrapper that records ``(name, start, end, parent)`` for each call
while tracing is enabled.  Spans stay in memory until the run ends,
when the caller summarizes them and writes them out.  A span's
*self* time is its duration minus the time its child spans (calls made
from inside it, on the same thread) cover.

Nothing in the program changes: the wrappers sit on module attributes
and class dictionaries, which is how the program's own code reaches
these functions at call time, and :meth:`Tracer.uninstall` restores the
originals.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (module, attribute path, span name): the layer boundaries traced in the
#: process that runs the engine.  Several entry points may share a span
#: name when they are one layer (e.g. the Score operator variants).
ENGINE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "parse_query", "parse"),
    ("repro.sketch.parser", "parse_sketch", "parse"),
    ("repro.engine.executor", "ShapeSearchEngine.compile", "compile"),
    ("repro.api", "PreparedSearch.run", "run"),
    ("repro.api", "PreparedSearch.submit", "run"),
    ("repro.engine.pipeline", "PhysicalPlan.run", "plan"),
    ("repro.engine.pipeline", "ScanTable.run", "scan_table"),
    ("repro.engine.pipeline", "ExtractGroup.run", "extract_group"),
    ("repro.engine.pipeline", "IndexPrune.run", "index_prune"),
    ("repro.engine.pipeline", "SequentialScore.run", "score"),
    ("repro.engine.pipeline", "ParallelScore.run", "score"),
    ("repro.engine.pipeline", "SharedMemoryScore.run", "score"),
    ("repro.engine.pipeline", "GenerateAndScore.run", "score"),
    ("repro.engine.pipeline", "MergeTopK.run", "merge_topk"),
    ("repro.engine.shape_index", "ShapeIndex.build", "shape_index.build"),
    ("repro.engine.shape_index", "ShapeIndex.extended", "shape_index.build"),
    ("repro.engine.artifacts", "save_index", "artifacts.save"),
    ("repro.engine.artifacts", "load_index", "artifacts.load"),
    ("repro.engine.shm", "publish_table", "shm.publish"),
    ("repro.engine.shm", "publish_table_delta", "shm.publish"),
    ("repro.engine.shm", "publish_trendlines", "shm.publish"),
    ("repro.engine.shm", "publish_query", "shm.publish"),
    ("repro.engine.shm", "publish_index", "shm.publish"),
    ("repro.data.table", "Table.append_rows", "table.append"),
    ("repro.engine.pipeline", "score_tail_groups", "tail.rescore"),
    ("repro.engine.parallel", "dispatch_tail_scores", "tail.rescore"),
    ("repro.engine.pipeline", "IncrementalMerge.merge", "incremental_merge"),
)

#: The serving layer's boundaries (traced in the server process only).
SERVING_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serving.tenancy", "AdmissionController.admit", "admission"),
    ("repro.serving.app", "result_payload", "protocol.encode"),
    ("repro.serving.app", "json_dumps", "protocol.encode"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        #: Time covered by child spans (same thread, so they never overlap).
        self.children_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration_s - self.children_s)


class Tracer:
    """In-memory span recorder over patched program entry points."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Spans are only recorded while True; the wrappers stay installed.
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------
    def install(self, points) -> None:
        for module_name, path, span_name in points:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, span_name)

    def _patch(self, owner, attr: str, span_name: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, span_name))
        else:
            wrapped = self._wrap(raw, span_name)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _wrap(self, function, span_name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            with tracer.span(span_name):
                return function(*args, **kwargs)

        # The program ships some of these functions to pool workers by
        # reference; with the original's module and qualified name the
        # wrapper pickles as that name, which the (untraced) workers
        # resolve to the original.
        traced.__wrapped__ = function
        traced.__module__ = function.__module__
        traced.__name__ = function.__name__
        traced.__qualname__ = function.__qualname__
        traced.__doc__ = function.__doc__
        return traced

    # -- recording ----------------------------------------------------------------
    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span (a no-op while disabled)."""
        return _SpanContext(self, name)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self) -> List[list]:
        """Every span as ``[name, start_s, end_s, parent index or -1]``."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        return [
            [span.name, span.start, span.end,
             index.get(id(span.parent), -1) if span.parent is not None else -1]
            for span in self.spans
        ]

    # -- summaries ---------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.duration_s
            entry["self_s"] += span.self_s
        return dict(out)


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        tracer = self.tracer
        if not tracer.enabled:
            return None
        stack = tracer._stack()
        self.span = Span(self.name, tracer.clock(), stack[-1] if stack else None)
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc_info) -> None:
        span = self.span
        if span is None:
            return
        span.end = self.tracer.clock()
        stack = self.tracer._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration_s
        self.tracer.spans.append(span)
