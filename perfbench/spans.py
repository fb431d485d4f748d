"""In-memory spans around the calls the benchmark makes into each layer.

A traced run records one span per call: name, start, end, parent span and
operation id.  Spans nest per thread; a span opened with no parent starts a
new operation.  Calls the program makes internally (``plan_round`` inside
``run``, ``compile_plan_program`` inside the planner, ``ServeAPI`` methods
inside the HTTP handler) are wrapped for the traced run only by
:func:`instrument`, which puts the original attributes back when done.
Untraced runs use :data:`NULL_TRACER`, whose ``span`` is a shared no-op
context manager.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span id, name, start, end, parent span id, operation id)
Span = Tuple[int, str, float, float, Optional[int], int]


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        if stack:
            parent, op = stack[-1]
        else:
            parent, op = None, span_id
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent, op))

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name: str) -> List[float]:
        """Each ``name`` span's duration minus the time its children cover."""
        covered: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            end - start - covered[span_id]
            for span_id, n, start, end, _, _ in self.spans
            if n == name
        ]

    def mean(self, name: str, self_time: bool = False) -> float:
        values = self.self_times(name) if self_time else self.durations(name)
        if not values:
            raise ValueError(f"no {name!r} spans were recorded")
        return statistics.fmean(values)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in sorted(self.spans, key=lambda s: s[2]):
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


class _NullTracer:
    enabled = False
    _null = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._null


NULL_TRACER = _NullTracer()


@contextmanager
def instrument(tracer: Tracer, targets: List[Tuple[object, str, str]]) -> Iterator[None]:
    """Wrap ``owner.attribute`` in a ``span_name`` span for each target."""
    saved = []
    for owner, attribute, span_name in targets:
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrapped(tracer, original, span_name))
    try:
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _wrapped(tracer: Tracer, original: Callable, span_name: str) -> Callable:
    def call(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    call.__name__ = getattr(original, "__name__", span_name)
    call.__doc__ = getattr(original, "__doc__", None)
    return call


def program_targets() -> List[Tuple[object, str, str]]:
    """The program's internal calls into each layer that a traced run wraps."""
    from repro.estelle import frontend
    from repro.runtime import executor, planner
    from repro.serve import api, registry

    return [
        (frontend, "parse_source", "frontend.parse"),
        (registry.CompiledSpec, "instantiate", "frontend.instantiate"),
        (registry.SpecRegistry, "get", "registry.get"),
        (planner, "compile_plan_program", "planner.program"),
        (planner.IncrementalRoundPlanner, "plan_round", "planner.plan_round"),
        (executor.SpecificationExecutor, "__init__", "executor.construct"),
        (executor.SpecificationExecutor, "step_round", "executor.step_round"),
        (api.ServeAPI, "create_session", "http.api"),
        (api.ServeAPI, "step", "http.api"),
        (api.ServeAPI, "firings", "http.api"),
        (api.ServeAPI, "close_session", "http.api"),
    ]
