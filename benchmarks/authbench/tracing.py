"""In-memory spans recorded around calls into the engine's layers.

A :class:`Tracer` keeps one stack of open spans per thread.  A span has
a name (the layer), a start and an end on ``time.perf_counter``, the
span that caused it and the request it belongs to; its *self time* is
its duration minus the time its child spans cover, accumulated as the
children close, so no interval arithmetic is needed afterwards.

Spans carry shapes only: counts, sizes, layer names and request ids.
No cell value or delivered row is ever stored, the same rule the audit
trail follows.  :meth:`Tracer.dump` writes the spans as JSON lines once
a run ends.

:class:`Patcher` installs wrappers by attribute assignment on modules,
classes or live instances and restores every original on
:meth:`Patcher.restore`, so the program under test is unchanged on
disk and, after the traced run, in memory too.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Attributes of a span: counts, sizes and flags, never data values.
Attrs = Dict[str, Any]
#: Computes a span's attributes from the call's result and arguments.
Shape = Callable[[Any, tuple], Attrs]

_MISSING = object()


class Span:
    """One closed span."""

    __slots__ = ("span_id", "name", "start", "end", "self_time",
                 "parent", "request", "attrs")

    def __init__(self, span_id: int, name: str, start: float, end: float,
                 self_time: float, parent: Optional[int],
                 request: Optional[int], attrs: Attrs) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.self_time = self_time
        self.parent = parent
        self.request = request
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """A span still on its thread's stack."""

    __slots__ = ("span_id", "name", "parent", "request", "start", "child")

    def __init__(self, span_id: int, name: str,
                 parent: Optional["_Open"], request: Optional[int]) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = 0.0
        self.child = 0.0


class Tracer:
    """Per-thread span stacks feeding one in-memory span list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Optional[int]) -> None:
        """Attribute spans opened on this thread to ``request``."""
        self._local.request = request

    def begin(self, name: str) -> _Open:
        stack = self._stack()
        frame = _Open(next(self._ids), name,
                      stack[-1] if stack else None,
                      getattr(self._local, "request", None))
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def end(self, frame: _Open, attrs: Optional[Attrs] = None,
            end: Optional[float] = None) -> None:
        """Close ``frame`` at ``end`` (default: now).  Callers that
        compute ``attrs`` from the result stamp ``end`` first, so the
        bookkeeping is charged to no span."""
        if end is None:
            end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        self.spans.append(Span(
            frame.span_id, frame.name, frame.start, end,
            duration - frame.child,
            parent.span_id if parent is not None else None,
            frame.request, attrs if attrs is not None else {},
        ))

    def record(self, name: str, start: float, end: float,
               request: Optional[int], attrs: Optional[Attrs] = None
               ) -> None:
        """Add a span measured elsewhere (e.g. time spent queued)."""
        self.spans.append(Span(
            next(self._ids), name, start, end, end - start, None,
            request, attrs if attrs is not None else {},
        ))

    def wrap(self, name: str, fn: Callable[..., Any],
             shape: Optional[Shape] = None) -> Callable[..., Any]:
        """``fn`` inside a span; ``shape`` computes its attributes."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                tracer.end(frame, {"error": type(error).__name__})
                raise
            end = time.perf_counter()
            tracer.end(frame, shape(result, args) if shape else None, end)
            return result

        return traced

    def wrap_iter(self, name: str, chunks: Iterator[Any],
                  shape: Callable[[Any], Attrs]) -> Iterator[Any]:
        """``chunks`` with each ``next`` inside its own span."""
        while True:
            frame = self.begin(name)
            try:
                chunk = next(chunks)
            except StopIteration:
                self.end(frame, {"rows": 0})
                return
            except BaseException as error:
                self.end(frame, {"error": type(error).__name__})
                raise
            end = time.perf_counter()
            self.end(frame, shape(chunk), end)
            yield chunk

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "start": span.start, "end": span.end,
                    "self": span.self_time, "parent": span.parent,
                    "request": span.request, "attrs": span.attrs,
                }) + "\n")


class Patcher:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        original = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, value)
        if original is _MISSING:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, original))

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str,
             shape: Optional[Shape] = None) -> None:
        """Replace ``owner.attr`` by a traced version of itself."""
        self.replace(owner, attr,
                     tracer.wrap(name, getattr(owner, attr), shape))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
