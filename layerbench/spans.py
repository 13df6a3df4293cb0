"""In-memory wall-clock spans for the benchmark's traced rounds.

A traced round patches public functions of the layers it measures with
a thin wrapper that opens a span around every call (see
:meth:`SpanRecorder.wrap`), runs the round, and puts every original
back.  Spans live in a flat list — ``[name, start, end, parent]`` with
``parent`` the index of the enclosing span or ``-1`` — so nesting is
kept and a layer's self time is its span minus the part its child
spans cover.  Nothing is written while a round runs; :meth:`dump`
writes the list out once, after the measurement.
"""

from __future__ import annotations

import json
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class SpanRecorder:
    """Nested spans of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def inside(self, names: tuple[str, ...]) -> bool:
        """True while a span with one of ``names`` is open."""
        spans = self.spans
        return any(spans[index][0] in names for index in self._open)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        skip_inside: tuple[str, ...] = (),
        on_call: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[[], None]:
        """Replace ``owner.attr`` by a spanning wrapper; returns the undo.

        ``owner`` is a module, a class (the wrapper becomes the method)
        or an instance (the wrapper shadows the method in the instance
        dict).  ``name`` may be a function of the call's arguments.
        Calls made while a span named in ``skip_inside`` is open pass
        straight through, so a layer that calls itself through another
        layer is not counted twice.  ``on_call(args, result)`` sees
        every spanned call's arguments and result, for counts taken at
        the same boundary.
        """
        original = getattr(owner, attr)
        recorder = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if skip_inside and recorder.inside(skip_inside):
                return original(*args, **kwargs)
            with recorder.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        setattr(owner, attr, spanned)
        if isinstance(owner, (type, types.ModuleType)):
            return lambda: setattr(owner, attr, original)
        return lambda: delattr(owner, attr)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``s`` (wall time of the outermost
        spans of that name, so recursion is not double counted) and
        ``self_s`` (time not covered by any child span)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return out

    def covered_by_children(self, names: tuple[str, ...]) -> float:
        """Wall time the direct children of spans named ``names`` cover."""
        spans = self.spans
        return sum(
            end - start
            for _name, start, end, parent in spans
            if parent >= 0 and spans[parent][0] in names
        )

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start offset, duration
        (seconds) and parent index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_s": start - origin,
                            "dur_s": end - start,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
