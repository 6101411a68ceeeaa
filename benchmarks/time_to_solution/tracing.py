"""In-memory span tracer that times calls into the program from outside.

The traced run replaces selected public functions with thin wrappers that
record one span per call, then puts the originals back. The program under
test is not edited: spans live at the boundaries of its public calls, which
is all a benchmark can see without changing the code it measures.

Each span records its name, start, end, parent span and run id. Spans stay
in memory until the run ends. A span's self time is its duration minus the
time its direct children cover; children are timed strictly inside their
parent, so they always fit.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: A span name, or a function of the tracer that picks one at call time
#: (for calls whose layer depends on where they are made from).
NameSpec = str | Callable[["Tracer"], str]


@dataclass
class SpanRecord:
    """One timed call. ``start``/``end`` are seconds since the tracer began."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, or ``None``.
    parent: int | None
    run_id: str
    #: Work counts taken from the call's result (e.g. segments traced).
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
            **self.counts,
        }


class Tracer:
    """Records nested spans around wrapped calls of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[SpanRecord] = []
        self._origin = time.perf_counter()
        self._stack: list[int] = []
        #: ``(owner, key, original)`` for every wrapper currently installed.
        self.installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def open_names(self) -> list[str]:
        """Names of the spans currently open, outermost first."""
        return [self.spans[i].name for i in self._stack]

    def has_closed(self, name: str) -> bool:
        """Whether a span called ``name`` has already ended."""
        return any(
            span.name == name and i not in self._stack for i, span in enumerate(self.spans)
        )

    def call(
        self,
        name: NameSpec,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        counts: Callable[[Any], dict[str, int]] | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a new span."""
        label = name if isinstance(name, str) else name(self)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = SpanRecord(label, time.perf_counter() - self._origin, 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter() - self._origin
            self._stack.pop()
        if counts is not None:
            span.counts = counts(result)
        return result

    # ------------------------------------------------------------- wrappers

    def wrap(
        self,
        owner: Any,
        key: str,
        name: NameSpec,
        counts: Callable[[Any], dict[str, int]] | None = None,
    ) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) by a timed wrapper.

        ``owner`` is a class, a module or a dict. For a class or module the
        attribute must be defined on ``owner`` itself, so removing the
        wrapper restores exactly what was there.
        """
        original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, args, kwargs, counts)

        self.installed.append((owner, key, original))
        _assign(owner, key, wrapper)

    def remove(self) -> None:
        """Put every original back, last installed first."""
        while self.installed:
            owner, key, original = self.installed.pop()
            _assign(owner, key, original)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def misfits(self) -> list[int]:
        """Indices of spans not contained in their parent's interval."""
        bad = []
        for i, span in enumerate(self.spans):
            if span.end < span.start:
                bad.append(i)
            elif span.parent is not None:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    bad.append(i)
        return bad

    def to_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self.spans]


def _assign(owner: Any, key: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
