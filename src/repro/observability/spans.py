"""Nested telemetry spans with monotone-clock durations.

A :class:`Span` is one named, timed region of a run; spans nest, and the
tree obeys two structural invariants (checked by
:func:`validate_span_tree`, pinned by hypothesis properties):

* no orphans — every span is either a root or a child of exactly one
  parent (guaranteed structurally by the recorder);
* children fit — the sum of a measured parent's child durations never
  exceeds the parent's own duration (beyond timer resolution), because
  children are timed strictly inside the parent's context.

A span whose ``seconds`` is ``None`` is a *container*: it was never timed
itself (e.g. the per-worker group under the ``mp-async`` engine, whose children
ran on another process's clock) and its duration is defined as the sum of
its children.

Durations come from ``time.perf_counter`` — the same monotone clock
:class:`~repro.io.logging_utils.StageTimer` uses — so wall-clock jumps
can never produce negative or inflated spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.errors import ObservabilityError

#: Slack allowed when checking that children fit inside a measured parent:
#: relative to the parent plus an absolute floor of timer resolution.
_FIT_RTOL = 1e-9
_FIT_ATOL = 1e-6


@dataclass
class Span:
    """One named, timed region; ``seconds is None`` marks a container."""

    name: str
    seconds: float | None = None
    children: list["Span"] = field(default_factory=list)

    def duration(self) -> float:
        """Own duration, or the child sum for containers."""
        if self.seconds is not None:
            return self.seconds
        return sum(child.duration() for child in self.children)

    def child(self, name: str) -> "Span | None":
        for candidate in self.children:
            if candidate.name == name:
                return candidate
        return None

    def to_dict(self) -> dict:
        payload: dict = {"name": self.name, "seconds": self.seconds}
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Span":
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ObservabilityError(f"span without a name: {payload!r}")
        seconds = payload.get("seconds")
        if seconds is not None:
            seconds = float(seconds)
        children = [cls.from_dict(c) for c in payload.get("children", ())]
        return cls(name=name, seconds=seconds, children=children)


def validate_span_tree(roots: Sequence[Span]) -> None:
    """Raise :class:`ObservabilityError` on a malformed span forest."""

    def visit(span: Span, path: str) -> None:
        here = f"{path}/{span.name}" if path else span.name
        if "/" in span.name or not span.name:
            raise ObservabilityError(f"invalid span name {span.name!r} at {here}")
        if span.seconds is not None and span.seconds < 0.0:
            raise ObservabilityError(f"negative span duration at {here}")
        seen: set[str] = set()
        for child in span.children:
            if child.name in seen:
                raise ObservabilityError(f"duplicate child {child.name!r} under {here}")
            seen.add(child.name)
            visit(child, here)
        if span.seconds is not None and span.children:
            child_sum = sum(child.duration() for child in span.children)
            if child_sum > span.seconds * (1.0 + _FIT_RTOL) + _FIT_ATOL:
                raise ObservabilityError(
                    f"children of {here} sum to {child_sum:.9f}s, exceeding the "
                    f"parent's {span.seconds:.9f}s"
                )

    names: set[str] = set()
    for root in roots:
        if root.name in names:
            raise ObservabilityError(f"duplicate root span {root.name!r}")
        names.add(root.name)
        visit(root, "")


class SpanRecorder:
    """Builds a span forest from live nested contexts or recorded rows."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------ recording

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time a nested region; yields the live :class:`Span`.

        Re-entering a name at the same level accumulates into the existing
        span (the :meth:`StageTimer.stage` semantics) rather than creating
        a duplicate sibling, which :func:`validate_span_tree` forbids.
        """
        level = self._stack[-1].children if self._stack else self.roots
        node = next((s for s in level if s.name == name), None)
        if node is None:
            node = Span(name=name)
            level.append(node)
        self._stack.append(node)
        start = time.perf_counter()
        try:
            yield node
        finally:
            elapsed = time.perf_counter() - start
            node.seconds = (node.seconds or 0.0) + elapsed
            self._stack.pop()

    def record(self, path: str, seconds: float) -> Span:
        """Accumulate an externally measured duration at ``a/b/c``.

        Intermediate path components are created as containers when
        missing; an existing measured span at the leaf accumulates (the
        same semantics as :meth:`StageTimer.record`).
        """
        seconds = float(seconds)
        if seconds < 0.0:
            raise ObservabilityError(f"negative duration for span {path!r}")
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise ObservabilityError(f"empty span path {path!r}")
        level = self._stack[-1].children if self._stack else self.roots
        node: Span | None = None
        for part in parts:
            node = next((s for s in level if s.name == part), None)
            if node is None:
                node = Span(name=part)
                level.append(node)
            level = node.children
        assert node is not None
        node.seconds = (node.seconds or 0.0) + seconds
        return node

    def container(self, path: str) -> Span:
        """Ensure a container span exists at ``path`` and return it."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise ObservabilityError(f"empty span path {path!r}")
        level = self.roots
        node: Span | None = None
        for part in parts:
            node = next((s for s in level if s.name == part), None)
            if node is None:
                node = Span(name=part)
                level.append(node)
            level = node.children
        assert node is not None
        return node

    # ----------------------------------------------------------- accessors

    def find(self, path: str) -> Span | None:
        level: Sequence[Span] = self.roots
        node: Span | None = None
        for part in [p for p in path.split("/") if p]:
            node = next((s for s in level if s.name == part), None)
            if node is None:
                return None
            level = node.children
        return node

    def total(self) -> float:
        return sum(root.duration() for root in self.roots)

    def to_rows(self) -> list[dict]:
        """Depth-first flat view: ``{"path": "a/b", "seconds": s}`` rows."""
        rows: list[dict] = []

        def visit(span: Span, prefix: str) -> None:
            path = f"{prefix}/{span.name}" if prefix else span.name
            rows.append({"path": path, "seconds": span.seconds})
            for child in span.children:
                visit(child, path)

        for root in self.roots:
            visit(root, "")
        return rows

    def to_dicts(self) -> list[dict]:
        return [root.to_dict() for root in self.roots]

    @classmethod
    def from_dicts(cls, payload: Sequence[Mapping]) -> "SpanRecorder":
        recorder = cls()
        recorder.roots = [Span.from_dict(p) for p in payload]
        return recorder

    def validate(self) -> None:
        if self._stack:
            raise ObservabilityError(
                f"span {self._stack[-1].name!r} is still open"
            )
        validate_span_tree(self.roots)

    # --------------------------------------------------------------- merge

    def merge(self, other: "SpanRecorder", mode: str = "sum") -> "SpanRecorder":
        """Fold another recorder's forest into this one, aligned by path.

        ``sum`` accumulates durations per span (the total over workers),
        ``max`` keeps the per-span maximum (the critical path). Containers
        stay containers unless the other side carries a measurement.
        Merge with ``sum`` is associative and commutative over the
        recorded durations — the property the per-worker report merge
        relies on, pinned by hypothesis.
        """
        if mode not in ("sum", "max"):
            raise ObservabilityError(f"merge mode must be 'sum' or 'max' (got {mode!r})")

        def fold(into: list[Span], source: Sequence[Span]) -> None:
            for span in source:
                target = next((s for s in into if s.name == span.name), None)
                if target is None:
                    target = Span(name=span.name)
                    into.append(target)
                if span.seconds is not None:
                    if target.seconds is None:
                        target.seconds = span.seconds
                    elif mode == "sum":
                        target.seconds += span.seconds
                    else:
                        target.seconds = max(target.seconds, span.seconds)
                fold(target.children, span.children)

        fold(self.roots, other.roots)
        return self
