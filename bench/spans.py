"""Outside-in span tracing for the benchmark.

A :class:`Tracer` records one span per call it is told about: name, start,
end, the span that was open when it began (its parent) and a few counts the
caller or the traced call's result supplies.  Spans stay in memory; the
harness turns them into per-layer metrics once the run ends.

Nothing inside ``corules`` is edited.  :meth:`Tracer.wrap` swaps a module or
class attribute for a timing wrapper and :meth:`Tracer.restore` puts the
original back, so only calls that go through the wrapped name are seen.  A
disabled tracer records nothing and wraps nothing, which is how the
untraced (end-to-end) runs measure.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    error: str | None = None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._wrapped: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the body as one span; yields the span (None when disabled)."""
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        sp = Span(name, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Callable[[tuple, Any], dict] | None = None,
    ):
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``describe(args, result)`` returns the counts to attach to the span.
        Wrapping a class attribute traces every instance's calls.
        """
        if not self.enabled:
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                if describe is not None:
                    sp.info.update(describe(args, result))
                return result

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def restore(self):
        """Put back every attribute :meth:`wrap` replaced, newest first."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # --- reading the spans back -------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def children(self, index: int) -> list[Span]:
        return [sp for sp in self.spans if sp.parent == index]

    def self_seconds(self, index: int) -> float:
        """Span duration minus the part its direct children cover.

        Children of one single-threaded caller never overlap, so their
        durations add up to the covered part.
        """
        return self.spans[index].seconds - sum(
            sp.seconds for sp in self.children(index)
        )

    def total(self, name: str) -> float:
        return sum(sp.seconds for sp in self.named(name))

    def info_sum(self, name: str, key: str) -> float:
        return sum(sp.info.get(key, 0) for sp in self.named(name))
