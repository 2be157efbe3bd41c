"""In-memory spans for the traced benchmark run.

A span records one call into a layer: its name, start and end on the
``time.perf_counter`` clock, the index of the span that was open when it
began (its parent) and the solve it belongs to.  Spans are kept in a list
and written out once the run ends, so recording costs two clock reads and
an append per call.

Library functions are traced by replacing the module attribute their
callers look up (``toepreg.solver.assemble``, ``toepreg.tanint.grid_eval``,
...) with a wrapper; ``patched`` puts the originals back on exit, also when
the run raises.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    solve: int
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``solve`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **info):
        parent = self._open[-1] if self._open else -1
        rec = Span(name, time.perf_counter(), math.nan, parent, self.solve, info)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, note=None):
        """``fn`` inside a span; ``note(args, kwargs, result)`` may add info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec.info.update(note(args, kwargs, out))
                return out

        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Trace module attributes for the duration of the block.

    ``targets`` holds (module, attribute, span name, note) tuples.
    """
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for (module, attr, name, note), (_, _, original) in zip(targets, saved):
            setattr(module, attr, tracer.wrap(original, name, note))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
