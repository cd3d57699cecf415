"""Spans recorded from outside the library, by rebinding its functions.

Every layer function is wrapped at each module that calls it (a module that
did ``from .nr import run_newton`` holds its own reference, so wrapping
``nr.run_newton`` alone would miss it). Spans live in memory as
``[name, solve_id, start_ns, end_ns, parent, info]``; ``parent`` is the index
of the enclosing span or -1. Self time is a span's duration minus the
durations of its direct children; children of one span never overlap because
the library is single-threaded on the serial path the benchmark uses.
"""

from __future__ import annotations

from time import perf_counter_ns

NAME, SOLVE, START, END, PARENT, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, info=None, pre=None):
        """``fn`` timed as span ``name``.

        ``pre(args)`` runs before the call and ``info(args, result, pre_value)``
        after it; whatever ``info`` returns is kept with the span. A call that
        raises keeps ``("raised", exception class name)``.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, self.solve_id, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre(args) if pre is not None else None
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter_ns()
                rec[INFO] = ("raised", type(exc).__name__)
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter_ns()
            if info is not None:
                rec[INFO] = info(args, out, before)
            return out

        traced.__wrapped__ = fn
        return traced

    def rebind(self, owner, attr, name, info=None, pre=None):
        """Replace ``owner.attr`` with its traced form until :meth:`restore`."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info, pre))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Per-span self time in ns: duration minus the direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def root_time(spans) -> int:
    """Total duration of the spans that have no parent, in ns."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
