"""Span recording around the simulator's layer entry points, from outside.

The benchmark measures per-layer cost without touching ``src/``: it swaps
selected functions and methods for timing wrappers *where their callers
look them up* (a class attribute for methods, the importing module's
global for functions imported by name) and restores the originals
afterwards.  Install the wrappers before any array is built, because the
controller and driver bind some methods once at construction time.

Each call through a wrapper is one span: name, start, end, parent span,
and the benchmark's current cell label.  Spans nest per thread (the
service handler runs in its own thread), so a span's *self time* is its
duration minus the time its child spans cover.  Totals per (cell, name)
are kept for every span; the raw span list is capped so a long run keeps
bounded memory, and is written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import typing

_perf = time.perf_counter
#: Raw spans kept per run; totals are kept for every span regardless.
_MAX_SPANS = 50_000


class _ThreadState:
    __slots__ = ("stack", "totals", "sim_depth")

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_seconds, span_index]``.
        self.stack: list[list] = []
        #: ``(cell, name) -> [calls, inclusive_s, self_s]``.
        self.totals: dict[tuple[str, str], list] = {}
        #: Open ``sim.run`` spans on this thread (events are counted at
        #: the outermost one only).
        self.sim_depth = 0


class SpanRecorder:
    """Collects spans from the wrappers it installs; see the module doc."""

    def __init__(self) -> None:
        #: Label of the cell currently running; set by the benchmark.
        self.cell = ""
        #: Raw spans ``(name, start, end, parent_index, cell)``; ``None``
        #: while a span is still open.
        self.spans: list[tuple | None] = []
        self.dropped = 0
        #: Free-form ``(cell, name) -> number`` tallies fed by hooks.
        self.counts: dict[tuple[str, str], float] = {}
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to the ``name`` tally of the current cell."""
        key = (self.cell, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(
        self,
        name: str,
        fn: typing.Callable,
        after: typing.Callable | None = None,
        sim: bool = False,
    ) -> typing.Callable:
        """A wrapper timing every call of ``fn`` as span ``name``.

        ``after(args, kwargs, result)`` runs outside the timed interval.
        ``sim=True`` marks kernel run loops: the outermost one on a thread
        tallies the events its simulator dispatched as ``sim.events``.
        """
        recorder = self
        spans = self.spans
        cap = _MAX_SPANS
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = recorder._local.__dict__.get("state") or recorder._state()
            stack = state.stack
            index = -1
            if len(spans) < cap:
                with lock:
                    index = len(spans)
                    spans.append(None)
            else:
                recorder.dropped += 1
            frame = [0.0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            outermost_sim = sim and state.sim_depth == 0
            if sim:
                state.sim_depth += 1
                before = args[0].events_dispatched
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                cell = recorder.cell
                key = (cell, name)
                total = state.totals.get(key)
                if total is None:
                    state.totals[key] = [1, duration, duration - frame[0]]
                else:
                    total[0] += 1
                    total[1] += duration
                    total[2] += duration - frame[0]
                if index >= 0:
                    spans[index] = (name, start, end, parent, cell)
                if sim:
                    state.sim_depth -= 1
                    if outermost_sim:
                        recorder.add("sim.events", args[0].events_dispatched - before)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------------

    def patch(self, module: str, attr: str, name: str, **options) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by a wrapper."""
        self.patch_with(module, attr, lambda original: self.wrap(name, original, **options))

    def patch_with(self, module: str, attr: str, make: typing.Callable) -> None:
        """Replace ``module.attr`` by ``make(original)`` (for custom wrappers)."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        self._patches.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # -- reading -------------------------------------------------------------------

    def totals(self, cells: typing.Callable[[str], bool] = lambda cell: True) -> dict:
        """``name -> [calls, inclusive_s, self_s]`` summed over matching cells."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for (cell, name), (calls, inclusive, own) in list(state.totals.items()):
                if not cells(cell):
                    continue
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
        return merged

    def tally(self, name: str, cells: typing.Callable[[str], bool] = lambda cell: True) -> float:
        """The ``name`` tally summed over matching cells."""
        with self._lock:
            return sum(
                value for (cell, key), value in self.counts.items()
                if key == name and cells(cell)
            )

    def write(self, path) -> None:
        """Write the raw spans as JSON lines (self time per span included)."""
        spans = [span for span in self.spans if span is not None]
        child: dict[int, float] = {}
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] = child.get(span[3], 0.0) + (span[2] - span[1])
        with open(path, "w") as out:
            out.write(json.dumps({
                "spans": len(spans), "dropped": self.dropped,
                "fields": ["id", "name", "start", "end", "parent", "cell", "self_s"],
            }) + "\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, cell = span
                self_s = (end - start) - child.get(index, 0.0)
                out.write(json.dumps([index, name, start, end, parent, cell, self_s]) + "\n")
