"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence.  It starts *pending*, becomes
*triggered* when :meth:`Event.succeed` or :meth:`Event.fail` is called, and
its callbacks are dispatched by the simulator at the current simulated time.
Processes wait on events by yielding them.
"""

from __future__ import annotations

import typing
from heapq import heappush as _heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator

# Sentinel distinguishing "no value yet" from a legitimate None value.
class _PendingType:
    """Sentinel type for "no value yet".

    Identity-compared everywhere (``value is _PENDING``), so it must
    survive pickling: snapshot/restore handoff (see
    :mod:`repro.harness.sharding`) round-trips whole simulators, and a
    plain ``object()`` would come back as a *different* object, silently
    turning pending events into triggered ones.  ``__reduce__`` pins the
    unpickled result to the module singleton.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<pending>"

    def __reduce__(self):
        return (_restore_pending, ())


_PENDING = _PendingType()


def _restore_pending() -> "_PendingType":
    """Unpickle hook: there is exactly one pending sentinel."""
    return _PENDING


class EventFailed(Exception):
    """Raised inside a process when the event it waited on failed."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  An event may only be used with the simulator
        that created it.
    name:
        Optional label used in ``repr`` and simulator traces.
    """

    __slots__ = (
        "sim",
        "name",
        "callbacks",
        "defused",
        "_value",
        "_exception",
        "_scheduled",
        "_handled",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: list[typing.Callable[[Event], None]] | None = []
        #: Set True to allow a failure with no listeners to pass silently.
        self.defused = False
        self._value: typing.Any = _PENDING
        self._exception: BaseException | None = None
        self._scheduled = False
        self._handled = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the simulator has dispatched the event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (not failed)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> typing.Any:
        """The success value.  Raises if the event is pending or failed."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exception

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: typing.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError(f"{self!r} already triggered")
        if self._scheduled:
            raise RuntimeError(f"{self!r} scheduled twice")
        self._value = value
        # Scheduling is inlined (this is the hottest kernel path: every
        # disk completion, resource grant, and process step lands here).
        # Triggering always happens *now*, so the event goes straight to
        # the current-instant bucket — O(1), no heap sift (see the
        # ordering invariant in repro.sim.core).
        sim = self.sim
        self._scheduled = True
        sim._sequence += 1
        sim._bucket.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure.

        A process waiting on the event sees ``exception`` raised at its
        ``yield`` expression.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._scheduled:
            raise RuntimeError(f"{self!r} scheduled twice")
        self._exception = exception
        sim = self.sim
        self._scheduled = True
        sim._sequence += 1
        sim._bucket.append(self)
        return self

    # -- callback plumbing ----------------------------------------------------

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is dispatched.

        If the event has already been processed the callback runs
        immediately, so late listeners never miss the occurrence.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _dispatch(self) -> None:
        """Run and clear the callback list (simulator internal)."""
        callbacks, self.callbacks = self.callbacks, None
        self._handled = bool(callbacks)
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


def schedule_now(
    sim: "Simulator", callback, exception: BaseException | None = None
) -> None:
    """Schedule a pre-triggered event with one ``callback`` at (now, seq).

    ``Event()`` plus ``succeed()``/``fail()`` fused: the replay feeder's
    kick, the controller's host-pump and service kicks and every barrier
    hop is one of these, so building the event in place is measurable at
    replay scale.
    """
    event = Event.__new__(Event)
    event.sim = sim
    event.name = ""
    event.callbacks = [callback]
    event.defused = False
    event._value = None
    event._exception = exception
    event._scheduled = True
    event._handled = False
    sim._sequence += 1
    sim._bucket.append(event)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Construction is the single hottest allocation in the kernel (every
    simulated wait is one), so ``__init__`` writes the slots directly and
    pushes onto the heap itself instead of chaining through
    ``Event.__init__`` and ``Simulator._schedule_event``.  The display
    name is computed lazily in ``__repr__`` — formatting it eagerly used
    to dominate timeout-heavy workloads.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: typing.Any = None, name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._exception = None
        self.delay = delay
        # defused / _scheduled / _handled slots stay unset: a timeout is
        # born triggered, so succeed()/fail() raise before reading
        # _scheduled, and the failure paths that read defused/_handled
        # are unreachable (_exception is always None).  Skipping three
        # writes is measurable at millions of timeouts per sweep.
        sim._sequence += 1
        when = sim._now + delay
        if when > sim._now:
            _heappush(sim._queue, (when, sim._sequence, self))
        else:
            sim._bucket.append(self)

    def __repr__(self) -> str:
        state = "processed" if self.callbacks is None else "pending"
        label = f" {self.name!r}" if self.name else f" ({self.delay:g}s)"
        return f"<{type(self).__name__}{label} {state}>"

    @classmethod
    def _unscheduled(cls, sim: "Simulator", delay: float, value: typing.Any = None) -> "Timeout":
        """Build a timeout without pushing it onto the heap.

        For :meth:`Simulator.timeouts`, which appends a whole batch and
        re-heapifies once.  The caller owns getting the entry queued.
        """
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        timeout = cls.__new__(cls)
        timeout.sim = sim
        timeout.name = ""
        timeout.callbacks = []
        timeout._value = value
        timeout._exception = None
        timeout.delay = delay
        return timeout


class _Condition(Event):
    """Base for events composed of several child events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: typing.Iterable[Event], name: str) -> None:
        # Event.__init__ and add_callback inlined: conditions are built per
        # array request (several per stripe write), and the bound-method
        # call per child was measurable in trace replay.  Semantics match
        # exactly — a child already processed runs the callback
        # immediately, just as add_callback would.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self.defused = False
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self._handled = False
        self.events: tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all composed events must share one simulator")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        else:
            on_child = self._on_child
            for event in self.events:
                callbacks = event.callbacks
                if callbacks is None:
                    on_child(event)
                else:
                    callbacks.append(on_child)

    def _collect(self) -> list[typing.Any]:
        return [event._value for event in self.events if event.triggered and event.ok]

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired.

    The value is the list of child values in construction order.  If any
    child fails, the condition fails with that child's exception (first
    failure wins).
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: typing.Iterable[Event], name: str = "all_of") -> None:
        super().__init__(sim, events, name)

    def _on_child(self, event: Event) -> None:
        # Slot reads instead of the triggered/ok properties: this runs
        # once per child per condition, on the replay hot path.
        if self._value is not _PENDING or self._exception is not None:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires, with that child's value.

    A failing first child fails the condition.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: typing.Iterable[Event], name: str = "any_of") -> None:
        super().__init__(sim, events, name)

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event._value)
