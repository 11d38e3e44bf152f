"""Open-loop trace replay against an array.

Requests are issued at their trace timestamps regardless of completions
(open queueing), which is what makes the RAID 5 small-update penalty show
up as queueing delay under bursts — the effect the paper measures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math

from repro.array.batchplan import warm_extent_cache
from repro.array.controller import DiskArray
from repro.array.request import ArrayRequest
from repro.sim import Event, Simulator, schedule_now
from repro.traces.records import Trace


def gather(sim: Simulator, events: list[Event]) -> Event:
    """An event firing once *all* ``events`` have triggered, failures included.

    Unlike :class:`~repro.sim.AllOf`, a failing child does not abort the
    gather — its exception is collected.  The value is a list of
    ``(ok, value_or_exception)`` pairs in input order.
    """
    done = sim.event(name="gather")
    results: list[tuple[bool, object]] = [(False, None)] * len(events)
    remaining = len(events)
    if remaining == 0:
        done.succeed([])
        return done

    def finish(index: int, event: Event) -> None:
        nonlocal remaining
        if event.ok:
            results[index] = (True, event.value)
        else:
            results[index] = (False, event.exception)
        remaining -= 1
        if remaining == 0:
            done.succeed(results)

    for index, event in enumerate(events):
        event.defused = True  # we are the handler of record
        if event.callbacks is None:
            # Already settled (the common case: the gather is built after
            # the feeder finishes).  Collect in place — same result, no
            # per-event closure or immediate-callback hop.
            exc = event._exception
            if exc is None:
                results[index] = (True, event._value)
            else:
                results[index] = (False, exc)
            remaining -= 1
        else:
            event.add_callback(lambda e, i=index: finish(i, e))
    if remaining == 0 and not done.triggered:
        done.succeed(results)
    return done


class _Feeder:
    """The open-loop arrival pump, as a callback state machine.

    Replicates the old generator feeder event-for-event: one bootstrap
    event (matching the ``Process`` bootstrap), one pooled timeout per
    inter-arrival gap created at the *wake* position of the previous gap
    (so its sequence number — and therefore every same-instant tie-break
    against in-flight completions — is unchanged), and a listener-free
    finish that never schedules an event (matching the process-finish
    elision in ``Process._resume``).

    Checkpoint cuts (:mod:`repro.harness.sharding`) are observed here:
    once ``index`` reaches ``cut_at``, the first arrival wake that finds
    nothing else pending — heap and bucket both empty — pauses the feed
    before submitting its record.  A pause completes ``done`` just like
    the finish; ``index < len(records)`` tells the two apart, and
    :meth:`start` resumes the feed at the same instant.

    Every consumed record is submitted, so ``index`` is also the count of
    submitted requests.  ``requests``/``completions`` hold only those
    submitted since the last :meth:`fold`; ``failures`` holds the
    failures of the ones folded away.
    """

    __slots__ = (
        "sim", "array", "records", "index", "requests", "completions", "failures", "done",
        "cut_at", "_fire_cb",
    )

    def __init__(
        self, sim, array, records, requests, completions, index: int = 0, failures=None
    ) -> None:
        self.sim = sim
        #: Bound once: appended to every inter-arrival timeout.
        self._fire_cb = self._fire
        self.array = array
        self.records = records
        self.index = index
        self.requests = requests
        self.completions = completions
        self.failures: list[BaseException] = [] if failures is None else failures
        #: Record index from which a quiescent arrival pauses the feed.
        self.cut_at = math.inf
        #: Triggers when the last record has been submitted (or the feed
        #: pauses at a cut).  Completed by hand exactly the way a
        #: listener-free process finishes: value set, callbacks cleared,
        #: nothing scheduled.
        self.done: Event | None = None

    def start(self) -> Event:
        """Fire at the current instant; returns the event ending this leg.

        The bootstrap kick of a fresh replay, and equally the re-arm of a
        feed paused at a cut or restored from one: a single pre-triggered
        event, so the resumed sequence numbers stay in step with each
        other.
        """
        self.done = Event(self.sim, name="trace_feeder")
        schedule_now(self.sim, self._fire_cb)
        return self.done

    def fold(self) -> bool:
        """Drop the submitted requests' objects once every one has completed.

        Their failures move to ``failures`` in submission order and
        ``index`` keeps their count, so a checkpoint of the feed carries
        no request or event object.  Returns ``False``, changing nothing,
        while a submitted request is still outstanding.
        """
        completions = self.completions
        for completion in completions:
            if completion.callbacks is not None:
                return False
        self.failures.extend(
            completion._exception for completion in completions
            if completion._exception is not None
        )
        completions.clear()
        self.requests.clear()
        return True

    def _fire(self, _event: Event) -> None:
        sim = self.sim
        array = self.array
        records = self.records
        requests = self.requests
        completions = self.completions
        index = self.index
        total = len(records)
        if index >= self.cut_at and not sim._queue and not sim._bucket:
            done = self.done
            done._value = None
            done.callbacks = None
            return
        while index < total:
            record = records[index]
            if record.time_s > sim._now:
                # Due at ``now + (time_s - now)``: a drained tail entry
                # (repro.harness.checkpoint) replays this sum to decide
                # whether the next arrival comes after its horizon.
                timeout = sim.timeout(record.time_s - sim._now)
                timeout.callbacks.append(self._fire_cb)
                self.index = index
                return
            # ArrayRequest() inlined: TraceRecord already enforced the
            # same offset/nsectors bounds __post_init__ would re-check,
            # and one dataclass construction per record is hot at
            # whole-trace scale.
            request = ArrayRequest.__new__(ArrayRequest)
            request.__dict__ = {
                "kind": record.kind,
                "offset_sectors": record.offset_sectors,
                "nsectors": record.nsectors,
                "sync": record.sync,
                "data": None,
                "tag": None,
                "submit_time": None,
                "dispatch_time": None,
                "complete_time": None,
                "result_data": None,
                "plan": None,
            }
            requests.append(request)
            completion = array.submit(request)
            # Defuse now: under fault injection a request can fail before
            # the gather attaches, and the failure belongs to us.
            completion.defused = True
            completions.append(completion)
            index += 1
        self.index = index
        done = self.done
        done._value = None
        done.callbacks = None


@dataclasses.dataclass
class ReplayOutcome:
    """Everything a replay produced."""

    requests: list[ArrayRequest]
    failures: list[BaseException]
    horizon_s: float

    @property
    def completed(self) -> list[ArrayRequest]:
        return [request for request in self.requests if request.complete_time is not None]

    @property
    def io_times(self) -> list[float]:
        return [request.io_time for request in self.completed]


@contextlib.contextmanager
def gc_paused():
    """Suspend cyclic GC for a bounded replay burst.

    A replay allocates hundreds of thousands of short-lived events that
    die by refcount, while everything the young-generation scans keep
    walking (requests, completions, the array graph — cyclic through the
    cached bound-method callbacks) stays reachable until the outcome is
    built, so mid-run collections cost double-digit time and free nothing.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


def settle(
    sim: Simulator,
    requests: list[ArrayRequest],
    completions: list[Event],
    duration_s: float,
    extra_settle_s: float,
) -> ReplayOutcome:
    """Wait out every submitted request, then run to the measurement horizon.

    The horizon is ``max(duration_s, last completion) + extra_settle_s``.
    """
    outcomes = sim.run_until_triggered(gather(sim, completions))
    failures = [value for ok, value in outcomes if not ok]
    horizon = max(duration_s, sim.now) + extra_settle_s
    sim.run(until=horizon)
    return ReplayOutcome(requests=requests, failures=failures, horizon_s=horizon)


def replay_trace(
    sim: Simulator,
    array: DiskArray,
    trace: Trace,
    extra_settle_s: float = 0.0,
    finalize: bool = True,
) -> ReplayOutcome:
    """Replay ``trace`` against ``array`` and close the books.

    The measurement horizon is ``max(trace duration, last completion)``
    plus ``extra_settle_s``; the parity-lag integrals are finalised there
    (so trailing idle-time scrubbing inside the horizon counts, exactly as
    a fixed observation window would in a testbed).
    """
    requests: list[ArrayRequest] = []
    completions: list[Event] = []

    records = list(trace)
    # The whole arrival schedule is known before the clock starts: batch-map
    # its geometry once (vectorised) so per-request map_extent is a probe.
    warm_extent_cache(array.layout, records)
    with gc_paused():
        feeder = _Feeder(sim, array, records, requests, completions)
        sim.run_until_triggered(feeder.start())
        outcome = settle(sim, requests, completions, trace.duration_s, extra_settle_s)
    if finalize:
        array.finalize()
    return outcome
