"""Calendar scheduling order: the Simulator property-tested against a heap oracle.

The bucket+heap calendar discipline inlined in :class:`repro.sim.Simulator`
promises exactly ``(time, seq)`` dispatch order — time order with FIFO
tie-break for equal times — without storing sequence numbers for
current-instant entries.  These tests drive the simulator itself with
randomized single and bulk timeout schedules interleaved with dispatches,
and compare every dispatch against a plain ``heapq`` reference that *does*
key on ``(time, seq)``.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class HeapReference:
    """The oracle: one binary heap keyed on (time, seq)."""

    def __init__(self) -> None:
        self._heap = []
        self._sequence = 0

    def push(self, when, item):
        self._sequence += 1
        heapq.heappush(self._heap, (when, self._sequence, item))

    def pop(self):
        when, _seq, item = heapq.heappop(self._heap)
        return when, item

    def __len__(self):
        return len(self._heap)


class Recorder:
    """Schedules labelled timeouts and records ``(time, label)`` per dispatch."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.dispatched = []

    def watch(self, timeout, item) -> None:
        timeout.callbacks.append(lambda _event: self.dispatched.append((self.sim.now, item)))

    def at(self, delay, item) -> None:
        self.watch(self.sim.timeout(delay), item)

    def step(self):
        self.sim.step()
        return self.dispatched[-1]


#: One workload step: (op, delay).  Delays draw from a tiny set so
#: simultaneous timestamps (the interesting tie-break case) occur
#: constantly; op > 0.6 dispatches one event, anything else schedules.
STEPS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5]),
    ),
    min_size=1,
    max_size=120,
)


def _drain_both(recorder, reference):
    popped = []
    while recorder.sim.peek() != float("inf"):
        popped.append(recorder.step())
    expected = []
    while len(reference):
        expected.append(reference.pop())
    return popped, expected


class TestOrderEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(steps=STEPS)
    def test_interleaved_schedule_pop(self, steps):
        sim = Simulator()
        recorder = Recorder(sim)
        reference = HeapReference()
        for item, (op, delay) in enumerate(steps):
            if op > 0.6 and len(reference):
                assert recorder.step() == reference.pop()
            else:
                recorder.at(delay, item)
                reference.push(sim.now + delay, item)
        popped, expected = _drain_both(recorder, reference)
        assert popped == expected

    @settings(max_examples=50, deadline=None)
    @given(
        before=st.lists(st.sampled_from([0.0, 1.0]), max_size=5),
        delays=st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 3.0]), min_size=1, max_size=60
        ),
        after=st.lists(st.sampled_from([0.0, 1.0]), max_size=5),
    )
    def test_bulk_push_matches_singles(self, before, delays, after):
        # sim.timeouts must hand out the same dispatch order as one-at-a-time
        # timeouts — including the zero-delay entries, which must land in
        # the bucket between the singles scheduled around the batch
        # (heapifying them would invert same-instant FIFO).
        sim = Simulator()
        recorder = Recorder(sim)
        reference = HeapReference()
        for index, delay in enumerate(before):
            recorder.at(delay, ("before", index))
            reference.push(delay, ("before", index))
        for index, timeout in enumerate(sim.timeouts(delays)):
            recorder.watch(timeout, ("bulk", index))
        for index, delay in enumerate(delays):
            reference.push(delay, ("bulk", index))
        for index, delay in enumerate(after):
            recorder.at(delay, ("after", index))
            reference.push(delay, ("after", index))
        popped, expected = _drain_both(recorder, reference)
        assert popped == expected

    @settings(max_examples=50, deadline=None)
    @given(steps=STEPS)
    def test_simultaneous_timestamps_pop_fifo(self, steps):
        # All entries at one instant: pure FIFO, regardless of how
        # dispatches interleave with the schedules around them.
        sim = Simulator()
        recorder = Recorder(sim)
        order = []
        pending = 0
        for item, (op, _delay) in enumerate(steps):
            if op > 0.6 and pending:
                recorder.step()
                pending -= 1
            else:
                recorder.at(0.0, item)
                order.append(item)
                pending += 1
        while pending:
            recorder.step()
            pending -= 1
        assert [item for _when, item in recorder.dispatched] == order


class TestContractEdges:
    def test_past_scheduling_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="delay must be >= 0"):
            sim.timeout(-1.0)
        with pytest.raises(ValueError, match="delay must be >= 0"):
            sim.timeouts([1.0, -1.0])
        # A rejected batch publishes nothing (see the bulk corollary in
        # repro.sim.core): no entry queued, no sequence number consumed.
        assert sim.peek() == float("inf")
        assert sim.events_dispatched == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            Simulator().step()

    def test_heap_entry_precedes_bucket_at_same_instant(self):
        # The ordering keystone: a future entry reached by the clock was
        # scheduled earlier than any entry bucketed *at* that instant.
        sim = Simulator()
        recorder = Recorder(sim)
        recorder.at(1.0, "heap-born")  # scheduled first, lands in the heap
        recorder.at(0.0, "bucket-born")
        assert recorder.step() == (0.0, "bucket-born")
        recorder.at(1.0, "heap-later")  # still future at now == 0
        recorder.at(0.0, "bucketed-now")
        assert [recorder.step() for _ in range(2)] == [
            (0.0, "bucketed-now"),
            (1.0, "heap-born"),  # smaller seq than heap-later
        ]
        # Now == 1.0 with heap-later due in the heap: an entry bucketed at
        # this instant dispatches after it.
        recorder.at(0.0, "bucketed-at-1")
        assert [recorder.step() for _ in range(2)] == [
            (1.0, "heap-later"),
            (1.0, "bucketed-at-1"),
        ]
