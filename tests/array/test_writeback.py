"""Tests for the write-back (single-copy NVRAM) staging mode (§3.4)."""

import pytest

from repro.array import toy_array
from repro.array.factory import build_array
from repro.array.request import ArrayRequest
from repro.disk import IoKind
from repro.faults.injector import FaultInjector
from repro.harness.replay import replay_trace
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy
from repro.sim import AllOf, Simulator
from repro.traces import make_trace


def write(offset, nsectors=4, data=None):
    return ArrayRequest(IoKind.WRITE, offset, nsectors, data=data)


def payload(array, nsectors, seed=1):
    return bytes((seed * 113 + i) % 256 for i in range(nsectors * array.sector_bytes))


class TestAcknowledgement:
    def test_write_completes_at_nvram_speed(self):
        sim = Simulator()
        array = toy_array(sim, write_policy="writeback", with_functional=False)
        request = write(0, 8)
        done = array.submit(request)
        sim.run_until_triggered(done)
        # Acked in well under a mechanical I/O time.
        assert request.io_time < 0.002
        # The disks have not finished (flush still in flight).
        sim.run(until=sim.now + 1.0)
        assert array.disks[array.layout.data_disk(0, 0)].stats.writes >= 1

    def test_writethrough_is_default_and_slower(self):
        sim = Simulator()
        array = toy_array(sim, with_functional=False)
        assert array.write_policy == "writethrough"
        request = write(0, 8)
        sim.run_until_triggered(array.submit(request))
        assert request.io_time > 0.002

    def test_invalid_policy_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            toy_array(sim, write_policy="wild")

    def test_reads_see_flushed_data(self):
        sim = Simulator()
        array = toy_array(sim, write_policy="writeback")
        data = payload(array, 8, seed=3)
        sim.run_until_triggered(array.submit(write(16, 8, data=data)))
        sim.run(until=sim.now + 1.0)  # flush + scrub settle
        result = sim.run_until_triggered(array.submit(ArrayRequest(IoKind.READ, 16, 8)))
        assert result.result_data == data


class TestNvramExposure:
    def test_dirty_bytes_integrated(self):
        sim = Simulator()
        array = toy_array(sim, write_policy="writeback", with_functional=False)
        done = array.submit(write(0, 8))
        sim.run_until_triggered(done)
        sim.run(until=sim.now + 2.0)
        array.finalize()
        tracker = array.nvram_dirty_tracker
        assert tracker.peak_parity_lag_bytes == 8 * array.sector_bytes
        assert tracker.unprotected_time > 0
        assert tracker.current_lag_bytes == 0  # flushed

    def test_writethrough_never_dirties_nvram(self):
        sim = Simulator()
        array = toy_array(sim, with_functional=False)
        sim.run_until_triggered(array.submit(write(0, 8)))
        array.finalize()
        assert array.nvram_dirty_tracker.peak_parity_lag_bytes == 0


class TestBackpressure:
    def test_staging_capacity_bounds_ack_rate(self):
        """With a tiny staging area, a burst cannot all ack at NVRAM speed:
        later writes wait for earlier flushes to free space."""
        sim = Simulator()
        array = toy_array(
            sim,
            write_policy="writeback",
            with_functional=False,
            write_staging_bytes=8 * 512,  # room for exactly one 8-sector write
        )
        requests = [write(i * 64, 8) for i in range(4)]
        events = [array.submit(request) for request in requests]
        sim.run_until_triggered(AllOf(sim, events))
        times = sorted(request.io_time for request in requests)
        assert times[0] < 0.002  # first acked instantly
        assert times[-1] > 0.002  # last waited for staging space

    def test_burst_still_all_lands_on_disk(self):
        sim = Simulator()
        array = toy_array(sim, write_policy="writeback", idle_threshold_s=0.05)
        data = {i: payload(array, 4, seed=i) for i in range(6)}
        stride = array.layout.stripe_data_sectors
        events = [array.submit(write(i * stride, 4, data=data[i])) for i in range(6)]
        sim.run_until_triggered(AllOf(sim, events))
        sim.run(until=sim.now + 5.0)
        # Flushed, scrubbed, and byte-exact.
        assert array.dirty_stripe_count == 0
        for i, expected in data.items():
            assert array.functional.read(i * stride, 4) == expected


class TestInteractionWithModes:
    def test_writeback_raid5_keeps_parity_fresh(self):
        sim = Simulator()
        array = toy_array(sim, write_policy="writeback", policy=AlwaysRaid5Policy())
        sim.run_until_triggered(array.submit(write(0, 4, data=payload(array, 4))))
        sim.run(until=sim.now + 1.0)
        assert array.functional.parity_consistent(0)
        assert array.dirty_stripe_count == 0

    def test_idle_detection_waits_for_flush(self):
        """The array is not 'idle' while a flush is outstanding, so the
        scrubber cannot race ahead of the data it must protect."""
        sim = Simulator()
        array = toy_array(sim, write_policy="writeback", with_functional=False,
                          idle_threshold_s=0.05)
        done = array.submit(write(0, 8))
        sim.run_until_triggered(done)  # acked; flush still pending
        assert not array.detector.is_idle
        sim.run(until=sim.now + 2.0)
        assert array.detector.is_idle


class TestFlushSurvivesMemberFailure:
    """A member dying under an acknowledged write-back flush.

    The client already has its ack and the bytes are still in NVRAM, so
    the flush is re-issued through the degraded write path instead of
    surfacing a bare DiskFailedError out of the replay.
    """

    @pytest.mark.parametrize(
        "organization, ndisks, policy",
        [
            ("raid1", 2, AlwaysRaid5Policy),
            ("raid5", 5, AlwaysRaid5Policy),
            ("raid5d", 7, AlwaysRaid5Policy),
            ("raid15", 6, AlwaysRaid5Policy),
            ("raid15", 6, BaselineAfraidPolicy),
            ("raid5d", 7, BaselineAfraidPolicy),
        ],
    )
    def test_replay_completes_and_flushes_land(self, organization, ndisks, policy):
        sim = Simulator()
        array = build_array(
            sim, policy(), ndisks=ndisks, organization=organization,
            write_policy="writeback",
        )
        FaultInjector(sim, array).fail_disk_at(1, 5.0)
        trace = make_trace(
            "ATT", duration_s=30.0,
            address_space_sectors=array.layout.total_data_sectors, seed=5,
        )
        outcome = replay_trace(sim, array, trace, finalize=False)
        assert array.degraded_disk == 1
        assert array.stats.writes_completed == sum(1 for r in trace if r.is_write)
        # Only reads with I/O on the dying member can fail: writes were
        # acknowledged from NVRAM before their flush started.
        assert len(outcome.failures) + array.stats.completed == len(trace)
        sim.run(until=sim.now + 30.0)
        # Every staged byte was flushed and released exactly once.
        assert array.staging._in_use == 0
        assert array.nvram_dirty_tracker.current_lag_bytes == 0
