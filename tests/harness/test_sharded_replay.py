"""Checkpointed replay determinism: byte-identical to the direct path.

The contract under test (repro.harness.sharding): replaying a trace into
a checkpoint store, taking a quiescent cut at the first idle arrival in
each of N time slices, produces the exact observable results — per-
request latency doubles in completion order, every counter, the
parity-lag integrals — as one direct replay, for any N; and it does so
in a single pass, dispatching no more events than the direct replay plus
one re-arm per cut.
"""

import glob
import math
import os
import pickle

import pytest

from repro.array.factory import build_array
from repro.harness.checkpoint import CheckpointStore
from repro.harness.replay import _Feeder, replay_trace
from repro.harness.sharding import (
    ShardReplayResult,
    advance_shard,
    replay_digest,
    replay_trace_sharded,
    run_sharded_replay,
)
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy
from repro.sim import Simulator
from repro.traces import make_trace

POLICIES = {
    "afraid": BaselineAfraidPolicy,
    "raid5": AlwaysRaid5Policy,
    "raid0": NeverScrubPolicy,
}


def _fresh(policy_name: str):
    sim = Simulator()
    array = build_array(sim, POLICIES[policy_name]())
    return sim, array


def _trace_for(array, workload: str, duration_s: float, seed: int):
    return make_trace(
        workload,
        duration_s=duration_s,
        seed=seed,
        address_space_sectors=array.layout.total_data_sectors,
    )


def _direct(workload: str, policy: str, duration_s: float, seed: int):
    sim, array = _fresh(policy)
    trace = _trace_for(array, workload, duration_s, seed)
    outcome = replay_trace(sim, array, trace)
    result = ShardReplayResult.from_array(
        array, outcome.horizon_s, len(outcome.requests), outcome.failures
    )
    result.events_simulated = sim.events_dispatched
    return result


def _cold(tmp_path, workload: str, policy: str, duration_s: float, seed: int, shards: int):
    """A replay into an empty store; returns the result and the cuts it took."""
    scope = CheckpointStore(tmp_path / "store").scope({"workload": workload, "policy": policy})
    sim, array = _fresh(policy)
    trace = _trace_for(array, workload, duration_s, seed)
    result = replay_trace_sharded(sim, array, trace, shards=shards, checkpoint=scope)
    return result, len(glob.glob(os.path.join(scope.path, "cut-*.ckpt")))


class TestShardCountInvariance:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cello_byte_identical(self, tmp_path, policy, shards):
        # 12 sim-s of cello-usr has idle gaps, so cuts actually land and
        # the scrub is still running at the horizon (the run must clamp
        # there, not drain to quiescence).
        reference = _direct("cello-usr", policy, 12.0, 7)
        result, _cuts = _cold(tmp_path, "cello-usr", policy, 12.0, 7, shards)
        assert replay_digest(result) == replay_digest(reference)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_att_byte_identical(self, tmp_path, shards):
        # The write-heavy ATT trace has almost no idle arrivals under
        # AFRAID (§4.4): few or no cuts land — and the run still matches.
        reference = _direct("ATT", "afraid", 8.0, 11)
        result, _cuts = _cold(tmp_path, "ATT", "afraid", 8.0, 11, shards)
        assert replay_digest(result) == replay_digest(reference)

    def test_latency_stream_identical_not_just_digest(self, tmp_path):
        reference = _direct("cello-usr", "afraid", 12.0, 7)
        result, cuts = _cold(tmp_path, "cello-usr", "afraid", 12.0, 7, 4)
        assert cuts > 0
        assert result.stats.io_times == reference.stats.io_times
        assert result.horizon_s == reference.horizon_s
        assert result.parity_lag == reference.parity_lag

    def test_n1_equals_direct_flow(self, tmp_path):
        # shards=1 takes no cut: exactly the replay_trace flow, event for
        # event, with only the final result stored.
        reference = _direct("cello-usr", "raid5", 10.0, 3)
        result, cuts = _cold(tmp_path, "cello-usr", "raid5", 10.0, 3, 1)
        assert cuts == 0
        assert replay_digest(result) == replay_digest(reference)
        assert result.events_simulated == reference.events_simulated

    def test_storeless_run_is_the_direct_flow(self):
        # Without a store there is nowhere to keep a cut: none is taken
        # and the run dispatches exactly the direct replay's events.
        reference = _direct("cello-usr", "raid5", 10.0, 3)
        sim, array = _fresh("raid5")
        trace = _trace_for(array, "cello-usr", 10.0, 3)
        result = replay_trace_sharded(sim, array, trace, shards=4)
        assert replay_digest(result) == replay_digest(reference)
        assert result.events_simulated == reference.events_simulated


class TestSinglePass:
    """A cold store costs one pass: nothing is re-simulated.

    Machine-independent: the run's own event count against the direct
    replay's, allowing the one re-arm event each cut adds.
    """

    @pytest.mark.parametrize(
        "workload, duration_s", [("cello-usr", 30.0), ("ATT", 15.0)]
    )
    def test_cold_store_dispatches_no_more_than_direct_plus_cuts(
        self, tmp_path, workload, duration_s
    ):
        direct = _direct(workload, "afraid", duration_s, 42)
        result, cuts = _cold(tmp_path, workload, "afraid", duration_s, 42, 4)
        assert replay_digest(result) == replay_digest(direct)
        assert result.events_simulated <= direct.events_simulated + cuts
        # Every dispatched event is counted, the re-arms included.
        assert result.events_simulated == direct.events_simulated + cuts


class TestSpecEntryPoint:
    def test_run_sharded_replay_digests_agree(self, tmp_path):
        _result1, digest1 = run_sharded_replay(
            "cello-usr", policy="afraid", duration_s=10.0, seed=42, shards=1
        )
        _result2, digest2 = run_sharded_replay(
            "cello-usr", policy="afraid", duration_s=10.0, seed=42, shards=3,
            checkpoint_dir=str(tmp_path / "store"),
        )
        assert digest1 == digest2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_sharded_replay("cello-usr", policy="nonsense", duration_s=5.0)

    def test_bad_shard_count_rejected(self):
        sim, array = _fresh("afraid")
        trace = _trace_for(array, "cello-usr", 5.0, 42)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            replay_trace_sharded(sim, array, trace, shards=0)


class TestObservedCuts:
    def _feeder(self, workload="cello-usr", duration_s=12.0):
        sim, array = _fresh("afraid")
        records = list(_trace_for(array, workload, duration_s, 7))
        return sim, array, _Feeder(sim, array, records, [], []), records

    def test_no_cut_signals_none(self):
        # No arrival at or past the trace's end: the feed runs out first.
        sim, array, feeder, records = self._feeder()
        assert advance_shard(sim, array, feeder, len(records)) is None
        assert feeder.index == len(records)

    def test_cut_lands_at_an_idle_arrival(self):
        sim, array, feeder, records = self._feeder()
        payload = advance_shard(sim, array, feeder, len(records) // 2)
        assert payload is not None
        assert len(records) // 2 <= feeder.index < len(records)
        cut_sim, cut_array, submitted, failures = pickle.loads(payload)
        # Nothing else pending; the record is due at the cut instant, not
        # yet submitted.
        assert not cut_sim._queue and not cut_sim._bucket
        assert cut_sim.now == pytest.approx(records[feeder.index].time_s)
        # The cut carries the count of requests submitted so far, all of
        # them completed, instead of the request objects.
        assert submitted == feeder.index
        assert failures == []
        assert cut_array.stats.completed == submitted
        assert feeder.requests == [] and feeder.completions == []
        # The same run carries on from the cut to the end of the feed.
        assert advance_shard(sim, array, feeder, math.inf) is None
        assert feeder.index == len(records)
