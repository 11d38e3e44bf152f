"""Checkpointed incremental replay: equivalence, eviction, recovery.

The contract under test (repro.harness.checkpoint): resuming a replay
from *any* stored quiescent-cut prefix — or from the stored final
result — produces a `replay_digest` bit-identical to a cold replay, for
every policy × workload × shard count; a pruned, corrupted, or
version-mismatched store never silently corrupts a resume (eviction and
truncation fall back to cold, a foreign version is refused loudly).
"""

import gc
import glob
import hashlib
import json
import os
import pickle
import shutil
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.factory import build_array
from repro.array.request import ArrayRequest
from repro.disk import IoKind
from repro.harness import checkpoint as checkpoint_mod
from repro.harness.experiment import run_experiment
from repro.harness.checkpoint import (
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    PrefixDigest,
)
from repro.harness.replay import _Feeder
from repro.harness.sharding import (
    PICKLE_PROTOCOL,
    replay_digest,
    replay_trace_sharded,
    run_sharded_replay,
    snapshot,
)
from repro.layout.organization import ORGANIZATIONS
from repro.metrics import PerfCounters
from repro.obs import ExposureMonitor, HistogramSet, MetricsRegistry, Tracer
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy
from repro.sim import Simulator
from repro.traces import make_trace
from repro.traces.records import TraceRecord

POLICIES = {
    "afraid": BaselineAfraidPolicy,
    "raid5": AlwaysRaid5Policy,
    "raid0": NeverScrubPolicy,
}


def _replay(workload, policy, duration_s, seed=42, shards=4, scope=None, extra_settle_s=0.0):
    sim = Simulator()
    array = build_array(sim, POLICIES[policy]())
    trace = make_trace(
        workload,
        duration_s=duration_s,
        seed=seed,
        address_space_sectors=array.layout.total_data_sectors,
    )
    result = replay_trace_sharded(
        sim, array, trace, shards=shards, checkpoint=scope, extra_settle_s=extra_settle_s
    )
    return result, replay_digest(result)


def _scope(tmp_path, workload, policy, seed=42):
    store = CheckpointStore(tmp_path / "store")
    return store, store.scope(
        {"workload": workload, "policy": policy, "seed": seed, "array": "paper-default"}
    )


def _entry_files(scope, kind="*"):
    return sorted(glob.glob(os.path.join(scope.path, f"{kind}-*.ckpt")))


def _records(workload, duration_s, seed=42):
    array = build_array(Simulator(), AlwaysRaid5Policy())
    return list(
        make_trace(
            workload,
            duration_s=duration_s,
            seed=seed,
            address_space_sectors=array.layout.total_data_sectors,
        )
    )


# -- equivalence: cold vs resume-from-every-prefix --------------------------------------


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("workload", ["cello-usr", "ATT"])
def test_resume_from_every_prefix_matches_cold(tmp_path, workload, policy):
    """Seed the store with each stored prefix in turn; every resume point
    (including the empty store and the full final-result hit) must
    reproduce the cold digest exactly."""
    duration = 12.0
    _, cold_digest = _replay(workload, policy, duration)

    _, scope = _scope(tmp_path, workload, policy)
    populated, digest = _replay(workload, policy, duration, scope=scope)
    assert digest == cold_digest
    assert populated.events_simulated > 0

    entries = _entry_files(scope)
    cuts = [path for path in entries if os.path.basename(path).startswith("cut-")]
    # Replay once per prefix depth: store holds exactly the first k cuts.
    for k in range(len(cuts) + 1):
        prefix_dir = tmp_path / f"prefix-{k}"
        prefix_scope_path = prefix_dir / "store" / os.path.basename(scope.path)
        os.makedirs(prefix_scope_path)
        for path in cuts[:k]:
            shutil.copy2(path, prefix_scope_path)
        store = CheckpointStore(prefix_dir / "store")
        prefix_scope = store.scope(
            {"workload": workload, "policy": policy, "seed": 42, "array": "paper-default"}
        )
        assert prefix_scope.path == str(prefix_scope_path)
        resumed, resumed_digest = _replay(workload, policy, duration, scope=prefix_scope)
        assert resumed_digest == cold_digest, f"prefix depth {k} diverged"
        if k:
            assert resumed.events_simulated <= populated.events_simulated

    # Full store: the final entry answers without simulating at all.
    warm, warm_digest = _replay(workload, policy, duration, scope=scope)
    assert warm_digest == cold_digest
    assert warm.events_simulated == 0


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_cold_vs_resumed_across_shard_counts(tmp_path, shards):
    _, cold_digest = _replay("cello-usr", "afraid", 12.0, shards=shards)
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _, first = _replay("cello-usr", "afraid", 12.0, shards=shards, scope=scope)
    resumed, second = _replay("cello-usr", "afraid", 12.0, shards=shards, scope=scope)
    assert first == cold_digest
    assert second == cold_digest
    assert resumed.events_simulated == 0


def test_duration_extension_resumes_from_cuts(tmp_path):
    """Extending --duration pays only the suffix: the longer trace's
    replay resumes from the 12 s run's deepest cut, and its digest equals
    a cold 20 s replay's."""
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    _, cold_digest = _replay("cello-usr", "afraid", 20.0)
    extended, digest = _replay("cello-usr", "afraid", 20.0, scope=scope)
    cold, _ = _replay("cello-usr", "afraid", 20.0)
    assert digest == cold_digest
    assert 0 < extended.events_simulated < cold.events_simulated


def test_run_sharded_replay_checkpoint_round_trip(tmp_path):
    store_dir = str(tmp_path / "store")
    cold, cold_digest = run_sharded_replay(
        "snake", duration_s=10.0, shards=2, checkpoint_dir=store_dir
    )
    warm, warm_digest = run_sharded_replay(
        "snake", duration_s=10.0, shards=2, checkpoint_dir=store_dir
    )
    _, plain_digest = run_sharded_replay("snake", duration_s=10.0, shards=2)
    assert cold_digest == warm_digest == plain_digest
    assert cold.events_simulated > 0
    assert warm.events_simulated == 0


# -- store maintenance: eviction --------------------------------------------------------


def test_prune_evicts_oldest_and_replay_falls_back_cold(tmp_path):
    store, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    assert store.size_bytes() > 0
    assert store.listing()

    removed, freed = store.prune(0)
    assert removed > 0
    assert freed > 0
    assert store.size_bytes() == 0
    # Emptied scope directories are cleaned up too.
    assert not os.path.isdir(scope.path)

    # The evicted store is a plain cold start, not an error.
    cold, digest = _replay("cello-usr", "afraid", 12.0, scope=scope)
    _, expected = _replay("cello-usr", "afraid", 12.0)
    assert digest == expected
    assert cold.events_simulated > 0


def test_prune_keeps_entries_under_budget(tmp_path):
    store, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    total = store.size_bytes()
    removed, freed = store.prune(total)
    assert (removed, freed) == (0, 0)
    assert store.size_bytes() == total


# -- recovery: corruption and version skew ----------------------------------------------


def _corrupt_truncate(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])


def test_truncated_entry_is_discarded_and_replay_stays_exact(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    for path in _entry_files(scope):
        _corrupt_truncate(path)
    resumed, digest = _replay("cello-usr", "afraid", 12.0, scope=scope)
    _, expected = _replay("cello-usr", "afraid", 12.0)
    assert digest == expected
    assert resumed.events_simulated > 0  # nothing usable survived → cold


def test_deepest_truncated_cut_falls_back_to_shallower(tmp_path):
    # hplajw (seed 1) has the same 165 records at 240 and 360 s, so the
    # 240-s run's drained tail is the deepest entry a 360-s run can
    # resume from; truncated, the run must fall back to the deepest cut.
    _, scope = _scope(tmp_path, "hplajw", "afraid", seed=1)
    populated, _ = _replay("hplajw", "afraid", 240.0, seed=1, scope=scope, shards=6)
    cuts = _entry_files(scope, "cut")
    (tail,) = _entry_files(scope, "tail")
    assert len(cuts) >= 2, "expected multiple quiescent cuts at this duration"
    long_records = _records("hplajw", 360.0, seed=1)
    assert scope.lookup_cut(long_records, 360.0)[0] == len(long_records)
    _corrupt_truncate(tail)
    resumed, digest = _replay("hplajw", "afraid", 360.0, seed=1, scope=scope, shards=6)
    cold, expected = _replay("hplajw", "afraid", 360.0, seed=1, shards=6)
    assert digest == expected
    assert resumed.resumed_at == int(os.path.basename(cuts[-1])[4:-5])
    assert 0 < resumed.events_simulated < cold.events_simulated
    assert resumed.events_simulated < populated.events_simulated
    # Discarded on sight, then rewritten intact by the resumed replay.
    assert scope._read(os.path.basename(tail)) is not None


def test_garbage_entry_is_discarded(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    path = _entry_files(scope)[0]
    with open(path, "wb") as handle:
        handle.write(b"not a checkpoint at all")
    assert scope._read(os.path.basename(path)) is None
    assert not os.path.exists(path)


def test_version_mismatch_is_refused_naming_both(tmp_path, monkeypatch):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    monkeypatch.setattr(checkpoint_mod, "_REPRO_VERSION", "99.0.0")
    with pytest.raises(CheckpointVersionError) as excinfo:
        _replay("cello-usr", "afraid", 12.0, scope=scope)
    message = str(excinfo.value)
    assert "99.0.0" in message  # the running version
    assert "1.0" in message  # the version that wrote the entry
    assert "--checkpoint-dir" in message


def test_protocol_mismatch_is_refused(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    path = _entry_files(scope)[0]
    with open(path, "rb") as handle:
        blob = handle.read()
    magic = checkpoint_mod._MAGIC
    rest = blob[len(magic):]
    header_line, _, payload = rest.partition(b"\n")
    header = json.loads(header_line)
    header["protocol"] = PICKLE_PROTOCOL + 1
    rewritten = magic + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    with open(path, "wb") as handle:
        handle.write(rewritten)
    with pytest.raises(CheckpointVersionError) as excinfo:
        scope._read(os.path.basename(path))
    assert str(PICKLE_PROTOCOL) in str(excinfo.value)


# -- drained tails: extending from where a stored run stopped ---------------------------


def _tail_header(scope):
    (path,) = _entry_files(scope, "tail")
    header, _payload = scope._read(os.path.basename(path))
    return header


def test_identical_records_at_a_longer_duration_resume_from_the_tail(tmp_path):
    """hplajw (seed 1) has the same 165 records at 240 and 360 s: the
    360-s run resumes from the 240-s run's tail and simulates only its own
    settle — the re-armed feed's kick and the gather."""
    assert _records("hplajw", 240.0, seed=1) == _records("hplajw", 360.0, seed=1)
    _, scope = _scope(tmp_path, "hplajw", "afraid", seed=1)
    _replay("hplajw", "afraid", 240.0, seed=1, scope=scope)
    header = _tail_header(scope)
    assert header["consumed"] == 165
    assert float.fromhex(header["horizon"]) == 240.0
    extended, digest = _replay("hplajw", "afraid", 360.0, seed=1, scope=scope)
    _, expected = _replay("hplajw", "afraid", 360.0, seed=1)
    assert digest == expected
    assert extended.resumed_at == 165
    assert extended.events_simulated == 2
    # The resumed run added no record: the tail with the earlier horizon,
    # valid for more durations, is the one kept.
    assert float.fromhex(_tail_header(scope)["horizon"]) == 240.0
    # A run of the same records ending no later than the tail's horizon
    # cannot resume from it; a slice cut is the deepest entry left.
    records = _records("hplajw", 240.0, seed=1)
    assert scope.lookup_cut(records, 360.0)[0] == 165
    assert scope.lookup_cut(records, 240.0)[0] < 165
    assert scope.lookup_cut(records)[0] < 165


def test_run_ending_with_work_pending_stores_no_tail_and_extends_from_a_cut(tmp_path):
    # snake (seed 3) is still scrubbing at its 12-s horizon.
    _, scope = _scope(tmp_path, "snake", "afraid", seed=3)
    _replay("snake", "afraid", 12.0, seed=3, scope=scope)
    assert not _entry_files(scope, "tail")
    cuts = _entry_files(scope, "cut")
    assert cuts
    extended, digest = _replay("snake", "afraid", 20.0, seed=3, scope=scope)
    cold, expected = _replay("snake", "afraid", 20.0, seed=3)
    assert digest == expected
    assert extended.resumed_at == int(os.path.basename(cuts[-1])[4:-5])
    assert 0 < extended.events_simulated < cold.events_simulated


def test_tail_whose_horizon_passes_the_next_arrival_is_not_resumed(tmp_path):
    """A settle that runs past the longer trace's next arrival simulated
    an interval the longer run spends differently: its tail is refused."""
    short = _records("hplajw", 40.0, seed=1)
    long = _records("hplajw", 60.0, seed=1)
    assert long[: len(short)] == short and len(long) > len(short)
    extra = long[len(short)].time_s - 40.0 + 1.0  # horizon 1 s past the arrival
    _, scope = _scope(tmp_path, "hplajw", "afraid", seed=1)
    _replay("hplajw", "afraid", 40.0, seed=1, scope=scope, extra_settle_s=extra)
    header = _tail_header(scope)
    assert float.fromhex(header["horizon"]) > long[len(short)].time_s
    extended, digest = _replay("hplajw", "afraid", 60.0, seed=1, scope=scope)
    cold, expected = _replay("hplajw", "afraid", 60.0, seed=1)
    assert digest == expected
    assert 0 < extended.resumed_at < len(short)  # a slice cut, not the tail
    assert 0 < extended.events_simulated < cold.events_simulated
    # Without the long settle the same stored run's tail is taken.
    _, fresh = _scope(tmp_path / "fresh", "hplajw", "afraid", seed=1)
    _replay("hplajw", "afraid", 40.0, seed=1, scope=fresh)
    from_tail, digest = _replay("hplajw", "afraid", 60.0, seed=1, scope=fresh)
    assert digest == expected
    assert from_tail.resumed_at == len(short)


# -- request-free snapshots -------------------------------------------------------------


def _reachable(root, cls):
    """Instances of ``cls`` reachable from ``root`` through gc referents."""
    seen = {id(root)}
    stack = [root]
    found = 0
    while stack:
        obj = stack.pop()
        found += isinstance(obj, cls)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return found


def test_late_snapshots_hold_no_request_objects(tmp_path):
    _, scope = _scope(tmp_path, "AS400-2", "afraid", seed=1)
    result, _ = _replay("AS400-2", "afraid", 240.0, seed=1, scope=scope)
    late = [_entry_files(scope, "cut")[-1], *_entry_files(scope, "tail")]
    assert len(late) == 2
    for path in late:
        header, payload = scope._read(os.path.basename(path))
        state = pickle.loads(payload)
        _sim, array, submitted, failures = state
        assert submitted == header["consumed"] and failures == []
        assert array.stats.completed == submitted
        assert _reachable(state, ArrayRequest) == 0
    final = pickle.loads(scope._read(os.path.basename(_entry_files(scope, "final")[0]))[1])
    assert final.nrequests == result.nrequests == _tail_header(scope)["consumed"]
    assert _reachable(final, ArrayRequest) == 0


def test_fold_with_an_outstanding_request_raises():
    sim = Simulator()
    array = build_array(sim, BaselineAfraidPolicy())
    feeder = _Feeder(sim, array, _records("cello-usr", 12.0), [], [])
    feeder.start()
    while not any(completion.callbacks is not None for completion in feeder.completions):
        sim.step()
    outstanding = list(feeder.completions)
    with pytest.raises(CheckpointError, match="outstanding"):
        snapshot(sim, array, feeder)
    # Nothing was folded away: the run can still settle every request.
    assert feeder.completions == outstanding and not feeder.failures


# -- keying -----------------------------------------------------------------------------


def test_prefix_digest_guards_against_different_trace_content(tmp_path):
    """Two workloads sharing a scope (forced, by lying in the config) must
    never resume from each other's cuts — the record-prefix digest is the
    last line of defence."""
    store = CheckpointStore(tmp_path / "store")
    config = {"deliberately": "shared"}
    scope = store.scope(config)

    sim = Simulator()
    array = build_array(sim, BaselineAfraidPolicy())
    trace_a = make_trace(
        "cello-usr", duration_s=12.0, seed=42,
        address_space_sectors=array.layout.total_data_sectors,
    )
    replay_trace_sharded(sim, array, trace_a, shards=4, checkpoint=scope)
    assert _entry_files(scope, "cut")

    sim2 = Simulator()
    array2 = build_array(sim2, BaselineAfraidPolicy())
    trace_b = make_trace(
        "snake", duration_s=12.0, seed=42,
        address_space_sectors=array2.layout.total_data_sectors,
    )
    assert scope.lookup_cut(list(trace_b)) is None
    result = replay_trace_sharded(sim2, array2, trace_b, shards=4, checkpoint=scope)
    fresh_sim = Simulator()
    fresh_array = build_array(fresh_sim, BaselineAfraidPolicy())
    expected = replay_trace_sharded(fresh_sim, fresh_array, trace_b, shards=4)
    assert replay_digest(result) == replay_digest(expected)


def test_records_digest_is_prefix_consistent():
    sim = Simulator()
    array = build_array(sim, BaselineAfraidPolicy())
    short = list(
        make_trace(
            "cello-usr", duration_s=8.0, seed=42,
            address_space_sectors=array.layout.total_data_sectors,
        )
    )
    long = list(
        make_trace(
            "cello-usr", duration_s=16.0, seed=42,
            address_space_sectors=array.layout.total_data_sectors,
        )
    )
    assert len(long) > len(short)
    assert PrefixDigest(long).at(len(short)) == PrefixDigest(short).at(len(short))


def _scratch_digest(records, upto):
    """The from-scratch oracle: sha256 over each record's packed fields."""
    digest = hashlib.sha256()
    for record in records[:upto]:
        digest.update(
            struct.pack(
                "<dqqBB", record.time_s, record.offset_sectors, record.nsectors,
                1 if record.is_write else 0, 1 if record.sync else 0,
            )
        )
    return digest.hexdigest()


_RECORDS = st.lists(
    st.builds(
        TraceRecord,
        time_s=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        kind=st.sampled_from([IoKind.READ, IoKind.WRITE]),
        offset_sectors=st.integers(min_value=0, max_value=2**40),
        nsectors=st.integers(min_value=1, max_value=256),
        sync=st.booleans(),
    ),
    max_size=30,
)


@given(records=_RECORDS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_running_prefix_digest_matches_scratch_digest(records, data):
    positions = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(records)), min_size=1, max_size=8)
    )
    # Always ask below a position already reached, which must restart.
    positions += [len(records), len(records) // 2]
    digest = PrefixDigest(records)
    for upto in positions:
        assert digest.at(upto) == _scratch_digest(records, upto)


def test_cold_and_extended_checkpointed_runs_pack_each_record_once(tmp_path, monkeypatch):
    made = []

    class Recorded(PrefixDigest):
        def __init__(self, records):
            super().__init__(records)
            made.append(self)

    monkeypatch.setattr(checkpoint_mod, "PrefixDigest", Recorded)
    for duration_s in (20.0, 30.0):  # cold, then extended from the stored cuts
        made.clear()
        sim = Simulator()
        array = build_array(sim, AlwaysRaid5Policy())
        trace = make_trace(
            "cello-usr", duration_s=duration_s, seed=42,
            address_space_sectors=array.layout.total_data_sectors,
        )
        run_experiment(trace, AlwaysRaid5Policy(), checkpoint_dir=str(tmp_path / "store"))
        assert len(made) == 1
        assert 0 < made[0].packed <= len(trace.records)


def test_scope_key_covers_code_fingerprint(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path / "store")
    key_before = store.scope({"a": 1}).key
    monkeypatch.setattr(checkpoint_mod, "code_fingerprint", lambda: "different")
    assert store.scope({"a": 1}).key != key_before


def test_stored_payloads_use_pinned_protocol(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    for path in _entry_files(scope):
        entry = scope._read(os.path.basename(path))
        assert entry is not None
        header, payload = entry
        assert header["protocol"] == PICKLE_PROTOCOL
        # proto 2+ frames open with PROTO opcode naming the version.
        assert payload[0:1] == b"\x80" and payload[1] == PICKLE_PROTOCOL
        pickle.loads(payload)  # revivable


# -- run_experiment: every organization, every store state ------------------------------

#: A valid member count per organization (RAID 1 is exactly one pair).
NDISKS = {"raid5": 5, "raid5d": 6, "raid1": 2, "raid10": 6, "raid15": 6}


def test_every_organization_has_a_member_count():
    assert set(NDISKS) == set(ORGANIZATIONS)


@pytest.mark.parametrize("policy", ["afraid", "raid5"])
@pytest.mark.parametrize("organization", sorted(NDISKS))
def test_experiment_cold_warm_extended_equal_direct(tmp_path, organization, policy):
    """Cold store, warm final hit, resume from a stored cut (20 → 30 s)
    and the direct path all give an equal ExperimentResult."""
    store = str(tmp_path / "store")

    def run(duration_s, checkpoint_dir=None):
        counters = PerfCounters()
        result = run_experiment(
            "cello-usr",
            POLICIES[policy](),
            duration_s=duration_s,
            seed=3,
            ndisks=NDISKS[organization],
            organization=organization,
            counters=counters,
            checkpoint_dir=checkpoint_dir,
        )
        return result, counters.counts["events_dispatched"]

    direct20, direct20_events = run(20.0)
    direct30, direct30_events = run(30.0)
    cold, _ = run(20.0, store)
    assert glob.glob(os.path.join(store, "*", "cut-*.ckpt")), "no cut to resume from"
    warm, warm_events = run(20.0, store)
    extended, extended_events = run(30.0, store)
    assert cold == direct20
    assert warm == direct20
    assert extended == direct30
    assert warm_events == 0
    assert 0 < extended_events < direct30_events
    assert direct20_events > 0


@pytest.mark.parametrize(
    "name, value",
    [
        ("tracer", Tracer()),
        ("registry", MetricsRegistry()),
        ("on_array", lambda sim, array: None),
        ("histograms", HistogramSet()),
        ("exposure", ExposureMonitor()),
    ],
)
def test_experiment_checkpoint_with_observer_is_refused(tmp_path, name, value):
    with pytest.raises(ValueError, match=f"{name}=.*checkpoint_dir="):
        run_experiment(
            "cello-usr",
            BaselineAfraidPolicy(),
            duration_s=2.0,
            checkpoint_dir=str(tmp_path / "store"),
            **{name: value},
        )
    assert not glob.glob(str(tmp_path / "store" / "*"))
