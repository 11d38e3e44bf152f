"""Checkpointed incremental replay: equivalence, eviction, recovery.

The contract under test (repro.harness.checkpoint): resuming a replay
from *any* stored quiescent-cut prefix — or from the stored final
result — produces a `replay_digest` bit-identical to a cold replay, for
every policy × workload × shard count; a pruned, corrupted, or
version-mismatched store never silently corrupts a resume (eviction and
truncation fall back to cold, a foreign version is refused loudly).
"""

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
from repro.disk import IoKind
from repro.harness import checkpoint as checkpoint_mod
from repro.harness.experiment import run_experiment
from repro.harness.checkpoint import (
    CheckpointStore,
    CheckpointVersionError,
    PrefixDigest,
)
from repro.harness.sharding import (
    PICKLE_PROTOCOL,
    replay_digest,
    replay_trace_sharded,
    run_sharded_replay,
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


def _replay(workload, policy, duration_s, seed=42, shards=4, scope=None):
    sim = Simulator()
    array = build_array(sim, POLICIES[policy]())
    trace = make_trace(
        workload,
        duration_s=duration_s,
        seed=seed,
        address_space_sectors=array.layout.total_data_sectors,
    )
    result = replay_trace_sharded(sim, array, trace, shards=shards, checkpoint=scope)
    return result, replay_digest(result)


def _scope(tmp_path, workload, policy, seed=42):
    store = CheckpointStore(tmp_path / "store")
    return store, store.scope(
        {"workload": workload, "policy": policy, "seed": seed, "array": "paper-default"}
    )


def _entry_files(scope, kind="*"):
    return sorted(glob.glob(os.path.join(scope.path, f"{kind}-*.ckpt")))


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
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    populated, _ = _replay("cello-usr", "afraid", 24.0, scope=scope, shards=6)
    cuts = _entry_files(scope, "cut")
    assert len(cuts) >= 2, "expected multiple quiescent cuts at this duration"
    for path in _entry_files(scope, "final"):
        os.unlink(path)
    _corrupt_truncate(cuts[-1])
    resumed, digest = _replay("cello-usr", "afraid", 24.0, scope=scope, shards=6)
    _, expected = _replay("cello-usr", "afraid", 24.0, shards=6)
    assert digest == expected
    assert 0 < resumed.events_simulated < populated.events_simulated
    # Discarded on sight, then rewritten intact by the resumed replay.
    assert scope._read(os.path.basename(cuts[-1])) is not None


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
