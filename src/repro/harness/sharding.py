"""Checkpointed trace replay: cuts observed by a single pass.

A long trace is replayed once, front to back, exactly as
:func:`repro.harness.replay.replay_trace` does; along the way the
replay takes up to ``shards - 1`` **cuts** — the complete simulation
state (disk head positions, NVRAM mark memory, parity-lag integrals,
caches, the event kernel itself) pickled into a
:class:`~repro.harness.checkpoint.CheckpointScope` — and carries on.  A
later replay of the same cell resumes from the deepest stored cut whose
trace prefix matches, or returns the stored final result outright.

Cut rule: a cut is taken when the feeder's arrival timer for record
``k`` fires and nothing else is pending (heap and bucket both empty), at
the first such ``k`` at or after each slice index (the first record at or
after ``i * duration / shards``).  That is an idle gap — the same gap
AFRAID scrubs deferred parity in — which the direct replay passes through
anyway, so a cut costs a pickle and no simulation.  A trace with no such
gap takes no cut.

Correctness contract: the result is **byte-identical** (see
:func:`replay_digest`) to ``replay_trace`` on the same inputs, for any
shard count and any store state.  Three properties make that hold:

* **Quiescent cuts.**  At a cut the only thing the simulation still
  owes is record ``k``'s arrival, now.  The feed pauses before
  submitting it and is re-armed with one pre-triggered event at the same
  instant (:meth:`repro.harness.replay._Feeder.start`), whether the run
  continues in place or resumes from the store, so both see the same
  ``(time, seq)`` order from the cut on.  The kick costs one sequence
  number, so a run dispatches one more event per cut than the direct
  replay; the order of everything dispatched is unchanged.
* **Prefix keying.**  The cut stands at record ``k``'s arrival instant,
  so the store keys it on records ``0..k`` inclusive; it is only ever
  resumed into a trace whose prefix is bit-identical up to and including
  that record.
* **Snapshot fidelity.**  The pickle round-trip preserves value state
  bit-for-bit (floats, dict/deque order, the pending-value sentinel —
  see ``_PendingType.__reduce__`` in :mod:`repro.sim.events`).  At a
  quiescent cut no generator frames are live, so the graph contains no
  unpicklable objects.

Without a store there is nowhere to keep a cut, so none is taken and
the run is the direct replay.  Checkpointing assumes a healthy run (no
fault injection mid-trace) and no attached observability sinks holding
OS handles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle
import struct
import typing

from repro.array.controller import DiskArray
from repro.array.batchplan import warm_extent_cache
from repro.harness.replay import ReplayOutcome, _Feeder, gc_paused, settle
from repro.sim import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.checkpoint import CheckpointScope
    from repro.traces import Trace

#: Pickle protocol for every checkpoint payload.
#: Pinned explicitly (not ``HIGHEST_PROTOCOL``) so payloads written by
#: one Python version are readable by another, and so the checkpoint
#: store can name the exact protocol it expects when rejecting entries
#: from a different repro build (see :mod:`repro.harness.checkpoint`).
PICKLE_PROTOCOL = 5


@dataclasses.dataclass
class ShardReplayResult:
    """Everything a sharded replay reports, as plain picklable values.

    The run may stop at the measurement horizon with background
    machinery (the scrub generator) suspended mid-flight, so the live
    simulator cannot be stored as a final result — the counters, latency
    stream, and parity-lag integrals can.
    """

    outcome: ReplayOutcome
    stats: typing.Any  # repro.array.controller.ArrayStats
    disk_stats: list  # repro.disk.disk.DiskStats per member, in order
    #: (unprotected_fraction, mean_lag_bytes, peak_lag_bytes, total_time)
    parity_lag: tuple[float, float, float, float]
    #: Every event *this* run dispatched (not the whole simulated
    #: history): a checkpoint-resumed replay reports only its delta, and
    #: a full store hit reports 0.  Excluded from :func:`replay_digest` —
    #: it describes the run, not the simulated results.
    events_simulated: int = 0
    #: Extra per-run values collected by ``finish_shard``'s ``extras_fn``
    #: (e.g. histogram payloads for :func:`repro.harness.experiment`).
    extras: dict | None = None

    @classmethod
    def from_array(cls, array: DiskArray, outcome: ReplayOutcome) -> "ShardReplayResult":
        tracker = array.lag_tracker
        return cls(
            outcome=outcome,
            stats=array.stats,
            disk_stats=[disk.stats for disk in array.disks],
            parity_lag=(
                tracker.unprotected_fraction,
                tracker.mean_parity_lag_bytes,
                tracker.peak_parity_lag_bytes,
                tracker.total_time,
            ),
        )


def _slice_starts(records: list, duration_s: float, shards: int) -> list[int]:
    """The first record index at or after each of the ``shards - 1`` slice
    boundaries, excluding the trace's two ends, ascending and distinct."""
    starts: set[int] = set()
    total = len(records)
    index = 0
    for i in range(1, shards):
        t = duration_s * i / shards
        while index < total and records[index].time_s < t:
            index += 1
        if 0 < index < total:
            starts.add(index)
    return sorted(starts)


def advance_shard(sim: Simulator, array: DiskArray, feeder: _Feeder, cut_at: float) -> bytes | None:
    """Run to the next cut: the first quiescent arrival at or after record ``cut_at``.

    Returns the pickled ``(sim, array, requests, completions)`` there —
    the feed stands paused before record ``feeder.index`` — or ``None``
    when the feed ended first (always so for ``cut_at=math.inf``).
    Either way the run itself continues with the next call.
    """
    feeder.cut_at = cut_at
    sim.run_until_triggered(feeder.start())
    if feeder.index == len(feeder.records):
        return None
    return pickle.dumps(
        (sim, array, feeder.requests, feeder.completions), protocol=PICKLE_PROTOCOL
    )


def finish_shard(
    sim: Simulator,
    array: DiskArray,
    feeder: _Feeder,
    duration_s: float,
    extra_settle_s: float,
    finalize: bool,
    extras_fn: typing.Callable[..., dict] | None = None,
) -> ShardReplayResult:
    """Close the books like ``replay_trace`` once the feed has ended.

    ``extras_fn(sim, array)`` runs after finalisation and its return
    value lands in ``ShardReplayResult.extras``; callers that need more
    than the counters (histogram payloads, end-state gauges) collect them
    here.  ``events_simulated`` is left for the caller to fill in.
    """
    outcome = settle(sim, feeder.requests, feeder.completions, duration_s, extra_settle_s)
    if finalize:
        array.finalize()
    result = ShardReplayResult.from_array(array, outcome)
    if extras_fn is not None:
        result.extras = extras_fn(sim, array)
    return result


def replay_trace_sharded(
    sim: Simulator,
    array: DiskArray,
    trace: "Trace",
    shards: int = 1,
    extra_settle_s: float = 0.0,
    finalize: bool = True,
    checkpoint: "CheckpointScope | None" = None,
    extras_fn: typing.Callable[..., dict] | None = None,
) -> ShardReplayResult:
    """Replay ``trace`` once, taking up to ``shards - 1`` checkpoint cuts.

    ``sim``/``array`` must be freshly built (nothing scheduled, nothing
    submitted).  ``checkpoint`` — a
    :class:`repro.harness.checkpoint.CheckpointScope` — makes the replay
    incremental: it resumes from the deepest stored cut whose record
    prefix matches this trace (in an unpickled copy, leaving ``sim`` and
    ``array`` untouched), stores every new cut and the final result as
    they are produced, and a byte-identical re-run returns the stored
    result without simulating at all.  Without a store no cut is taken.

    Returns the :class:`ShardReplayResult` — byte-identical (see
    :func:`replay_digest`) to ``replay_trace`` on the same inputs for any
    ``shards`` ≥ 1 and any store state; ``events_simulated`` reports how
    much simulation this particular run actually paid.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    records = list(trace)
    duration_s = trace.duration_s
    if checkpoint is not None:
        stored = checkpoint.lookup_final(records, duration_s, extra_settle_s, finalize)
        if stored is not None:
            result = pickle.loads(stored)
            result.events_simulated = 0
            return result
    with gc_paused():
        requests: list = []
        completions: list = []
        start = 0
        cuts: list[int] = []
        if checkpoint is not None:
            resumed = checkpoint.lookup_cut(records)
            if resumed is not None:
                start, payload = resumed
                sim, array, requests, completions = pickle.loads(payload)
            cuts = _slice_starts(records, duration_s, shards)
        base = sim.events_dispatched
        warm_extent_cache(array.layout, records[start:])
        feeder = _Feeder(sim, array, records, requests, completions, index=start)
        for cut in [*cuts, math.inf]:
            if cut <= feeder.index:  # the resume point or an earlier cut passed it
                continue
            payload = advance_shard(sim, array, feeder, cut)
            if payload is None:
                break
            checkpoint.store_cut(records, feeder.index, payload)
        result = finish_shard(sim, array, feeder, duration_s, extra_settle_s, finalize, extras_fn)
    result.events_simulated = sim.events_dispatched - base
    if checkpoint is not None:
        checkpoint.store_final(
            records, duration_s, extra_settle_s, finalize,
            pickle.dumps(result, protocol=PICKLE_PROTOCOL),
        )
    return result


#: Policies a sharded replay can be parameterised with by name (the
#: spec-string surface used by the CLI and CI determinism checks; the
#: registry idiom matches repro.faults.campaign).
_POLICIES: dict[str, type] = {}


def _policy_registry() -> dict[str, type]:
    if not _POLICIES:
        from repro.policy import (
            AlwaysRaid5Policy,
            BaselineAfraidPolicy,
            NeverScrubPolicy,
        )

        _POLICIES.update(
            afraid=BaselineAfraidPolicy, raid5=AlwaysRaid5Policy, raid0=NeverScrubPolicy
        )
    return _POLICIES


def run_sharded_replay(
    workload: str,
    policy: str = "afraid",
    duration_s: float = 30.0,
    seed: int = 42,
    shards: int = 1,
    checkpoint_dir: str | None = None,
    checkpoint_max_bytes: int | None = None,
) -> tuple[ShardReplayResult, str]:
    """Build a fresh paper-configuration array and replay ``workload``.

    Returns the result and its :func:`replay_digest` fingerprint —
    byte-identical for every ``shards`` count and store state.

    ``checkpoint_dir`` names an on-disk :class:`~repro.harness.checkpoint.
    CheckpointStore`: up to ``shards - 1`` quiescent cuts and the final
    result are persisted there and re-runs resume from the deepest
    matching prefix.
    ``checkpoint_max_bytes`` prunes the store's oldest entries past that
    size after the run (mirroring the sweep cache's ``--cache-max-bytes``).
    """
    from repro.array.factory import build_array
    from repro.traces.catalog import make_trace

    policy_cls = _policy_registry().get(policy)
    if policy_cls is None:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {sorted(_policy_registry())}"
        )
    sim = Simulator()
    array = build_array(sim, policy_cls())
    trace = make_trace(
        workload,
        duration_s=duration_s,
        seed=seed,
        address_space_sectors=array.layout.total_data_sectors,
    )
    scope = None
    store = None
    if checkpoint_dir is not None:
        from repro.harness.checkpoint import CheckpointStore

        store = CheckpointStore(checkpoint_dir)
        scope = store.scope(
            {
                "surface": "run_sharded_replay",
                "workload": workload,
                "seed": seed,
                "policy": policy,
                "array": "paper-default",
            }
        )
    result = replay_trace_sharded(sim, array, trace, shards=shards, checkpoint=scope)
    if store is not None and checkpoint_max_bytes is not None:
        store.prune(checkpoint_max_bytes)
    return result, replay_digest(result)


def replay_digest(result: ShardReplayResult) -> str:
    """Order-sensitive fingerprint of a replay's observable results.

    Covers the per-request latency stream (exact doubles, in completion
    order), every controller counter, each member disk's mechanical
    integrals, the parity-lag integrals, and the horizon — the same
    surface the golden-replay gate asserts on.  Equal digests mean the
    runs were byte-identical as far as any consumer can tell.
    """
    digest = hashlib.sha256()
    stats = dataclasses.asdict(result.stats)
    io_times = stats.pop("io_times")
    digest.update(struct.pack(f"<{len(io_times)}d", *io_times))
    for key in sorted(stats):
        digest.update(f"{key}={stats[key]};".encode())
    for d in result.disk_stats:
        digest.update(
            struct.pack(
                "<4d4q",
                d.busy_time, d.seek_time, d.rotational_latency, d.transfer_time,
                d.reads, d.writes, d.sectors_read, d.sectors_written,
            )
        )
    digest.update(struct.pack("<4d", *result.parity_lag))
    digest.update(struct.pack("<d", result.outcome.horizon_s))
    return digest.hexdigest()
