"""Checkpointed trace replay: cuts observed by a single pass.

A long trace is replayed once, front to back, exactly as
:func:`repro.harness.replay.replay_trace` does; along the way the
replay takes up to ``shards - 1`` **cuts** — the complete simulation
state (disk head positions, NVRAM mark memory, parity-lag integrals,
caches, the event kernel itself) pickled into a
:class:`~repro.harness.checkpoint.CheckpointScope` — and carries on.  A
run that drains at its horizon also stores a **tail** there, so a longer
run extends it from where it stopped.  A later replay of the same cell
resumes from the deepest valid cut or tail, or returns the stored final
result outright.

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
* **Request-free snapshots.**  At a quiescent point every submitted
  request has completed, so a snapshot is ``(sim, array, submitted
  count, failures so far)``: the per-request objects are folded away
  (:meth:`repro.harness.replay._Feeder.fold`), latencies live on in
  ``array.stats.io_times``, and a snapshot with a request outstanding
  raises :class:`~repro.harness.checkpoint.CheckpointError`.

Tail rule: after the settle and before finalisation, a run whose heap
and bucket are both empty at its horizon ``H`` stores a tail keyed on
all ``n`` records it consumed, with its last arrival's clock ``c`` and
``H``.  A run of ``n`` identical leading records evolves exactly as the
stored one up to ``H`` as long as nothing it adds happens by then: its
next arrival, due at ``c + (t_n - c)`` (the sum the feeder schedules),
must come strictly after ``H`` — or, when no record follows, its
duration must.  Resuming rewinds the clock to ``c`` (nothing is
pending, so nothing can reorder) and re-arms the feed as at a cut, so
record ``n`` is scheduled at the same float instant.  Runs that end with
work pending store no tail; their extensions fall back to slice cuts.

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
from repro.harness.replay import _Feeder, gc_paused, settle
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
    stream, and parity-lag integrals can.  No per-request object is kept:
    ``stats.io_times`` holds every completed request's latency.
    """

    stats: typing.Any  # repro.array.controller.ArrayStats
    disk_stats: list  # repro.disk.disk.DiskStats per member, in order
    #: (unprotected_fraction, mean_lag_bytes, peak_lag_bytes, total_time)
    parity_lag: tuple[float, float, float, float]
    #: The measurement horizon: max(duration, last completion) + settle.
    horizon_s: float
    #: Requests submitted over the whole replay.
    nrequests: int
    #: Failed requests' exceptions, in submission order.
    failures: list
    #: Every event *this* run dispatched (not the whole simulated
    #: history): a checkpoint-resumed replay reports only its delta, and
    #: a full store hit reports 0.  Excluded from :func:`replay_digest` —
    #: it describes the run, not the simulated results.
    events_simulated: int = 0
    #: Trace records this run did not feed itself: the record count of
    #: the cut or tail it resumed from (0 for a cold start), or every
    #: record for a stored final result.  Excluded from the digest too.
    resumed_at: int = 0
    #: Extra per-run values collected by ``finish_shard``'s ``extras_fn``
    #: (e.g. histogram payloads for :func:`repro.harness.experiment`).
    extras: dict | None = None

    @classmethod
    def from_array(
        cls, array: DiskArray, horizon_s: float, nrequests: int, failures: list
    ) -> "ShardReplayResult":
        tracker = array.lag_tracker
        return cls(
            stats=array.stats,
            disk_stats=[disk.stats for disk in array.disks],
            parity_lag=(
                tracker.unprotected_fraction,
                tracker.mean_parity_lag_bytes,
                tracker.peak_parity_lag_bytes,
                tracker.total_time,
            ),
            horizon_s=horizon_s,
            nrequests=nrequests,
            failures=failures,
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


def snapshot(sim: Simulator, array: DiskArray, feeder: _Feeder) -> bytes:
    """The replay's state as a checkpoint payload: the pickled
    ``(sim, array, submitted, failures)``.

    The feed is folded first (:meth:`~repro.harness.replay._Feeder.fold`),
    so the payload carries the submitted count and the failures so far,
    not the request and completion objects.  Raises
    :class:`~repro.harness.checkpoint.CheckpointError` while a submitted
    request is still outstanding: live objects are never pickled.
    """
    if not feeder.fold():
        # Imported here: the checkpoint store imports the runner, which
        # imports this module through the experiment harness.
        from repro.harness.checkpoint import CheckpointError

        raise CheckpointError(
            f"cannot checkpoint at t={sim.now!r}: a submitted request is still outstanding"
        )
    return pickle.dumps((sim, array, feeder.index, feeder.failures), protocol=PICKLE_PROTOCOL)


def advance_shard(sim: Simulator, array: DiskArray, feeder: _Feeder, cut_at: float) -> bytes | None:
    """Run to the next cut: the first quiescent arrival at or after record ``cut_at``.

    Returns the :func:`snapshot` there — the feed stands paused before
    record ``feeder.index`` — or ``None`` when the feed ended first
    (always so for ``cut_at=math.inf``).  Either way the run itself
    continues with the next call.
    """
    feeder.cut_at = cut_at
    sim.run_until_triggered(feeder.start())
    if feeder.index == len(feeder.records):
        return None
    return snapshot(sim, array, feeder)


def finish_shard(
    sim: Simulator,
    array: DiskArray,
    feeder: _Feeder,
    duration_s: float,
    extra_settle_s: float,
    finalize: bool,
    extras_fn: typing.Callable[..., dict] | None = None,
    checkpoint: "CheckpointScope | None" = None,
) -> ShardReplayResult:
    """Close the books like ``replay_trace`` once the feed has ended.

    With a ``checkpoint`` scope, a run that drains — heap and bucket
    both empty at its horizon — stores a **tail** there, after the
    settle and before finalisation: a longer run sharing every record
    resumes from it (see :meth:`~repro.harness.checkpoint.CheckpointScope.
    lookup_cut` for when that is exact).

    ``extras_fn(sim, array)`` runs after finalisation and its return
    value lands in ``ShardReplayResult.extras``; callers that need more
    than the counters (histogram payloads, end-state gauges) collect them
    here.  ``events_simulated`` is left for the caller to fill in.
    """
    clock = sim.now  # the feed has just ended: the last arrival's clock
    outcome = settle(sim, feeder.requests, feeder.completions, duration_s, extra_settle_s)
    # The settle waited out every submitted request, so the fold succeeds.
    feeder.fold()
    if checkpoint is not None and not sim._queue and not sim._bucket:
        checkpoint.store_cut(
            feeder.records, feeder.index, snapshot(sim, array, feeder),
            tail=(clock, outcome.horizon_s),
        )
    if finalize:
        array.finalize()
    result = ShardReplayResult.from_array(array, outcome.horizon_s, feeder.index, feeder.failures)
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
            result.resumed_at = len(records)
            return result
    with gc_paused():
        start = 0
        failures = None
        cuts: list[int] = []
        if checkpoint is not None:
            resumed = checkpoint.lookup_cut(records, duration_s)
            if resumed is not None:
                start, payload, clock = resumed
                sim, array, _submitted, failures = pickle.loads(payload)
                if clock is not None:
                    # A tail: back to the last arrival's clock, so the
                    # re-armed feed schedules record ``start`` with the
                    # same float sum as the uninterrupted run did.
                    sim._now = clock
            cuts = _slice_starts(records, duration_s, shards)
        base = sim.events_dispatched
        warm_extent_cache(array.layout, records[start:])
        feeder = _Feeder(sim, array, records, [], [], index=start, failures=failures)
        for cut in [*cuts, math.inf]:
            if cut <= feeder.index:  # the resume point or an earlier cut passed it
                continue
            payload = advance_shard(sim, array, feeder, cut)
            if payload is None:
                break
            checkpoint.store_cut(records, feeder.index, payload)
        # A run resumed from a tail at its own last record adds no record;
        # the tail it resumed from has the earlier horizon, so it stays.
        result = finish_shard(
            sim, array, feeder, duration_s, extra_settle_s, finalize, extras_fn,
            checkpoint if start < len(records) else None,
        )
    result.events_simulated = sim.events_dispatched - base
    result.resumed_at = start
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
    organization: str = "raid5",
) -> tuple[ShardReplayResult, str]:
    """Build a fresh paper-configuration array and replay ``workload``.

    ``organization`` picks the redundancy scheme (see
    :mod:`repro.layout.organization`) over its default member count,
    :data:`~repro.array.factory.ORGANIZATION_DEFAULT_NDISKS`.

    Returns the result and its :func:`replay_digest` fingerprint —
    byte-identical for every ``shards`` count and store state.

    ``checkpoint_dir`` names an on-disk :class:`~repro.harness.checkpoint.
    CheckpointStore`: up to ``shards - 1`` quiescent cuts and the final
    result are persisted there and re-runs resume from the deepest
    matching prefix.
    ``checkpoint_max_bytes`` prunes the store's oldest entries past that
    size after the run (mirroring the sweep cache's ``--cache-max-bytes``).
    """
    from repro.array.factory import ORGANIZATION_DEFAULT_NDISKS, build_array
    from repro.traces.catalog import make_trace

    policy_cls = _policy_registry().get(policy)
    if policy_cls is None:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {sorted(_policy_registry())}"
        )
    sim = Simulator()
    array = build_array(
        sim,
        policy_cls(),
        ndisks=ORGANIZATION_DEFAULT_NDISKS[organization],
        organization=organization,
    )
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
                # Named only off RAID 5, as run_experiment keys it, so a
                # RAID 5 replay keeps the paper-array key other code uses.
                **({"organization": organization} if organization != "raid5" else {}),
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
    digest.update(struct.pack("<d", result.horizon_s))
    return digest.hexdigest()
