"""The benchmark's three workloads, their output digests and program counters.

Every workload is a fixed list of *cells* built from the benchmark seed.
``setup()`` makes the inputs (traces, array geometry, the service) and
``run_pass()`` runs every cell once, returning what a user would see:
host seconds, simulated requests, and a digest of each cell's simulated
output.  The benchmark repeats passes for the measured window.

The program is reached only through its public entry points, always
looked up on the owning module at call time, so the span wrappers of
``spans.py`` see every call.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pathlib
import shutil
import statistics
import struct
import threading
import time

import calibrate
from repro.array import factory
from repro.availability import TABLE_1
from repro.harness import experiment, replay, runner
from repro.metrics import PerfCounters
from repro.obs import ExposureMonitor, HistogramSet, Tracer
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy
from repro.service import client as service_client
from repro.service import manager as service_manager
from repro.service import server as service_server
from repro.sim import Simulator
from repro.traces import make_trace

_perf = time.perf_counter

# -- digests ------------------------------------------------------------------------


def _canonical(value) -> bytes:
    """JSON bytes that survive a JSON round trip unchanged (int keys -> str)."""
    return json.dumps(json.loads(json.dumps(value)), sort_keys=True).encode()


def array_digest(array, ordered: bool = True) -> str:
    """Digest of a directly replayed cell, read off the live array.

    Covers every controller counter, an exact sha256 of the per-request
    latency stream, the parity-lag integral, each member disk's counters
    and the latency and dirty-dwell histogram payloads.  ``ordered=False``
    hashes the latency stream sorted, so only completion order is ignored.
    """
    stats = dataclasses.asdict(array.stats)
    io_times = stats.pop("io_times")
    if not ordered:
        io_times.sort()
    tracker = array.lag_tracker
    digest = hashlib.sha256()
    digest.update(_canonical(stats))
    digest.update(hashlib.sha256(struct.pack(f"<{len(io_times)}d", *io_times)).digest())
    digest.update(struct.pack(
        "<4d", tracker.unprotected_fraction, tracker.mean_parity_lag_bytes,
        tracker.peak_parity_lag_bytes, tracker.total_time,
    ))
    for disk in array.disks:
        digest.update(_canonical(dataclasses.asdict(disk.stats)))
    digest.update(_canonical(array.hists.to_payload() if array.hists else None))
    digest.update(_canonical(array.exposure.hists.to_payload() if array.exposure else None))
    return digest.hexdigest()


def result_digest(result) -> str:
    """Digest of an :class:`ExperimentResult` (what the runner and service return).

    The cache and the service carry no live array, so this covers the
    result's counters, its latency summary, lag figures and histograms.
    """
    return hashlib.sha256(_canonical(runner.result_to_payload(result))).hexdigest()


def array_counters(array, requests: int) -> dict:
    """The program's own counters for one finished cell."""
    drivers = array.drivers
    disks = [disk.stats for disk in array.disks]
    return {
        "requests": requests,
        "completed": array.stats.completed,
        "driver_submitted": sum(d.stats.submitted for d in drivers),
        "driver_completed": sum(d.stats.completed + d.stats.failed for d in drivers),
        "driver_queue_s": sum(d.stats.queue_time for d in drivers),
        "disk_ios": sum(d.ios for d in disks),
        "disk_busy_s": sum(d.busy_time for d in disks),
        "stripes_scrubbed": array.stats.stripes_scrubbed,
        "cache_hits": array.read_cache.stats.hits,
        "cache_lookups": array.read_cache.stats.lookups,
    }


@dataclasses.dataclass
class CellRun:
    """One cell's outcome within a pass."""

    label: str
    host_s: float
    requests: int
    digest: str | None
    counters: dict | None = None
    error: str | None = None
    #: The finished array (direct cells only), for cross-cell checks.
    array: object = dataclasses.field(default=None, repr=False)
    #: Reference-loop timings taken right after the cell.
    calibration_s: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class PassRun:
    """One pass over a workload's cells."""

    cells: list[CellRun]
    #: Host seconds of each timed unit (a cell, or a sweep phase).
    units: dict
    #: Simulated requests the timed units completed.
    requests: int
    #: Operations attempted and failed (cells, submissions, equality checks).
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    latencies_s: list = dataclasses.field(default_factory=list)
    extra: dict = dataclasses.field(default_factory=dict)
    #: Host seconds of the reference loop, run after each timed unit.
    calibration_s: list = dataclasses.field(default_factory=list)


class _Capture:
    """``on_array`` hook keeping the array ``run_experiment`` built."""

    def __init__(self) -> None:
        self.array = None

    def __call__(self, _sim, array) -> None:
        self.array = array


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: pathlib.Path, recorder) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder

    def setup(self) -> dict:
        """Build the inputs once; returns ``{component: seconds}``."""
        raise NotImplementedError

    def run_pass(self, index: int, tag: str) -> PassRun:
        raise NotImplementedError

    def references(self) -> dict:
        """Extra direct runs the per-layer ledger needs (trace mode only)."""
        return {}

    def close(self) -> None:
        pass

    # -- shared helpers ------------------------------------------------------------

    def _label(self, tag: str, label: str) -> None:
        if self.recorder is not None:
            self.recorder.cell = f"{tag}/{label}"

    def _direct_cell(
        self, tag: str, label: str, trace, policy, keep_array: bool = False, **kwargs
    ) -> CellRun:
        """``run_experiment`` on a pre-built trace, timed, digested, counted.

        The previous cell's garbage is collected first, outside the timed
        interval: a user runs one cell per command and never pays for it.
        """
        self._label(tag, label)
        capture = _Capture()
        counters = PerfCounters()
        gc.collect()
        started = _perf()
        try:
            result = experiment.run_experiment(
                trace, policy, counters=counters, on_array=capture, **kwargs
            )
        except Exception as exc:  # a failed replay is a failed operation, not a crash
            return CellRun(label, _perf() - started, 0, None, error=f"{type(exc).__name__}: {exc}")
        host_s = _perf() - started
        if self.recorder is not None:
            for phase, seconds in counters.timings_s.items():
                self.recorder.add(f"experiment.{phase}_s", seconds)
        return CellRun(
            label, host_s, result.nrequests, array_digest(capture.array),
            array_counters(capture.array, len(trace)),
            array=capture.array if keep_array else None,
            calibration_s=calibrate.sample(host_s),
        )


def _cells_pass(cells: list[CellRun]) -> PassRun:
    run = PassRun(
        cells=cells,
        units={cell.label: cell.host_s for cell in cells},
        requests=sum(cell.requests for cell in cells),
        attempted=len(cells),
    )
    for cell in cells:
        if cell.error is not None:
            run.failed += 1
            run.problems.append(f"{cell.label}: {cell.error}")
        run.calibration_s += cell.calibration_s
    return run


_POLICIES = {"raid0": NeverScrubPolicy, "afraid": BaselineAfraidPolicy, "raid5": AlwaysRaid5Policy}


def _policy(kind: str):
    return _POLICIES[kind]()


class PaperReplay(Workload):
    """Table 2's cells: netware and ATT through RAID 0, AFRAID and RAID 5.

    300 simulated seconds of either trace has ~16-17k distinct extents,
    twice the layout's 8192-entry extent cache, so prewarm is skipped and
    the batch planner may fire.
    """

    name = "paper-replay"
    TRACES = ("netware", "ATT")
    POLICIES = ("raid0", "afraid", "raid5")
    DURATION_S = 300.0

    def setup(self) -> dict:
        started = _perf()
        sim = Simulator()
        array = factory.build_array(sim, AlwaysRaid5Policy())
        built = _perf()
        space = array.layout.total_data_sectors
        self.traces = {
            name: make_trace(name, duration_s=self.DURATION_S, address_space_sectors=space,
                             seed=self.seed)
            for name in self.TRACES
        }
        return {"build_s": built - started, "synth_s": _perf() - built}

    def run_pass(self, index: int, tag: str) -> PassRun:
        cells = [
            self._direct_cell(tag, f"{trace}/{kind}", self.traces[trace], _policy(kind))
            for trace in self.TRACES
            for kind in self.POLICIES
        ]
        return _cells_pass(cells)


class OrgMix(Workload):
    """The organizations and service paths the paper cells never take.

    ATT at 120 simulated seconds (~6.5k distinct extents) fits the extent
    cache.  Mirrored, hybrid and declustered arrays, write-back, and an
    attached ``obs.Tracer`` all run the controller's generator service
    path; the last cell is the traced cell's configuration untraced.
    """

    name = "org-mix"
    TRACE = "ATT"
    DURATION_S = 120.0
    #: label -> (organization, ndisks, policy kind, variant)
    CELLS = {
        "raid5d/afraid": ("raid5d", 6, "afraid", None),
        "raid10/afraid": ("raid10", 6, "afraid", None),
        "raid15/afraid": ("raid15", 6, "afraid", None),
        "raid5/raid5-writeback": ("raid5", 5, "raid5", "writeback"),
        "raid5/afraid-traced": ("raid5", 5, "afraid", "traced"),
        "raid5/afraid": ("raid5", 5, "afraid", None),
    }

    def setup(self) -> dict:
        started = _perf()
        spaces = {}
        for organization, ndisks, _kind, _variant in self.CELLS.values():
            if (organization, ndisks) not in spaces:
                array = factory.build_array(
                    Simulator(), AlwaysRaid5Policy(), ndisks=ndisks, organization=organization
                )
                spaces[organization, ndisks] = array.layout.total_data_sectors
        built = _perf()
        by_space = {}
        for space in spaces.values():
            if space not in by_space:
                by_space[space] = make_trace(
                    self.TRACE, duration_s=self.DURATION_S, address_space_sectors=space,
                    seed=self.seed,
                )
        self.traces = {key: by_space[space] for key, space in spaces.items()}
        return {"build_s": built - started, "synth_s": _perf() - built}

    def _writeback_cell(self, tag: str, label: str, trace) -> CellRun:
        """RAID 5 behind a write-back NVRAM: ``run_experiment`` has no
        write-policy knob, so the array is built and replayed directly."""
        self._label(tag, label)
        gc.collect()
        started = _perf()
        try:
            sim = Simulator()
            array = factory.build_array(sim, AlwaysRaid5Policy(), write_policy="writeback")
            array.attach_observability(
                histograms=HistogramSet(), exposure=ExposureMonitor(params=TABLE_1)
            )
            outcome = replay.replay_trace(sim, array, trace)
        except Exception as exc:
            return CellRun(label, _perf() - started, 0, None, error=f"{type(exc).__name__}: {exc}")
        host_s = _perf() - started
        if outcome.failures:
            return CellRun(label, host_s, 0, None, error=f"{len(outcome.failures)} requests failed")
        return CellRun(
            label, host_s, len(outcome.requests), array_digest(array),
            array_counters(array, len(trace)), calibration_s=calibrate.sample(host_s),
        )

    def run_pass(self, index: int, tag: str) -> PassRun:
        cells = []
        for label, (organization, ndisks, kind, variant) in self.CELLS.items():
            trace = self.traces[organization, ndisks]
            if variant == "writeback":
                cells.append(self._writeback_cell(tag, label, trace))
                continue
            extra = {"tracer": Tracer()} if variant == "traced" else {}
            cells.append(self._direct_cell(
                tag, label, trace, _policy(kind), keep_array=organization == "raid5",
                ndisks=ndisks, organization=organization, **extra,
            ))
        run = _cells_pass(cells)
        by_label = {cell.label: cell for cell in cells}
        traced, untraced = by_label["raid5/afraid-traced"], by_label["raid5/afraid"]
        run.attempted += 1
        if traced.array is None or untraced.array is None or (
            array_digest(traced.array, ordered=False) != array_digest(untraced.array, ordered=False)
        ):
            run.failed += 1
            run.problems.append("obs.Tracer changed the simulated output of raid5/afraid")
        else:
            # The tracer's generator pump may complete same-instant requests
            # in another order; every other output is equal.  Counted, not
            # failed, so the divergence stays visible in the ledger.
            run.extra["obs.reordered_requests"] = sum(
                a != b for a, b in zip(traced.array.stats.io_times, untraced.array.stats.io_times)
            )
        run.extra["obs.traced_cell_s"] = traced.host_s
        run.extra["obs.untraced_cell_s"] = untraced.host_s
        for cell in cells:
            cell.array = None
        return run


def _empty(path: pathlib.Path) -> None:
    """Remove everything inside ``path``, keeping the directory itself."""
    path.mkdir(parents=True, exist_ok=True)
    for child in path.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class SweepService(Workload):
    """The Figure 3/4 policy ladder through the runner, checkpoints and service.

    cold: ``run_cells(jobs=1)`` into an empty result cache and checkpoint
    store; warm: every cell resubmitted one at a time by one client to an
    in-process ``ServiceServer`` over loopback (cache-first answers);
    extend: the same grid at a longer duration, resumed from stored cuts.
    """

    name = "sweep-service"
    WORKLOADS = ("hplajw", "AS400-2")
    TARGETS = (1e9, 1e8, 3e7, 1e7, 3e6, 1e6)
    SHORT_S = 240.0
    LONG_S = 360.0
    #: Warm submissions per pass: enough that p95 has >= 10 samples beyond it.
    WARM_SUBMISSIONS = 216

    def setup(self) -> dict:
        self.cache_dir = self.workdir / "cache"
        self.ckpt_dir = self.workdir / "checkpoints"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.ckpt_dir.mkdir(parents=True, exist_ok=True)
        started = _perf()
        self.short = runner.ladder_specs(
            self.WORKLOADS, self.TARGETS, duration_s=self.SHORT_S, seed=self.seed
        )
        self.long = runner.ladder_specs(
            self.WORKLOADS, self.TARGETS, duration_s=self.LONG_S, seed=self.seed
        )
        self.manager = service_manager.JobManager(jobs=1, cache_dir=str(self.cache_dir))
        self.server = service_server.ServiceServer(("127.0.0.1", 0), self.manager)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-service",
        )
        self.thread.start()
        self.client = service_client.ServiceClient(self.server.url, timeout=30.0)
        return {"build_s": _perf() - started, "synth_s": 0.0}

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        server.shutdown()
        self.thread.join()
        server.server_close()
        self.manager.shutdown(drain=True)

    @staticmethod
    def _payload(spec) -> dict:
        policy = {"kind": spec.policy.kind}
        if spec.policy.mttdl_target is not None:
            policy["mttdl_target"] = spec.policy.mttdl_target
        return {
            "cells": [{"workload": spec.workload, "policy": policy}],
            "duration_s": spec.duration_s,
            "seed": spec.seed,
        }

    def _sweep(self, tag: str, phase: str, specs) -> tuple[float, dict | None, str | None]:
        self._label(tag, phase)
        started = _perf()
        try:
            outcome = runner.run_cells(
                specs, jobs=1, cache_dir=str(self.cache_dir), checkpoint_dir=str(self.ckpt_dir)
            )
        except Exception as exc:
            return _perf() - started, None, f"{phase}: {type(exc).__name__}: {exc}"
        return _perf() - started, outcome.results, None

    def run_pass(self, index: int, tag: str) -> PassRun:
        _empty(self.cache_dir)
        _empty(self.ckpt_dir)
        run = PassRun(cells=[], units={}, requests=0)

        cold_s, cold, error = self._sweep(tag, "cold", self.short)
        run.units["cold_s"] = cold_s
        run.calibration_s += calibrate.sample(cold_s)
        run.attempted += len(self.short)
        if cold is None:
            run.failed += len(self.short)
            run.problems.append(error)
            cold = {}
        for spec in self.short:
            result = cold.get(spec.key)
            if result is not None:
                run.requests += result.nrequests
                run.cells.append(CellRun(
                    f"cold/{spec.key[0]}/{spec.key[1]}", 0.0, result.nrequests,
                    result_digest(result),
                ))

        self._label(tag, "warm")
        warm_started = _perf()
        for submission in range(self.WARM_SUBMISSIONS):
            spec = self.short[submission % len(self.short)]
            run.attempted += 1
            started = _perf()
            try:
                snapshot = self.client.submit(self._payload(spec))
                answer = self.client.result(snapshot["id"])
            except (service_client.ServiceError, OSError) as exc:
                run.failed += 1
                run.problems.append(f"warm {spec.key}: {exc}")
                continue
            run.latencies_s.append(_perf() - started)
            details = answer.get("details") or [{}]
            cells = answer.get("cells") or {}
            if snapshot.get("state") != "done" or not details[0].get("from_cache") or not cells:
                run.failed += 1
                run.problems.append(f"warm {spec.key}: not answered from the cache")
                continue
            expected = cold.get(spec.key)
            got = runner.result_from_payload(next(iter(cells.values())))
            if expected is None or result_digest(got) != result_digest(expected):
                run.failed += 1
                run.problems.append(f"warm {spec.key}: answer differs from the cold result")
        run.units["warm_s"] = _perf() - warm_started
        run.calibration_s += calibrate.sample(run.units["warm_s"])

        extend_s, extended, error = self._sweep(tag, "extend", self.long)
        run.units["extend_s"] = extend_s
        run.calibration_s += calibrate.sample(extend_s)
        run.attempted += len(self.long)
        if extended is None:
            run.failed += len(self.long)
            run.problems.append(error)
            extended = {}
        for spec in self.long:
            result = extended.get(spec.key)
            if result is not None:
                run.requests += result.nrequests
                run.cells.append(CellRun(
                    f"extend/{spec.key[0]}/{spec.key[1]}", 0.0, result.nrequests,
                    result_digest(result),
                ))
        run.extra["ckpt.store_bytes"] = _dir_bytes(self.ckpt_dir)

        # Spot check, outside the timed phases: one extended cell (a
        # different one each pass) against a direct run without a store.
        # Its label keeps its spans out of the per-layer ledger.
        spec = self.long[index % len(self.long)]
        self._label("check", tag)
        run.attempted += 1
        try:
            direct = result_digest(experiment.run_experiment(
                spec.workload, spec.policy.build(), duration_s=spec.duration_s, seed=spec.seed
            ))
        except Exception as exc:
            direct = f"{type(exc).__name__}: {exc}"
        if spec.key not in extended or direct != result_digest(extended[spec.key]):
            run.failed += 1
            run.problems.append(f"extend {spec.key}: differs from a direct run")
        return run

    def references(self) -> dict:
        """Direct (store-free) runs of both grids: the denominators of the
        checkpoint re-simulation ratios and the program counters."""
        refs = {}
        for phase, specs in (("short", self.short), ("long", self.long)):
            cells = []
            for spec in specs:
                self._label("ref", f"{phase}/{spec.key[0]}/{spec.key[1]}")
                capture = _Capture()
                result = experiment.run_experiment(
                    spec.workload, spec.policy.build(), duration_s=spec.duration_s,
                    seed=spec.seed, on_array=capture,
                )
                cells.append(CellRun(
                    f"{phase}/{spec.key[0]}/{spec.key[1]}", 0.0, result.nrequests, None,
                    array_counters(capture.array, result.nrequests),
                ))
            refs[phase] = cells
        return refs


WORKLOADS = {cls.name: cls for cls in (PaperReplay, OrgMix, SweepService)}


def timed_s(runs: list[PassRun]) -> float:
    """Host seconds of one pass: the timed units' total over ``runs``, per pass."""
    return sum(sum(run.units.values()) for run in runs) / len(runs)


def speed(runs: list[PassRun]) -> float:
    """How much slower the machine ran than the reference speed (>1: slower).

    The mean reference-loop time over ``runs``, over ``REFERENCE_S``:
    multiplying a host-time rate by it (or dividing a host time by it)
    expresses the figure at reference speed, which removes most of the
    drift a shared machine shows (see ``calibrate.py``).  A mean, like
    :func:`timed_s`: such a machine flips between a fast and a slow state
    about once a second, the samples' share in each state tracks the
    units' share, and a median would jump between the two states.  Units
    that failed leave no samples; if every one did, the loop is timed
    once here.
    """
    samples = [value for run in runs for value in run.calibration_s]
    return statistics.mean(samples or [calibrate.calibrate()]) / calibrate.REFERENCE_S


def pass_digest(run: PassRun) -> dict:
    return {cell.label: cell.digest for cell in run.cells}
