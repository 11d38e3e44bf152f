"""Which program entry points are wrapped, and the per-layer ledger built from them.

Each entry names the module whose attribute the *caller* reads: methods
are patched on their class, functions imported by name are patched in
the importing module (``batch_service_parts`` in the driver,
``plan_host_batch`` in the controller, ``replay_trace`` in the
experiment harness, ...).  The ledger divides span totals by the number
of traced passes, so every per-layer figure is "per pass over the
workload's cells" and does not depend on how many passes fit the window.
"""

from __future__ import annotations

import statistics

from workloads import speed, timed_s

#: (module, attribute, span name, wrap options)
PATCHES = [
    ("repro.sim.core", "Simulator.run", "sim.run", {"sim": True}),
    ("repro.sim.core", "Simulator.run_until_triggered", "sim.run", {"sim": True}),
    ("repro.sched.driver", "DiskDriver.submit", "sched.submit", {}),
    ("repro.disk.disk", "MechanicalDisk.execute", "disk.execute", {}),
    ("repro.disk.disk", "MechanicalDisk._service_parts", "disk.model", {}),
    ("repro.sched.driver", "batch_service_parts", "disk.vector", {}),
    ("repro.layout.raid5", "Raid5Layout.map_extent", "layout.map", {}),
    ("repro.layout.mirror", "Raid10Layout.map_extent", "layout.map", {}),
    ("repro.layout.mirror", "Raid15Layout.map_extent", "layout.map", {}),
    ("repro.layout.declustered", "DeclusteredRaid5Layout.map_extent", "layout.map", {}),
    ("repro.array.controller", "DiskArray.submit", "array.submit", {}),
    ("repro.array.controller", "plan_host_batch", "array.plan", {}),
    ("repro.harness.experiment", "replay_trace", "replay.replay", {}),
    ("repro.harness.replay", "replay_trace", "replay.replay", {}),
    ("repro.harness.sharding", "advance_shard", "ckpt.advance", {}),
    ("repro.harness.sharding", "finish_shard", "ckpt.finish", {}),
    ("repro.harness.checkpoint", "CheckpointScope.lookup_cut", "ckpt.store", {}),
    ("repro.harness.checkpoint", "CheckpointScope.store_cut", "ckpt.store", {}),
    ("repro.harness.checkpoint", "CheckpointScope.lookup_final", "ckpt.store", {}),
    ("repro.harness.checkpoint", "CheckpointScope.store_final", "ckpt.store", {}),
    ("repro.harness.runner", "run_cells", "runner.run_cells", {}),
    ("repro.harness.runner", "ResultCache.store", "runner.cache_store", {}),
    ("repro.service.manager", "JobManager.submit", "service.submit", {}),
    ("repro.service.server", "ServiceHandler.do_POST", "service.handle", {}),
    ("repro.service.server", "ServiceHandler.do_GET", "service.handle", {}),
]


def install(recorder) -> None:
    """Wrap every layer entry point; call before any array is built."""
    from repro.layout import Raid5Layout
    from repro.metrics import PerfCounters

    for module, attr, name, options in PATCHES:
        recorder.patch(module, attr, name, **options)

    def prewarm(original):
        timed = recorder.wrap("layout.prewarm", original)

        def warm(layout, records):
            # Coverage is defined where prewarm applies: rotated parity.
            counted = isinstance(layout, Raid5Layout)
            if counted:
                keys = {(record.offset_sectors, record.nsectors) for record in records}
                missing = len(keys - layout._extent_cache.keys())
            filled = timed(layout, records)
            if counted:
                recorder.add("layout.prewarm_filled", filled)
                recorder.add("layout.prewarm_distinct", missing)
            return filled

        return warm

    recorder.patch_with("repro.harness.replay", "warm_extent_cache", prewarm)
    recorder.patch_with("repro.harness.sharding", "warm_extent_cache", prewarm)

    def cache_hit(args, kwargs, result):
        recorder.add("runner.cache_hits", result is not None)

    recorder.patch("repro.harness.runner", "ResultCache.load", "runner.cache_load", after=cache_hit)

    def sharded_events(args, kwargs, result):
        recorder.add("ckpt.events", result.events_simulated)

    recorder.patch(
        "repro.harness.sharding", "replay_trace_sharded", "ckpt.replay", after=sharded_events
    )

    def with_counters(original):
        timed = recorder.wrap("experiment.run", original)

        def run_experiment(*args, **kwargs):
            # The runner passes no PerfCounters; supply one so its phase
            # split (setup / replay / reduce) reaches the ledger.
            if kwargs.get("counters") is not None:
                return timed(*args, **kwargs)
            counters = PerfCounters()
            result = timed(*args, counters=counters, **kwargs)
            for phase, seconds in counters.timings_s.items():
                recorder.add(f"experiment.{phase}_s", seconds)
            return result

        return run_experiment

    recorder.patch_with("repro.harness.runner", "run_experiment", with_counters)
    recorder.patch("repro.harness.experiment", "run_experiment", "experiment.run")


def _sum_counters(cells) -> dict:
    total: dict = {}
    for cell in cells:
        for key, value in (cell.counters or {}).items():
            total[key] = total.get(key, 0) + value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(recorder, traced, untraced, refs, setup) -> dict:
    """``name -> (value, unit)`` for every per-layer metric.

    ``traced``/``untraced`` are the pass results with and without the
    wrappers, ``refs`` the workload's direct reference runs (sweep-service
    only) and ``setup`` the median set-up components.  Layers a workload
    does not exercise read 0.
    """
    passes = len(traced)

    def in_traced(cell: str) -> bool:
        return cell.startswith("t")

    spans = recorder.totals(in_traced)

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0] / passes

    def inclusive(name):
        return spans.get(name, [0, 0.0, 0.0])[1] / passes

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2] / passes

    def tally(name, cells=in_traced):
        return recorder.tally(name, cells)

    ref_cells = refs.get("short", []) + refs.get("long", [])
    if ref_cells:
        # Checkpointed cells re-simulate, so wrapper counts are compared
        # with the program's counters on the direct reference runs.
        counters = _sum_counters(ref_cells)
        cover = recorder.totals(lambda cell: cell.startswith("ref/"))
        cover_passes = 1
    else:
        counters = _sum_counters(cell for run in traced for cell in run.cells)
        cover = spans
        cover_passes = passes
    per_pass = {key: value / cover_passes for key, value in counters.items()}

    def covered(name):
        return cover.get(name, [0, 0.0, 0.0])[0]

    sim_events = tally("sim.events") / passes
    sim_inclusive = inclusive("sim.run")
    ref_short = tally("sim.events", lambda cell: cell.startswith("ref/short/"))
    ref_long = tally("sim.events", lambda cell: cell.startswith("ref/long/"))
    cold_events = tally("ckpt.events", lambda cell: cell.startswith("t") and cell.endswith("/cold"))
    extend_events = tally(
        "ckpt.events", lambda cell: cell.startswith("t") and cell.endswith("/extend")
    )
    loads = spans.get("runner.cache_load", [0, 0.0, 0.0])
    stores = spans.get("runner.cache_store", [0, 0.0, 0.0])
    submits = spans.get("service.submit", [0, 0.0, 0.0])
    submit_ms = _ratio(submits[1], submits[0]) * 1e3
    traced_latency = [value for run in traced for value in run.latencies_s]
    warm_latency = sorted(value for run in untraced for value in run.latencies_s)

    def median_extra(name):
        values = [run.extra[name] for run in untraced if name in run.extra]
        return statistics.median(values) if values else 0.0

    def median_unit(name):
        values = [run.units[name] for run in untraced if name in run.units]
        return statistics.median(values) if values else 0.0

    metrics = {
        "sim.events": (sim_events, "count"),
        "sim.us_per_event": (_ratio(sim_inclusive, sim_events) * 1e6, "us"),
        "sim.run_self_s": (own("sim.run"), "s"),
        "sched.submits": (calls("sched.submit"), "count"),
        "sched.submit_s": (own("sched.submit"), "s"),
        "sched.queue_ms": (
            _ratio(counters.get("driver_queue_s", 0.0), counters.get("driver_completed", 0)) * 1e3,
            "ms",
        ),
        "sched.coverage": (
            _ratio(covered("sched.submit"), counters.get("driver_submitted", 0)), "ratio"
        ),
        "disk.ios": (per_pass.get("disk_ios", 0), "count"),
        "disk.execute_calls": (calls("disk.execute"), "count"),
        "disk.execute_s": (own("disk.execute"), "s"),
        "disk.model_s": (own("disk.model") + own("disk.vector"), "s"),
        "disk.busy_s": (per_pass.get("disk_busy_s", 0.0), "s"),
        "disk.vector_batches": (calls("disk.vector"), "count"),
        "disk.coverage": (_ratio(covered("disk.execute"), counters.get("disk_ios", 0)), "ratio"),
        "layout.map_calls": (calls("layout.map"), "count"),
        "layout.map_s": (own("layout.map"), "s"),
        "layout.prewarm_s": (inclusive("layout.prewarm"), "s"),
        "layout.prewarm_coverage": (
            _ratio(tally("layout.prewarm_filled"), tally("layout.prewarm_distinct")), "ratio"
        ),
        "array.submits": (calls("array.submit"), "count"),
        "array.submit_s": (own("array.submit"), "s"),
        "array.plans": (calls("array.plan"), "count"),
        "array.disk_ios_per_req": (
            _ratio(counters.get("disk_ios", 0), counters.get("completed", 0)), "ratio"
        ),
        "array.stripes_scrubbed": (per_pass.get("stripes_scrubbed", 0), "count"),
        "array.read_hit_ratio": (
            _ratio(counters.get("cache_hits", 0), counters.get("cache_lookups", 0)), "ratio"
        ),
        "array.coverage": (_ratio(covered("array.submit"), counters.get("requests", 0)), "ratio"),
        "experiment.setup_s": (tally("experiment.setup_s") / passes, "s"),
        "experiment.replay_s": (tally("experiment.replay_s") / passes, "s"),
        "experiment.reduce_s": (tally("experiment.reduce_s") / passes, "s"),
        "ckpt.resim_ratio": (_ratio(cold_events / passes, ref_short), "ratio"),
        "ckpt.extend_events_ratio": (_ratio(extend_events / passes, ref_long), "ratio"),
        "ckpt.advance_s": (inclusive("ckpt.advance"), "s"),
        "ckpt.finish_s": (inclusive("ckpt.finish"), "s"),
        "ckpt.store_bytes": (median_extra("ckpt.store_bytes"), "B"),
        "runner.cold_s": (median_unit("cold_s"), "s"),
        "runner.extend_s": (median_unit("extend_s"), "s"),
        "runner.cache_hit_ratio": (_ratio(tally("runner.cache_hits"), loads[0]), "ratio"),
        "runner.cache_load_ms": (_ratio(loads[1], loads[0]) * 1e3, "ms"),
        "runner.cache_store_ms": (_ratio(stores[1], stores[0]) * 1e3, "ms"),
        "service.submit_ms": (submit_ms, "ms"),
        "service.http_ms": (
            (statistics.fmean(traced_latency) * 1e3 - submit_ms) if traced_latency else 0.0, "ms"
        ),
        "service.warm_p50_ms": (
            statistics.median(warm_latency) * 1e3 if warm_latency else 0.0, "ms"
        ),
        "service.warm_p95_ms": (
            statistics.quantiles(warm_latency, n=20)[18] * 1e3 if len(warm_latency) > 1 else 0.0,
            "ms",
        ),
        "service.warm_submissions": (len(warm_latency), "count"),
        "obs.traced_cell_s": (median_extra("obs.traced_cell_s"), "s"),
        "obs.untraced_cell_s": (median_extra("obs.untraced_cell_s"), "s"),
        "obs.reordered_requests": (median_extra("obs.reordered_requests"), "count"),
        "traces.synth_s": (setup.get("synth_s", 0.0), "s"),
        # Traced and untraced passes run minutes apart: compare them at
        # reference speed so machine drift between the two does not count.
        "trace.overhead": (
            (timed_s(traced) / speed(traced)) / (timed_s(untraced) / speed(untraced)) - 1.0,
            "ratio",
        ),
    }
    return metrics
