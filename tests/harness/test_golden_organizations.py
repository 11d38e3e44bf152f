"""Golden-equivalence gate for the mirrored and declustered organizations.

The companion to :mod:`tests.harness.test_golden_replay`, which pins the
original RAID 0/5/AFRAID paths bit-identically.  This fixture pins the
*new* organizations introduced with :class:`~repro.layout.ArrayOrganization`:
one mirrored scenario per mirror flavour (RAID 1, RAID 1/0, RAID 1+5) and
one declustered RAID 5 scenario, under the deferring AFRAID policy so
the deferral machinery (mirror-copy deferral for RAID 1/1/0, parity
deferral for RAID 1+5 and declustered RAID 5) is exercised end to end.
Variant cells pin the remaining service paths: write-back staging (the
NVRAM acknowledgement plus background flush) under both write modes,
synchronous mirroring, and write-through degraded mode after a member
failure mid-replay.

Regenerate (only when *intentionally* changing simulated behaviour)::

    PYTHONPATH=src python tests/harness/test_golden_organizations.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import struct

from repro.array.factory import build_array
from repro.faults.injector import FaultInjector
from repro.harness.replay import replay_trace
from repro.obs import HistogramSet
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy
from repro.sim import Simulator
from repro.traces import make_trace

FIXTURE = pathlib.Path(__file__).with_name("golden_organizations.json")

#: (organization, ndisks) cells replayed under the AFRAID policy.  The
#: write-heavy ATT mix keeps the deferral queues busy; cello-usr covers a
#: read-dominated mix on the two organizations whose read path differs
#: most from rotated RAID 5 (mirror read-balancing, declustered mapping).
SCENARIOS = [
    {"workload": "ATT", "duration_s": 20.0, "seed": 11},
    {"workload": "cello-usr", "duration_s": 40.0, "seed": 7},
]
ORGANIZATIONS = {
    "raid5": 5,
    "raid1": 2,
    "raid10": 6,
    "raid15": 6,
    "raid5d": 6,
}
#: Cell variants beyond the default (AFRAID policy, write-through, no
#: faults): ``policy`` "raid5" selects AlwaysRaid5Policy (synchronous
#: mirroring on the mirrored organizations), ``fail_disk`` is a
#: ``(disk, time_s)`` member failure injected mid-replay.
VARIANTS = {
    "writeback": {"write_policy": "writeback"},
    "writeback-raid5": {"write_policy": "writeback", "policy": "raid5"},
    "raid5": {"policy": "raid5"},
    "degraded": {"fail_disk": (1, 5.0)},
    # Disk 1 holds mirror copies on raid10/raid15, so only a failed
    # primary (disk 0) sends reads to the surviving partner.
    "degraded-primary": {"fail_disk": (0, 5.0)},
}
#: Keep the gate fast: every organization runs the write-heavy trace, the
#: read-heavy trace runs on the representative mirrored + declustered pair,
#: and each variant runs the write-heavy trace on the organizations whose
#: write path it changes.
CELLS = [
    ("ATT", "raid1"),
    ("ATT", "raid10"),
    ("ATT", "raid15"),
    ("ATT", "raid5d"),
    ("cello-usr", "raid10"),
    ("cello-usr", "raid5d"),
    ("ATT", "raid5", "writeback"),
    ("ATT", "raid10", "writeback"),
    ("ATT", "raid15", "writeback"),
    ("ATT", "raid5", "writeback-raid5"),
    ("ATT", "raid10", "writeback-raid5"),
    ("ATT", "raid15", "writeback-raid5"),
    ("ATT", "raid10", "raid5"),
    ("ATT", "raid15", "raid5"),
    ("ATT", "raid5", "degraded"),
    ("ATT", "raid10", "degraded"),
    ("ATT", "raid15", "degraded"),
    ("ATT", "raid10", "degraded-primary"),
    ("ATT", "raid15", "degraded-primary"),
]


def _digest(values: list[float]) -> str:
    """An order-sensitive exact digest of a float stream."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _lag_payload(tracker) -> dict:
    return {
        "unprotected_fraction": tracker.unprotected_fraction,
        "mean_parity_lag_bytes": tracker.mean_parity_lag_bytes,
        "peak_parity_lag_bytes": tracker.peak_parity_lag_bytes,
        "total_time": tracker.total_time,
    }


def capture(
    workload: str, duration_s: float, seed: int, organization: str, variant: str = ""
) -> dict:
    """Replay one (workload, organization, variant) cell and capture everything observable."""
    config = VARIANTS[variant] if variant else {}
    policy = AlwaysRaid5Policy() if config.get("policy") == "raid5" else BaselineAfraidPolicy()
    sim = Simulator()
    array = build_array(
        sim,
        policy,
        ndisks=ORGANIZATIONS[organization],
        organization=organization,
        write_policy=config.get("write_policy", "writethrough"),
    )
    hists = HistogramSet()
    array.attach_observability(histograms=hists)
    if "fail_disk" in config:
        FaultInjector(sim, array).fail_disk_at(*config["fail_disk"])
    trace = make_trace(
        workload,
        duration_s=duration_s,
        address_space_sectors=array.layout.total_data_sectors,
        seed=seed,
    )
    outcome = replay_trace(sim, array, trace)
    if "fail_disk" not in config:
        assert not outcome.failures
    stats = dataclasses.asdict(array.stats)
    io_times = stats.pop("io_times")
    result = {
        "stats": stats,
        "io_times_digest": _digest(io_times),
        "io_times_count": len(io_times),
        "latency_hists": hists.to_payload(),
        "parity_lag": _lag_payload(array.lag_tracker),
        "horizon_s": outcome.horizon_s,
        "events_dispatched": sim.events_dispatched,
    }
    if array.write_policy == "writeback":
        result["nvram_dirty"] = _lag_payload(array.nvram_dirty_tracker)
    if "fail_disk" in config:
        # Requests with I/O in flight on the dying member fail; which ones
        # (and how many) is part of the pinned behaviour.
        result["failures"] = sorted(type(exc).__name__ for exc in outcome.failures)
    return result


def capture_all() -> dict:
    scenarios = {s["workload"]: s for s in SCENARIOS}
    results = {}
    for workload, organization, *variant in CELLS:
        scenario = scenarios[workload]
        key = "/".join((workload, organization, *variant))
        results[key] = capture(
            workload, scenario["duration_s"], scenario["seed"], organization, *variant
        )
    return {"scenarios": SCENARIOS, "results": results}


def test_organizations_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    fresh = capture_all()
    assert set(fresh["results"]) == set(golden["results"])
    for key, expected in golden["results"].items():
        actual = fresh["results"][key]
        assert actual["stats"] == expected["stats"], f"{key}: ArrayStats diverged"
        assert actual["io_times_count"] == expected["io_times_count"], key
        assert actual["io_times_digest"] == expected["io_times_digest"], (
            f"{key}: per-request latency stream diverged"
        )
        assert actual["latency_hists"] == expected["latency_hists"], (
            f"{key}: latency histograms diverged"
        )
        assert actual["parity_lag"] == expected["parity_lag"], (
            f"{key}: parity-lag integral diverged"
        )
        assert actual["horizon_s"] == expected["horizon_s"], key
        assert actual.get("nvram_dirty") == expected.get("nvram_dirty"), (
            f"{key}: NVRAM dirty-byte integral diverged"
        )
        assert actual.get("failures") == expected.get("failures"), (
            f"{key}: failed requests diverged"
        )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("run with --regen to overwrite the committed fixture")
    FIXTURE.write_text(json.dumps(capture_all(), indent=1), encoding="utf-8")
    print(f"wrote {FIXTURE}")
