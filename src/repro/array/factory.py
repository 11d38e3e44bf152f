"""Assemble complete arrays in the paper's configuration."""

from __future__ import annotations

from repro.array.controller import DiskArray
from repro.availability import ReliabilityParams
from repro.blocks import FunctionalArray
from repro.disk import hp_c3325, toy_disk
from repro.layout import get_organization
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy, ParityPolicy
from repro.sim import Simulator

#: 8 KB stripe units over 512-byte sectors (Table 1's S).
PAPER_STRIPE_UNIT_SECTORS = 16
#: The paper's arrays are 5 disks wide.
PAPER_NDISKS = 5

#: Disk counts used when an organization is named without one: the
#: paper's 5 for the RAID 5 family, each mirrored scheme's smallest
#: sensible array.
ORGANIZATION_DEFAULT_NDISKS = {
    "raid5": PAPER_NDISKS,
    "raid5d": PAPER_NDISKS,
    "raid1": 2,
    "raid10": 6,
    "raid15": 6,
}


def build_array(
    sim: Simulator,
    policy: ParityPolicy,
    ndisks: int = PAPER_NDISKS,
    stripe_unit_sectors: int = PAPER_STRIPE_UNIT_SECTORS,
    disk_factory=hp_c3325,
    with_functional: bool = False,
    params: ReliabilityParams | None = None,
    idle_threshold_s: float = 0.100,
    bits_per_stripe: int = 1,
    spin_synchronised: bool = True,
    name: str = "array",
    organization: str = "raid5",
    **controller_kwargs,
) -> DiskArray:
    """Build an array of ``ndisks`` disks around ``policy``.

    ``disk_factory(sim, name=..., spindle_phase=...)`` supplies the member
    drives.  ``spin_synchronised=True`` (the paper's §4.1 simplification)
    gives every spindle the same rotational phase; ``False`` staggers the
    phases evenly, the way unsynchronised drives settle in practice.
    ``with_functional=True`` attaches a byte-accurate functional twin so
    the simulation also moves (and can lose) real data — available for the
    rotated-parity organization only; mirrored and declustered ones run
    without a twin (the twin's offset arithmetic assumes rotated units).
    ``organization`` picks the redundancy scheme (``raid5``, ``raid5d``,
    ``raid1``, ``raid10``, ``raid15``); the disk count must satisfy its
    geometry constraints.
    """
    org = get_organization(organization)
    org.validate(ndisks)
    disks = []
    for index in range(ndisks):
        phase = 0.0 if spin_synchronised else (index / ndisks)
        try:
            disk = disk_factory(sim, name=f"{name}.d{index}", spindle_phase=phase)
        except TypeError:
            # Factories without a phase knob (custom test doubles).
            disk = disk_factory(sim, name=f"{name}.d{index}")
        disks.append(disk)
    functional = None
    if with_functional and not org.mirrored and not org.declustered:
        usable = min(disk.geometry.total_sectors for disk in disks)
        layout = org.build_layout(ndisks, stripe_unit_sectors, usable)
        functional = FunctionalArray(
            layout,
            sector_bytes=disks[0].geometry.sector_bytes,
            sub_units=bits_per_stripe,
        )
    return DiskArray(
        sim=sim,
        disks=disks,
        stripe_unit_sectors=stripe_unit_sectors,
        policy=policy,
        params=params,
        functional=functional,
        idle_threshold_s=idle_threshold_s,
        bits_per_stripe=bits_per_stripe,
        name=name,
        organization=org,
        **controller_kwargs,
    )


def paper_array(sim: Simulator, policy: ParityPolicy | None = None, **kwargs) -> DiskArray:
    """The paper's testbed: 5 × HP C3325, 8 KB stripe units, baseline AFRAID."""
    return build_array(sim, policy if policy is not None else BaselineAfraidPolicy(), **kwargs)


def toy_array(
    sim: Simulator,
    policy: ParityPolicy | None = None,
    ndisks: int = 5,
    stripe_unit_sectors: int = 8,
    with_functional: bool = True,
    **kwargs,
) -> DiskArray:
    """A small, fast array over toy disks, for tests and examples."""
    return build_array(
        sim,
        policy if policy is not None else BaselineAfraidPolicy(),
        ndisks=ndisks,
        stripe_unit_sectors=stripe_unit_sectors,
        disk_factory=toy_disk,
        with_functional=with_functional,
        **kwargs,
    )


def raid5_array(sim: Simulator, **kwargs) -> DiskArray:
    """A traditional RAID 5 in the paper's testbed configuration."""
    return build_array(sim, AlwaysRaid5Policy(), **kwargs)


def raid0_array(sim: Simulator, **kwargs) -> DiskArray:
    """The paper's RAID 0 datapoint: an AFRAID that never scrubs."""
    return build_array(sim, NeverScrubPolicy(), **kwargs)
