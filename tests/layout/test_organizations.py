"""Tests for mirrored/declustered layouts and the organization registry."""

import pytest

from repro.layout import (
    DEFAULT_ORGANIZATION,
    ORGANIZATIONS,
    ArrayOrganization,
    DeclusteredRaid5Layout,
    Raid1Layout,
    Raid10Layout,
    Raid15Layout,
    Raid5Layout,
    UnitKind,
    get_organization,
)

UNIT = 8
DISK = 1024


class TestRegistry:
    def test_expected_schemes_present(self):
        assert set(ORGANIZATIONS) == {"raid5", "raid5d", "raid1", "raid10", "raid15"}
        assert DEFAULT_ORGANIZATION == "raid5"

    def test_every_scheme_has_a_valid_default_member_count(self):
        from repro.array.factory import ORGANIZATION_DEFAULT_NDISKS

        assert set(ORGANIZATION_DEFAULT_NDISKS) == set(ORGANIZATIONS)
        for name, ndisks in ORGANIZATION_DEFAULT_NDISKS.items():
            get_organization(name).validate(ndisks)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="raid10"):
            get_organization("raid7")

    def test_idempotent_on_instances(self):
        org = get_organization("raid10")
        assert get_organization(org) is org

    def test_layout_factories(self):
        built = {
            name: org.build_layout(
                org.exact_disks or max(org.min_disks, 6), UNIT, DISK
            )
            for name, org in ORGANIZATIONS.items()
        }
        assert type(built["raid5"]) is Raid5Layout
        assert type(built["raid5d"]) is DeclusteredRaid5Layout
        assert type(built["raid1"]) is Raid1Layout
        assert type(built["raid10"]) is Raid10Layout
        assert type(built["raid15"]) is Raid15Layout

    @pytest.mark.parametrize(
        "name,bad_ndisks",
        [("raid1", 4), ("raid10", 5), ("raid15", 4), ("raid5", 2), ("raid5d", 3)],
    )
    def test_validate_rejects_bad_geometry(self, name, bad_ndisks):
        with pytest.raises(ValueError):
            get_organization(name).validate(bad_ndisks)


class TestFailureSemantics:
    def test_raid5_family_single_failure_survivable(self):
        for name in ("raid5", "raid5d"):
            org = get_organization(name)
            assert org.can_absorb([0])
            assert org.loses_data([0, 1])

    def test_raid1_pair_death_fatal(self):
        org = get_organization("raid1")
        assert org.can_absorb([0])
        assert org.can_absorb([1])
        assert org.loses_data([0, 1])

    def test_raid10_survives_one_per_pair(self):
        org = get_organization("raid10")
        assert org.can_absorb([0, 2, 5])  # one disk of three different pairs
        assert org.loses_data([2, 3])  # both disks of pair 1

    def test_raid15_survives_a_whole_pair(self):
        org = get_organization("raid15")
        assert org.can_absorb([0, 1])  # parity reconstructs the dead pair
        assert org.can_absorb([0, 1, 4])  # plus a lone disk elsewhere
        assert org.loses_data([0, 1, 2, 3])  # two dead pairs


class TestRaid10Layout:
    def test_geometry(self):
        layout = Raid10Layout(6, UNIT, DISK)
        assert layout.npairs == 3
        assert layout.data_units_per_stripe == 3
        assert layout.mirrored and not layout.has_parity
        assert layout.total_data_sectors == layout.nstripes * 3 * UNIT
        assert layout.mirror_disk(0) == 1 and layout.mirror_disk(1) == 0

    def test_primary_and_mirror_placement(self):
        layout = Raid10Layout(4, UNIT, DISK)
        for stripe in (0, 1, 7):
            for unit in layout.data_units(stripe):
                assert unit.disk % 2 == 0
                assert unit.disk_lba == stripe * UNIT
                mirror = layout.mirror_unit(stripe, unit.unit_index)
                assert mirror.disk == unit.disk + 1
                assert mirror.disk_lba == unit.disk_lba
                assert mirror.kind is UnitKind.MIRROR

    def test_map_extent_round_trips(self):
        layout = Raid10Layout(6, UNIT, DISK)
        runs = layout.map_extent(0, 5 * UNIT)
        assert sum(run.nsectors for run in runs) == 5 * UNIT
        for run in runs:
            unit = layout.logical_of(run.disk, run.disk_lba)
            assert unit.stripe == run.stripe
            assert unit.kind is UnitKind.DATA

    def test_raid1_is_single_pair(self):
        layout = Raid1Layout(2, UNIT, DISK)
        assert layout.npairs == 1
        assert layout.data_units_per_stripe == 1
        with pytest.raises(ValueError):
            Raid1Layout(4, UNIT, DISK)


class TestRaid15Layout:
    def test_parity_rotates_over_pairs(self):
        layout = Raid15Layout(6, UNIT, DISK)
        assert layout.data_units_per_stripe == layout.npairs - 1
        pairs = [layout.parity_pair(stripe) for stripe in range(layout.npairs)]
        assert sorted(pairs) == list(range(layout.npairs))
        for stripe in range(6):
            parity = layout.parity_unit(stripe)
            assert parity.disk == 2 * layout.parity_pair(stripe)
            assert parity.disk_lba == stripe * UNIT
            data_pairs = {unit.disk // 2 for unit in layout.data_units(stripe)}
            assert layout.parity_pair(stripe) not in data_pairs

    def test_every_unit_mirrored_within_pair(self):
        layout = Raid15Layout(6, UNIT, DISK)
        for stripe in range(4):
            for unit in layout.data_units(stripe):
                mirror = layout.mirror_unit(stripe, unit.unit_index)
                assert mirror.disk == layout.mirror_disk(unit.disk)
                assert mirror.disk_lba == unit.disk_lba


class TestDeclusteredLayout:
    def test_complete_block_design(self):
        layout = DeclusteredRaid5Layout(6, UNIT, DISK, stripe_width=4)
        assert layout.period == 15  # C(6, 4)
        assert layout.units_per_disk_per_period == 10  # C(5, 3)
        seen = set()
        for stripe in range(layout.period):
            members = layout.stripe_members(stripe)
            assert len(members) == 4
            seen.add(members)
        assert len(seen) == layout.period  # every 4-subset exactly once

    def test_parity_spread_over_members(self):
        layout = DeclusteredRaid5Layout(6, UNIT, DISK, stripe_width=4)
        counts = {disk: 0 for disk in range(6)}
        for stripe in range(layout.period * 4):
            counts[layout.parity_disk(stripe)] += 1
        # Declustering's point: no single parity disk; every member
        # carries a share of the parity units.
        assert all(count > 0 for count in counts.values())
        assert max(counts.values()) < layout.period * 4 / 2

    def test_unit_lba_logical_of_inverse(self):
        layout = DeclusteredRaid5Layout(5, UNIT, DISK)
        for stripe in range(min(layout.nstripes, 2 * layout.period)):
            for disk in layout.stripe_members(stripe):
                lba = layout.unit_lba(stripe, disk)
                unit = layout.logical_of(disk, lba)
                assert unit.stripe == stripe
                assert unit.disk == disk
        missing = next(
            disk for disk in range(5) if disk not in layout.stripe_members(0)
        )
        with pytest.raises(ValueError, match="not a member"):
            layout.unit_lba(0, missing)

    def test_disk_sectors_used_bounds_every_unit(self):
        layout = DeclusteredRaid5Layout(6, UNIT, DISK, stripe_width=4)
        used = layout.disk_sectors_used
        assert used == (layout.nstripes // layout.period) * 10 * UNIT
        assert used <= DISK
        top = {}
        for stripe in range(layout.nstripes):
            for disk in layout.stripe_members(stripe):
                lba = layout.unit_lba(stripe, disk)
                top[disk] = max(top.get(disk, 0), lba + UNIT)
        assert all(value == used for value in top.values())

    def test_map_extent_round_trips(self):
        layout = DeclusteredRaid5Layout(5, UNIT, DISK)
        runs = layout.map_extent(3, 7 * UNIT)
        assert sum(run.nsectors for run in runs) == 7 * UNIT
        for run in runs:
            unit = layout.logical_of(run.disk, run.disk_lba)
            assert unit.stripe == run.stripe
            assert unit.kind is UnitKind.DATA
            assert run.disk != layout.parity_disk(run.stripe)

    def test_rebuild_membership_is_partial(self):
        """A failed disk touches only its stripes — the declustering win."""
        layout = DeclusteredRaid5Layout(6, UNIT, DISK, stripe_width=4)
        member_stripes = sum(
            1 for stripe in range(layout.nstripes) if 0 in layout.stripe_members(stripe)
        )
        assert 0 < member_stripes < layout.nstripes
        assert member_stripes / layout.nstripes == pytest.approx(4 / 6)


class TestOrganizationIsFrozen:
    def test_immutable(self):
        org = get_organization("raid5")
        assert isinstance(org, ArrayOrganization)
        with pytest.raises(dataclasses_frozen_error()):
            org.name = "other"


def dataclasses_frozen_error():
    import dataclasses

    return dataclasses.FrozenInstanceError
