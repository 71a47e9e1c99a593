"""Indicator math: summaries, correspondence, flows, quadrants, aggregation."""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collabmarket.errors import DataError
from collabmarket.indicators import (
    QUADRANT_I,
    QUADRANT_II,
    QUADRANT_III,
    QUADRANT_IV,
    IndicatorSnapshot,
    RegionSectorStats,
    SectorCorrespondenceRow,
    SectorFlowsRow,
    SnapshotCell,
    aggregate_regions,
    all_headcounts,
    distribution_mean,
    quadrant_classify,
    quadrant_positions,
    rank_regions,
    region_sector_stats,
    regional_summary,
    roster_headcounts,
    sds_weights,
    sector_correspondence,
    sector_flows,
    snapshot_diff,
)
from collabmarket.model import SDSCollaboration, UECollaboration

from conftest import flow_cube

REGIONS = ("Lazio", "Lombardy", "Sicily", "Veneto")


def ue(u_region, e_region, n=1):
    return [
        UECollaboration(f"P{u_region}{e_region}{i}", "U", u_region, "E", e_region, 2002)
        for i in range(n)
    ]


def sds_cube(events):
    return flow_cube(sds_events=events)


def sds_ev(supply_region, e_region, n=1, sds="S1"):
    return [
        SDSCollaboration(f"P{supply_region}{e_region}{i}", sds, "09",
                         supply_region, "E", e_region, 2002)
        for i in range(n)
    ]


class TestRegionalSummary:
    def test_hand_case(self):
        events = (
            ue("Lazio", "Lazio", 3)          # intra Lazio
            + ue("Lazio", "Lombardy", 2)     # Lazio supplies Lombardy
            + ue("Sicily", "Lazio", 1)       # Sicily supplies Lazio
        )
        rows = {r.region: r for r in regional_summary(flow_cube(events), REGIONS)}
        lazio = rows["Lazio"]
        assert (lazio.supply_intra, lazio.supply_extra, lazio.supply_national) == (3, 2, 5)
        assert (lazio.demand_intra, lazio.demand_extra, lazio.demand_national) == (3, 1, 4)
        assert lazio.net_difference == 1
        assert lazio.market_share == pytest.approx(0.75)
        lombardy = rows["Lombardy"]
        assert (lombardy.supply_national, lombardy.demand_national) == (0, 2)
        assert lombardy.market_share == 0.0
        veneto = rows["Veneto"]
        assert veneto.demand_national == 0 and veneto.market_share is None
        rows = regional_summary(flow_cube(events), REGIONS)
        assert [r.region for r in rows] == sorted(REGIONS)

    def test_conservation_on_random_events(self):
        rng = random.Random(7)
        events = [
            UECollaboration(f"P{i}", "U", rng.choice(REGIONS), "E",
                            rng.choice(REGIONS), 2002)
            for i in range(500)
        ]
        rows = regional_summary(flow_cube(events), REGIONS)
        assert sum(r.supply_national for r in rows) == 500
        assert sum(r.demand_national for r in rows) == 500
        assert sum(r.supply_intra for r in rows) == sum(r.demand_intra for r in rows)


class TestDistributionMean:
    def test_na_counts_zero_over_eligible_only(self):
        values = {"Lazio": 1.0, "Lombardy": None, "Sicily": 0.5, "Veneto": 3.0}
        # Lombardy eligible (scientists > 0) but NA -> contributes 0
        mean = distribution_mean(values, ["Lazio", "Lombardy", "Sicily"])
        assert mean == pytest.approx((1.0 + 0.0 + 0.5) / 3)

    def test_no_eligible_regions(self):
        assert distribution_mean({"Lazio": 1.0}, []) is None

    @given(
        st.dictionaries(
            st.sampled_from(REGIONS),
            st.one_of(st.none(), st.fractions(min_value=0, max_value=100)),
            min_size=1,
        ),
        st.sets(st.sampled_from(REGIONS)),
    )
    def test_matches_fraction_oracle(self, values, eligible):
        floats = {k: None if v is None else float(v) for k, v in values.items()}
        got = distribution_mean(floats, sorted(eligible))
        if not eligible:
            assert got is None
        else:
            total = sum(
                (values.get(r) or Fraction(0) for r in eligible), Fraction(0)
            )
            assert got == pytest.approx(float(total / len(eligible)))


class TestSectorCorrespondence:
    HEADCOUNTS = {"Lazio": 4.0, "Lombardy": 2.0, "Sicily": 0.0, "Veneto": 1.0}

    def test_hand_case(self):
        events = sds_ev("Lazio", "Lazio", 2) + sds_ev("Lombardy", "Lazio", 6)
        # demand counts enterprises' regions: Lazio 8, others 0
        rows = {r.region: r
                for r in sector_correspondence(
                    "S1", self.HEADCOUNTS, sds_cube(events), REGIONS, 1.0
                )}
        lazio = rows["Lazio"]
        assert (lazio.scientists, lazio.national_demand, lazio.surplus) == (4.0, 8, -4.0)
        assert lazio.demand_per_scientist == pytest.approx(2.0)
        sicily = rows["Sicily"]
        assert sicily.demand_per_scientist is None
        assert sicily.demand_per_scientist_rel is None
        assert sicily.surplus == 0.0
        # eligible = Lazio, Lombardy, Veneto -> mean = (2 + 0 + 0)/3
        assert lazio.demand_per_scientist_rel == pytest.approx(2.0 / (2.0 / 3))

    def test_capacity_multiplier_scales_surplus_and_ratio_only(self):
        events = sds_ev("Lazio", "Lazio", 2)
        (row,) = [
            r for r in sector_correspondence(
                "S1", self.HEADCOUNTS, sds_cube(events), REGIONS, capacity_multiplier=2.0
            )
            if r.region == "Lazio"
        ]
        assert row.scientists == 4.0                       # reported raw
        assert row.surplus == pytest.approx(4.0 * 2 - 2)   # scaled capacity
        assert row.demand_per_scientist == pytest.approx(2 / 8.0)

    def test_mean_rule_against_fraction_oracle(self):
        rng = random.Random(99)
        for _ in range(50):
            headcounts = {r: float(rng.randint(0, 5)) for r in REGIONS}
            events = []
            for r in REGIONS:
                events += sds_ev("Lazio", r, rng.randint(0, 4))
            rows = sector_correspondence("S1", headcounts, sds_cube(events), REGIONS, 1.0)
            eligible = [r for r in REGIONS if headcounts[r] > 0]
            demand = {r.region: r.national_demand for r in rows}
            oracle = (
                None if not eligible else
                sum(Fraction(int(demand[r]), int(headcounts[r])) for r in eligible)
                / len(eligible)
            )
            for row in rows:
                if headcounts[row.region] == 0:
                    assert row.demand_per_scientist_rel is None
                elif oracle == 0:
                    assert row.demand_per_scientist_rel is None
                else:
                    expected = Fraction(int(demand[row.region]),
                                        int(headcounts[row.region])) / oracle
                    assert row.demand_per_scientist_rel == pytest.approx(float(expected))

    def test_rel_times_mean_reconstructs_coerced_values(self):
        # sum over eligible regions of rel*mean must equal the sum of the
        # NA-coerced per-scientist values the mean was built from
        rng = random.Random(4242)
        for _ in range(50):
            headcounts = {r: float(rng.randint(0, 5)) for r in REGIONS}
            events = []
            for r in REGIONS:
                events += sds_ev("Lazio", r, rng.randint(0, 4))
            rows = sector_correspondence("S1", headcounts, sds_cube(events), REGIONS, 1.0)
            eligible = [r for r in REGIONS if headcounts[r] > 0]
            dps = {r.region: r.demand_per_scientist for r in rows}
            mean = distribution_mean(dps, eligible)
            if mean is None or mean == 0:
                continue
            reconstructed = sum(
                row.demand_per_scientist_rel * mean
                for row in rows
                if row.region in eligible and row.demand_per_scientist_rel is not None
            )
            coerced = sum(dps[r] or 0.0 for r in eligible)
            assert reconstructed == pytest.approx(coerced, abs=1e-9)


class TestSectorFlows:
    HEADCOUNTS = {"Lazio": 4.0, "Lombardy": 2.0, "Sicily": 0.0, "Veneto": 1.0}

    def test_hand_case(self):
        events = (
            sds_ev("Lazio", "Lazio", 3)        # intra
            + sds_ev("Lazio", "Lombardy", 1)   # export
            + sds_ev("Veneto", "Lazio", 2)     # import into Lazio
        )
        rows = {r.region: r
                for r in sector_flows("S1", self.HEADCOUNTS, sds_cube(events), REGIONS)}
        lazio = rows["Lazio"]
        assert (lazio.national_demand, lazio.national_supply, lazio.intra_supply) == (5, 4, 3)
        assert lazio.national_supply_per_scientist == pytest.approx(1.0)
        assert lazio.market_share == pytest.approx(3 / 5)
        assert lazio.market_share_per_scientist == pytest.approx((3 / 5) / 4)
        assert lazio.intra_over_national_supply == pytest.approx(3 / 4)
        sicily = rows["Sicily"]
        assert sicily.national_supply_per_scientist is None   # no scientists
        assert sicily.market_share is None                    # no demand
        assert sicily.intra_over_national_supply is None      # no supply
        lombardy = rows["Lombardy"]
        assert lombardy.market_share == 0.0                   # demand 1, intra 0
        assert lombardy.intra_over_national_supply is None    # supply 0

    def test_rel_to_mean_uses_scientist_eligibility(self):
        events = sds_ev("Lazio", "Lazio", 4) + sds_ev("Veneto", "Lazio", 1)
        rows = {r.region: r
                for r in sector_flows("S1", self.HEADCOUNTS, sds_cube(events), REGIONS)}
        # national_supply_per_scientist: Lazio 1.0, Lombardy 0.0, Veneto 1.0
        mean = (1.0 + 0.0 + 1.0) / 3
        assert rows["Lazio"].national_supply_per_scientist_rel == pytest.approx(1.0 / mean)
        assert rows["Sicily"].national_supply_per_scientist_rel is None


class TestQuadrants:
    def test_four_corners(self):
        assert quadrant_classify(-1.0, 0.9, 0.5) == QUADRANT_I
        assert quadrant_classify(5.0, 0.9, 0.5) == QUADRANT_II
        assert quadrant_classify(5.0, 0.1, 0.5) == QUADRANT_III
        assert quadrant_classify(-1.0, 0.1, 0.5) == QUADRANT_IV

    def test_boundaries(self):
        # zero surplus counts as self-sufficient; threshold share counts as high
        assert quadrant_classify(0.0, 0.5, 0.5) == QUADRANT_II
        assert quadrant_classify(0.0, 0.49999, 0.5) == QUADRANT_III
        assert quadrant_classify(-0.0001, 0.5, 0.5) == QUADRANT_I

    def test_custom_threshold(self):
        assert quadrant_classify(1.0, 0.3, share_threshold=0.25) == QUADRANT_II

    def test_none_share_rejected(self):
        with pytest.raises(ValueError):
            quadrant_classify(1.0, None, 0.5)

    def test_positions_exclude_zero_demand_and_na(self):
        corr = [
            SectorCorrespondenceRow("Lazio", 2.0, 4, -2.0, 2.0, 1.5),
            SectorCorrespondenceRow("Lombardy", 1.0, 0, 1.0, 0.0, 0.0),
            SectorCorrespondenceRow("Sicily", 0.0, 3, -3.0, None, None),
        ]
        flows = [
            SectorFlowsRow("Lazio", 4, 3, 3, 1.5, None, 1.5, None, 0.75, 0.375, 1.0),
            SectorFlowsRow("Lombardy", 0, 1, 0, 1.0, None, 0.0, None, None, None, 0.0),
            SectorFlowsRow("Sicily", 3, 0, 0, None, None, None, None, 0.0, None, None),
        ]
        positions = quadrant_positions("S1", corr, flows, 0.5)
        got = {(p.region, p.quadrant) for p in positions}
        # Lombardy: zero demand -> excluded; Sicily: share defined (0.0) -> IV;
        # Lazio: deficit capacity but dominant share -> I
        assert got == {("Lazio", QUADRANT_I), ("Sicily", QUADRANT_IV)}
        assert all(p.sds == "S1" for p in positions)


class TestRegionStats:
    def test_stats_match_statistics_module(self):
        rows = {
            "S1": SectorCorrespondenceRow("Lazio", 2.0, 4, -2.0, 2.0, 1.0),
            "S2": SectorCorrespondenceRow("Lazio", 1.0, 0, 1.0, 0.0, 0.0),
            "S3": SectorCorrespondenceRow("Lazio", 3.0, 3, 0.0, 1.0, 0.5),
            "S4": SectorCorrespondenceRow("Lazio", 0.0, 2, 0.0, None, None),
        }
        stats = region_sector_stats("Lazio", rows)
        values = [2.0, 0.0, 1.0]
        assert stats.observations == 3
        assert stats.mean == pytest.approx(statistics.fmean(values))
        assert stats.standard_error == pytest.approx(
            statistics.stdev(values) / (3 ** 0.5)
        )
        assert stats.median == pytest.approx(statistics.median(values))
        assert (stats.minimum, stats.maximum) == (0.0, 2.0)
        assert stats.zero_demand_sds == 1   # S2 has scientists but zero demand

    def test_single_observation_has_no_standard_error(self):
        rows = {"S1": SectorCorrespondenceRow("Lazio", 2.0, 4, -2.0, 2.0, 1.0)}
        stats = region_sector_stats("Lazio", rows)
        assert stats.observations == 1
        assert stats.standard_error is None
        assert stats.mean == pytest.approx(2.0)

    def test_ratios_near_the_float_maximum(self):
        """Two finite ratios whose sum passes the float range: fmean of them
        raises and their median is inf, yet each statistic is finite."""
        rows = {sds: SectorCorrespondenceRow("Lazio", 2.0, 3, -1.0, 1.5e308, 1.0)
                for sds in ("S1", "S2")}
        stats = region_sector_stats("Lazio", rows)
        assert stats == RegionSectorStats("Lazio", 2, 1.5e308, 0.0, 1.5e308, 1.5e308, 1.5e308, 0)
        rows["S3"] = SectorCorrespondenceRow("Lazio", 2.0, 0, 2.0, 0.0, 0.0)
        stats = region_sector_stats("Lazio", rows)
        assert stats.mean == pytest.approx(1e308, rel=1e-15)
        assert stats.median == 1.5e308
        assert stats.standard_error == pytest.approx(
            1.5e308 * statistics.stdev([1.0, 1.0, 0.0]) / 3 ** 0.5, rel=1e-15)

    def test_empty(self):
        stats = region_sector_stats("Lazio", {})
        assert stats.observations == 0
        assert stats.mean is None and stats.median is None


class TestWeightsAndRanks:
    def test_sds_weights_proportional_to_events(self):
        events = sds_ev("Lazio", "Lazio", 3, sds="S1") + sds_ev("Lazio", "Lazio", 1, sds="S2")
        weights = sds_weights(sds_cube(events))
        assert weights == {"S1": 0.75, "S2": 0.25}
        assert sds_weights(flow_cube()) == {}

    def test_rank_is_one_plus_strictly_greater(self):
        values = [10.0, 10.0, 5.0, None, 7.0]
        assert rank_regions(values) == [1, 1, 4, None, 3]

    def test_table_tie_pattern_sixteen_above_three_zeros(self):
        values = [float(v) for v in range(20, 4, -1)] + [0.0, 0.0, 0.0]
        ranks = rank_regions(values)
        assert ranks[:16] == list(range(1, 17))
        assert ranks[16:] == [17, 17, 17]

    @given(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=12))
    def test_rank_matches_brute_force(self, raw):
        values = [None if v is None else float(v) for v in raw]
        ranks = rank_regions(values)
        for value, rank in zip(values, ranks):
            if value is None:
                assert rank is None
            else:
                better = sum(1 for other in values
                             if other is not None and other > value)
                assert rank == 1 + better

    @given(st.lists(st.one_of(st.none(), st.integers(-20, 20)), max_size=12))
    def test_rank_invariant_under_monotone_transform(self, raw):
        values = [None if v is None else float(v) for v in raw]
        transformed = [None if v is None else v ** 3 + 7.0 * v for v in values]
        assert rank_regions(values) == rank_regions(transformed)


def _corr_row(region, dps):
    return SectorCorrespondenceRow(region, 1.0, 0, 0.0, dps, None)


def _flow_row(region, nsps=0.0, isps=0.0, msps=0.0, ions=0.0):
    return SectorFlowsRow(region, 0, 0, 0, nsps, None, isps, None, None, msps, ions)


def _tables(values_by_sds):
    """values_by_sds: {sds: {region: v}} applied to every aggregated metric."""
    corr = {
        sds: [_corr_row(r, v) for r, v in sorted(per.items())]
        for sds, per in values_by_sds.items()
    }
    flows = {
        sds: [_flow_row(r, v, v, v, v) for r, v in sorted(per.items())]
        for sds, per in values_by_sds.items()
    }
    return corr, flows


class TestAggregation:
    def test_single_sector_identity(self):
        corr, flows = _tables({"S1": {"Lazio": 2.0, "Lombardy": 0.5}})
        rows = aggregate_regions(corr, flows, {"S1": 1.0}, ("Lazio", "Lombardy"), "coerce-zero")
        by = {r.region: r for r in rows}
        assert by["Lazio"].demand_per_scientist == pytest.approx(2.0, abs=1e-12)
        assert by["Lazio"].intra_over_national_supply == pytest.approx(2.0, abs=1e-12)
        assert by["Lombardy"].market_share_per_scientist == pytest.approx(0.5, abs=1e-12)

    def test_convexity_uniform_value(self):
        corr, flows = _tables({
            "S1": {"Lazio": 3.0}, "S2": {"Lazio": 3.0}, "S3": {"Lazio": 3.0}
        })
        (row,) = aggregate_regions(
            corr, flows, {"S1": 0.2, "S2": 0.5, "S3": 0.3}, ("Lazio",), "coerce-zero"
        )
        assert row.demand_per_scientist == pytest.approx(3.0, abs=1e-9)

    def test_linearity_in_metric_values(self):
        rng = random.Random(4)
        weights = {"S1": 0.25, "S2": 0.75}
        regions = ("Lazio", "Lombardy")
        x = {s: {r: rng.uniform(0, 5) for r in regions} for s in weights}
        y = {s: {r: rng.uniform(0, 5) for r in regions} for s in weights}
        combo = {s: {r: 2 * x[s][r] + 3 * y[s][r] for r in regions} for s in weights}
        out = {}
        for name, table in [("x", x), ("y", y), ("combo", combo)]:
            corr, flows = _tables(table)
            out[name] = {
                r.region: r.demand_per_scientist
                for r in aggregate_regions(corr, flows, weights, regions, "coerce-zero")
            }
        for region in regions:
            assert out["combo"][region] == pytest.approx(
                2 * out["x"][region] + 3 * out["y"][region], abs=1e-9
            )

    def test_na_coerce_zero_vs_renormalize(self):
        corr, flows = _tables({"S1": {"Lazio": 2.0}, "S2": {"Lazio": 4.0}})
        corr["S2"] = [_corr_row("Lazio", None)]
        weights = {"S1": 0.5, "S2": 0.5}
        (coerced,) = aggregate_regions(corr, flows, weights, ("Lazio",), "coerce-zero")
        assert coerced.demand_per_scientist == pytest.approx(1.0)   # (2*0.5 + 0*0.5)
        (renorm,) = aggregate_regions(corr, flows, weights, ("Lazio",),
                                      na_policy="renormalize")
        assert renorm.demand_per_scientist == pytest.approx(2.0)    # weight on S1 alone
        # flows metrics have no NA so both policies agree there
        assert coerced.intra_over_national_supply == pytest.approx(
            renorm.intra_over_national_supply
        )

    def test_all_na_under_renormalize(self):
        corr, flows = _tables({"S1": {"Lazio": 1.0}})
        corr["S1"] = [_corr_row("Lazio", None)]
        (row,) = aggregate_regions(corr, flows, {"S1": 1.0}, ("Lazio",),
                                   na_policy="renormalize")
        assert row.demand_per_scientist is None

    def test_empty_weights_zero_rows(self):
        rows = aggregate_regions({}, {}, {}, ("Lazio", "Lombardy"), "coerce-zero")
        assert [r.region for r in rows] == ["Lazio", "Lombardy"]
        assert all(r.demand_per_scientist == 0.0 for r in rows)
        assert all(r.demand_per_scientist_rank == 1 for r in rows)

    def test_ranks_follow_values(self):
        corr, flows = _tables({"S1": {"Lazio": 2.0, "Lombardy": 0.5, "Sicily": 2.0}})
        rows = aggregate_regions(corr, flows, {"S1": 1.0},
                                 ("Lazio", "Lombardy", "Sicily"), "coerce-zero")
        by = {r.region: r for r in rows}
        assert by["Lazio"].demand_per_scientist_rank == 1
        assert by["Sicily"].demand_per_scientist_rank == 1
        assert by["Lombardy"].demand_per_scientist_rank == 3


def _snapshot(values, regions=("Lazio", "Lombardy"), taxonomy=None):
    """values: {sds: {region: v}} -> snapshot with metric v everywhere."""
    taxonomy = taxonomy if taxonomy is not None else {"S1": "09", "S2": "09"}
    cells = {
        sds: {r: SnapshotCell(v, v, v, v) for r, v in sorted(per.items())}
        for sds, per in values.items()
    }
    return IndicatorSnapshot(tuple(regions), taxonomy, cells)


class TestSnapshotDiff:
    def test_identity_all_zero_no_flags(self):
        snap = _snapshot({"S1": {"Lazio": 1.5, "Lombardy": 2.0}})
        deltas = snapshot_diff(snap, snap)
        assert [(d.region, d.sds) for d in deltas] == [
            ("Lazio", "S1"), ("Lombardy", "S1")
        ]
        for cell in deltas:
            for metric in (cell.surplus, cell.demand_per_scientist,
                           cell.market_share, cell.intra_over_national_supply):
                assert metric.delta == 0
                assert metric.flag is None

    def test_value_delta(self):
        t0 = _snapshot({"S1": {"Lazio": 1.0}}, regions=("Lazio",))
        t1 = _snapshot({"S1": {"Lazio": 3.5}}, regions=("Lazio",))
        (cell,) = snapshot_diff(t0, t1)
        assert cell.surplus.delta == pytest.approx(2.5)
        assert cell.surplus.flag is None

    def test_emergent_and_vanished(self):
        t0 = _snapshot({"S1": {"Lazio": 1.0}}, regions=("Lazio",))
        t1 = _snapshot({"S2": {"Lazio": 2.0}}, regions=("Lazio",))
        deltas = {d.sds: d for d in snapshot_diff(t0, t1)}
        assert deltas["S1"].surplus.flag == "vanished"
        assert deltas["S1"].surplus.delta is None
        assert deltas["S2"].surplus.flag == "emergent"
        assert deltas["S2"].surplus.value_t0 is None
        assert deltas["S2"].surplus.value_t1 == pytest.approx(2.0)

    def test_na_to_na_is_silent(self):
        t0 = _snapshot({"S1": {"Lazio": None}}, regions=("Lazio",))
        (cell,) = snapshot_diff(t0, t0)
        assert cell.surplus.delta is None
        assert cell.surplus.flag is None

    def test_taxonomy_mismatch(self):
        t0 = _snapshot({"S1": {"Lazio": 1.0}}, taxonomy={"S1": "09"})
        t1 = _snapshot({"S1": {"Lazio": 1.0}}, taxonomy={"S1": "02"})
        with pytest.raises(DataError, match="taxonomies differ; mismatched sds codes: S1$"):
            snapshot_diff(t0, t1)

    def test_region_mismatch(self):
        t0 = _snapshot({"S1": {"Lazio": 1.0}}, regions=("Lazio",))
        t1 = _snapshot({"S1": {"Lazio": 1.0}}, regions=("Lazio", "Lombardy"))
        with pytest.raises(DataError, match="region sets differ: Lombardy$"):
            snapshot_diff(t0, t1)

    def test_rows_ordered_by_region_then_sds(self):
        t0 = _snapshot({"S2": {"Lazio": 1.0, "Lombardy": 1.0},
                        "S1": {"Lazio": 1.0, "Lombardy": 1.0}})
        deltas = snapshot_diff(t0, t0)
        assert [(d.region, d.sds) for d in deltas] == [
            ("Lazio", "S1"), ("Lazio", "S2"),
            ("Lombardy", "S1"), ("Lombardy", "S2"),
        ]


_CELL_VALUES = (
    st.sampled_from([None, 0.0, -0.0, 5e-324, 1.7976931348623157e308])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-10**6, 10**6)
)
_SWAP_REGIONS = ("Lazio", "Lombardy", "Sicily")


@st.composite
def _generated_snapshots(draw):
    """Active sectors drawn from three; a region may lack a cell, which
    compares as NA."""
    cells = {}
    for sds in sorted(draw(st.sets(st.sampled_from(["S1", "S2", "S3"])))):
        present = draw(st.sets(st.sampled_from(_SWAP_REGIONS)))
        cells[sds] = {
            region: SnapshotCell(*draw(st.tuples(*[_CELL_VALUES] * 4)))
            for region in sorted(present)
        }
    return IndicatorSnapshot(_SWAP_REGIONS, {"S1": "09", "S2": "09", "S3": "02"}, cells)


@given(_generated_snapshots(), _generated_snapshots())
def test_swapping_snapshots_swaps_the_diff(t0, t1):
    """snapshot_diff(t1, t0) is snapshot_diff(t0, t1) with the values
    swapped, each delta negated (None stays None) and emergent and vanished
    exchanged. A change past the float range is one in both directions, so
    both raise, at the same cell with the values swapped."""
    try:
        forward = snapshot_diff(t0, t1)
    except DataError as error:
        with pytest.raises(DataError, match="past the float range$") as swapped_error:
            snapshot_diff(t1, t0)
        where, values = str(error).split(" changes from ")
        value_t0, value_t1 = values.removesuffix(", past the float range").split(" to ")
        assert str(swapped_error.value) == (
            f"{where} changes from {value_t1} to {value_t0}, past the float range"
        )
        return
    backward = snapshot_diff(t1, t0)
    assert [(d.region, d.sds) for d in backward] == [(d.region, d.sds) for d in forward]
    swapped = {None: None, "emergent": "vanished", "vanished": "emergent"}
    for f, b in zip(forward, backward):
        for mf, mb in zip(f[2:], b[2:]):
            assert repr((mb.value_t0, mb.value_t1)) == repr((mf.value_t1, mf.value_t0))
            assert mb.delta == (None if mf.delta is None else -mf.delta)
            assert mb.flag == swapped[mf.flag]


class TestHeadcounts:
    def test_roster_headcounts_sums_weights(self, registry):
        counts = roster_headcounts(registry, "ING-INF/01")
        assert counts["Lazio"] == pytest.approx(1.0)
        assert counts["Lombardy"] == pytest.approx(1.0)

    def test_all_headcounts_covers_taxonomy(self, registry):
        table = all_headcounts(registry)
        assert set(table) == {"ING-INF/01", "FIS/01", "CHIM/07"}
        assert table["FIS/01"]["Lombardy"] == pytest.approx(1.0)
