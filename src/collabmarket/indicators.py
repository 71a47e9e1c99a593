"""Regional and sectorial indicators computed from collaboration event counts.

Every indicator reads a ``collab.FlowCube``: the counts of university-
enterprise events by (university region, enterprise region) and of sector
events by (sector, supply region, enterprise region). No event list is
needed.

``snapshot_diff`` compares two ``IndicatorSnapshot``s, which hold only the
four compared metrics of each (sector, region) cell.

Conventions shared by every function here:

* NA is represented as ``None``. A ratio is NA exactly when its denominator
  is zero; downstream consumers must render it as the literal string ``NA``.
* Percentages and shares are stored as fractions in [0, 1]; rendering decides
  the scale.
* Rows come back sorted alphabetically by region, one row per configured
  region, including all-zero rows, so tables are rectangular and stable.
  Consumers rely on this: row i of every sector's table2 and table3 is
  region i of the sorted region set, so they read rows by position and
  never look a region up.
* Distribution means used for the rel-to-mean companion columns coerce NA to
  zero and divide by the number of *eligible* regions (those with at least
  one roster scientist in the sector), not by the number of defined values.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Iterable, Mapping, NamedTuple, Sequence

from .collab import FlowCube
from .errors import DataError
from .model import Registry

_LARGEST_FLOAT = sys.float_info.max

QUADRANT_I = "I"
QUADRANT_II = "II"
QUADRANT_III = "III"
QUADRANT_IV = "IV"


class RegionalSummary(NamedTuple):
    """Supply and demand of one region over the whole corpus (all sectors)."""

    region: str
    supply_intra: int
    supply_extra: int
    supply_national: int
    demand_intra: int
    demand_extra: int
    demand_national: int
    net_difference: int
    market_share: float | None  # intra supply / national demand


class SectorCorrespondenceRow(NamedTuple):
    """Capacity versus demand of one region in one sector."""

    region: str
    scientists: float
    national_demand: int
    surplus: float
    demand_per_scientist: float | None
    demand_per_scientist_rel: float | None


class SectorFlowsRow(NamedTuple):
    """Supply-side flows of one region in one sector."""

    region: str
    national_demand: int
    national_supply: int
    intra_supply: int
    national_supply_per_scientist: float | None
    national_supply_per_scientist_rel: float | None
    intra_supply_per_scientist: float | None
    intra_supply_per_scientist_rel: float | None
    market_share: float | None
    market_share_per_scientist: float | None
    intra_over_national_supply: float | None


class QuadrantPosition(NamedTuple):
    """Placement of one demand-bearing region in the diagnostic plane."""

    region: str
    sds: str
    surplus: float
    market_share: float
    quadrant: str


class RegionSectorStats(NamedTuple):
    """Distribution of demand per scientist across one region's sectors."""

    region: str
    observations: int
    mean: float | None
    standard_error: float | None
    median: float | None
    minimum: float | None
    maximum: float | None
    zero_demand_sds: int


class AggregateRow(NamedTuple):
    """Weighted cross-sector indicators of one region, with rankings."""

    region: str
    demand_per_scientist: float | None
    demand_per_scientist_rank: int | None
    national_supply_per_scientist: float | None
    national_supply_per_scientist_rank: int | None
    intra_supply_per_scientist: float | None
    intra_supply_per_scientist_rank: int | None
    market_share_per_scientist: float | None
    market_share_per_scientist_rank: int | None
    intra_over_national_supply: float | None
    intra_over_national_supply_rank: int | None


class MetricDelta(NamedTuple):
    """One metric compared between two snapshots."""

    value_t0: float | None
    value_t1: float | None
    delta: float | None
    flag: str | None  # "emergent" | "vanished" | None


class SnapshotDelta(NamedTuple):
    """All tracked metrics of one (region, sector) cell compared over time."""

    region: str
    sds: str
    surplus: MetricDelta
    demand_per_scientist: MetricDelta
    market_share: MetricDelta
    intra_over_national_supply: MetricDelta


class SnapshotCell(NamedTuple):
    """The metrics of one (region, sector) cell that a snapshot diff compares,
    in ``SnapshotDelta``'s order: two from table2, two from table3."""

    surplus: float | None
    demand_per_scientist: float | None
    market_share: float | None
    intra_over_national_supply: float | None


@dataclass(frozen=True)
class IndicatorSnapshot:
    """The compared cells of one analysis run: sds -> region -> cell.

    A sector without cells is inactive in the run; a region without a cell
    in a sector compares as NA.
    """

    regions: tuple[str, ...]
    taxonomy: Mapping[str, str]  # sds -> uda
    cells: Mapping[str, Mapping[str, SnapshotCell]]


def regional_summary(cube: FlowCube, regions: Sequence[str]) -> list[RegionalSummary]:
    """Aggregate university-enterprise events into per-region supply/demand.

    An event supplies its university region and demands into its enterprise
    region; intra-regional events count on both sides of the same region, so
    summed over all regions supply equals demand, both nationally and
    intra-regionally. Every event's regions are among ``regions``: the
    registry loader refuses an organization outside them.
    """
    supply_intra: Counter[str] = Counter()
    supply_extra: Counter[str] = Counter()
    demand_extra: Counter[str] = Counter()
    for (u_region, e_region), n in cube.ue_flows.items():
        if u_region == e_region:
            supply_intra[u_region] += n
        else:
            supply_extra[u_region] += n
            demand_extra[e_region] += n
    rows = []
    for region in sorted(regions):
        s_intra = supply_intra[region]
        s_extra = supply_extra[region]
        d_extra = demand_extra[region]
        s_national = s_intra + s_extra
        d_national = s_intra + d_extra
        share = s_intra / d_national if d_national else None
        rows.append(
            RegionalSummary(
                region,
                s_intra,
                s_extra,
                s_national,
                s_intra,
                d_extra,
                d_national,
                s_national - d_national,
                share,
            )
        )
    return rows


def distribution_mean(
    values: Mapping[str, float | None], eligible: Iterable[str]
) -> float | None:
    """Mean of a per-region indicator over the eligible regions.

    NA values (and regions absent from ``values``) are coerced to zero; the
    divisor is the eligible-region count. Returns None when nothing is
    eligible.
    """
    pool = sorted(set(eligible))
    if not pool:
        return None
    total = 0.0
    for region in pool:
        value = values.get(region)
        if value is not None:
            total += value
    if not isfinite(total):
        # Finite values can sum past the float range; their mean cannot.
        return sum(values[r] / len(pool) for r in pool if values.get(r) is not None)
    return total / len(pool)


def _rel_to_mean(
    values: Mapping[str, float | None], eligible: Iterable[str]
) -> dict[str, float | None]:
    mean = distribution_mean(values, eligible)
    rel: dict[str, float | None] = {}
    for region, value in values.items():
        rel[region] = value / mean if (value is not None and mean) else None
    return rel


def roster_headcounts(registry: Registry, sds: str) -> Mapping[str, float]:
    """Fractional scientist headcount of one sector, grouped by region."""
    return all_headcounts(registry).get(sds, {})


def all_headcounts(registry: Registry) -> Mapping[str, Mapping[str, float]]:
    """Headcounts of every taxonomy sector: sds -> region -> n, as the roster
    loader sums them.

    A sum past the float range is ``inf``; the table2 row that shows it is
    what a run refuses.
    """
    return registry.headcounts


def sector_correspondence(
    sds: str,
    headcounts: Mapping[str, float],
    cube: FlowCube,
    regions: Sequence[str],
    capacity_multiplier: float,
) -> list[SectorCorrespondenceRow]:
    """Capacity-versus-demand table of one sector.

    ``capacity_multiplier`` scales how many collaborations one scientist is
    assumed able to satisfy; it affects the surplus and the demand-per-
    scientist denominator while the reported headcount stays raw.
    """
    demand: Counter[str] = Counter()
    for (_, e_region), n in cube.sds_flows.get(sds, {}).items():
        demand[e_region] += n
    scientists = {r: float(headcounts.get(r, 0.0)) for r in regions}
    capacity = {r: scientists[r] * capacity_multiplier for r in regions}
    ratios = {r: demand[r] / capacity[r] if capacity[r] > 0 else None for r in regions}
    rel = _rel_to_mean(ratios, [r for r in regions if scientists[r] > 0])
    return [
        SectorCorrespondenceRow(
            r, scientists[r], demand[r], capacity[r] - demand[r], ratios[r], rel[r]
        )
        for r in sorted(regions)
    ]


def sector_flows(
    sds: str,
    headcounts: Mapping[str, float],
    cube: FlowCube,
    regions: Sequence[str],
) -> list[SectorFlowsRow]:
    """Supply-side flow table of one sector.

    The market share of a region is the fraction of its national demand
    satisfied intra-regionally; it is NA where there is no demand, as is any
    per-scientist ratio where there are no scientists.
    """
    demand: Counter[str] = Counter()
    supply: Counter[str] = Counter()
    intra: Counter[str] = Counter()
    for (supply_region, e_region), n in cube.sds_flows.get(sds, {}).items():
        demand[e_region] += n
        supply[supply_region] += n
        if supply_region == e_region:
            intra[supply_region] += n
    scientists = {r: float(headcounts.get(r, 0.0)) for r in regions}
    supply_ratio: dict[str, float | None] = {}
    intra_ratio: dict[str, float | None] = {}
    for region in regions:
        n = scientists[region]
        supply_ratio[region] = supply[region] / n if n > 0 else None
        intra_ratio[region] = intra[region] / n if n > 0 else None
    eligible = [r for r in regions if scientists[r] > 0]
    supply_rel = _rel_to_mean(supply_ratio, eligible)
    intra_rel = _rel_to_mean(intra_ratio, eligible)
    rows = []
    for region in sorted(regions):
        n = scientists[region]
        share = intra[region] / demand[region] if demand[region] else None
        share_per_scientist = share / n if (share is not None and n > 0) else None
        over_national = intra[region] / supply[region] if supply[region] else None
        rows.append(
            SectorFlowsRow(
                region,
                demand[region],
                supply[region],
                intra[region],
                supply_ratio[region],
                supply_rel[region],
                intra_ratio[region],
                intra_rel[region],
                share,
                share_per_scientist,
                over_national,
            )
        )
    return rows


def quadrant_classify(
    surplus: float, market_share: float | None, share_threshold: float
) -> str:
    """Quadrant of one region: I deficit/high-share, II surplus/high-share,
    III surplus/low-share, IV deficit/low-share.

    The x divider (surplus = 0) belongs to the surplus side, the y divider
    (share = threshold) to the high side. Raises on an NA share, which marks
    a region that cannot be positioned.
    """
    if market_share is None:
        raise ValueError("a region without demand has no market share to position")
    high = market_share >= share_threshold
    if surplus < 0:
        return QUADRANT_I if high else QUADRANT_IV
    return QUADRANT_II if high else QUADRANT_III


def quadrant_positions(
    sds: str,
    correspondence: Sequence[SectorCorrespondenceRow],
    flows: Sequence[SectorFlowsRow],
    share_threshold: float,
) -> list[QuadrantPosition]:
    """Positions of every demand-bearing region of one sector, from its
    table2 and table3 rows, which pair up by position (see the module)."""
    positions = []
    for corr, flow in zip(correspondence, flows):
        if flow.market_share is None:
            continue
        positions.append(
            QuadrantPosition(
                corr.region,
                sds,
                corr.surplus,
                flow.market_share,
                quadrant_classify(corr.surplus, flow.market_share, share_threshold),
            )
        )
    return positions


def region_sector_stats(
    region: str, correspondence_by_sds: Mapping[str, SectorCorrespondenceRow]
) -> RegionSectorStats:
    """Distribution statistics of demand per scientist across sectors.

    Only sectors where the region has at least one roster scientist count as
    observations; with no observations every statistic is NA, and with one the
    standard error alone is NA.
    """
    ratios = []
    zero_demand = 0
    for sds in sorted(correspondence_by_sds):
        row = correspondence_by_sds[sds]
        if row.scientists <= 0:
            continue
        assert row.demand_per_scientist is not None
        ratios.append(row.demand_per_scientist)
        if row.national_demand == 0:
            zero_demand += 1
    if not ratios:
        return RegionSectorStats(region, 0, None, None, None, None, None, 0)
    n = len(ratios)
    std_error = _in_range(statistics.stdev, ratios) / sqrt(n) if n > 1 else None
    return RegionSectorStats(
        region,
        n,
        _in_range(statistics.fmean, ratios),
        std_error,
        _in_range(statistics.median, ratios),
        min(ratios),
        max(ratios),
        zero_demand,
    )


# A power of two small enough that the square of any finite float times it
# stays in the float range; scaling by it is exact for all but tiny values.
_SCALE = 2.0 ** -600


def _in_range(statistic, values: Sequence[float]) -> float:
    """``statistic(values)``, or, when finite values take it or its
    intermediates past the float range (fmean of two values near the float
    maximum raises, their median is inf, and Python 3.10's stdev raises), the
    statistic of the values scaled down by a power of two, scaled back up."""
    try:
        result = statistic(values)
        if isfinite(result):
            return result
    except OverflowError:
        pass
    return statistic([value * _SCALE for value in values]) / _SCALE


def sds_weights(cube: FlowCube) -> dict[str, float]:
    """Aggregation weight of each collaboration-active sector.

    A sector's weight is its national event count over the total, so weights
    sum to one whenever any events exist.
    """
    counts = {sds: sum(flows.values()) for sds, flows in cube.sds_flows.items()}
    total = sum(counts.values())
    if not total:
        return {}
    return {sds: counts[sds] / total for sds in sorted(counts)}


def _combine(
    weighted: Sequence[tuple[float, float | None]], na_policy: str
) -> float | None:
    if na_policy == "coerce-zero":
        return sum(w * v for w, v in weighted if v is not None)
    defined = [(w, v) for w, v in weighted if v is not None]
    if not defined:
        return None
    weight_sum = sum(w for w, _ in defined)
    return sum(w * v for w, v in defined) / weight_sum


def rank_regions(values: Sequence[float | None]) -> list[int | None]:
    """Competition ranking, descending: ties share a rank, the next rank
    skips, NA values stay unranked."""
    ranks: list[int | None] = [None] * len(values)
    for i, value in enumerate(values):
        if value is None:
            continue
        ranks[i] = 1 + sum(1 for other in values if other is not None and other > value)
    return ranks


# Each metric of ``AggregateRow`` (its rank follows it) and the table it is read from.
_AGGREGATE_METRICS = tuple(zip(
    AggregateRow._fields[1::2], ("correspondence", "flows", "flows", "flows", "flows"), strict=True
))


def aggregate_regions(
    correspondence: Mapping[str, Sequence[SectorCorrespondenceRow]],
    flows: Mapping[str, Sequence[SectorFlowsRow]],
    weights: Mapping[str, float],
    regions: Sequence[str],
    na_policy: str,
) -> list[AggregateRow]:
    """Weight per-sector indicators into one cross-sector row per region.

    ``weights`` covers exactly the sectors being aggregated: the caller
    passes those of ``sds_weights``, which sum to one; their table2 and
    table3 rows are read by position (see the module). NA policy
    ``coerce-zero`` counts an undefined sector value as zero; ``renormalize``
    instead averages over the defined sectors only. ``RunConfig`` has
    checked ``na_policy``.
    """
    sds_list = sorted(weights)
    ordered_regions = sorted(regions)
    columns: list[list] = []  # each metric's values, then its ranks
    for metric, source in _AGGREGATE_METRICS:
        tables = correspondence if source == "correspondence" else flows
        sectors = [(weights[s], [getattr(row, metric) for row in tables[s]]) for s in sds_list]
        column = [_combine([(w, values[i]) for w, values in sectors], na_policy) if sds_list
                  else 0.0 for i in range(len(ordered_regions))]
        columns += column, rank_regions(column)
    return [AggregateRow(*fields) for fields in zip(ordered_regions, *columns)]


_NO_CELL = SnapshotCell(None, None, None, None)
# Shared: on a large diff over a quarter of the metrics are NA on both sides.
_NA_DELTA = MetricDelta(None, None, None, None)


def _delta(value_t0: float | None, value_t1: float | None) -> MetricDelta:
    if value_t0 is None and value_t1 is None:
        return _NA_DELTA
    if value_t0 is None:
        return MetricDelta(None, value_t1, None, "emergent")
    if value_t1 is None:
        return MetricDelta(value_t0, None, None, "vanished")
    return MetricDelta(value_t0, value_t1, value_t1 - value_t0, None)


def snapshot_diff(t0: IndicatorSnapshot, t1: IndicatorSnapshot) -> list[SnapshotDelta]:
    """Compare two indicator snapshots cell by cell.

    Both snapshots must be computed over the same region set and taxonomy.
    A sector with tables in only one snapshot shows up flagged emergent (only
    in t1) or vanished (only in t0) for every region. A change past the float
    range raises a ``DataError`` naming the sector, the region and the metric.
    """
    if t0.taxonomy != t1.taxonomy:
        codes = {*t0.taxonomy, *t1.taxonomy}
        mismatched = sorted(s for s in codes if t0.taxonomy.get(s) != t1.taxonomy.get(s))
        raise DataError(f"taxonomies differ; mismatched sds codes: {', '.join(mismatched)}")
    if tuple(sorted(t0.regions)) != tuple(sorted(t1.regions)):
        difference = sorted(set(t0.regions) ^ set(t1.regions))
        raise DataError(f"region sets differ: {', '.join(difference)}")

    all_sds = sorted(set(t0.cells) | set(t1.cells))
    sectors = [(sds, t0.cells.get(sds, {}), t1.cells.get(sds, {})) for sds in all_sds]
    deltas = []
    for region in sorted(t0.regions):
        for sds, cells0, cells1 in sectors:
            c0 = cells0.get(region, _NO_CELL)
            c1 = cells1.get(region, _NO_CELL)
            cell = SnapshotDelta(region, sds, *map(_delta, c0, c1))
            # Finite values can still differ by more than the float range.
            for metric, entry in zip(SnapshotCell._fields, cell[2:]):
                if entry.delta is not None and abs(entry.delta) > _LARGEST_FLOAT:
                    raise DataError(
                        f"sector {sds!r}, region {region!r}: {metric} changes from "
                        f"{entry.value_t0!r} to {entry.value_t1!r}, past the float range"
                    )
            deltas.append(cell)
    return deltas
