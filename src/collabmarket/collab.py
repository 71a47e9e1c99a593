"""Derivation of collaboration events from resolved, attributed publications.

A publication listing m distinct universities and n distinct enterprises
witnesses m*n university-enterprise events; repeated mentions of the same
organization within one publication never inflate the count. Sector-level
events pair each attributed (sector, supply region) with each distinct
enterprise.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

from .model import (
    ENTERPRISE,
    UNIVERSITY,
    AffiliationResolution,
    AuthorAttribution,
    CorpusTotals,
    PublicationRecord,
    Registry,
    SDSCollaboration,
    UECollaboration,
)
from .resolve import resolved_org_ids

SDS_REGION_SPLITS = ("per-region", "single")


def derive_ue_events(
    pub: PublicationRecord,
    resolutions: Sequence[AffiliationResolution],
    registry: Registry,
) -> list[UECollaboration]:
    """University-enterprise events for one publication (all distinct pairs)."""
    universities = resolved_org_ids(resolutions, registry, UNIVERSITY)
    enterprises = resolved_org_ids(resolutions, registry, ENTERPRISE)
    if not universities or not enterprises:
        raise ValueError(
            f"publication {pub.pub_id!r} reached event derivation without both a "
            "resolved university and a resolved enterprise; the corpus filter "
            "should have excluded it"
        )
    by_id = registry.by_id
    pub_id, year = pub.pub_id, pub.year
    enterprise_regions = [(e, by_id[e].region) for e in enterprises]
    events = []
    for u in universities:
        u_region = by_id[u].region
        for e, e_region in enterprise_regions:
            events.append(UECollaboration(pub_id, u, u_region, e, e_region, year))
    return events


def derive_sds_events(
    pub: PublicationRecord,
    attributions: Sequence[AuthorAttribution],
    resolutions: Sequence[AffiliationResolution],
    registry: Registry,
    region_split: str = "per-region",
) -> list[SDSCollaboration]:
    """Sector-enterprise events for one publication.

    With ``region_split="per-region"`` (default) a sector attributed through
    universities in several regions supplies one event per (sector, region,
    enterprise) triple. With ``"single"`` each (sector, enterprise) pair
    yields one event, attributed to the alphabetically first supplying region.
    """
    if region_split not in SDS_REGION_SPLITS:
        raise ValueError(f"unknown region split {region_split!r}")
    enterprises = resolved_org_ids(resolutions, registry, ENTERPRISE)
    by_id = registry.by_id
    pairs = {
        (a.sds, by_id[a.university_id].region)
        for a in attributions
        if a.sds is not None and a.university_id is not None
    }
    if not pairs:
        raise ValueError(
            f"publication {pub.pub_id!r} has no sector attribution; the corpus "
            "filter should have excluded it"
        )
    if not enterprises:
        raise ValueError(
            f"publication {pub.pub_id!r} has no resolved enterprise; the corpus "
            "filter should have excluded it"
        )
    if region_split == "single":
        first_region = {}
        for sds, region in sorted(pairs):
            first_region.setdefault(sds, region)
        pairs = set(first_region.items())
    parent_uda = registry.taxonomy.parent_uda
    pub_id, year = pub.pub_id, pub.year
    enterprise_regions = [(e, by_id[e].region) for e in enterprises]
    events = []
    for sds, supply_region in sorted(pairs):
        uda = parent_uda[sds]
        for e, e_region in enterprise_regions:
            events.append(SDSCollaboration(pub_id, sds, uda, supply_region, e, e_region, year))
    return events


def sort_ue_events(events: Iterable[UECollaboration]) -> list[UECollaboration]:
    return sorted(events, key=lambda ev: (ev.pub_id, ev.university_id, ev.enterprise_id))


def sort_sds_events(events: Iterable[SDSCollaboration]) -> list[SDSCollaboration]:
    return sorted(
        events, key=lambda ev: (ev.pub_id, ev.sds, ev.supply_region, ev.enterprise_id)
    )


def corpus_totals(
    ue_events: Sequence[UECollaboration], sds_events: Sequence[SDSCollaboration]
) -> CorpusTotals:
    """Headline counts: events plus distinct participants and active sectors."""
    return CorpusTotals(
        ue_events=len(ue_events),
        sds_events=len(sds_events),
        universities=len({ev.university_id for ev in ue_events}),
        enterprises=len(
            {ev.enterprise_id for ev in ue_events} | {ev.enterprise_id for ev in sds_events}
        ),
        active_sds=len({ev.sds for ev in sds_events}),
    )


def events_by_sds(events: Iterable[SDSCollaboration]) -> dict[str, list[SDSCollaboration]]:
    """Group sector events by sds code, sorted keys, event order kept."""
    grouped: dict[str, list[SDSCollaboration]] = {}
    for event in events:
        grouped.setdefault(event.sds, []).append(event)
    return dict(sorted(grouped.items()))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line, then one line per row, as a comma-separated file."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_ue_events(events: Iterable[UECollaboration], path: str | Path) -> None:
    """Write university-enterprise events, sorted, one field per column."""
    write_csv(path, UECollaboration._fields, sort_ue_events(events))


def export_sds_events(events: Iterable[SDSCollaboration], path: str | Path) -> None:
    """Write sector-enterprise events, sorted, one field per column."""
    write_csv(path, SDSCollaboration._fields, sort_sds_events(events))
