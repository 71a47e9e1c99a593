"""Derivation of collaboration events from resolved, attributed publications,
and the flow-count cube the indicators read.

A publication listing m distinct universities and n distinct enterprises
witnesses m*n university-enterprise events; repeated mentions of the same
organization within one publication never inflate the count. Sector-level
events pair each attributed (sector, supply region) with each distinct
enterprise.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .model import (
    AuthorAttribution,
    CorpusTotals,
    PublicationRecord,
    Registry,
    SDSCollaboration,
    UECollaboration,
)


def derive_ue_events(
    pub: PublicationRecord,
    universities: Sequence[str],
    enterprises: Sequence[str],
    registry: Registry,
) -> list[UECollaboration]:
    """University-enterprise events for one publication (all distinct pairs).

    ``universities`` and ``enterprises`` are the publication's distinct
    resolved ids of each kind, sorted (see ``resolve.split_org_ids``). The
    caller passes only a retained publication, which has both kinds.
    """
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
    enterprises: Sequence[str],
    registry: Registry,
    region_split: str = "per-region",
) -> list[SDSCollaboration]:
    """Sector-enterprise events for one retained publication: the caller
    passes only one with an enterprise and an author attributed to a sector.

    ``enterprises`` are the publication's distinct resolved enterprise ids,
    sorted. With ``region_split="per-region"`` (default) a sector attributed
    through universities in several regions supplies one event per (sector,
    region, enterprise) triple. With ``"single"`` each (sector, enterprise)
    pair yields one event, attributed to the alphabetically first supplying
    region.
    """
    by_id = registry.by_id
    pairs = {
        (a.sds, by_id[a.university_id].region)
        for a in attributions
        if a.sds is not None and a.university_id is not None
    }
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


@dataclass
class FlowCube:
    """Event counts of a corpus, all that the indicators read.

    ``ue_flows`` counts university-enterprise events by (university region,
    enterprise region); ``sds_flows`` counts sector events by sector, then by
    (supply region, enterprise region), and holds only sectors with events.
    The id sets hold the distinct universities and enterprises taking part.
    Cubes of disjoint corpora add up: counts add and sets unite.
    """

    ue_flows: Counter[tuple[str, str]] = field(default_factory=Counter)
    sds_flows: dict[str, Counter[tuple[str, str]]] = field(default_factory=dict)
    universities: set[str] = field(default_factory=set)
    enterprises: set[str] = field(default_factory=set)

    def add(
        self, ue_events: Iterable[UECollaboration], sds_events: Iterable[SDSCollaboration]
    ) -> None:
        """Count the events of one publication (or any batch) into the cube."""
        ue_flows, sds_flows = self.ue_flows, self.sds_flows
        universities, enterprises = self.universities, self.enterprises
        for ev in ue_events:
            ue_flows[ev.u_region, ev.e_region] += 1
            universities.add(ev.university_id)
            enterprises.add(ev.enterprise_id)
        for ev in sds_events:
            flows = sds_flows.get(ev.sds)
            if flows is None:
                flows = sds_flows[ev.sds] = Counter()
            flows[ev.supply_region, ev.e_region] += 1
            enterprises.add(ev.enterprise_id)


def corpus_totals(cube: FlowCube) -> CorpusTotals:
    """Headline counts: events plus distinct participants and active sectors."""
    return CorpusTotals(
        ue_events=sum(cube.ue_flows.values()),
        sds_events=sum(sum(flows.values()) for flows in cube.sds_flows.values()),
        universities=len(cube.universities),
        enterprises=len(cube.enterprises),
        active_sds=len(cube.sds_flows),
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
