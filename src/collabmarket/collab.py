"""The flow-count cube the indicators read, and the collaboration events
that ``analyze`` exports.

A publication listing m distinct universities and n distinct enterprises
witnesses m*n university-enterprise events; repeated mentions of the same
organization within one publication never inflate the count. Sector-level
events pair each attributed (sector, supply region) with each distinct
enterprise. The pass (``cli.run_pipeline``) counts these products straight
into a ``FlowCube``; ``derive_ue_events`` and ``derive_sds_events`` list
them as event tuples only for the exports.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import CorpusTotals, PublicationRecord, SDSCollaboration, UECollaboration


def derive_ue_events(
    pub: PublicationRecord,
    universities: Iterable[tuple[str, str]],
    enterprises: Iterable[tuple[str, str]],
) -> list[tuple[str, str, str, str, str, int]]:
    """University-enterprise events for one publication (all distinct pairs),
    as plain tuples in ``UECollaboration`` field order.

    ``universities`` and ``enterprises`` are the publication's distinct
    resolved (id, region) pairs of each kind, in any order; the events come
    out in export-key order. The caller passes only a retained publication,
    which has both kinds.
    """
    pub_id, year = pub.pub_id, pub.year
    enterprises = sorted(enterprises)
    return [
        (pub_id, u, u_region, e, e_region, year)
        for u, u_region in sorted(universities)
        for e, e_region in enterprises
    ]


def derive_sds_events(
    pub: PublicationRecord,
    pairs: Iterable[tuple[str, str]],
    enterprises: Iterable[tuple[str, str]],
    parent_uda: Mapping[str, str],
) -> list[tuple[str, str, str, str, str, str, int]]:
    """Sector-enterprise events for one retained publication, as plain tuples
    in ``SDSCollaboration`` field order: the caller passes only one with an
    enterprise and an author attributed to a sector.

    ``pairs`` are the (sector, supply region) pairs its attributed authors
    carry, after the pass applied ``sds_region_split``, and ``enterprises``
    its distinct resolved (id, region) enterprise pairs, each in any order;
    one event per pair and enterprise comes out, in export-key order.
    """
    pub_id, year = pub.pub_id, pub.year
    enterprises = sorted(enterprises)
    return [
        (pub_id, sds, parent_uda[sds], supply_region, e, e_region, year)
        for sds, supply_region in sorted(pairs)
        for e, e_region in enterprises
    ]


@dataclass
class FlowCube:
    """Event counts of a corpus, all that the indicators read; the pass
    (``cli.run_pipeline``) counts each retained publication's events into it
    from the publication's regions, with no event tuple.

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
    """Write university-enterprise events, one field per column, by pub_id,
    university and enterprise. Plain tuple order is that order: a
    university's region follows from its id, and no two events share a
    pub_id, university and enterprise."""
    write_csv(path, UECollaboration._fields, sorted(events))


def export_sds_events(events: Iterable[SDSCollaboration], path: str | Path) -> None:
    """Write sector-enterprise events, one field per column, by pub_id,
    sector, supply region and enterprise. Plain tuple order is that order: a
    sector's area follows from its code, and no two events share a pub_id,
    sector, supply region and enterprise."""
    write_csv(path, SDSCollaboration._fields, sorted(events))
