"""Shared factories for the test suite."""

from __future__ import annotations

from collections import Counter
from itertools import count
from pathlib import Path
from typing import NamedTuple

import pytest

from collabmarket.cli import PipelineResult, run_pipeline
from collabmarket.collab import FlowCube, write_csv
from collabmarket.config import RunConfig
from collabmarket.demo import (
    DEMO_YEAR,
    REGIONAL_FLOWS,
    SECTOR,
    SECTOR_TABLE,
    SECTOR_UDA,
    _sector_pairs,
    enterprise_id,
    pair_extra_flows,
    university_id,
)
from collabmarket.ingest import ORG_COLUMNS, ROSTER_COLUMNS, TAXONOMY_COLUMNS, write_publications
from collabmarket.model import (
    ENTERPRISE,
    UNIVERSITY,
    AuthorName,
    Organization,
    PublicationRecord,
    Registry,
    SDSCollaboration,
    UECollaboration,
)

TEST_REGIONS = ("Lazio", "Lombardy", "Sicily", "Veneto")

YEARS = frozenset({2001, 2002, 2003})


def make_org(org_id, kind, region, name=None, aliases=()):
    return Organization(org_id, name or f"{org_id} {kind}", tuple(aliases), kind, region)


def joined_publications(publications):
    """One publication for each of the first half of ``publications`` and
    its partner in the second half, with both authors and affiliations under
    the first's pub_id prefixed ``J``. Each demo publication carries one
    (sector, supply region) pair; a joined one may carry one sector from two
    regions, the case that ``sds_region_split`` decides."""
    half = len(publications) // 2
    return [
        PublicationRecord(f"J{a.pub_id}", a.year, a.authors + b.authors,
                          a.affiliations + b.affiliations)
        for a, b in zip(publications, publications[half:])
    ]


def make_pub(pub_id, affiliations, authors=(("rossi", "M"),), year=2002):
    return PublicationRecord(
        pub_id,
        year,
        tuple(AuthorName(surname, initials) for surname, initials in authors),
        tuple(affiliations),
    )


class ScientistRosterEntry(NamedTuple):
    """One roster row: a university researcher with a declared sector and a
    fractional, positive headcount (e.g. thirds, for rosters averaged over a
    three-year window)."""

    surname: str
    initials: str
    university_id: str
    sds: str
    uda: str
    active_years: frozenset[int]
    headcount_weight: float


def make_roster(surname, initials, university_id, sds="ING-INF/01", uda="09",
                years=YEARS, weight=1.0):
    return ScientistRosterEntry(surname, initials, university_id, sds, uda,
                                frozenset(years), weight)


def make_registry(organizations, roster, taxonomy):
    """The registry bundle of ``roster`` rows, with ``by_id`` indexed from
    ``organizations``: the record-based reference of ``load_registries``'s
    roster tables.

    Each row, in order, joins the (university id, sds, active years) triples
    of its (surname, initials) key and adds its weight to its sector's
    headcount in its university's region; every taxonomy sector has a
    headcount table, in sorted order.
    """
    by_id = {org.org_id: org for org in organizations}
    groups = {}
    headcounts = {sds: {} for sds in sorted(taxonomy)}
    for entry in roster:
        groups.setdefault((entry.surname, entry.initials), []).append(
            (entry.university_id, entry.sds, entry.active_years)
        )
        per_region = headcounts[entry.sds]
        region = by_id[entry.university_id].region
        per_region[region] = per_region.get(region, 0.0) + entry.headcount_weight
    index = {key: tuple(triples) for key, triples in groups.items()}
    return Registry(index, headcounts, taxonomy, by_id)


def run_pass(directory: Path, publications, organizations, roster, taxonomy,
             **settings) -> tuple[PipelineResult, list[tuple], list[tuple], list[tuple]]:
    """``run_pipeline`` over a small written corpus, as ``analyze`` calls
    it: the organizations, roster rows and taxonomy as the three registry
    files, and the publication records as the corpus, all in ``directory``.
    Returns the result, then the report rows and the UE and SDS events that
    the pass appended to its lists. ``settings`` are ``RunConfig`` fields;
    the region set defaults to the organizations' regions."""
    directory.mkdir(parents=True, exist_ok=True)
    tables = {
        "organizations": (ORG_COLUMNS, [
            (o.org_id, o.kind, o.region, o.canonical_name, "|".join(o.aliases))
            for o in organizations
        ]),
        "roster": (ROSTER_COLUMNS, [
            (*row[:5], "|".join(map(str, sorted(row.active_years))), repr(row.headcount_weight))
            for row in roster
        ]),
        "taxonomy": (TAXONOMY_COLUMNS, taxonomy.items()),
    }
    paths = {name: directory / f"{name}.csv" for name in tables}
    for name, (columns, rows) in tables.items():
        write_csv(paths[name], columns, rows)
    paths["publications"] = directory / "publications.jsonl"
    write_publications(publications, paths["publications"])
    settings.setdefault("regions", tuple(sorted({org.region for org in organizations})))
    report, ue_events, sds_events = [], [], []
    config = RunConfig(**paths, out=directory / "out", **settings)
    result = run_pipeline(config, report=report, events=(ue_events, sds_events))
    return result, report, ue_events, sds_events


def with_regions(org_ids, registry):
    """(id, region) pairs of organization ids, as the derivations take them."""
    return [(org_id, registry.by_id[org_id].region) for org_id in org_ids]


def flow_cube(ue_events=(), sds_events=()):
    """A cube holding the given events, records or plain tuples."""
    cube = FlowCube()
    for _, university, u_region, enterprise, e_region, _ in ue_events:
        cube.ue_flows[u_region, e_region] += 1
        cube.universities.add(university)
        cube.enterprises.add(enterprise)
    for _, sds, _, supply_region, enterprise, e_region, _ in sds_events:
        cube.sds_flows.setdefault(sds, Counter())[supply_region, e_region] += 1
        cube.enterprises.add(enterprise)
    return cube


def _flow_pairs(flows):
    pairs = []
    for region in sorted(flows):
        pairs.extend((region, region) for _ in range(flows[region][0]))
    pairs.extend(
        pair_extra_flows({r: flows[r][1] for r in flows}, {r: flows[r][2] for r in flows})
    )
    return pairs


def regional_ue_events(flows=REGIONAL_FLOWS, year=DEMO_YEAR):
    """Synthetic university-enterprise events matching the demo's regional
    flow marginals."""
    return [
        UECollaboration(f"R{i:04d}", university_id(u), u, enterprise_id(e), e, year)
        for i, (u, e) in enumerate(_flow_pairs(flows), start=1)
    ]


def sector_sds_events(table=SECTOR_TABLE, sds=SECTOR, uda=SECTOR_UDA, year=DEMO_YEAR):
    """Synthetic sector-enterprise events matching the demo's sector marginals."""
    return [
        SDSCollaboration(f"S{i:04d}", sds, uda, supply, enterprise_id(demand), demand, year)
        for i, (supply, demand) in enumerate(_sector_pairs(table), start=1)
    ]


def sector_headcounts(table=SECTOR_TABLE):
    """Scientist headcount per region for the demo sector."""
    return {region: float(values[0]) for region, values in table.items()}


@pytest.fixture
def taxonomy():
    return {"ING-INF/01": "09", "FIS/01": "02", "CHIM/07": "03"}


# Two universities, two enterprises, small roster over three sectors.
ORGANIZATIONS = (
    make_org("U1", UNIVERSITY, "Lazio", "Universita di Roma",
             aliases=("Univ. Roma", "Rome University")),
    make_org("U2", UNIVERSITY, "Lombardy", "Politecnico di Milano",
             aliases=("Milan Polytechnic",)),
    make_org("E1", ENTERPRISE, "Lazio", "Acme Research"),
    make_org("E2", ENTERPRISE, "Veneto", "Borg Devices", aliases=("Borg",)),
)
ROSTER = (
    make_roster("rossi", "M", "U1"),
    make_roster("rossi", "M", "U2"),                       # ambiguous with the one above
    make_roster("bianchi", "G", "U2", sds="FIS/01", uda="02"),
    make_roster("verdi", "A", "U1", sds="CHIM/07", uda="03", years={2001}),
)


@pytest.fixture
def registry(taxonomy):
    return make_registry(ORGANIZATIONS, ROSTER, taxonomy)


@pytest.fixture
def run(tmp_path, taxonomy):
    """``run_pass`` over the ``registry`` fixture's organizations, roster and
    taxonomy, each call in a directory of its own."""
    calls = count()
    return lambda publications, **settings: run_pass(
        tmp_path / f"run{next(calls)}", publications, ORGANIZATIONS, ROSTER, taxonomy, **settings
    )
