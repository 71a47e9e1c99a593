"""Shared factories for the test suite."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import pytest

from collabmarket.collab import FlowCube
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


def split_org_ids(resolutions, registry):
    """Distinct resolved university ids and enterprise ids, each sorted: the
    staged reference of the pass's per-publication organization tables."""
    universities = set()
    enterprises = set()
    for r in resolutions:
        if r.org_id is not None:
            kind = registry.by_id[r.org_id].kind
            (universities if kind == UNIVERSITY else enterprises).add(r.org_id)
    return tuple(sorted(universities)), tuple(sorted(enterprises))


def with_regions(org_ids, registry):
    """(id, region) pairs of organization ids, as the derivations take them."""
    return [(org_id, registry.by_id[org_id].region) for org_id in org_ids]


def supply_pairs(attributions, registry):
    """The distinct (sector, supply region) pairs that attributions carry."""
    return {
        (a.sds, registry.by_id[a.university_id].region)
        for a in attributions
        if a.sds is not None and a.university_id is not None
    }


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


@pytest.fixture
def registry(taxonomy):
    """Two universities, two enterprises, small roster over three sectors."""
    organizations = (
        make_org("U1", UNIVERSITY, "Lazio", "Universita di Roma",
                 aliases=("Univ. Roma", "Rome University")),
        make_org("U2", UNIVERSITY, "Lombardy", "Politecnico di Milano",
                 aliases=("Milan Polytechnic",)),
        make_org("E1", ENTERPRISE, "Lazio", "Acme Research"),
        make_org("E2", ENTERPRISE, "Veneto", "Borg Devices", aliases=("Borg",)),
    )
    roster = (
        make_roster("rossi", "M", "U1"),
        make_roster("rossi", "M", "U2"),                       # ambiguous with the one above
        make_roster("bianchi", "G", "U2", sds="FIS/01", uda="02"),
        make_roster("verdi", "A", "U1", sds="CHIM/07", uda="03", years={2001}),
    )
    return make_registry(organizations, roster, taxonomy)
