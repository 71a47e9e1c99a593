"""Event derivation: the distinct-pair product rule and its exports."""

from __future__ import annotations

import random

from collabmarket.collab import (
    corpus_totals,
    derive_sds_events,
    derive_ue_events,
    events_by_sds,
    export_sds_events,
    export_ue_events,
)
from collabmarket.model import (
    ENTERPRISE,
    UNIVERSITY,
    AffiliationResolution,
    AuthorAttribution,
    Organization,
    SDSCollaboration,
    UECollaboration,
)
from collabmarket.resolve import Resolver, attribute_authors, resolve_publication

from conftest import (
    flow_cube,
    make_pub,
    make_registry,
    make_roster,
    split_org_ids,
    supply_pairs,
    with_regions,
)


def _org_ids(registry, pub):
    """The publication's (universities, enterprises) (id, region) pairs and
    the (sector, supply region) pairs of its attributions."""
    resolver = Resolver.build(registry)
    universities, enterprises = split_org_ids(resolve_publication(pub, resolver), registry)
    attributions = attribute_authors(pub, universities, registry.roster)
    org_ids = with_regions(universities, registry), with_regions(enterprises, registry)
    return org_ids, supply_pairs(attributions, registry)


class TestUEEvents:
    def test_product_of_distinct_sides(self, registry):
        pub = make_pub("P1", [
            "Universita di Roma", "Politecnico di Milano",
            "Acme Research", "Borg Devices",
        ])
        org_ids, _ = _org_ids(registry, pub)
        events = [UECollaboration(*ev) for ev in sorted(derive_ue_events(pub, *org_ids))]
        assert [(e.university_id, e.enterprise_id) for e in events] == [
            ("U1", "E1"), ("U1", "E2"), ("U2", "E1"), ("U2", "E2"),
        ]
        assert events[0].u_region == "Lazio"
        assert events[1].e_region == "Veneto"
        assert all(e.year == 2002 for e in events)

    def test_repeated_mentions_count_once(self, registry):
        pub = make_pub("P1", [
            "Universita di Roma", "Univ. Roma", "UNIVERSITA DI ROMA",
            "Acme Research", "Acme Research",
        ])
        org_ids, _ = _org_ids(registry, pub)
        events = derive_ue_events(pub, *org_ids)
        assert len(events) == 1


class TestSDSEvents:
    def test_distinct_sector_region_pairs_times_enterprises(self, registry):
        pub = make_pub(
            "P1",
            ["Universita di Roma", "Politecnico di Milano", "Acme Research", "Borg Devices"],
            authors=[("bianchi", "G")],   # unique at U2: FIS/01
        )
        org_ids, pairs = _org_ids(registry, pub)
        events = [
            SDSCollaboration(*ev)
            for ev in sorted(derive_sds_events(pub, pairs, org_ids[1], registry.taxonomy))
        ]
        assert [(e.sds, e.supply_region, e.enterprise_id) for e in events] == [
            ("FIS/01", "Lombardy", "E1"), ("FIS/01", "Lombardy", "E2"),
        ]
        assert events[0].uda == "02"

    def test_same_sector_from_two_regions_per_region_split(self, taxonomy):
        organizations = (
            Organization("U1", "Uni South", (), UNIVERSITY, "Sicily"),
            Organization("U2", "Uni North", (), UNIVERSITY, "Lombardy"),
            Organization("E1", "Acme", (), ENTERPRISE, "Lazio"),
        )
        roster = (make_roster("rossi", "M", "U1"), make_roster("bruno", "M", "U2"))
        registry = make_registry(organizations, roster, taxonomy)
        pub = make_pub("P1", ["Uni South", "Uni North", "Acme"],
                       authors=[("rossi", "M"), ("bruno", "M")])
        org_ids, pairs = _org_ids(registry, pub)

        per_region = derive_sds_events(pub, pairs, org_ids[1], taxonomy, "per-region")
        assert sorted((e[1], e[3]) for e in per_region) == [
            ("ING-INF/01", "Lombardy"), ("ING-INF/01", "Sicily"),
        ]

        single = derive_sds_events(pub, pairs, org_ids[1], taxonomy, "single")
        assert [(e[1], e[3]) for e in single] == [("ING-INF/01", "Lombardy")]


class TestRandomizedOracle:
    """Brute-force distinct-pair enumeration against the derivation."""

    def _registry(self):
        regions = ("Lazio", "Lombardy", "Sicily", "Veneto")
        organizations = [
            Organization(f"U{i}", f"University {i}", (), UNIVERSITY, regions[i % 4])
            for i in range(8)
        ] + [
            Organization(f"E{i}", f"Enterprise {i}", (), ENTERPRISE, regions[(i + 1) % 4])
            for i in range(8)
        ]
        taxonomy = {f"SDS/{k}": "09" for k in range(5)}
        return make_registry(tuple(organizations), (), taxonomy)

    def test_thousand_random_publications(self):
        registry = self._registry()
        rng = random.Random(20260819)
        sds_codes = sorted(registry.taxonomy)
        for case in range(1000):
            unis = rng.sample([f"U{i}" for i in range(8)], rng.randint(1, 4))
            ents = rng.sample([f"E{i}" for i in range(8)], rng.randint(1, 4))
            mentions = unis + ents + [rng.choice(unis + ents)
                                      for _ in range(rng.randint(0, 3))]
            rng.shuffle(mentions)
            resolutions = tuple(
                AffiliationResolution(registry.by_id[m].canonical_name, m, "exact")
                for m in mentions
            )
            pub = make_pub(f"P{case}", [r.raw for r in resolutions])
            attributions = tuple(
                AuthorAttribution(pub.pub_id, i, rng.choice(unis), sds, "unique")
                for i, sds in enumerate(rng.sample(sds_codes, rng.randint(1, 3)))
            )

            universities, enterprises = (
                with_regions(ids, registry) for ids in split_org_ids(resolutions, registry)
            )
            ue = [UECollaboration(*ev) for ev in derive_ue_events(pub, universities, enterprises)]
            expected_ue = {(u, e) for u in set(unis) for e in set(ents)}
            assert {(ev.university_id, ev.enterprise_id) for ev in ue} == expected_ue
            assert len(ue) == len(expected_ue)

            sds_events = [
                SDSCollaboration(*ev)
                for ev in derive_sds_events(
                    pub, supply_pairs(attributions, registry), enterprises,
                    registry.taxonomy,
                )
            ]
            expected_pairs = {
                (a.sds, registry.by_id[a.university_id].region) for a in attributions
            }
            expected_sds = {
                (s, r, e) for (s, r) in expected_pairs for e in set(ents)
            }
            got = {(ev.sds, ev.supply_region, ev.enterprise_id) for ev in sds_events}
            assert got == expected_sds
            assert len(sds_events) == len(expected_sds)


class TestSortingAndExport:
    def test_totals_and_grouping(self, registry):
        pub = make_pub(
            "P1",
            ["Universita di Roma", "Acme Research", "Borg Devices"],
            authors=[("rossi", "M")],
        )
        org_ids, pairs = _org_ids(registry, pub)
        ue = derive_ue_events(pub, *org_ids)
        sds = derive_sds_events(pub, pairs, org_ids[1], registry.taxonomy)
        totals = corpus_totals(flow_cube(ue, sds))
        assert (totals.ue_events, totals.sds_events) == (2, 2)
        assert (totals.universities, totals.enterprises, totals.active_sds) == (1, 2, 1)
        assert list(events_by_sds(SDSCollaboration(*ev) for ev in sds)) == ["ING-INF/01"]

    def test_export_csv_shape(self, registry, tmp_path):
        pub = make_pub("P1", ["Universita di Roma", "Acme Research"],
                       authors=[("rossi", "M")])
        org_ids, pairs = _org_ids(registry, pub)
        ue_path = tmp_path / "ue.csv"
        sds_path = tmp_path / "sds.csv"
        export_ue_events(derive_ue_events(pub, *org_ids), ue_path)
        export_sds_events(
            derive_sds_events(pub, pairs, org_ids[1], registry.taxonomy), sds_path
        )
        assert ue_path.read_text(encoding="utf-8") == (
            "pub_id,university_id,u_region,enterprise_id,e_region,year\n"
            "P1,U1,Lazio,E1,Lazio,2002\n"
        )
        assert sds_path.read_text(encoding="utf-8") == (
            "pub_id,sds,uda,supply_region,enterprise_id,e_region,year\n"
            "P1,ING-INF/01,09,Lazio,E1,Lazio,2002\n"
        )
