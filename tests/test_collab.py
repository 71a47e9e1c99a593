"""Event derivation: the distinct-pair product rule and its exports."""

from __future__ import annotations

import random

from collabmarket.collab import (
    corpus_totals,
    derive_sds_events,
    derive_ue_events,
    export_sds_events,
    export_ue_events,
)
from collabmarket.model import (
    ENTERPRISE,
    UNIVERSITY,
    Organization,
    SDSCollaboration,
    UECollaboration,
)

from conftest import make_pub, make_registry, make_roster, run_pass, with_regions


class TestUEEvents:
    def test_product_of_distinct_sides(self, run):
        pub = make_pub("P1", [
            "Universita di Roma", "Politecnico di Milano",
            "Acme Research", "Borg Devices",
        ], authors=[("bianchi", "G")])
        _, _, ue_events, _ = run([pub])
        events = [UECollaboration(*ev) for ev in sorted(ue_events)]
        assert [(e.university_id, e.enterprise_id) for e in events] == [
            ("U1", "E1"), ("U1", "E2"), ("U2", "E1"), ("U2", "E2"),
        ]
        assert events[0].u_region == "Lazio"
        assert events[1].e_region == "Veneto"
        assert all(e.year == 2002 for e in events)

    def test_repeated_mentions_count_once(self, run):
        pub = make_pub("P1", [
            "Universita di Roma", "Univ. Roma", "UNIVERSITA DI ROMA",
            "Acme Research", "Acme Research",
        ])
        _, _, ue_events, _ = run([pub])
        assert len(ue_events) == 1


class TestSDSEvents:
    def test_distinct_sector_region_pairs_times_enterprises(self, run):
        pub = make_pub(
            "P1",
            ["Universita di Roma", "Politecnico di Milano", "Acme Research", "Borg Devices"],
            authors=[("bianchi", "G")],   # unique at U2: FIS/01
        )
        _, _, _, sds_events = run([pub])
        events = [SDSCollaboration(*ev) for ev in sorted(sds_events)]
        assert [(e.sds, e.supply_region, e.enterprise_id) for e in events] == [
            ("FIS/01", "Lombardy", "E1"), ("FIS/01", "Lombardy", "E2"),
        ]
        assert events[0].uda == "02"

    def test_same_sector_from_two_regions_per_region_split(self, taxonomy, tmp_path):
        organizations = (
            Organization("U1", "Uni South", (), UNIVERSITY, "Sicily"),
            Organization("U2", "Uni North", (), UNIVERSITY, "Lombardy"),
            Organization("E1", "Acme", (), ENTERPRISE, "Lazio"),
        )
        roster = (make_roster("rossi", "M", "U1"), make_roster("bruno", "M", "U2"))
        pub = make_pub("P1", ["Uni South", "Uni North", "Acme"],
                       authors=[("rossi", "M"), ("bruno", "M")])

        def events(split):
            _, _, _, sds_events = run_pass(tmp_path / split, [pub], organizations, roster, taxonomy,
                                           sds_region_split=split)
            return sorted((e[1], e[3]) for e in sds_events)

        assert events("per-region") == [("ING-INF/01", "Lombardy"), ("ING-INF/01", "Sicily")]
        assert events("single") == [("ING-INF/01", "Lombardy")]


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
            pub = make_pub(f"P{case}", [])
            # (sector, university) of each attributed author
            attributions = [(sds, rng.choice(unis))
                            for sds in rng.sample(sds_codes, rng.randint(1, 3))]
            pairs = {(sds, registry.by_id[u].region) for sds, u in attributions}

            universities, enterprises = with_regions(unis, registry), with_regions(ents, registry)
            ue = [UECollaboration(*ev) for ev in derive_ue_events(pub, universities, enterprises)]
            expected_ue = {(u, e) for u in set(unis) for e in set(ents)}
            assert {(ev.university_id, ev.enterprise_id) for ev in ue} == expected_ue
            assert len(ue) == len(expected_ue)

            sds_events = [
                SDSCollaboration(*ev)
                for ev in derive_sds_events(pub, pairs, enterprises, registry.taxonomy)
            ]
            expected_sds = {(s, r, e) for (s, r) in pairs for e in set(ents)}
            got = {(ev.sds, ev.supply_region, ev.enterprise_id) for ev in sds_events}
            assert got == expected_sds
            assert len(sds_events) == len(expected_sds)


class TestSortingAndExport:
    def test_totals_and_grouping(self, run):
        pub = make_pub(
            "P1",
            ["Universita di Roma", "Acme Research", "Borg Devices"],
            authors=[("rossi", "M")],
        )
        cube = run([pub])[0].cube
        totals = corpus_totals(cube)
        assert (totals.ue_events, totals.sds_events) == (2, 2)
        assert (totals.universities, totals.enterprises, totals.active_sds) == (1, 2, 1)
        assert list(cube.sds_flows) == ["ING-INF/01"]

    def test_export_csv_shape(self, run, tmp_path):
        pub = make_pub("P1", ["Universita di Roma", "Acme Research"],
                       authors=[("rossi", "M")])
        _, _, ue_events, sds_events = run([pub])
        ue_path = tmp_path / "ue.csv"
        sds_path = tmp_path / "sds.csv"
        export_ue_events(ue_events, ue_path)
        export_sds_events(sds_events, sds_path)
        assert ue_path.read_text(encoding="utf-8") == (
            "pub_id,university_id,u_region,enterprise_id,e_region,year\n"
            "P1,U1,Lazio,E1,Lazio,2002\n"
        )
        assert sds_path.read_text(encoding="utf-8") == (
            "pub_id,sds,uda,supply_region,enterprise_id,e_region,year\n"
            "P1,ING-INF/01,09,Lazio,E1,Lazio,2002\n"
        )
