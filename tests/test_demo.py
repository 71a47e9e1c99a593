"""Bundled demo corpus: flow pairing invariants and corpus self-consistency."""

from __future__ import annotations

from collections import Counter

import pytest

from collabmarket.demo import (
    REGIONAL_FLOWS,
    REGIONS,
    SECTOR_TABLE,
    demo_corpus,
    pair_extra_flows,
)

from conftest import regional_ue_events, sector_headcounts, sector_sds_events


class TestPairExtraFlows:
    def test_marginals_preserved_and_no_self_pairs(self):
        outgoing = {"A": 3, "B": 2, "C": 1}
        incoming = {"A": 1, "B": 1, "C": 4}
        pairs = pair_extra_flows(outgoing, incoming)
        assert len(pairs) == 6
        assert all(src != dst for src, dst in pairs)
        assert Counter(src for src, _ in pairs) == outgoing
        assert Counter(dst for _, dst in pairs) == incoming

    def test_tied_remainders_do_not_strand_a_slot(self):
        # a lopsided receiver plus uniform ties used to trap naive pairings
        outgoing = {"A": 1, "B": 1, "C": 1, "D": 1}
        incoming = {"A": 2, "B": 1, "C": 1}
        pairs = pair_extra_flows(outgoing, incoming)
        assert all(src != dst for src, dst in pairs)
        assert Counter(dst for _, dst in pairs) == incoming

    def test_deterministic(self):
        outgoing = {"A": 5, "B": 5}
        incoming = {"A": 5, "B": 5}
        assert pair_extra_flows(outgoing, incoming) == pair_extra_flows(outgoing, incoming)

    def test_unequal_totals_rejected(self):
        with pytest.raises(ValueError):
            pair_extra_flows({"A": 2}, {"B": 1})

    def test_infeasible_concentration_rejected(self):
        # everything leaves A and must arrive at A: impossible without self-pairs
        with pytest.raises(ValueError):
            pair_extra_flows({"A": 2}, {"A": 2})


class TestFixtures:
    def test_regional_events_reproduce_marginals(self):
        events = regional_ue_events()
        intra = Counter()
        outgoing = Counter()
        incoming = Counter()
        for ev in events:
            if ev.u_region == ev.e_region:
                intra[ev.u_region] += 1
            else:
                outgoing[ev.u_region] += 1
                incoming[ev.e_region] += 1
        for region, (want_intra, want_out, want_in) in REGIONAL_FLOWS.items():
            assert intra[region] == want_intra, region
            assert outgoing[region] == want_out, region
            assert incoming[region] == want_in, region

    def test_sector_events_reproduce_marginals(self):
        events = sector_sds_events()
        supply = Counter()
        demand = Counter()
        intra = Counter()
        for ev in events:
            supply[ev.supply_region] += 1
            demand[ev.e_region] += 1
            if ev.supply_region == ev.e_region:
                intra[ev.supply_region] += 1
        for region, (_, want_demand, want_supply, want_intra) in SECTOR_TABLE.items():
            assert supply[region] == want_supply, region
            assert demand[region] == want_demand, region
            assert intra[region] == want_intra, region

    def test_headcounts_match_table(self):
        counts = sector_headcounts()
        for region, (scientists, *_rest) in SECTOR_TABLE.items():
            assert counts.get(region, 0.0) == float(scientists), region

    def test_corpus_is_internally_consistent(self):
        publications, org_rows, roster_rows, taxonomy_rows = demo_corpus()
        assert len({p.pub_id for p in publications}) == len(publications)
        org_ids = {row[0] for row in org_rows}
        assert all(row[2] in REGIONS for row in org_rows)
        assert all(row[2] in org_ids for row in roster_rows)
        sds_codes = {row[0] for row in taxonomy_rows}
        assert all(row[3] in sds_codes for row in roster_rows)
        # every publication mentions at least two organizations and one author
        assert all(len(p.affiliations) >= 2 and p.authors for p in publications)
