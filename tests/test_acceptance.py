"""Acceptance suite: nine headline checks on the bundled reference fixtures.

Each test prints one ``criterion N (<slug>): PASS|FAIL`` line so a transcript
of this module reads as a checklist.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from collabmarket.cli import main
from collabmarket.demo import (
    REGIONAL_FLOWS,
    REGIONS,
    SECTOR,
    SECTOR_TABLE,
    write_demo_corpus,
)
from collabmarket.indicators import (
    QUADRANT_I,
    QUADRANT_II,
    QUADRANT_III,
    QUADRANT_IV,
    SectorCorrespondenceRow,
    SectorFlowsRow,
    aggregate_regions,
    quadrant_positions,
    rank_regions,
    regional_summary,
    sector_correspondence,
    sector_flows,
)
from collabmarket.model import ENTERPRISE, UNIVERSITY, Organization, UECollaboration
from conftest import (
    flow_cube,
    make_pub,
    make_roster,
    regional_ue_events,
    run_pass,
    sector_headcounts,
    sector_sds_events,
)


def _check(criterion: int, slug: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {criterion} ({slug}): {status}")
    assert not failures, f"criterion {criterion} ({slug}): " + "; ".join(failures)


def _expect(failures, label, got, want, tol=None):
    if tol is None:
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")
    elif got is None or abs(got - want) > tol:
        failures.append(f"{label}: got {got!r}, want {want!r} +/- {tol}")


class TestCriterion1RegionalTable:
    def test_regional_summary_reproduces_fixture(self):
        failures: list[str] = []
        events = regional_ue_events()
        started = time.perf_counter()
        rows = regional_summary(flow_cube(events), REGIONS)
        elapsed = time.perf_counter() - started
        by = {r.region: r for r in rows}

        for region, (intra, out, inc) in REGIONAL_FLOWS.items():
            row = by[region]
            supply = intra + out
            demand = intra + inc
            _expect(failures, f"{region} supply_national", row.supply_national, supply)
            _expect(failures, f"{region} demand_national", row.demand_national, demand)
            _expect(failures, f"{region} net", row.net_difference, supply - demand)
            if demand == 0:
                _expect(failures, f"{region} share", row.market_share, None)
            else:
                want = round(Fraction(100 * intra, demand))
                _expect(failures, f"{region} share",
                        round(row.market_share * 100), want)

        named_shares = {
            "Abruzzo": 57, "Campania": 62, "Lombardy": 30,
            "Piedmont": 39, "Sicily": 73, "Trentino Alto Adige": 20,
        }
        for region, want in named_shares.items():
            _expect(failures, f"{region} named share",
                    round(by[region].market_share * 100), want)

        _expect(failures, "sum supply_national",
                sum(r.supply_national for r in rows), 1983)
        _expect(failures, "sum demand_national",
                sum(r.demand_national for r in rows), 1983)
        _expect(failures, "sum supply_intra",
                sum(r.supply_intra for r in rows), 690)
        _expect(failures, "sum demand_intra",
                sum(r.demand_intra for r in rows), 690)
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.3f}s >= 1s")
        _check(1, "regional-summary-fixture", failures)


class TestCriterion2SectorCorrespondence:
    def test_correspondence_reproduces_fixture(self):
        failures: list[str] = []
        headcounts = sector_headcounts()
        events = sector_sds_events()
        started = time.perf_counter()
        rows = sector_correspondence(SECTOR, headcounts, flow_cube(sds_events=events), REGIONS,
                                     1.0)
        elapsed = time.perf_counter() - started
        by = {r.region: r for r in rows}

        for region, (scientists, demand, _supply, _intra) in SECTOR_TABLE.items():
            row = by[region]
            _expect(failures, f"{region} surplus", row.surplus,
                    scientists - demand, tol=0.005)
            if scientists == 0:
                _expect(failures, f"{region} dps", row.demand_per_scientist, None)
            else:
                _expect(failures, f"{region} dps", row.demand_per_scientist,
                        demand / scientists, tol=0.005)
        _expect(failures, "Piedmont surplus", by["Piedmont"].surplus, 20.0, tol=0.005)

        eligible = [r for r, (s, *_rest) in SECTOR_TABLE.items() if s > 0]
        mean = sum(
            (Fraction(d, s) for r, (s, d, *_rest) in SECTOR_TABLE.items() if s > 0),
            Fraction(0),
        ) / len(eligible)
        _expect(failures, "eligible regions", len(eligible), 17)
        _expect(failures, "distribution mean", round(float(mean), 4), 0.2544)

        for region, want in [("Lombardy", 6.61), ("Abruzzo", 2.36), ("Sicily", 2.81)]:
            _expect(failures, f"{region} rel-to-mean",
                    by[region].demand_per_scientist_rel, want, tol=0.01)
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.3f}s >= 1s")
        _check(2, "sector-correspondence-fixture", failures)


class TestCriterion3SectorFlows:
    def test_flows_reproduce_fixture(self):
        failures: list[str] = []
        rows = sector_flows(
            SECTOR, sector_headcounts(), flow_cube(sds_events=sector_sds_events()), REGIONS
        )
        by = {r.region: r for r in rows}

        def pct(value):
            return None if value is None else value * 100

        for region, want in [("Lombardy", 41.77), ("Abruzzo", 100.0),
                             ("Puglia", 100.0), ("Umbria", 100.0), ("Veneto", 100.0)]:
            _expect(failures, f"{region} market share",
                    pct(by[region].market_share), want, tol=0.01)
        for region, want in [("Lombardy", 0.89), ("Abruzzo", 20.00),
                             ("Emilia Romagna", 1.80)]:
            _expect(failures, f"{region} share per scientist",
                    pct(by[region].market_share_per_scientist), want, tol=0.01)
        for region, want in [("Lombardy", 84.62), ("Sicily", 88.89),
                             ("Umbria", 25.00), ("Veneto", 4.76), ("Campania", 0.00)]:
            _expect(failures, f"{region} intra over national",
                    pct(by[region].intra_over_national_supply), want, tol=0.01)
        for region, want in [("Abruzzo", 1.39), ("Veneto", 4.05), ("Umbria", 1.85)]:
            _expect(failures, f"{region} national supply rel",
                    by[region].national_supply_per_scientist_rel, want, tol=0.01)
        for region, want in [("Abruzzo", 4.50), ("Lombardy", 5.27), ("Sicily", 2.86)]:
            _expect(failures, f"{region} intra supply rel",
                    by[region].intra_supply_per_scientist_rel, want, tol=0.01)
        _check(3, "sector-flows-fixture", failures)


class TestCriterion4Quadrants:
    def test_quadrant_sets(self):
        failures: list[str] = []
        headcounts = sector_headcounts()
        events = flow_cube(sds_events=sector_sds_events())
        corr = sector_correspondence(SECTOR, headcounts, events, REGIONS, 1.0)
        flows = sector_flows(SECTOR, headcounts, events, REGIONS)
        positions = quadrant_positions(SECTOR, corr, flows, 0.5)
        grouped: dict[str, set[str]] = {
            QUADRANT_I: set(), QUADRANT_II: set(),
            QUADRANT_III: set(), QUADRANT_IV: set(),
        }
        for position in positions:
            grouped[position.quadrant].add(position.region)

        _expect(failures, "quadrant I", grouped[QUADRANT_I], set())
        _expect(failures, "quadrant II", grouped[QUADRANT_II],
                {"Abruzzo", "Emilia Romagna", "Puglia", "Sicily", "Umbria", "Veneto"})
        _expect(failures, "quadrant III", grouped[QUADRANT_III],
                {"Campania", "Lazio", "Liguria", "Piedmont", "Tuscany"})
        _expect(failures, "quadrant IV", grouped[QUADRANT_IV], {"Lombardy"})
        _expect(failures, "positioned count", len(positions), 12)
        excluded = set(REGIONS) - {p.region for p in positions}
        zero_demand = {r for r, (_s, d, *_rest) in SECTOR_TABLE.items() if d == 0}
        _expect(failures, "excluded set", excluded, zero_demand)
        _expect(failures, "excluded count", len(excluded), 7)
        _check(4, "quadrant-positions", failures)


class TestCriterion5ProductRule:
    def test_thousand_randomized_publications(self, tmp_path):
        """One pass over a thousand publications, each listing some of eight
        universities and eight enterprises, some of them twice, and authors
        each attributed to one sector at one listed university."""
        failures: list[str] = []
        regions = ("Lazio", "Lombardy", "Sicily", "Veneto")
        organizations = tuple(
            Organization(f"U{i}", f"University {i}", (), UNIVERSITY, regions[i % 4])
            for i in range(8)
        ) + tuple(
            Organization(f"E{i}", f"Enterprise {i}", (), ENTERPRISE, regions[i % 4])
            for i in range(8)
        )
        taxonomy = {f"SDS/{k}": "09" for k in range(4)}
        sds_codes = sorted(taxonomy)
        # The one roster row of the author "au<i>s<k>": university U<i>, sector SDS/<k>.
        roster = [
            make_roster(f"au{i}s{k}", "M", f"U{i}", sds, "09")
            for i in range(8)
            for k, sds in enumerate(sds_codes)
        ]
        rng = random.Random(51)
        publications, wanted = [], {}
        for case in range(1000):
            unis = rng.sample(range(8), rng.randint(1, 4))
            ents = rng.sample(range(8), rng.randint(1, 4))
            mentions = [f"University {i}" for i in unis] + [f"Enterprise {i}" for i in ents]
            mentions += [rng.choice(mentions) for _ in range(rng.randint(0, 4))]
            rng.shuffle(mentions)
            attributed = [(k, rng.choice(unis)) for k in rng.sample(range(4), rng.randint(1, 3))]
            publications.append(make_pub(f"P{case}", mentions,
                                         authors=[(f"au{i}s{k}", "M") for k, i in attributed]))
            wanted[f"P{case}"] = (
                {(f"U{u}", f"E{e}") for u in unis for e in ents},
                {(sds_codes[k], regions[i % 4], f"E{e}") for k, i in attributed for e in ents},
            )
        result, _, ue_events, sds_events = run_pass(tmp_path, publications, organizations, roster,
                                                    taxonomy)

        got = {pub_id: ([], []) for pub_id in wanted}
        for pub_id, u, _, e, _, _ in ue_events:
            got[pub_id][0].append((u, e))
        for pub_id, sds, _, region, e, _, _ in sds_events:
            got[pub_id][1].append((sds, region, e))
        _expect(failures, "retained", result.retained, len(wanted))
        for pub_id, (want_ue, want_sds) in wanted.items():
            ue, sds = got[pub_id]
            if set(ue) != want_ue or len(ue) != len(want_ue):
                failures.append(f"{pub_id}: ue events diverge from pair oracle")
                break
            if set(sds) != want_sds or len(sds) != len(want_sds):
                failures.append(f"{pub_id}: sector events diverge from pair oracle")
                break
        _check(5, "product-rule-oracle", failures)


class TestCriterion6Conservation:
    def test_hundred_randomized_corpora(self):
        failures: list[str] = []
        rng = random.Random(6)
        for corpus in range(100):
            k = rng.randint(2, len(REGIONS))
            regions = tuple(sorted(rng.sample(REGIONS, k)))
            events = [
                UECollaboration(f"P{corpus}-{i}", "U", rng.choice(regions),
                                "E", rng.choice(regions), 2002)
                for i in range(rng.randint(0, 400))
            ]
            rows = regional_summary(flow_cube(events), regions)
            supply = sum(r.supply_national for r in rows)
            demand = sum(r.demand_national for r in rows)
            intra_s = sum(r.supply_intra for r in rows)
            intra_d = sum(r.demand_intra for r in rows)
            if supply != demand or supply != len(events):
                failures.append(f"corpus {corpus}: national totals diverge")
                break
            if intra_s != intra_d:
                failures.append(f"corpus {corpus}: intra totals diverge")
                break
        _check(6, "flow-conservation", failures)


class TestCriterion7Aggregation:
    @staticmethod
    def _tables(values_by_sds):
        corr = {
            sds: [SectorCorrespondenceRow(r, 1.0, 0, 0.0, v, None)
                  for r, v in sorted(per.items())]
            for sds, per in values_by_sds.items()
        }
        flows = {
            sds: [SectorFlowsRow(r, 0, 0, 0, v, None, v, None, None, v, v)
                  for r, v in sorted(per.items())]
            for sds, per in values_by_sds.items()
        }
        return corr, flows

    def test_aggregation_and_ranking_properties(self):
        failures: list[str] = []
        rng = random.Random(77)
        regions = tuple(sorted(rng.sample(REGIONS, 6)))

        # identity: one sector with weight one
        values = {"S1": {r: rng.uniform(0, 9) for r in regions}}
        corr, flows = self._tables(values)
        for row in aggregate_regions(corr, flows, {"S1": 1.0}, regions, "coerce-zero"):
            for metric in ("demand_per_scientist", "national_supply_per_scientist",
                           "intra_supply_per_scientist", "market_share_per_scientist",
                           "intra_over_national_supply"):
                if abs(getattr(row, metric) - values["S1"][row.region]) > 1e-9:
                    failures.append(f"identity breaks at {row.region}.{metric}")

        # convexity: identical values across sectors survive any weighting
        shared = {r: rng.uniform(0, 9) for r in regions}
        weights = {"S1": 0.25, "S2": 0.35, "S3": 0.4}
        corr, flows = self._tables({s: dict(shared) for s in weights})
        for row in aggregate_regions(corr, flows, weights, regions, "coerce-zero"):
            if abs(row.demand_per_scientist - shared[row.region]) > 1e-9:
                failures.append(f"convexity breaks at {row.region}")

        # linearity in the per-sector values
        x = {s: {r: rng.uniform(0, 9) for r in regions} for s in weights}
        y = {s: {r: rng.uniform(0, 9) for r in regions} for s in weights}
        combo = {s: {r: 1.5 * x[s][r] - 0.5 * y[s][r] for r in regions} for s in weights}
        results = {}
        for name, table in (("x", x), ("y", y), ("combo", combo)):
            corr, flows = self._tables(table)
            results[name] = {
                row.region: row.demand_per_scientist
                for row in aggregate_regions(corr, flows, weights, regions, "coerce-zero")
            }
        for region in regions:
            want = 1.5 * results["x"][region] - 0.5 * results["y"][region]
            if abs(results["combo"][region] - want) > 1e-9:
                failures.append(f"linearity breaks at {region}")

        # competition ranking against a brute-force oracle
        for trial in range(200):
            values = [
                None if rng.random() < 0.2 else float(rng.randint(0, 6))
                for _ in range(rng.randint(0, 12))
            ]
            ranks = rank_regions(values)
            for value, rank in zip(values, ranks):
                if value is None:
                    if rank is not None:
                        failures.append(f"trial {trial}: NA ranked")
                else:
                    better = sum(1 for o in values if o is not None and o > value)
                    if rank != 1 + better:
                        failures.append(f"trial {trial}: rank oracle mismatch")
        tied = [float(v) for v in range(16, 0, -1)] + [0.0, 0.0, 0.0]
        if rank_regions(tied) != list(range(1, 17)) + [17, 17, 17]:
            failures.append("sixteen-above-three-zeros pattern does not rank 17")
        _check(7, "aggregation-properties", failures)


@pytest.fixture(scope="module")
def demo_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("acceptance_corpus")
    return write_demo_corpus(directory)


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TestCriterion8Determinism:
    def test_analyze_twice_is_byte_identical(self, demo_paths, tmp_path):
        failures: list[str] = []
        out = tmp_path / "out"
        config = str(demo_paths["config"])
        if main(["analyze", "--config", config, "--out", str(out)]) != 0:
            failures.append("first analyze run failed")
        first = _tree_bytes(out)
        if main(["analyze", "--config", config, "--out", str(out)]) != 0:
            failures.append("second analyze run failed")
        second = _tree_bytes(out)
        if first.keys() != second.keys():
            failures.append("output file sets differ between runs")
        else:
            diverged = [name for name in first if first[name] != second[name]]
            if diverged:
                failures.append("files differ between runs: " + ", ".join(diverged))
        if not first:
            failures.append("analyze produced no files")
        _check(8, "deterministic-reruns", failures)


class TestCriterion9DiffIdentity:
    def test_self_diff_is_silent(self, demo_paths, tmp_path):
        failures: list[str] = []
        out = tmp_path / "out"
        delta_dir = tmp_path / "delta"
        config = str(demo_paths["config"])
        if main(["analyze", "--config", config, "--out", str(out)]) != 0:
            failures.append("analyze run failed")
        if main(["diff", "--t0", str(out), "--t1", str(out),
                 "--out", str(delta_dir)]) != 0:
            failures.append("diff run failed")
        report = delta_dir / "diff_report.csv"
        if not report.exists():
            failures.append("diff report missing")
        else:
            import csv as _csv
            with report.open(encoding="utf-8") as handle:
                rows = list(_csv.DictReader(handle))
            if not rows:
                failures.append("diff report is empty")
            for row in rows:
                if row["flag"]:
                    failures.append(f"{row['region']}/{row['metric']}: flagged {row['flag']}")
                if row["delta"] not in ("0", "NA"):
                    failures.append(f"{row['region']}/{row['metric']}: delta {row['delta']}")
        _check(9, "diff-identity", failures)
