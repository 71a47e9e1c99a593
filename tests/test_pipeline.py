"""Oracles for the one-pass pipeline and its flow-count cube.

The equivalence oracle runs small generated corpora through ``run_pipeline``
and through the staged chain it replaced (resolve every publication, then
attribute, partition, filter, derive and tally). The additivity oracle splits
the demo corpus into two shards: their cubes, and the count columns of the
tables read from them, add up to those of the whole corpus. The scaling
oracle adds a copy of every demo publication and checks how each column of
table1, table2 and table3 moves.
"""

from __future__ import annotations

import csv
import tempfile
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmarket import cli
from collabmarket.cli import run_pipeline
from collabmarket.collab import (
    FlowCube,
    corpus_totals,
    derive_sds_events,
    derive_ue_events,
    events_by_sds,
)
from collabmarket.config import RunConfig, apply_setting, load_config
from collabmarket.demo import SECTOR, demo_corpus, write_demo_corpus
from collabmarket.indicators import (
    all_headcounts,
    regional_summary,
    sector_correspondence,
    sector_flows,
)
from collabmarket.ingest import (
    ORG_COLUMNS,
    ROSTER_COLUMNS,
    TAXONOMY_COLUMNS,
    filter_hard_sciences,
    load_publications,
    load_registries,
    partition_resolvable,
    write_publications,
)
from collabmarket.model import CorpusTotals, PublicationRecord
from collabmarket.resolve import (
    Resolver,
    attribute_authors,
    resolution_report_rows,
    resolve_publication,
    split_org_ids,
)

from conftest import make_pub

REGIONS = ("Lazio", "Lombardy", "Sicily")
TAXONOMY = (("S1", "01"), ("S2", "02"), ("S3", "02"))
UNIVERSITIES = ("U0", "U1", "U2")
ENTERPRISES = ("E0", "E1", "E2")
# Two roster names on purpose share a surname, so both initials matter.
NAMES = (("rossi", "M"), ("rossi", "G"), ("bianchi", "A"), ("verdi", "L"))
UNKNOWN_NAMES = (("neri", "Z"), ("esterni", "B"))
JUNK = ("Nowhere Institute", "Junk Ltd", "???")
WINDOW = (2001, 2003)


def _alias(org_id: str) -> str:
    return f"Alias of {org_id}"


def _canonical(org_id: str) -> str:
    return f"Organization {org_id}"


@st.composite
def corpora(draw):
    """Registries and publications small enough to hit every branch often:
    ambiguous roster names, unresolvable and junk affiliations, publications
    with one side only, years outside the window."""
    org_regions = {
        org_id: draw(st.sampled_from(REGIONS)) for org_id in UNIVERSITIES + ENTERPRISES
    }
    roster = draw(st.lists(
        st.tuples(
            st.sampled_from(NAMES),
            st.sampled_from(UNIVERSITIES),
            st.sampled_from(TAXONOMY),
            st.sets(st.sampled_from((2000, 2001, 2002, 2003)), min_size=1),
        ),
        min_size=1,
        max_size=10,
    ))
    mentions = st.sampled_from(
        [_canonical(o) for o in UNIVERSITIES + ENTERPRISES]
        + [_alias(o) for o in UNIVERSITIES + ENTERPRISES]
        + list(JUNK)
    )
    publications = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(NAMES + UNKNOWN_NAMES), min_size=1, max_size=3),
            st.lists(mentions, min_size=1, max_size=5),
            st.integers(2000, 2004),
        ),
        min_size=1,
        max_size=25,
    ))
    return org_regions, roster, publications


def _write_corpus(directory: Path, corpus) -> dict[str, Path]:
    org_regions, roster, publications = corpus
    paths = {
        key: directory / f"{key}.{ext}"
        for key, ext in (("organizations", "csv"), ("roster", "csv"), ("taxonomy", "csv"),
                         ("publications", "jsonl"))
    }
    rows = {
        "organizations": [
            (org_id, "university" if org_id.startswith("U") else "enterprise", region,
             _canonical(org_id), _alias(org_id))
            for org_id, region in org_regions.items()
        ],
        "roster": [
            (surname, initials, university, sds, uda, "|".join(map(str, sorted(years))), "1")
            for (surname, initials), university, (sds, uda), years in roster
        ],
        "taxonomy": list(TAXONOMY),
    }
    for key, columns in (("organizations", ORG_COLUMNS), ("roster", ROSTER_COLUMNS),
                         ("taxonomy", TAXONOMY_COLUMNS)):
        with paths[key].open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows[key])
    write_publications(
        [
            make_pub(f"P{i}", affiliations, authors=authors, year=year)
            for i, (authors, affiliations, year) in enumerate(publications)
        ],
        paths["publications"],
    )
    return paths


def _staged_reference(config: RunConfig):
    """The pipeline as a chain of whole-corpus stages, each kept apart."""
    registry = load_registries(
        config.organizations, config.roster, config.taxonomy, config.regions
    )
    publications = load_publications(config.publications, config.window)
    resolver = Resolver.build(registry)
    seen: dict = {}
    resolutions = {pub.pub_id: resolve_publication(pub, resolver, seen) for pub in publications}
    org_ids = {pub_id: split_org_ids(res, registry) for pub_id, res in resolutions.items()}
    attributions = {
        pub.pub_id: attribute_authors(pub, org_ids[pub.pub_id][0], resolver, config.ambiguity)
        for pub in publications
    }
    kept, load_report = partition_resolvable(publications, resolutions)
    retained = filter_hard_sciences(kept, attributions, resolutions, registry)
    ue_events, sds_events = [], []
    for pub in retained:
        universities, enterprises = org_ids[pub.pub_id]
        ue_events += derive_ue_events(pub, universities, enterprises, registry)
        sds_events += derive_sds_events(
            pub, attributions[pub.pub_id], enterprises, registry, config.sds_region_split
        )
    rows = resolution_report_rows(publications, resolutions, attributions)
    return rows, load_report, len(retained), ue_events, sds_events


# An author matching two sectors at one listed university: under policy
# ``all`` two attribution rows, one ambiguous author in the report.
AMBIGUOUS_ACROSS_SECTORS = (
    dict.fromkeys(UNIVERSITIES + ENTERPRISES, "Lazio"),
    [(("rossi", "M"), "U0", TAXONOMY[0], {2002}), (("rossi", "M"), "U0", TAXONOMY[1], {2002})],
    [([("rossi", "M")], [_canonical("U0"), _canonical("E1")], 2002)],
)


@settings(max_examples=100, deadline=None)
@given(
    corpus=corpora(),
    ambiguity=st.sampled_from(("strict", "all")),
    split=st.sampled_from(("per-region", "single")),
)
@example(corpus=AMBIGUOUS_ACROSS_SECTORS, ambiguity="all", split="per-region")
def test_one_pass_equals_the_staged_chain(corpus, ambiguity, split):
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_corpus(Path(tmp), corpus)
        config = RunConfig(
            **paths, out=Path(tmp) / "out", window=WINDOW, regions=REGIONS,
            ambiguity=ambiguity, sds_region_split=split,
        )
        result = run_pipeline(config)
        rows, load_report, retained, ue_events, sds_events = _staged_reference(config)

    assert result.report_rows == rows
    assert result.in_window == load_report.publications_read
    assert result.warnings == load_report.warnings
    assert result.retained == retained
    assert Counter(result.ue_events) == Counter(ue_events)
    assert Counter(result.sds_events) == Counter(sds_events)

    cube = result.cube
    assert cube.ue_flows == Counter((ev.u_region, ev.e_region) for ev in ue_events)
    assert cube.sds_flows == {
        sds: Counter((ev.supply_region, ev.e_region) for ev in events)
        for sds, events in events_by_sds(sds_events).items()
    }
    assert cube.universities == {ev.university_id for ev in ue_events}
    enterprises = {ev.enterprise_id for ev in ue_events} | {ev.enterprise_id for ev in sds_events}
    assert cube.enterprises == enterprises
    assert corpus_totals(cube) == CorpusTotals(
        len(ue_events),
        len(sds_events),
        len(cube.universities),
        len(enterprises),
        len({ev.sds for ev in sds_events}),
    )


def test_the_pass_pulls_publications_one_at_a_time(tmp_path, monkeypatch):
    """When the parser yields its k-th record, the pass has resolved exactly
    k-1: no list of the corpus is built ahead of the loop."""
    config = load_config(write_demo_corpus(tmp_path)["config"])
    resolved = []
    seen_at_yield = []
    parse = cli.iter_publications
    resolve = cli.resolve_publication

    def counting_parse(*args):
        for record in parse(*args):
            seen_at_yield.append(len(resolved))
            yield record

    def counting_resolve(pub, *args):
        resolved.append(pub.pub_id)
        return resolve(pub, *args)

    monkeypatch.setattr(cli, "iter_publications", counting_parse)
    monkeypatch.setattr(cli, "resolve_publication", counting_resolve)
    result = run_pipeline(config)
    in_window = result.in_window
    assert in_window > 1
    assert seen_at_yield == list(range(in_window))
    assert resolved == [pub.pub_id for pub in load_publications(config.publications,
                                                                config.window)]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo corpus's config, publications and the cube of all of them."""
    paths = write_demo_corpus(tmp_path_factory.mktemp("demo"))
    config = load_config(paths["config"])
    return config, demo_corpus()[0], run_pipeline(config).cube


def _cube_of(config: RunConfig, publications: list[PublicationRecord], path: Path) -> FlowCube:
    write_publications(publications, path)
    return run_pipeline(apply_setting(config, "publications", str(path))).cube


def _sum_cubes(a: FlowCube, b: FlowCube) -> FlowCube:
    return FlowCube(
        a.ue_flows + b.ue_flows,
        {
            sds: a.sds_flows.get(sds, Counter()) + b.sds_flows.get(sds, Counter())
            for sds in {*a.sds_flows, *b.sds_flows}
        },
        a.universities | b.universities,
        a.enterprises | b.enterprises,
    )


def _count_columns(config: RunConfig, headcounts, cube: FlowCube) -> dict[str, list[int]]:
    """The count columns of table2, table3 and the regional summary."""
    regions = config.regions
    correspondence = sector_correspondence(SECTOR, headcounts[SECTOR], cube, regions)
    flows = sector_flows(SECTOR, headcounts[SECTOR], cube, regions)
    summary = regional_summary(cube, regions)
    columns = {"table2.national_demand": [row.national_demand for row in correspondence]}
    for name in ("national_demand", "national_supply", "intra_supply"):
        columns[f"table3.{name}"] = [getattr(row, name) for row in flows]
    for name in ("supply_intra", "supply_extra", "supply_national",
                 "demand_intra", "demand_extra", "demand_national"):
        columns[f"table1.{name}"] = [getattr(row, name) for row in summary]
    return columns


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cubes_and_count_columns_add_across_shards(demo, data):
    config, publications, whole = demo
    in_a = data.draw(st.lists(st.booleans(), min_size=len(publications),
                              max_size=len(publications)))
    shard_a = [pub for pub, chosen in zip(publications, in_a) if chosen]
    shard_b = [pub for pub, chosen in zip(publications, in_a) if not chosen]
    with tempfile.TemporaryDirectory() as tmp:
        cube_a = _cube_of(config, shard_a, Path(tmp) / "a.jsonl")
        cube_b = _cube_of(config, shard_b, Path(tmp) / "b.jsonl")

    assert _sum_cubes(cube_a, cube_b) == whole
    headcounts = all_headcounts(load_registries(config.organizations, config.roster,
                                                config.taxonomy, config.regions))
    columns_a = _count_columns(config, headcounts, cube_a)
    columns_b = _count_columns(config, headcounts, cube_b)
    for name, column in _count_columns(config, headcounts, whole).items():
        assert column == [x + y for x, y in zip(columns_a[name], columns_b[name])], name


_DOUBLED = ("national_demand", "national_supply", "intra_supply", "supply_intra", "supply_extra",
            "supply_national", "demand_intra", "demand_extra", "demand_national",
            "net_difference", "demand_per_scientist", "national_supply_per_scientist",
            "intra_supply_per_scientist")
_UNCHANGED = ("region", "scientists", "market_share", "market_share_per_scientist",
              "intra_over_national_supply", "demand_per_scientist_rel",
              "national_supply_per_scientist_rel", "intra_supply_per_scientist_rel")


def test_a_copy_of_every_publication_doubles_the_counts(demo, tmp_path):
    """Scaling: with every publication copied under a fresh id, each count
    column and each per-scientist ratio doubles, each share and rel-to-mean
    column stays, and the surplus is the capacity minus twice the old demand.
    A capacity multiplier other than 1 keeps capacity and headcount apart."""
    config, publications, whole = demo
    config = apply_setting(config, f"capacity.{SECTOR}", "1.25")
    copies = [pub._replace(pub_id=f"{pub.pub_id}/copy") for pub in publications]
    doubled = _cube_of(config, publications + copies, tmp_path / "doubled.jsonl")
    headcounts = all_headcounts(load_registries(config.organizations, config.roster,
                                                config.taxonomy, config.regions))

    def tables(cube):
        """Each row of table1, then of table2 and table3 of every taxonomy
        sector, with the capacity multiplier of its sector."""
        rows = [(1.0, row) for row in regional_summary(cube, config.regions)]
        for sds in sorted(headcounts):
            multiplier = config.capacity_multipliers.get(sds, 1.0)
            rows += [(multiplier, row) for row in chain(
                sector_correspondence(sds, headcounts[sds], cube, config.regions, multiplier),
                sector_flows(sds, headcounts[sds], cube, config.regions),
            )]
        return rows

    checked = set()
    for (multiplier, old), (_, new) in zip(tables(whole), tables(doubled), strict=True):
        for name, before, after in zip(old._fields, old, new):
            if name == "surplus":
                assert after == old.scientists * multiplier - 2 * old.national_demand
            elif name in _DOUBLED:
                assert after == (None if before is None else 2 * before), (old.region, name)
            else:
                assert name in _UNCHANGED and after == before, (old.region, name)
            checked.add(name)
    assert checked == {*_DOUBLED, *_UNCHANGED, "surplus"}
