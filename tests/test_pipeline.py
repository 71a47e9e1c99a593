"""Oracles for the one-pass pipeline and its flow-count cube.

The equivalence oracle runs small generated corpora through ``run_pipeline``
and through a per-publication reference written from the rules in its
docstring, on plain tuples. The additivity oracle splits
the demo corpus into two shards: their cubes, and the count columns of the
tables read from them, add up to those of the whole corpus. The scaling
oracle adds a copy of every demo publication and checks how each column of
table1, table2 and table3 moves. The hash-seed oracle runs ``analyze`` in two
interpreters with different ``PYTHONHASHSEED`` values: the bytes match. The
relabeling oracle maps the regions by a bijection that reverses their sorted
order, so every table's rows come in another order; the renaming oracle
prefixes every org id: ``analyze`` writes the same tables, once mapped back.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collabmarket
from collabmarket import cli
from collabmarket.cli import run_pipeline
from collabmarket.collab import FlowCube, corpus_totals
from collabmarket.config import RunConfig, apply_setting, load_config
from collabmarket.demo import SECTOR, demo_corpus, write_demo_corpus
from collabmarket.indicators import regional_summary, sector_correspondence, sector_flows
from collabmarket.ingest import iter_publications, load_registries, write_publications
from collabmarket.model import ENTERPRISE, UNIVERSITY, CorpusTotals, PublicationRecord
from collabmarket.report import sanitize_code
from collabmarket.resolve import Resolver, normalize_name

from conftest import make_org, make_pub, make_roster, run_pass

REGIONS = ("Lazio", "Lombardy", "Sicily")
TAXONOMY = (("S1", "01"), ("S2", "02"), ("S3", "02"))
UNIVERSITIES = ("U0", "U1", "U2")
ENTERPRISES = ("E0", "E1", "E2")
ORGS = UNIVERSITIES + ENTERPRISES
# Two roster names on purpose share a surname, so both initials matter.
NAMES = (("rossi", "M"), ("rossi", "G"), ("bianchi", "A"), ("verdi", "L"))
UNKNOWN_NAMES = (("neri", "Z"), ("esterni", "B"))
JUNK = ("Nowhere Institute", "Junk Ltd", "???")
SHARED_ALIAS = "Shared Name"
WINDOW = (2001, 2003)


def _alias(org_id: str) -> str:
    return f"Alias of {org_id}"


def _canonical(org_id: str) -> str:
    return f"Organization {org_id}"


@st.composite
def corpora(draw):
    """Registries and publications small enough to hit every branch often:
    ambiguous roster names, unresolvable and junk affiliations, publications
    with one side only, years outside the window, an alias shared by several
    organizations, one organization's canonical name listed as another's
    alias."""
    org_regions = {org_id: draw(st.sampled_from(REGIONS)) for org_id in ORGS}
    extra_aliases = draw(st.dictionaries(
        st.sampled_from(ORGS),
        st.lists(st.sampled_from((SHARED_ALIAS, *map(_canonical, ORGS))), min_size=1,
                 max_size=2).map(tuple),
        max_size=3,
    ))
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
        [_canonical(o) for o in ORGS] + [_alias(o) for o in ORGS] + [SHARED_ALIAS, *JUNK]
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
    return org_regions, extra_aliases, roster, publications


def _reference(pub, table, registry, ambiguity, split):
    """One publication's report row, UE events and SDS events as plain
    tuples, read off the rules in ``run_pipeline``'s docstring. ``pub`` is
    (pub_id, author keys, affiliations, year); the drawn author keys are
    already in their normalized form."""
    pub_id, authors, affiliations, year = pub
    hits = [table.get(normalize_name(raw)) for raw in affiliations]
    resolved = [hit for hit in hits if hit is not None]
    exact = sum(tier == "exact" for tier, *_ in resolved)
    universities = {org_id: region for _, org_id, is_uni, region in resolved if is_uni}
    enterprises = {org_id: region for _, org_id, is_uni, region in resolved if not is_uni}
    unique = ambiguous = 0
    pairs = set()
    for author in authors:
        candidates = {(sds, u) for u, sds, years in registry.roster.get(author, ())
                      if u in universities and year in years}
        if len(candidates) > 1:
            ambiguous += 1
            # ``all``: each candidate sector at its lowest university id.
            candidates = {(sds, min(u for s, u in candidates if s == sds))
                          for sds, _ in candidates} if ambiguity == "all" else set()
        else:
            unique += len(candidates)
        pairs |= {(sds, universities[u]) for sds, u in candidates}
    if split == "single":
        pairs = {(sds, min(r for s, r in pairs if s == sds)) for sds, _ in pairs}
    row = (pub_id, exact, len(resolved) - exact, len(hits) - len(resolved), unique, ambiguous)
    if not (enterprises and pairs):
        return row, [], []
    ue = [(pub_id, u, ur, e, er, year)
          for u, ur in universities.items() for e, er in enterprises.items()]
    sds_events = [(pub_id, sds, registry.taxonomy[sds], r, e, er, year)
                  for sds, r in pairs for e, er in enterprises.items()]
    return row, ue, sds_events


# An author matching two sectors at one listed university: under policy
# ``all`` two attribution rows, one ambiguous author in the report.
AMBIGUOUS_ACROSS_SECTORS = (
    dict.fromkeys(ORGS, "Lazio"),
    {},
    [(("rossi", "M"), "U0", TAXONOMY[0], {2002}), (("rossi", "M"), "U0", TAXONOMY[1], {2002})],
    [([("rossi", "M")], [_canonical("U0"), _canonical("E1")], 2002)],
)

# Three cases of the pass's per-string table, each one publication by an
# author at U0 in sector S1.
_AT_U0 = [(("rossi", "M"), "U0", TAXONOMY[0], {2002})]
_REGIONS = {"U0": "Lazio", "U1": "Sicily", "U2": "Lazio", "E0": "Lombardy", "E1": "Sicily",
            "E2": "Lazio"}
# An alias of U1 and of E0: the lowest id, the enterprise E0, wins.
SHARED_ALIAS_CORPUS = (
    _REGIONS, {"U1": (SHARED_ALIAS,), "E0": (SHARED_ALIAS,)}, _AT_U0,
    [([("rossi", "M")], [_canonical("U0"), SHARED_ALIAS], 2002)],
)
# E1's canonical name is also an alias of E0: the exact tier, E1, wins.
CANONICAL_AS_ALIAS_CORPUS = (
    _REGIONS, {"E0": (_canonical("E1"),)}, _AT_U0,
    [([("rossi", "M")], [_canonical("U0"), _canonical("E1")], 2002)],
)
# An author in one sector at U0 and at U1, in two regions, both listed: under
# policy ``all`` the sector is supplied from the region of the lowest id, U0.
LOWEST_ID_CORPUS = (
    _REGIONS, {}, [(("rossi", "M"), u, TAXONOMY[0], {2002}) for u in ("U1", "U0")],
    [([("rossi", "M")], [_canonical("U1"), _canonical("U0"), _canonical("E0")], 2002)],
)
# E0 by its canonical name and by its alias: its events count once, and the
# report row tallies one exact and one alias mention of it.
BOTH_NAMES_CORPUS = (
    _REGIONS, {}, _AT_U0,
    [([("rossi", "M")], [_alias("U0"), _canonical("E0"), _alias("E0")], 2002)],
)


@settings(max_examples=100, deadline=None)
@given(
    corpus=corpora(),
    ambiguity=st.sampled_from(("strict", "all")),
    split=st.sampled_from(("per-region", "single")),
)
@example(corpus=AMBIGUOUS_ACROSS_SECTORS, ambiguity="all", split="per-region")
@example(corpus=SHARED_ALIAS_CORPUS, ambiguity="strict", split="per-region")
@example(corpus=CANONICAL_AS_ALIAS_CORPUS, ambiguity="strict", split="per-region")
@example(corpus=BOTH_NAMES_CORPUS, ambiguity="strict", split="per-region")
@example(corpus=LOWEST_ID_CORPUS, ambiguity="all", split="per-region")
def test_one_pass_equals_the_per_publication_reference(corpus, ambiguity, split):
    org_regions, extra_aliases, roster, publications = corpus
    organizations = [
        make_org(org_id, UNIVERSITY if org_id.startswith("U") else ENTERPRISE, region,
                 _canonical(org_id), (_alias(org_id), *extra_aliases.get(org_id, ())))
        for org_id, region in org_regions.items()
    ]
    roster = [make_roster(*name, university, *sector, years)
              for name, university, sector, years in roster]
    pubs = [(f"P{i}", tuple(authors), tuple(affiliations), year)
            for i, (authors, affiliations, year) in enumerate(publications)]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        result = run_pass(directory, [make_pub(p, a, authors=n, year=y) for p, n, a, y in pubs],
                          organizations, roster, dict(TAXONOMY), window=WINDOW, regions=REGIONS,
                          ambiguity=ambiguity, sds_region_split=split)
        registry = load_registries(*(directory / f"{name}.csv"
                                     for name in ("organizations", "roster", "taxonomy")))
    table = Resolver.build(registry).table
    rows, ue_events, sds_events = [], [], []
    for pub in pubs:
        if WINDOW[0] <= pub[3] <= WINDOW[1]:
            row, ue, sds = _reference(pub, table, registry, ambiguity, split)
            rows.append(row)
            ue_events += ue
            sds_events += sds

    assert result.report_rows == rows
    with contextlib.redirect_stderr(io.StringIO()) as err:
        cli._warn(result)
    warned = [line for line in err.getvalue().splitlines() if "no affiliation resolved" in line]
    orphans = [f"warning: publication {row[0]!r}: no affiliation resolved"
               for row in rows if not row[1] + row[2]]
    assert warned[:cli.MAX_DIAGNOSTICS] == orphans[:cli.MAX_DIAGNOSTICS]
    assert len(warned) == min(len(orphans), cli.MAX_DIAGNOSTICS + 1)
    assert result.retained == len({event[0] for event in ue_events})
    assert Counter(result.ue_events) == Counter(ue_events)
    assert Counter(result.sds_events) == Counter(sds_events)

    cube = result.cube
    assert cube.ue_flows == Counter((ev[2], ev[4]) for ev in ue_events)
    by_sds = {}
    for ev in sds_events:
        by_sds.setdefault(ev[1], Counter())[ev[3], ev[5]] += 1
    assert cube.sds_flows == by_sds
    assert cube.universities == {ev[1] for ev in ue_events}
    enterprises = {ev[3] for ev in ue_events} | {ev[4] for ev in sds_events}
    assert cube.enterprises == enterprises
    assert corpus_totals(cube) == CorpusTotals(
        len(ue_events), len(sds_events), len(cube.universities), len(enterprises), len(by_sds)
    )


def test_the_pass_pulls_publications_one_at_a_time(tmp_path, monkeypatch):
    """When the parser yields its k-th record, the pass has read the
    affiliations of exactly k-1: no list of the corpus is built ahead of the
    loop."""
    config = load_config(write_demo_corpus(tmp_path)["config"])
    processed: dict[str, None] = {}
    seen_at_yield = []
    parse = cli.iter_publications

    class LoggedRecord(PublicationRecord):
        """A record that logs each read of its affiliations."""

        __slots__ = ()

        @property
        def affiliations(self):
            processed[self.pub_id] = None
            return super().affiliations

    def counting_parse(*args):
        for record in parse(*args):
            seen_at_yield.append(len(processed))
            yield LoggedRecord(*record)

    monkeypatch.setattr(cli, "iter_publications", counting_parse)
    result = run_pipeline(config)
    in_window = len(result.report_rows)
    assert in_window > 1
    assert seen_at_yield == list(range(in_window))
    assert list(processed) == [pub.pub_id for pub in iter_publications(config.publications,
                                                                       config.window)]


def test_analyze_writes_the_same_bytes_under_two_hash_seeds(tmp_path):
    """The pass iterates dicts and sets of ids and pairs; no output may
    follow their order. Only the ``out`` line of effective_config.txt names
    the run's own directory.

    Each demo publication carries one (sector, region) pair, so the corpus
    also holds publications that join two of them from different regions."""
    paths = write_demo_corpus(tmp_path / "corpus")
    publications = demo_corpus()[0]
    half = len(publications) // 2
    joined = [
        PublicationRecord(f"J{a.pub_id}", a.year, a.authors + b.authors,
                          a.affiliations + b.affiliations)
        for a, b in zip(publications, publications[half:])
    ]
    write_publications(publications + joined, paths["publications"])
    config = paths["config"]
    src = str(Path(collabmarket.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"out-{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "collabmarket.cli", "analyze", "--config", str(config),
             "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append({
            path.name: b"".join(
                line for line in path.read_bytes().splitlines(keepends=True)
                if not (path.name == "effective_config.txt" and line.startswith(b"out = "))
            )
            for path in out.iterdir()
        })
    assert len(outputs[0]) > 10
    assert outputs[0] == outputs[1]


def _analyze(config: Path, out: Path) -> dict[str, bytes]:
    """Every file ``analyze`` writes but effective_config.txt, which names
    the run's own paths."""
    assert cli.main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "effective_config.txt"}


def _rewrite_column(path: Path, column: str, change) -> None:
    header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
    at = header.index(column)
    for row in rows:
        row[at] = change(row[at])
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _by_region(name: str, data: bytes, back: dict[str, str]) -> dict[str, dict]:
    """A table's rows keyed by region, each region mapped through ``back``;
    the rows must come sorted by their own region labels."""
    if name.endswith(".jsonl"):
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    else:
        rows = _csv_rows(data)
    labels = [row["region"] for row in rows]
    assert labels == sorted(labels), name
    return {back[region]: {**row, "region": back[region]} for region, row in zip(labels, rows)}


def _figure_points(svg: bytes) -> set[tuple[str, str, str]]:
    """(label, cx, cy) of each point of a quadrant figure."""
    text = svg.decode("utf-8")
    centres = re.findall(r'<circle class="point" cx="([^"]+)" cy="([^"]+)"', text)
    labels = re.findall(r'<text class="label"[^>]*>([^<]*)</text>', text)
    assert len(centres) == len(labels) > 0
    return {(label, cx, cy) for label, (cx, cy) in zip(labels, centres)}


def test_relabeling_the_regions_permutes_the_rows(tmp_path):
    """Relabeling: a bijection of the regions that reverses their sorted
    order, in organizations.csv and in the config's region set, permutes the
    rows of tables 1, 2, 3 and 5 and renames the table4 files; nothing else
    moves but the region columns. The ``_rel`` columns may differ in the last
    bits, because ``distribution_mean`` sums in region-name order."""
    paths = write_demo_corpus(tmp_path / "corpus")
    relabeled = write_demo_corpus(tmp_path / "relabeled")
    regions = sorted(load_config(paths["config"]).regions)
    label = {region: f"R{len(regions) - i:02d}" for i, region in enumerate(regions)}
    back = {new: old for old, new in label.items()}
    assert sorted(label.values()) == [label[r] for r in reversed(regions)]
    _rewrite_column(relabeled["organizations"], "region", label.__getitem__)
    config = relabeled["config"].read_text(encoding="utf-8")
    config = config.replace("|".join(regions), "|".join(label[r] for r in regions))
    relabeled["config"].write_text(config, encoding="utf-8")

    original = _analyze(paths["config"], tmp_path / "out")
    changed = {}
    for name, data in _analyze(relabeled["config"], tmp_path / "out-relabeled").items():
        if name.startswith("table4_"):
            stem, suffix = name[len("table4_"):].split(".")
            name = f"table4_{sanitize_code(back[stem])}.{suffix}"
        changed[name] = data
    assert changed.keys() == original.keys()
    identity = {region: region for region in regions}
    checked = set()
    for name, data in sorted(original.items()):
        kind = name.split("_")[0]
        if name.startswith("table"):
            want = _by_region(name, data, identity)
            got = _by_region(name, changed[name], back)
            assert got.keys() == want.keys(), name
            assert kind == "table4" or want.keys() == set(regions), name
            for region, row in want.items():
                for key, value in row.items():
                    other = got[region][key]
                    if kind == "table4" or not key.endswith("_rel"):
                        assert other == value, (name, region, key)
                    elif name.endswith(".jsonl") and value is not None:
                        assert math.isclose(other, value, rel_tol=1e-12), (name, region, key)
                    else:
                        assert (other is None) == (value is None), (name, region, key)
        elif kind == "fig1":
            points = {(back[text], cx, cy) for text, cx, cy in _figure_points(changed[name])}
            assert points == _figure_points(data)
        elif kind == "events":
            want, got = _csv_rows(data), _csv_rows(changed[name])
            for row in got:
                for key in ("u_region", "e_region", "supply_region"):
                    if key in row:
                        row[key] = back[row[key]]
            assert [row["pub_id"] for row in got] == [row["pub_id"] for row in want]
            assert sorted(map(sorted, map(dict.items, got))) == sorted(
                map(sorted, map(dict.items, want))
            )
        elif name == "snapshot.json":
            snapshot = json.loads(changed[name])
            snapshot["regions"] = sorted(back[r] for r in snapshot["regions"])
            assert snapshot == json.loads(data)
        else:
            assert changed[name] == data, name
        checked.add(kind if name.startswith(("table", "fig1", "events")) else name)
    assert checked == {"table1", "table2", "table3", "table4", "table5", "fig1", "events",
                       "snapshot.json", "resolution_report.csv"}


def test_renaming_the_org_ids_leaves_the_tables_unchanged(tmp_path):
    """Renaming: prefixing every org id, in organizations.csv and the
    roster's university column, keeps their order and so the lowest-id tie
    breaks. The tables and snapshot.json keep their bytes; the event exports
    and the resolution report equal the originals once the ids map back."""
    paths = write_demo_corpus(tmp_path / "corpus")
    renamed = write_demo_corpus(tmp_path / "renamed")
    _rewrite_column(renamed["organizations"], "org_id", "X{}".format)
    _rewrite_column(renamed["roster"], "university_id", "X{}".format)

    original = _analyze(paths["config"], tmp_path / "out")
    changed = _analyze(renamed["config"], tmp_path / "out-renamed")
    assert changed.keys() == original.keys()
    for name, data in original.items():
        if name.startswith("events_"):
            rows = _csv_rows(changed[name])
            for row in rows:
                for key in ("university_id", "enterprise_id"):
                    if key in row:
                        assert row[key].startswith("X")
                        row[key] = row[key][1:]
            assert rows == _csv_rows(data), name
        else:
            assert changed[name] == data, name


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
    headcounts = load_registries(config.organizations, config.roster, config.taxonomy,
                                 config.regions).headcounts
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
    headcounts = load_registries(config.organizations, config.roster, config.taxonomy,
                                 config.regions).headcounts

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
