"""The tables ``analyze`` writes agree with the event files it writes.

The paper's indicators are reductions of the collaboration flows, and
``analyze`` writes both: the flows as ``events_ue.csv`` and
``events_sds.csv``, the reductions as tables. The program makes the two from
different products of one pass, the event sinks and the flow-count cube.
The reducer here recomputes every count cell from the event files, the
roster and the organizations alone, with the standard library; it takes
nothing from ``collabmarket`` but column names. It checks table1's six
counts, table2's ``national_demand`` and ``scientists``, table3's three
counts, and ``snapshot.json``'s ``totals`` and ``active_sds``.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from collabmarket.cli import main
from collabmarket.demo import demo_corpus, write_demo_corpus
from collabmarket.indicators import RegionalSummary, SectorCorrespondenceRow, SectorFlowsRow
from collabmarket.ingest import ORG_COLUMNS, ROSTER_COLUMNS, write_publications
from collabmarket.model import CorpusTotals, SDSCollaboration, UECollaboration

from conftest import joined_publications

TABLE1_COUNTS = RegionalSummary._fields[1:7]
TABLE2_COUNTS = SectorCorrespondenceRow._fields[1:3]
TABLE3_COUNTS = SectorFlowsRow._fields[1:4]


def _csv_rows(path: Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        assert set(columns) <= set(reader.fieldnames or ()), path
        return list(reader)


def _jsonl_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def reduce_events(out: Path, organizations: Path, roster: Path):
    """The count cells of table1, table2 and table3, and the snapshot totals,
    from ``out``'s event files, the roster and the organizations.

    Returns (table1: region -> column -> n, by_sector: sds -> region ->
    column -> n, totals). A roster weight is summed in file order, as the
    roster is read.
    """
    ue_events = _csv_rows(out / "events_ue.csv", UECollaboration._fields)
    sds_events = _csv_rows(out / "events_sds.csv", SDSCollaboration._fields)
    table1: defaultdict[str, Counter] = defaultdict(Counter)
    for event in ue_events:
        supply, demand = event["u_region"], event["e_region"]
        side = "intra" if supply == demand else "extra"
        table1[supply][f"supply_{side}"] += 1
        table1[demand][f"demand_{side}"] += 1
        table1[supply]["supply_national"] += 1
        table1[demand]["demand_national"] += 1
    by_sector: defaultdict[str, defaultdict[str, Counter]] = defaultdict(
        lambda: defaultdict(Counter)
    )
    for event in sds_events:
        flows = by_sector[event["sds"]]
        supply, demand = event["supply_region"], event["e_region"]
        flows[demand]["national_demand"] += 1
        flows[supply]["national_supply"] += 1
        if supply == demand:
            flows[supply]["intra_supply"] += 1
    active = set(by_sector)
    region_of = {
        row["org_id"].strip(): row["region"].strip()
        for row in _csv_rows(organizations, ORG_COLUMNS)
    }
    for row in _csv_rows(roster, ROSTER_COLUMNS):
        region = region_of[row["university_id"].strip()]
        by_sector[row["sds"].strip()][region]["scientists"] += float(row["headcount_weight"])
    totals = CorpusTotals(
        ue_events=len(ue_events),
        sds_events=len(sds_events),
        universities=len({event["university_id"] for event in ue_events}),
        enterprises=len({event["enterprise_id"] for event in (*ue_events, *sds_events)}),
        active_sds=len(active),
    )
    return table1, {sds: by_sector[sds] for sds in sorted(active)}, totals


def _assert_cells(path: Path, rows: list[dict], expected: dict, columns: tuple[str, ...]):
    """Each of ``columns`` in each row equals its reduced value, 0 if none;
    every region the events name has a row."""
    regions = {row["region"] for row in rows}
    assert set(expected) <= regions, path
    for row in rows:
        for column in columns:
            want = expected.get(row["region"], Counter())[column]
            assert row[column] == want, (path.name, row["region"], column)


def assert_tables_agree_with_events(out: Path, organizations: Path, roster: Path) -> None:
    table1, by_sector, totals = reduce_events(out, organizations, roster)
    manifest = json.loads((out / "snapshot.json").read_text(encoding="utf-8"))
    assert manifest["totals"] == totals._asdict()
    assert sorted(manifest["active_sds"]) == list(by_sector)
    path = out / "table1_regional.jsonl"
    _assert_cells(path, _jsonl_rows(path), table1, TABLE1_COUNTS)
    for sds, flows in by_sector.items():
        stem = manifest["active_sds"][sds]
        for name, columns in (("table2", TABLE2_COUNTS), ("table3", TABLE3_COUNTS)):
            path = out / f"{name}_{stem}.jsonl"
            _assert_cells(path, _jsonl_rows(path), flows, columns)
    assert len(list(out.glob("table2_*.jsonl"))) == len(by_sector)


def _analyze(config: Path, out: Path, *flags: str) -> None:
    assert main(["analyze", "--config", str(config), "--out", str(out), *flags]) == 0


# A second university and enterprise in Lombardy, a scientist at the one,
# and a publication listing both of each kind: the demo has one of each kind
# per region, so no publication of its own has two of a kind in one region.
TWIN_ORGANIZATIONS = (
    "U-LOM2,university,Lombardy,Politecnico di Lombardy,\n"
    "E-LOM2,enterprise,Lombardy,Lombardy Devices S.r.l.,\n"
)
TWIN_ROSTER = "lomsecondo,A,U-LOM2,ING-INF/01,09,2001|2002|2003,1\n"
TWIN_PUBLICATION = {
    "pub_id": "TWIN", "year": 2002,
    "authors": [{"surname": "lomini01", "initials": "A"}, {"surname": "lomsecondo", "initials": "A"}],
    "affiliations": ["Università di Lombardy", "Politecnico di Lombardy", "Lombardy Labs",
                     "Lombardy Devices S.r.l."],
}


@pytest.mark.parametrize("split", ["per-region", "single"])
@pytest.mark.parametrize("ambiguity", ["strict", "all"])
def test_demo_tables_agree_with_its_event_files(tmp_path, ambiguity, split):
    """The demo's publications, their joined pairs, some of which take one
    sector from two regions, so that the split decides what the cube counts,
    and one publication with two universities and two enterprises of one
    region."""
    paths = write_demo_corpus(tmp_path / "corpus")
    publications = demo_corpus()[0]
    write_publications(publications + joined_publications(publications), paths["publications"])
    for name, text in (("organizations", TWIN_ORGANIZATIONS), ("roster", TWIN_ROSTER),
                       ("publications", json.dumps(TWIN_PUBLICATION) + "\n")):
        with paths[name].open("a", encoding="utf-8") as handle:
            handle.write(text)
    config = paths["config"]
    with config.open("a", encoding="utf-8") as handle:
        handle.write(f"sds_region_split = {split}\n")
    _analyze(config, tmp_path / "out", "--ambiguity", ambiguity)
    assert_tables_agree_with_events(tmp_path / "out", paths["organizations"], paths["roster"])


def _perfbench_corpus():
    """``perfbench/corpus.py``, loaded from its file under a name of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_generated_tables_agree_with_their_event_files(tmp_path):
    """A few hundred publications of the benchmark's generator: 20 regions
    and sectors of every area, where the demo has 19 regions and 3 sectors."""
    corpus = _perfbench_corpus()
    rng = random.Random("tables:1")
    shape = corpus.Shape(300, 40, 80, 800)
    registries = corpus.Registries(rng, shape)
    files = registries.write(tmp_path)
    files["publications"] = tmp_path / "publications.jsonl"
    expected = corpus.write_publications_file(rng, registries, shape, files["publications"], "P")
    corpus.write_config(tmp_path / "run.cfg", files)
    _analyze(tmp_path / "run.cfg", tmp_path / "out")
    assert expected.ue_events > 0 and expected.sds_events > 0
    assert_tables_agree_with_events(tmp_path / "out", files["organizations"], files["roster"])
