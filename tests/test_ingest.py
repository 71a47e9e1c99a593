"""Loading and validation of publications and registries, and the pass's
retention of publications."""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmarket import cli
from collabmarket.demo import write_demo_corpus
from collabmarket.errors import DataError
from collabmarket.ingest import (
    ORG_COLUMNS,
    ROSTER_COLUMNS,
    TAXONOMY_COLUMNS,
    _json_line,
    _load_roster,
    iter_publications,
    load_registries,
    write_publications,
)
from collabmarket.model import ENTERPRISE, UNIVERSITY
from collabmarket.resolve import normalize_initials, normalize_name

from conftest import ScientistRosterEntry, make_org, make_pub, make_registry, make_roster


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def _author(surname, initials):
    return {"surname": surname, "initials": initials}


def _pub_record(pub_id="P1", year=2002, authors=None, affiliations=None):
    return {
        "pub_id": pub_id,
        "year": year,
        "authors": authors if authors is not None else [_author("Rossi", "M.")],
        "affiliations": affiliations if affiliations is not None else ["Universita di Roma"],
    }


# The most digits int() converts from text.
_DIGITS = sys.get_int_max_str_digits()

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@st.composite
def json_texts(draw):
    """Random JSON, integer and float literals about as long as int()
    converts, arrays nested far past the parser's limit, some left open on an
    unterminated string, and random text, each with one of the line ends a
    reader meets."""
    kind = draw(st.sampled_from(["value", "digits", "deep", "text"]))
    if kind == "value":
        text = json.dumps(draw(_json_values), ensure_ascii=draw(st.booleans()))
    elif kind == "digits":
        digits = "7" * draw(st.integers(_DIGITS - 1, _DIGITS + 2))
        template = draw(st.sampled_from(
            ["{}", "-{}", "[0, {}]", '{{"year": {}}}', "{}.5", "{}e3", "[{}", "{} 1"]
        ))
        text = template.format(digits)
    elif kind == "deep":
        depth = draw(st.sampled_from([1, 20, 200, 100_000]))
        text = "[" * depth + draw(st.sampled_from(["]" * depth, "]" * (depth - 1), '"' + "x" * 60]))
    else:
        text = draw(st.text())
    return text + draw(st.sampled_from(["", "\n", " \n", "\r\n"]))


@settings(max_examples=200, deadline=None)
@given(json_texts())
@example("7" * (_DIGITS + 1))
@example('{"year": -' + "7" * (_DIGITS + 1) + "}\n")
@example("[" * 100_000)
@example("[" * 100_000 + '"' + "x" * 60)
def test_json_line_returns_what_json_loads_returns_or_raises_decode_error(text):
    """Where ``json.loads`` returns a value, ``_json_line`` returns the same;
    where it raises anything, ``_json_line`` raises ``json.JSONDecodeError``,
    and nothing else."""
    try:
        expected = json.dumps(json.loads(text))
    except (ValueError, RecursionError):
        expected = None
    try:
        value = _json_line(text)
    except json.JSONDecodeError:
        assert expected is None
    else:
        assert json.dumps(value) == expected


_LONG = "7" * (_DIGITS + 1)
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text, line_no, message", [
    # int() does not convert digits in a string, a fraction or an exponent.
    (f'{{"a": "{_LONG}",\n "b": 1.{_LONG}, "c": 1e{_LONG},\n "d": [-{_LONG}]}}', 3,
     "integer too long to convert"),
    (f'{{"a": "[[[[\\"",\n "b": [[{{}}]],\n "c": {_DEEP}}}\n', 3, "nested too deeply"),
    (f"[\n{_DEEP}]", 2, "nested too deeply"),
    # The scanner fails at the first nesting too deep, not the deepest.
    ("[" + "[" * 5_000 + "]" * 5_000 + f",\n{_DEEP}]", 1, "nested too deeply"),
    # An unterminated string after the failure does not slow its search.
    ("[" * 100_000 + '"' + "x" * 60, 1, "nested too deeply"),
], ids=["integer-after-digits-elsewhere", "nesting-after-brackets-elsewhere", "nesting-on-line-2",
        "first-of-two-deep-values", "deep-then-unterminated-string"])
def test_json_line_places_the_errors_it_raises_itself(text, line_no, message):
    """The two errors json gives no position are placed at the offending
    integer or nesting, so that their line number is right."""
    with pytest.raises(json.JSONDecodeError) as caught:
        _json_line(text)
    assert (caught.value.msg, caught.value.lineno) == (message, line_no)


class TestLoadPublications:
    def test_happy_path_preserves_order_and_normalizes_names(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        _write_jsonl(path, [
            _pub_record("P2", authors=[_author("ROSSI", "m.g."), _author("Bianchi", "A")]),
            _pub_record("P1"),
        ])
        pubs = list(iter_publications(path))
        assert [p.pub_id for p in pubs] == ["P2", "P1"]
        assert pubs[0].authors[0].surname == "rossi"
        assert pubs[0].authors[0].initials == "MG"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text(
            "\n" + json.dumps(_pub_record()) + "\n\n", encoding="utf-8"
        )
        assert len(list(iter_publications(path))) == 1

    def test_bad_json_reports_path_and_line(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text(json.dumps(_pub_record()) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad JSON") as err:
            list(iter_publications(path))
        assert err.value.line_no == 2
        assert str(path) in str(err.value)

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        record = _pub_record()
        del record["year"]
        _write_jsonl(path, [record])
        with pytest.raises(DataError, match="year must be an integer"):
            list(iter_publications(path))

    def test_empty_authors_rejected(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        _write_jsonl(path, [_pub_record(authors=[])])
        with pytest.raises(DataError, match="has an empty author list"):
            list(iter_publications(path))

    def test_blank_affiliation_rejected(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        _write_jsonl(path, [_pub_record(affiliations=["ok", "  "])])
        with pytest.raises(DataError, match="needs at least one non-blank affiliation"):
            list(iter_publications(path))

    def test_long_initials_rejected(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        _write_jsonl(path, [_pub_record(authors=[_author("Rossi", "ABCD")])])
        with pytest.raises(DataError, match="must yield 1-3 letters"):
            list(iter_publications(path))

    def test_duplicate_pub_id_rejected_even_across_window(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        _write_jsonl(path, [_pub_record("P1", year=1995), _pub_record("P1", year=2002)])
        with pytest.raises(DataError, match="duplicate pub_id 'P1'"):
            list(iter_publications(path, window=(2001, 2003)))

    def test_window_filters_inclusively(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        _write_jsonl(path, [
            _pub_record("P1", year=2000),
            _pub_record("P2", year=2001),
            _pub_record("P3", year=2003),
            _pub_record("P4", year=2004),
        ])
        pubs = list(iter_publications(path, window=(2001, 2003)))
        assert [p.pub_id for p in pubs] == ["P2", "P3"]

    def test_diagnostics_collects_and_skips(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text(
            "{broken\n"
            + json.dumps(_pub_record("P1", authors=[])) + "\n"
            + json.dumps(_pub_record("P2")) + "\n",
            encoding="utf-8",
        )
        diagnostics = []
        pubs = list(iter_publications(path, diagnostics=diagnostics))
        assert [p.pub_id for p in pubs] == ["P2"]
        assert len(diagnostics) == 2

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        original = [make_pub("P1", ["Università di Roma"], authors=[("rossi", "M")])]
        write_publications(original, path)
        assert list(iter_publications(path)) == original


ORG_HEADER = "org_id,kind,region,canonical_name,aliases\n"
ROSTER_HEADER = "surname,initials,university_id,sds,uda,active_years,headcount_weight\n"
TAXONOMY_HEADER = "sds,uda\n"


def _write_registry_files(tmp_path, orgs=None, roster=None, taxonomy=None):
    org_path = tmp_path / "organizations.csv"
    roster_path = tmp_path / "roster.csv"
    taxonomy_path = tmp_path / "taxonomy.csv"
    org_path.write_text(ORG_HEADER + (orgs or ""), encoding="utf-8")
    roster_path.write_text(ROSTER_HEADER + (roster or ""), encoding="utf-8")
    taxonomy_path.write_text(
        TAXONOMY_HEADER + (taxonomy if taxonomy is not None else "ING-INF/01,09\n"),
        encoding="utf-8",
    )
    return org_path, roster_path, taxonomy_path


class TestLoadRegistries:
    def test_happy_path(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs=("U1,university,Lazio,Universita di Roma,Univ. Roma|Rome University\n"
                  "E1,enterprise,Veneto,Borg Devices,\n"),
            roster="rossi,M,U1,ING-INF/01,09,2001|2002,1.0\n",
        )
        registry = load_registries(*paths)
        assert registry.by_id["U1"].kind == UNIVERSITY
        assert registry.by_id["E1"].kind == ENTERPRISE
        assert registry.by_id["E1"].region == "Veneto"
        assert registry.by_id["U1"].aliases == (
            "Universita di Roma", "Univ. Roma", "Rome University"
        )
        (triples,) = registry.roster.values()
        ((_, _, active_years),) = triples
        assert active_years == frozenset({2001, 2002})

    def test_duplicate_org_id(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs=("U1,university,Lazio,First,\n" "U1,university,Lazio,Second,\n"),
        )
        with pytest.raises(DataError, match="duplicate org_id 'U1'"):
            load_registries(*paths)

    def test_unknown_kind(self, tmp_path):
        paths = _write_registry_files(tmp_path, orgs="X1,ngo,Lazio,Some Org,\n")
        with pytest.raises(DataError, match="has kind 'ngo'"):
            load_registries(*paths)

    def test_region_outside_configured_set(self, tmp_path):
        paths = _write_registry_files(tmp_path, orgs="U1,university,Atlantis,Uni,\n")
        with pytest.raises(DataError, match="'Atlantis' is not in the configured region set"):
            load_registries(*paths, regions=("Lazio", "Veneto"))

    def test_blank_canonical_name(self, tmp_path):
        paths = _write_registry_files(tmp_path, orgs="U1,university,Lazio, ,\n")
        with pytest.raises(DataError, match="canonical name is blank"):
            load_registries(*paths)

    def test_roster_dangling_university(self, tmp_path):
        paths = _write_registry_files(
            tmp_path, roster="rossi,M,U9,ING-INF/01,09,2002,1.0\n"
        )
        with pytest.raises(DataError, match="unknown university_id 'U9'"):
            load_registries(*paths)

    def test_roster_points_at_enterprise(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs="E1,enterprise,Lazio,Acme,\n",
            roster="rossi,M,E1,ING-INF/01,09,2002,1.0\n",
        )
        with pytest.raises(DataError, match="'E1' is a enterprise, roster entries must point"):
            load_registries(*paths)

    def test_roster_sds_not_in_taxonomy(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs="U1,university,Lazio,Uni,\n",
            roster="rossi,M,U1,MAT/05,01,2002,1.0\n",
        )
        with pytest.raises(DataError, match="sds 'MAT/05' is not in the taxonomy"):
            load_registries(*paths)

    def test_roster_uda_mismatch(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs="U1,university,Lazio,Uni,\n",
            roster="rossi,M,U1,ING-INF/01,02,2002,1.0\n",
        )
        with pytest.raises(DataError, match="belongs to uda '09', row says '02'"):
            load_registries(*paths)

    def test_bad_years_is_parse_error(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs="U1,university,Lazio,Uni,\n",
            roster="rossi,M,U1,ING-INF/01,09,two-thousand,1.0\n",
        )
        with pytest.raises(DataError, match="active_years must be integers"):
            load_registries(*paths)

    def test_nonpositive_weight(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs="U1,university,Lazio,Uni,\n",
            roster="rossi,M,U1,ING-INF/01,09,2002,0\n",
        )
        with pytest.raises(DataError, match="headcount_weight must be positive"):
            load_registries(*paths)

    def test_duplicate_taxonomy_sds(self, tmp_path):
        paths = _write_registry_files(
            tmp_path, taxonomy="ING-INF/01,09\nING-INF/01,09\n"
        )
        with pytest.raises(DataError, match="sds 'ING-INF/01' listed twice"):
            load_registries(*paths)

    def test_row_the_csv_module_cannot_read_is_parse_error(self, tmp_path):
        field = "x" * (csv.field_size_limit() + 1)
        paths = _write_registry_files(
            tmp_path,
            orgs="U1,university,Lazio,Uni,\n",
            roster=f"rossi,M,U1,ING-INF/01,09,2002,1.0\nbianchi,G,U1,ING-INF/01,09,2002,{field}\n",
        )
        with pytest.raises(DataError, match="unreadable CSV row") as err:
            load_registries(*paths, diagnostics=[])
        assert str(err.value).startswith(f"{paths[1]}:3: unreadable CSV row: field larger")

    def test_diagnostics_collects_multiple(self, tmp_path):
        paths = _write_registry_files(
            tmp_path,
            orgs=("U1,university,Lazio,Uni,\n"
                  "X1,ngo,Lazio,Bad Kind,\n"),
            roster=("rossi,M,U9,ING-INF/01,09,2002,1.0\n"
                    "bianchi,G,U1,ING-INF/01,09,2002,1.0\n"),
        )
        diagnostics = []
        registry = load_registries(*paths, diagnostics=diagnostics)
        assert len(diagnostics) == 2
        assert [u for triples in registry.roster.values() for u, _, _ in triples] == ["U1"]


def _reference_load_roster(path, by_id, taxonomy, diagnostics):
    """The roster loader as it read rows through ``csv.DictReader``, its rows
    then summed into the registry's two roster tables by ``make_registry``."""

    def report(exc):
        if diagnostics is None:
            raise exc
        diagnostics.append(str(exc))

    roster = []
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError("missing header row", path, 1)
        missing = [c for c in ROSTER_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"header lacks columns: {', '.join(missing)}", path, 1)
        for row in reader:
            line_no = reader.line_num
            surname = normalize_name(row["surname"] or "")
            initials = normalize_initials(row["initials"] or "")
            university_id = (row["university_id"] or "").strip()
            sds = (row["sds"] or "").strip()
            uda = (row["uda"] or "").strip()
            if not surname or not 1 <= len(initials) <= 3:
                report(DataError("roster rows need a surname and 1-3 initials", path, line_no))
                continue
            org = by_id.get(university_id)
            if org is None:
                report(DataError(
                    f"{path}:{line_no}: roster row for {surname!r} references "
                    f"unknown university_id {university_id!r}"
                ))
                continue
            if org.kind != UNIVERSITY:
                report(DataError(
                    f"{path}:{line_no}: org {university_id!r} is a {org.kind}, "
                    "roster entries must point at universities"
                ))
                continue
            if sds not in taxonomy:
                report(DataError(f"{path}:{line_no}: sds {sds!r} is not in the taxonomy"))
                continue
            if uda != taxonomy[sds]:
                report(DataError(
                    f"{path}:{line_no}: sds {sds!r} belongs to uda "
                    f"{taxonomy[sds]!r}, row says {uda!r}"
                ))
                continue
            try:
                years = frozenset(
                    int(y) for y in (row["active_years"] or "").split("|") if y.strip()
                )
                weight = float(row["headcount_weight"] or "")
            except ValueError:
                report(DataError(
                    "active_years must be integers and headcount_weight a number", path, line_no
                ))
                continue
            if not years:
                report(DataError("active_years must not be empty", path, line_no))
                continue
            if not weight > 0:
                report(DataError(f"{path}:{line_no}: headcount_weight must be positive"))
                continue
            if not math.isfinite(weight):
                report(DataError(f"{path}:{line_no}: headcount_weight is not a finite number"))
                continue
            roster.append(
                ScientistRosterEntry(surname, initials, university_id, sds, uda, years, weight)
            )
    registry = make_registry(by_id.values(), roster, taxonomy)
    return registry.roster, registry.headcounts


# Per roster column, cell values that pass its check and values that fail it.
VALID_CELLS = {
    "surname": ["rossi", " Bianchi ", "Ørsted", "multi\nline"],
    "initials": ["M", "m.g.", "ß"],
    "university_id": ["U1", " U1 ", "U2"],
    "active_years": ["2001|2002", " 2003 ", "2001||2002"],
    "headcount_weight": ["1", "0.5", " 2 ", "1e3"],
}
SECTORS = [("ING-INF/01", "09"), (" FIS/01", "02 ")]
INVALID_CELLS = {
    "surname": ["", "***"],
    "initials": ["", "ABCD"],
    "university_id": ["E1", "U9", ""],
    "sds": ["MAT/05", ""],
    "uda": ["01", ""],
    "active_years": ["", "|", "two", "2001|x"],
    "headcount_weight": ["0", "-1", "nan", "inf", "-inf", "", "abc"],
}
OTHER_CELLS = ["", "extra", "a,b", 'say "hi"', "x\ny"]


@st.composite
def roster_files(draw):
    """Roster CSV text: reordered, duplicate and extra header columns
    (sometimes a required one missing), short and long rows, blank lines,
    quoted newlines, and rows failing one or two checks."""
    if draw(st.integers(0, 30)) == 0:
        return ""
    columns = list(ROSTER_COLUMNS)
    columns += draw(st.lists(st.sampled_from([*ROSTER_COLUMNS, "note", ""]), max_size=3))
    if draw(st.integers(0, 9)) == 0:
        columns.remove(draw(st.sampled_from(ROSTER_COLUMNS)))
    header = draw(st.permutations(columns))
    last = {name: i for i, name in enumerate(header)}
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append([])
            continue
        values = {c: draw(st.sampled_from(cells)) for c, cells in VALID_CELLS.items()}
        values["sds"], values["uda"] = draw(st.sampled_from(SECTORS))
        # Up to two broken columns, so that the order of the checks shows.
        broken = draw(st.lists(st.sampled_from(ROSTER_COLUMNS), max_size=2, unique=True))
        for column in broken:
            values[column] = draw(st.sampled_from(INVALID_CELLS[column]))
        # Only the last of duplicate columns holds the row's value.
        row = [
            values[name] if last[name] == i and name in values
            else draw(st.sampled_from(OTHER_CELLS + INVALID_CELLS.get(name, [])))
            for i, name in enumerate(header)
        ]
        width = max(1, len(header) + draw(st.integers(-3, 2)))
        lines.append((row + OTHER_CELLS)[:width])
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(lines)
    return text.getvalue()


@pytest.fixture(scope="module")
def roster_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roster") / "roster.csv"


def _roster_outcome(load, path, collect):
    by_id = {
        "U1": make_org("U1", UNIVERSITY, "Lazio"),
        "U2": make_org("U2", UNIVERSITY, "Veneto"),
        "E1": make_org("E1", ENTERPRISE, "Lazio"),
    }
    taxonomy = {"ING-INF/01": "09", "FIS/01": "02"}
    diagnostics = [] if collect else None
    try:
        return load(path, by_id, taxonomy, diagnostics), diagnostics
    except DataError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(text=roster_files(), collect=st.booleans())
# An enterprise for a university and a sector outside the taxonomy: the
# university is named, as it is checked first.
@example(text=",".join(ROSTER_COLUMNS) + "\nrossi,M,E1,MAT/05,09,2001,1\n", collect=True)
def test_roster_load_matches_dict_reader_reference(roster_path, text, collect):
    roster_path.write_text(text, encoding="utf-8", newline="")
    assert _roster_outcome(_load_roster, roster_path, collect) == \
        _roster_outcome(_reference_load_roster, roster_path, collect)


def _roster_rows(registry):
    """(surname, initials, university id, sds) of each row the roster tables hold."""
    return [
        (*key, university_id, sds)
        for key, triples in registry.roster.items()
        for university_id, sds, _ in triples
    ]


def _assert_one_object_per_value(rows):
    for column, field in enumerate(("surname", "initials", "university_id", "sds")):
        values = [row[column] for row in rows]
        assert len({id(v) for v in values}) == len(set(values)), field


def test_roster_shares_one_string_per_distinct_value(tmp_path):
    """Roster rows repeat a few universities and sectors and many names; each
    distinct value is one string object, on the demo roster and on a
    generated one whose cells spell one value in several ways."""
    demo = write_demo_corpus(tmp_path / "demo")
    registry = load_registries(demo["organizations"], demo["roster"], demo["taxonomy"])
    rows = _roster_rows(registry)
    assert len(rows) > len({sds for *_, sds in rows})
    _assert_one_object_per_value(rows)

    rng = random.Random(7)
    sectors = [(f"S{i}/0{i % 3}", f"0{i % 3}") for i in range(8)]
    universities = [f"U{i}" for i in range(5)]
    organizations = tmp_path / "organizations.csv"
    taxonomy = tmp_path / "taxonomy.csv"
    roster = tmp_path / "roster.csv"
    with organizations.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ORG_COLUMNS)
        writer.writerows((u, UNIVERSITY, "Lazio", f"University {u}", "") for u in universities)
    with taxonomy.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TAXONOMY_COLUMNS)
        writer.writerows((sds, f" {uda} ") for sds, uda in sectors)
    with roster.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ROSTER_COLUMNS)
        for _ in range(400):
            sds, uda = rng.choice(sectors)
            writer.writerow((
                rng.choice(["Rossi", " rossi", "ROSSI", "Bianchi", "Ørsted", f"n{rng.randrange(60)}"]),
                rng.choice(["M", "m.", " M ", "A.B", "ab"]),
                rng.choice(universities) + rng.choice(["", " "]),
                rng.choice(["", " "]) + sds,
                uda + rng.choice(["", " "]),
                "2001|2002",
                "1",
            ))
    registry = load_registries(organizations, roster, taxonomy)
    rows = _roster_rows(registry)
    assert len(rows) == 400
    _assert_one_object_per_value(rows)


# Name spellings (two of each key), universities (two sharing a region, one
# enterprise), sectors (one with no rows) and cells for the loader oracle.
ORACLE_NAMES = [("Rossi", "M."), ("rossi", "m"), ("Bianchi", "G"), (" BIANCHI", "g."),
                ("Ørsted", "H.C."), ("Orsted", "hc")]
ORACLE_ORGANIZATIONS = (
    "U1,university,Lazio,Universita di Roma,\n"
    "U2,university,Veneto,Universita di Padova,\n"
    "U3,university,Lazio,Universita di Tor Vergata,\n"
    "E1,enterprise,Lazio,Acme Research,\n"
)
ORACLE_TAXONOMY = "ING-INF/01,09\nFIS/01,02\nCHIM/07,03\nMAT/05,01\n"
ORACLE_SECTORS = [("ING-INF/01", "09"), ("FIS/01", "02"), ("CHIM/07", "03")]
ORACLE_YEARS = ["2001", "2001|2002", "2003|2001"]
# Weights whose sums round, and one whose sum passes the float range.
ORACLE_WEIGHTS = ["1", "0.5", "0.1", "0.7", "0.3333333333333333", "2.5e-3", "1e308"]
# Per column, cells that fail its check under ``diagnostics``.
ORACLE_BROKEN = {
    "surname": ["", "***"],
    "initials": ["", "ABCD"],
    "university_id": ["U9", "E1"],
    "sds": ["XXX/01", "MAT/99"],
    "uda": ["99"],
    "active_years": ["", "x"],
    "headcount_weight": ["0", "-1", "inf", "abc"],
}

oracle_rows = st.lists(
    st.tuples(
        st.sampled_from(ORACLE_NAMES),
        st.sampled_from(["U1", "U2", "U3"]),
        st.sampled_from(ORACLE_SECTORS),
        st.sampled_from(ORACLE_YEARS),
        st.sampled_from(ORACLE_WEIGHTS),
        st.one_of(
            st.none(),
            st.sampled_from(sorted(ORACLE_BROKEN)).flatmap(
                lambda column: st.tuples(st.just(column), st.sampled_from(ORACLE_BROKEN[column]))
            ),
        ),
    ),
    max_size=30,
)


@pytest.fixture(scope="module")
def oracle_paths(tmp_path_factory):
    return _write_registry_files(
        tmp_path_factory.mktemp("oracle"), orgs=ORACLE_ORGANIZATIONS, taxonomy=ORACLE_TAXONOMY
    )


def _table_bits(registry):
    """The roster tables in order, each headcount by its exact bits."""
    return (
        list(registry.roster.items()),
        [(sds, [(region, n.hex()) for region, n in per_region.items()])
         for sds, per_region in registry.headcounts.items()],
    )


@settings(deadline=None)
@given(rows=oracle_rows)
def test_loader_tables_match_the_record_reference(oracle_paths, rows):
    """``load_registries`` builds the roster index and the headcounts in its
    one walk; ``make_registry`` builds them from the valid rows as roster
    records. Homonyms at several universities and in several sectors,
    repeated keys and rows that fail a check give the same tables, bit for
    bit, and one diagnostic per failing row."""
    org_path, roster_path, taxonomy_path = oracle_paths
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(ROSTER_COLUMNS)
    entries = []
    for (surname, initials), university, (sds, uda), years, weight, broken in rows:
        cells = dict(zip(ROSTER_COLUMNS, (surname, initials, university, sds, uda, years, weight)))
        if broken is None:
            entries.append(make_roster(
                normalize_name(surname), normalize_initials(initials), university, sds, uda,
                {int(y) for y in years.split("|")}, float(weight),
            ))
        else:
            column, cells[column] = broken
        writer.writerow(cells.values())
    roster_path.write_text(text.getvalue(), encoding="utf-8")
    diagnostics = []
    loaded = load_registries(org_path, roster_path, taxonomy_path, diagnostics=diagnostics)
    reference = make_registry(loaded.by_id.values(), entries, loaded.taxonomy)
    assert _table_bits(loaded) == _table_bits(reference)
    assert len(diagnostics) == sum(broken is not None for *_, broken in rows)


class TestFilters:
    """Report rows: pub_id, exact, alias, unresolved, unique, ambiguous."""

    def test_partition_drops_fully_unresolvable_publications(self, run, capsys):
        result, report, _, _ = run([
            make_pub("P1", ["Universita di Roma", "Acme Research"]),
            make_pub("P2", ["Universita di Roma"]),               # one side resolves
            make_pub("P3", ["Nowhere Institute"]),                # nothing resolves
        ])
        kept = [pub_id for pub_id, exact, alias, *_ in report if exact + alias]
        assert (len(report), kept) == (3, ["P1", "P2"])
        cli._warn(result)
        assert capsys.readouterr().err.splitlines() == [
            "warning: publication 'P3': no affiliation resolved"
        ]

    def test_hard_science_filter_needs_attribution_and_enterprise(self, run):
        result, _, ue_events, sds_events = run([
            # attributed author + enterprise: kept
            make_pub("P1", ["Universita di Roma", "Acme Research"], authors=[("rossi", "M")]),
            # no roster author: dropped
            make_pub("P2", ["Universita di Roma", "Acme Research"], authors=[("neri", "Z")]),
            # attributed author but no enterprise affiliation: dropped
            make_pub("P3", ["Universita di Roma"], authors=[("rossi", "M")]),
            # enterprise but no university, so no attribution either: dropped
            make_pub("P4", ["Acme Research"], authors=[("rossi", "M")]),
        ])
        assert result.retained == 1
        assert {event[0] for event in ue_events + sds_events} == {"P1"}
