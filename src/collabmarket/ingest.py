"""Loading and validation of the publication corpus and the registries.

File formats
------------
publications  line-delimited JSON, one record per line, keys ``pub_id``,
              ``year``, ``authors`` (array of ``{surname, initials}``) and
              ``affiliations`` (array of raw strings); UTF-8.
organizations CSV with header ``org_id,kind,region,canonical_name,aliases``;
              aliases are ``|``-separated.
roster        CSV with header ``surname,initials,university_id,sds,uda,
              active_years,headcount_weight``; active_years ``|``-separated.
taxonomy      CSV with header ``sds,uda``.

CSV columns are found by header name, in any order, and extra columns are
ignored; blank lines are skipped and short rows read as empty cells. Every
input must be UTF-8: a byte that is not raises a ``DataError`` naming the
file and the line. A CSV file or the corpus may start with a UTF-8
byte-order mark, as spreadsheet and text tools save it; the mark is dropped.

Each loader raises a record's problem as ``DataError(message, path,
line_no)``, which writes the ``path:line:`` prefix itself, and hands it to
``_report``. That alone decides, here and in ``cli``, whether to stop at the
first problem or to list them all: it raises without a ``diagnostics`` list;
with one it appends the message and the loader skips the record. Every JSON
reader goes through ``_json_line``, which raises ``json.JSONDecodeError`` on
any text it cannot read, an integer too long to convert among them.

``iter_publications`` yields the corpus one record at a time, so a run holds
no list of it. A bad line is raised or reported when the iteration reaches
it. The roster is read once, straight into the two tables a run reads: each
name key's (university, sector, active years) triples and each sector's
headcount by region. They hold one string object per distinct name,
university and sector.

``load_publications``, ``partition_resolvable`` and ``filter_hard_sciences``
belong to the staged chain that ``cli.run_pipeline`` replaced (see
``resolve``): no command calls them.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError
from .model import (
    ENTERPRISE,
    ORG_KINDS,
    UNIVERSITY,
    AffiliationResolution,
    AuthorAttribution,
    AuthorName,
    Organization,
    PublicationRecord,
    Registry,
)
from .resolve import normalize_initials, normalize_name

ORG_COLUMNS = ("org_id", "kind", "region", "canonical_name", "aliases")
ROSTER_COLUMNS = (
    "surname",
    "initials",
    "university_id",
    "sds",
    "uda",
    "active_years",
    "headcount_weight",
)
TAXONOMY_COLUMNS = ("sds", "uda")


def _report(exc: DataError, diagnostics: list[str] | None) -> None:
    """Raise ``exc`` when there is no ``diagnostics`` list, else append its message."""
    if diagnostics is None:
        raise exc
    diagnostics.append(str(exc))


# A lone surrogate cannot be written as UTF-8: a JSON ``\ud800`` escape decodes
# to one, and so does a command line byte that is not UTF-8.
LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")

# json's C scanner and the whitespace json.loads skips around the value.
_scan_json = json.JSONDecoder().scan_once
_json_space = json.decoder.WHITESPACE.match


def _json_value(text: str) -> object:
    """``json.loads(text)``, with every call to the scanner made from here, so
    that every read of a text goes as deep into it as every other. A value
    that starts the text, followed by nothing or a newline, takes no regular
    expression."""
    try:
        value, end = _scan_json(text, 0)
    except StopIteration:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            ) from None
        try:
            value, end = _scan_json(text, _json_space(text).end())
        except StopIteration as stop:
            raise json.JSONDecodeError("Expecting value", text, stop.value) from None
    if text[end:] not in ("\n", ""):
        end = _json_space(text, end).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    return value


def _json_line(line: str) -> object:
    """The value on one non-blank line, or in a whole JSON document, exactly
    as ``json.loads`` reads it.

    Any text that ``json.loads`` cannot read raises ``json.JSONDecodeError``:
    bad syntax, a value nested too deeply for the parser's recursion limit,
    and an integer longer than ``sys.get_int_max_str_digits()`` digits.
    """
    try:
        return _json_value(line)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        msg = "nested too deeply"
    except ValueError:  # int() refuses the digits of an integer literal
        msg = "integer too long to convert"
    # json gives these two errors no position. The scanner stops at the first
    # bracket too deep or digit too many: the last character of the shortest
    # prefix that fails the same way. Each prefix is read from this frame, at
    # the stack depth that set how deep the scanner could go.
    ok, bad = 0, len(line)
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            _json_value(line[:mid])
        except json.JSONDecodeError:
            pass
        except (RecursionError, ValueError):
            bad = mid
            continue
        ok = mid
    raise json.JSONDecodeError(msg, line, bad - 1)


def not_utf8(path: Path) -> tuple[int, str]:
    """Line number and message for a file whose UTF-8 decoding failed.

    A text decoder reads in chunks, so the offset it reports is no help; the
    file is read again as bytes, on this error path only, to find the line.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = " ".join(f"{byte:#04x}" for byte in data[exc.start:exc.end])
        return data.count(b"\n", 0, exc.start) + 1, f"not valid UTF-8 ({exc.reason} {bad})"
    return 1, "not valid UTF-8"


def _parse_publication(line: str, path: Path, line_no: int) -> PublicationRecord:
    try:
        obj = _json_line(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"bad JSON: {exc.msg}", path, line_no) from exc
    if not isinstance(obj, dict):
        raise DataError("record must be an object", path, line_no)
    pub_id = obj.get("pub_id")
    year = obj.get("year")
    authors = obj.get("authors")
    affiliations = obj.get("affiliations")
    if not isinstance(pub_id, str) or not pub_id:
        raise DataError("pub_id must be a non-empty string", path, line_no)
    if not pub_id.isascii() and LONE_SURROGATE.search(pub_id):
        raise DataError(f"pub_id {pub_id!r} holds a lone surrogate, not text", path, line_no)
    if not isinstance(year, int) or isinstance(year, bool):
        raise DataError("year must be an integer", path, line_no)
    if not isinstance(authors, list):
        raise DataError("authors must be an array", path, line_no)
    if not isinstance(affiliations, list) or not all(isinstance(a, str) for a in affiliations):
        raise DataError("affiliations must be an array of strings", path, line_no)
    if not authors:
        raise DataError(f"publication {pub_id!r} has an empty author list", path, line_no)
    if not affiliations or any(not a.strip() for a in affiliations):
        raise DataError(
            f"publication {pub_id!r} needs at least one non-blank affiliation", path, line_no
        )
    parsed_authors = []
    for raw in authors:
        if isinstance(raw, dict):
            surname, initials = raw.get("surname"), raw.get("initials")
        else:
            surname = initials = None
        if not isinstance(surname, str) or not isinstance(initials, str):
            raise DataError("author entries need string surname and initials", path, line_no)
        key = normalize_name(surname)
        letters = normalize_initials(initials)
        if not key:
            raise DataError(f"author surname {surname!r} is empty once normalized", path, line_no)
        if not 1 <= len(letters) <= 3:
            raise DataError(f"initials {initials!r} must yield 1-3 letters", path, line_no)
        parsed_authors.append(AuthorName(key, letters))
    return PublicationRecord(pub_id, year, tuple(parsed_authors), tuple(affiliations))


def iter_publications(
    path: str | Path,
    window: tuple[int, int] | None = None,
    diagnostics: list[str] | None = None,
) -> Iterator[PublicationRecord]:
    """Yield the corpus's records whose year is in window, one line at a time.

    Input order is preserved. Duplicate pub_ids are rejected even when the
    duplicate falls outside the window. Only the pub_ids seen so far stay
    alive between records, so a caller that keeps no record holds no corpus.
    """
    path = Path(path)
    seen: set[str] = set()
    with path.open(encoding="utf-8-sig") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = _parse_publication(line, path, line_no)
                    if record.pub_id in seen:
                        raise DataError(f"duplicate pub_id {record.pub_id!r}", path, line_no)
                except DataError as exc:
                    _report(exc, diagnostics)
                    continue
                seen.add(record.pub_id)
                if window is not None and not window[0] <= record.year <= window[1]:
                    continue
                yield record
        except UnicodeDecodeError:
            line_no, message = not_utf8(path)
            raise DataError(message, path, line_no) from None


def load_publications(
    path: str | Path,
    window: tuple[int, int] | None = None,
    diagnostics: list[str] | None = None,
) -> list[PublicationRecord]:
    """The in-window records of ``iter_publications`` as a list."""
    return list(iter_publications(path, window, diagnostics))


def write_publications(records: Iterable[PublicationRecord], path: str | Path) -> None:
    """Serialize records to the line-delimited publication format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            obj = {
                "pub_id": record.pub_id,
                "year": record.year,
                "authors": [
                    {"surname": a.surname, "initials": a.initials} for a in record.authors
                ],
                "affiliations": list(record.affiliations),
            }
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


@contextmanager
def _csv_rows(
    path: Path, columns: tuple[str, ...]
) -> Iterator[Iterator[tuple[int, tuple[str, ...]]]]:
    """The data rows of a CSV file as (line number, cells of ``columns``).

    Columns are found by header name, in any order; of two columns with the
    same name the last wins and columns not asked for are ignored. Blank
    lines are skipped and short rows read as empty cells: ``csv.DictReader``
    reads a file the same way. Text that is not UTF-8, or that the csv module
    cannot parse, raises a ``DataError`` naming the line.
    """
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError("missing header row", path, 1)
            index = {name: i for i, name in enumerate(header)}
            missing = [c for c in columns if c not in index]
            if missing:
                raise DataError(f"header lacks columns: {', '.join(missing)}", path, 1)
            yield _cells(reader, [index[c] for c in columns])
        except UnicodeDecodeError:
            line_no, message = not_utf8(path)
            raise DataError(message, path, line_no) from None
        except csv.Error as exc:
            raise DataError(f"unreadable CSV row: {exc}", path, reader.line_num) from None


def _cells(reader, positions: list[int]) -> Iterator[tuple[int, tuple[str, ...]]]:
    pick = itemgetter(*positions)  # every table has two or more columns
    width = max(positions) + 1
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            row += [""] * (width - len(row))
        yield reader.line_num, pick(row)


def _load_taxonomy(path: Path, diagnostics: list[str] | None) -> dict[str, str]:
    parent: dict[str, str] = {}
    # Hundreds of sectors share a handful of areas; keep one string per area.
    areas: dict[str, str] = {}
    with _csv_rows(path, TAXONOMY_COLUMNS) as rows:
        for line_no, (sds, uda) in rows:
            sds = sds.strip()
            uda = uda.strip()
            try:
                if not sds or not uda:
                    raise DataError("sds and uda must be non-empty", path, line_no)
                if sds in parent:
                    raise DataError(
                        f"sds {sds!r} listed twice (udas {parent[sds]!r} and {uda!r}); "
                        "each sds has exactly one parent", path, line_no
                    )
            except DataError as exc:
                _report(exc, diagnostics)
                continue
            parent[sds] = areas.setdefault(uda, uda)
    return parent


def _load_organizations(
    path: Path, regions: Sequence[str] | None, diagnostics: list[str] | None
) -> dict[str, Organization]:
    region_set = set(regions) if regions is not None else None
    by_id: dict[str, Organization] = {}
    with _csv_rows(path, ORG_COLUMNS) as rows:
        for line_no, (org_id, kind, region, canonical, aliases) in rows:
            org_id = org_id.strip()
            kind = kind.strip()
            region = region.strip()
            canonical = canonical.strip()
            try:
                if not org_id:
                    raise DataError("org_id must be non-empty", path, line_no)
                if org_id in by_id:
                    raise DataError(f"duplicate org_id {org_id!r}", path, line_no)
                if kind not in ORG_KINDS:
                    raise DataError(
                        f"org {org_id!r} has kind {kind!r}; expected one of {', '.join(ORG_KINDS)}",
                        path, line_no,
                    )
                if region_set is not None and region not in region_set:
                    raise DataError(
                        f"org {org_id!r} region {region!r} is not in the configured region set",
                        path, line_no,
                    )
                if not normalize_name(canonical):
                    raise DataError(f"org {org_id!r} canonical name is blank", path, line_no)
            except DataError as exc:
                _report(exc, diagnostics)
                continue
            names = [a.strip() for a in aliases.split("|") if a.strip()]
            if canonical not in names:
                names.insert(0, canonical)
            by_id[org_id] = Organization(org_id, canonical, tuple(names), kind, region)
    return by_id


def _parse_years(raw: str) -> frozenset[int] | None:
    try:
        return frozenset(int(y) for y in raw.split("|") if y.strip())
    except ValueError:
        return None


def _parse_weight(raw: str) -> float | None:
    try:
        return float(raw)
    except ValueError:
        return None


def _load_roster(
    path: Path,
    by_id: Mapping[str, Organization],
    taxonomy: Mapping[str, str],
    diagnostics: list[str] | None,
) -> tuple[
    dict[tuple[str, str], tuple[tuple[str, str, frozenset[int]], ...]],
    dict[str, dict[str, float]],
]:
    """The two roster tables of a ``Registry``, built in one walk of the file.

    Each row goes through one chain of checks, the first failing one naming
    its problem: name, university, sector, the sector's area, years, weight.
    Each accepted row, in file order, joins the triples of its name key and
    adds its weight to its sector's headcount in its university's region.
    """
    headcounts: dict[str, dict[str, float]] = {sds: {} for sds in sorted(taxonomy)}
    # The tables hold one string object per distinct value: the registry's
    # own org id and taxonomy key, and one shared copy of each name.
    universities = {
        org_id: (org_id, org.region) for org_id, org in by_id.items() if org.kind == UNIVERSITY
    }
    sectors = {sds: (sds, uda, headcounts[sds]) for sds, uda in taxonomy.items()}
    names: dict[str, str] = {}
    # A roster repeats a handful of year lists and weights over many rows;
    # rows share one parsed value per distinct raw string.
    years_of: dict[str, frozenset[int] | None] = {}
    weight_of: dict[str, float | None] = {}
    roster: dict[tuple[str, str], tuple[tuple[str, str, frozenset[int]], ...]] = {}
    with _csv_rows(path, ROSTER_COLUMNS) as rows:
        for line_no, (surname, initials, university_id, sds, uda, years, weight) in rows:
            surname = normalize_name(surname)
            initials = normalize_initials(initials)
            university_id = university_id.strip()
            sds = sds.strip()
            uda = uda.strip()
            try:
                if not surname or not 1 <= len(initials) <= 3:
                    raise DataError("roster rows need a surname and 1-3 initials", path, line_no)
                university = universities.get(university_id)
                if university is None:
                    org = by_id.get(university_id)
                    if org is None:
                        raise DataError(
                            f"roster row for {surname!r} references "
                            f"unknown university_id {university_id!r}", path, line_no
                        )
                    raise DataError(
                        f"org {university_id!r} is a {org.kind}, "
                        "roster entries must point at universities", path, line_no
                    )
                sector = sectors.get(sds)
                if sector is None:
                    raise DataError(f"sds {sds!r} is not in the taxonomy", path, line_no)
                if sector[1] != uda:
                    raise DataError(
                        f"sds {sds!r} belongs to uda {sector[1]!r}, row says {uda!r}", path, line_no
                    )
                if years not in years_of:
                    years_of[years] = _parse_years(years)
                if weight not in weight_of:
                    weight_of[weight] = _parse_weight(weight)
                active_years = years_of[years]
                headcount = weight_of[weight]
                if active_years is None or headcount is None:
                    raise DataError(
                        "active_years must be integers and headcount_weight a number", path, line_no
                    )
                if not active_years:
                    raise DataError("active_years must not be empty", path, line_no)
                if not headcount > 0:
                    raise DataError("headcount_weight must be positive", path, line_no)
                if not math.isfinite(headcount):
                    raise DataError("headcount_weight is not a finite number", path, line_no)
            except DataError as exc:
                _report(exc, diagnostics)
                continue
            university_id, region = university
            sds, _, per_region = sector
            # A name's group grows by concatenation, which stays cheap while
            # homonym groups are short.
            key = names.setdefault(surname, surname), names.setdefault(initials, initials)
            roster[key] = roster.get(key, ()) + ((university_id, sds, active_years),)
            per_region[region] = per_region.get(region, 0.0) + headcount
    return roster, headcounts


def load_registries(
    org_path: str | Path,
    roster_path: str | Path,
    taxonomy_path: str | Path,
    regions: Sequence[str] | None = None,
    diagnostics: list[str] | None = None,
) -> Registry:
    """Load and cross-validate the three registries into one model."""
    taxonomy = _load_taxonomy(Path(taxonomy_path), diagnostics)
    by_id = _load_organizations(Path(org_path), regions, diagnostics)
    roster, headcounts = _load_roster(Path(roster_path), by_id, taxonomy, diagnostics)
    return Registry(roster, headcounts, taxonomy, by_id)


@dataclass(frozen=True)
class LoadReport:
    """Tallies of ``partition_resolvable``."""

    publications_read: int
    publications_kept: int
    dropped_unresolvable: int
    warnings: tuple[str, ...]


def partition_resolvable(
    pubs: Sequence[PublicationRecord],
    resolutions: Mapping[str, Sequence[AffiliationResolution]],
) -> tuple[list[PublicationRecord], LoadReport]:
    """Split off publications none of whose affiliations resolved.

    Those records cannot contribute events; they are dropped with a
    per-record warning.
    """
    kept: list[PublicationRecord] = []
    warnings: list[str] = []
    for pub in pubs:
        if any(r.org_id is not None for r in resolutions.get(pub.pub_id, ())):
            kept.append(pub)
        else:
            warnings.append(f"publication {pub.pub_id!r}: no affiliation resolved")
    return kept, LoadReport(len(pubs), len(kept), len(warnings), tuple(warnings))


def filter_hard_sciences(
    pubs: Sequence[PublicationRecord],
    attributions: Mapping[str, Sequence[AuthorAttribution]],
    resolutions: Mapping[str, Sequence[AffiliationResolution]],
    registry: Registry,
) -> list[PublicationRecord]:
    """Keep publications that witness a university-industry collaboration,
    by the retention rule of ``cli.run_pipeline``, in input order."""
    kept: list[PublicationRecord] = []
    for pub in pubs:
        has_sector = any(
            a.sds is not None and a.sds in registry.taxonomy
            for a in attributions.get(pub.pub_id, ())
        )
        has_enterprise = any(
            r.org_id is not None and registry.by_id[r.org_id].kind == ENTERPRISE
            for r in resolutions.get(pub.pub_id, ())
        )
        if has_sector and has_enterprise:
            kept.append(pub)
    return kept
