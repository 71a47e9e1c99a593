"""diff's JSONL reader against a line-by-line reference, on damaged tables."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from typing import Mapping

from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmarket.cli import _read_compared
from collabmarket.errors import DataError
from collabmarket.indicators import SectorCorrespondenceRow, SectorFlowsRow, SnapshotCell
from collabmarket.ingest import _json_line, not_utf8
from collabmarket.report import render_table, sector_correspondence_table, sector_flows_table

_NUMBER_OR_NULL = (int, float, type(None))
_JSON_TYPE_NAMES = {
    str: "a string", int: "a number", float: "a number", bool: "a boolean",
    type(None): "null", list: "an array", dict: "an object",
}


def _is_finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def reference_read_compared(
    path: Path, fields: tuple[str, ...], compared: tuple[str, str], regions: Mapping[str, str]
) -> dict[str, tuple]:
    """The reader as it was before its one-check accept path: every line
    goes through every check in order."""
    cells: dict[str, tuple] = {}
    try:
        with path.open(encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{line_no}"
                try:
                    obj = _json_line(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{where}: bad JSON: {exc.msg}") from None
                if not isinstance(obj, dict) or tuple(obj) != fields:
                    keys = ", ".join(fields)
                    raise DataError(f"{where}: expected an object with the keys {keys}")
                region = obj["region"]
                values = obj[compared[0]], obj[compared[1]]
                if type(region) is not str:
                    kind = _JSON_TYPE_NAMES[type(region)]
                    raise DataError(f"{where}: region is {kind}, expected a string")
                for name, value in zip(compared, values):
                    if type(value) not in _NUMBER_OR_NULL:
                        kind = _JSON_TYPE_NAMES[type(value)]
                        raise DataError(f"{where}: {name} is {kind}, expected a number or null")
                for name, value in zip(compared, values):
                    if value is not None and not _is_finite(value):
                        raise DataError(f"{where}: {name} is not a finite number")
                if region not in regions:
                    raise DataError(f"{where}: region {region!r} is not in the snapshot's regions")
                if region in cells:
                    raise DataError(f"{where}: region {region!r} is listed twice")
                cells[regions[region]] = values
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc}") from None
    except UnicodeDecodeError:
        line_no, message = not_utf8(path)
        raise DataError(f"{path}:{line_no}: {message}") from None
    if len(cells) < len(regions):
        missing = [region for region in regions if region not in cells]
        raise DataError(f"{path}: no row for region {', '.join(map(repr, missing))}")
    return cells


REGIONS = ("Lazio", "Sicily", "Valle d'Aosta")
# Past the JSON parser's recursion limit on every supported Python.
DEEP = "[" * 100_000 + "]" * 100_000
# What a damaged compared value may read: numbers json reads as int, as a
# float that is not finite or as -0.0, and values of the wrong type.
TOKENS = ("0", "-0", "7", "1" + "0" * 400, "null", "NaN", "Infinity", "-Infinity", "1e999",
          "-0.0", "1e308", "true", '"1.5"', "[]", "{}")
# The tokens of the wrong type, and the numbers that are not finite.
WRONG_TYPE = tuple(t for t in TOKENS if type(json.loads(t)) not in _NUMBER_OR_NULL)
NON_FINITE = tuple(t for t in TOKENS if type(json.loads(t)) in (int, float)
                   and not _is_finite(json.loads(t)))

_VALUES = st.none() | st.sampled_from([0.0, -0.0, 5e-324, 1e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


def _rows(table3: bool, values: list) -> list[tuple]:
    numbers = iter(values)
    if table3:
        return [SectorFlowsRow(region, 1, 2, 0, *(next(numbers) for _ in range(7)))
                for region in REGIONS]
    return [SectorCorrespondenceRow(region, 2.5, 3, *(next(numbers) for _ in range(3)))
            for region in REGIONS]


def _object(line: str) -> dict | None:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return obj if isinstance(obj, dict) else None


def _damage(lines: list[str], ends: list[str], compared: tuple[str, str], step: tuple) -> None:
    """Apply one damage step to the lines of a table and their line ends."""
    op, at, pick = step
    i = at % len(lines)
    line = lines[i]
    obj = _object(line)
    if op == "blank":
        lines.insert(i, ("", "   ", "\t")[pick % 3])
        ends.insert(i, "\n")
    elif op == "crlf":
        ends[i] = "\r\n"
    elif op == "pad":
        lines[i] = (" " + line, line + "  ", "\t" + line + " ")[pick % 3]
    elif op == "two":
        lines[i] = line + ("", " ", "\t")[pick % 3] + lines[pick % len(lines)]
    elif op == "deep":
        lines[i] = DEEP
    elif op == "unterminated":
        ends[-1] = ""
    elif obj is None:
        return
    elif op in ("value", "region"):
        # The value written as the JSON text of a token.
        key, token = ((compared[pick % 2], TOKENS[pick % len(TOKENS)]) if op == "value" else
                      ("region", json.dumps((*REGIONS, "Atlantis", "lazio", 7)[pick % 6])))
        obj[key] = "\0"
        lines[i] = json.dumps(obj, ensure_ascii=False).replace('"\\u0000"', token)
    elif op == "mixed":
        # Both compared values of one line: a wrong type in one, a number
        # that is not finite in the other.
        typed, other = compared[pick % 2], compared[1 - pick % 2]
        obj[typed], obj[other] = "\0", "\1"
        lines[i] = (json.dumps(obj, ensure_ascii=False)
                    .replace('"\\u0000"', WRONG_TYPE[pick // 2 % len(WRONG_TYPE)])
                    .replace('"\\u0001"', NON_FINITE[pick // 2 % len(NON_FINITE)]))
    elif op == "reorder":
        keys = list(obj)
        j = pick % len(keys)
        keys[0], keys[j] = keys[j], keys[0]
        lines[i] = json.dumps({key: obj[key] for key in keys})
    elif op == "extra":
        obj["extra"] = 1
        lines[i] = json.dumps(obj)


_STEPS = st.lists(st.tuples(
    st.sampled_from(["blank", "crlf", "pad", "value", "mixed", "reorder", "extra", "region",
                     "two", "deep", "unterminated"]),
    st.integers(0, 10),
    st.integers(0, 40),
), max_size=4)


def _outcome(read, *args):
    try:
        return "cells", repr(read(*args))
    except DataError as exc:
        return "error", str(exc)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(_VALUES, min_size=21, max_size=21), _STEPS)
@example(False, [-0.0] * 21, [])
@example(True, [None] * 21, [("unterminated", 0, 0), ("crlf", 1, 0), ("blank", 2, 1)])
@example(False, [1.0] * 21, [("value", 0, 1), ("value", 1, 0), ("pad", 2, 1)])
@example(True, [0.5] * 21, [("value", 0, 5), ("deep", 1, 0)])
@example(False, [0.5] * 21, [("value", 0, 6), ("deep", 1, 0)])
@example(True, [0.5] * 21, [("value", 2, 3), ("value", 1, 9)])
@example(False, [0.5] * 21, [("two", 0, 1), ("region", 2, 3)])
@example(False, [0.5] * 21, [("region", 1, 0)])
@example(True, [0.5] * 21, [("reorder", 1, 3), ("extra", 2, 0)])
# A NaN surplus and a string demand per scientist on one line: the type is named.
@example(False, [0.5] * 21, [("value", 0, 20), ("value", 0, 27)])
def test_reader_matches_the_reference_on_damaged_tables(table3, values, steps):
    """On a rendered table2 or table3 twin after a few damage steps, diff's
    reader returns what the reference returns, down to the sign of a zero
    and the type of each number, or raises the same message."""
    if table3:
        table = sector_flows_table("S1", _rows(True, values))
        fields, compared = SectorFlowsRow._fields, SnapshotCell._fields[2:]
    else:
        table = sector_correspondence_table("S1", _rows(False, values))
        fields, compared = SectorCorrespondenceRow._fields, SnapshotCell._fields[:2]
    lines = render_table(table, "jsonl").splitlines()
    ends = ["\n"] * len(lines)
    for step in steps:
        _damage(lines, ends, compared, step)
    regions = {region: region for region in REGIONS}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{table.name}.jsonl"
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
        expected = _outcome(reference_read_compared, path, fields, compared, regions)
        assert _outcome(_read_compared, path, fields, compared, regions) == expected
