"""Deterministic rendering of indicator tables and the quadrant figure.

CSV output rounds each column to its declared class, half away from zero,
with NA rendered as the literal string ``NA``. The JSONL twin of a table
carries the same columns with unrounded internal values (shares as fractions,
NA as ``null``) so downstream tooling, including the snapshot diff, loses
nothing to display rounding. Rendering the same table twice yields identical
bytes.

A table is rendered a column at a time, not a cell at a time: its rows are
transposed once, each column's encoder maps over the whole column, and the
rows are emitted from the encoded columns by ``csv.writer`` or a per-table
``%`` template. ``render_table`` renders a whole table this way. The delta
report of ``diff`` is rendered from bounded chunks of its cells, each built
straight into its seven columns (``delta_lines``), so the whole table never
exists; ``delta_table`` builds it row by row, the reference for that.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import lru_cache
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import UsageError, ValidationError
from .indicators import (
    AggregateRow,
    MetricDelta,
    QuadrantPosition,
    RegionalSummary,
    RegionSectorStats,
    SectorCorrespondenceRow,
    SectorFlowsRow,
    SnapshotDelta,
)

# Column rendering classes.
TEXT = "text"
INT = "int"  # exact integers
NUM2 = "num2"  # ratios, 2 decimals
NUM3 = "num3"  # aggregates and statistics, 3 decimals
NUM6 = "num6"  # fractional counts, up to 6 decimals, trailing zeros trimmed
PCT0 = "pct0"  # share rendered as integer percent
PCT2 = "pct2"  # share rendered as percent, 2 decimals
PCT3 = "pct3"  # share rendered as percent, 3 decimals
RANK = "rank"
_NUMERIC_KINDS = frozenset((NUM2, NUM3, NUM6, PCT0, PCT2, PCT3))

FORMATS = ("csv", "jsonl")


class Column(NamedTuple):
    name: str
    kind: str


@dataclass(frozen=True)
class RenderedTable:
    """A named grid of typed cells, ready to serialize.

    ``rows`` holds one tuple per row, in column order; an indicator record
    whose fields follow its table's columns is such a tuple.
    """

    name: str
    columns: tuple[Column, ...]
    rows: tuple[tuple, ...]


# Precision for every finite float at up to six decimals: the largest has 311
# integer digits at percent scale. The default 28 digits would fail on values
# from 1e22 up.
_WIDE = Context(prec=320)


def round_half_away(value: float | Decimal, digits: int) -> Decimal:
    """Round to ``digits`` decimals with ties going away from zero.

    Works on the shortest decimal representation of the float, so a value
    printed as 0.565 rounds up to 0.57 regardless of its binary expansion;
    a ``Decimal`` is taken as it is.
    """
    if not isinstance(value, Decimal):
        value = Decimal(repr(float(value)))
    result = value.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP, context=_WIDE)
    return abs(result) if result == 0 else result  # avoid "-0.00"


def format_cell(value, kind: str) -> str:
    """Single cell of CSV output.

    The reference for ``render_table``, which binds a faster encoder per
    column that writes the same text.
    """
    if value is None:
        return "NA"
    if kind == TEXT:
        return str(value)
    if kind in (INT, RANK):
        return str(int(value))
    if kind in _NUMERIC_KINDS:
        return _format_number(float(value), kind)
    raise UsageError(f"unknown column kind {kind!r}")


_DIGITS = {NUM2: 2, NUM3: 3, PCT0: 0, PCT2: 2, PCT3: 3}


def _format_number(value: float, kind: str) -> str:
    if kind == NUM6:
        return format(round_half_away(value, 6).normalize(_WIDE), "f")
    if kind in (PCT0, PCT2, PCT3):
        scaled = value * 100.0
        # A share per scientist can pass the float range only as a float
        # percentage; its exact decimal one is written instead.
        value = scaled if math.isfinite(scaled) else Decimal(repr(value)).scaleb(2)
    return str(round_half_away(value, _DIGITS[kind]))


# Distinct values per kind in one run are a few thousand.
_CELL_CACHE_SIZE = 1 << 14


def _cached_csv_encoder(kind: str):
    """CSV encoder of one non-text kind, cached on the value alone.

    The cell depends only on the number the value stands for, and values that
    compare equal (``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``) write
    the same text, so they may share an entry. A hit runs no Python code.
    """

    def encode(value) -> str:
        return format_cell(value, kind)

    return lru_cache(maxsize=_CELL_CACHE_SIZE)(encode)


def _csv_text(value) -> str:
    # Not cached: 1, 1.0 and True compare equal but print differently.
    return "NA" if value is None else str(value)


_CSV_ENCODERS = {
    TEXT: _csv_text,
    **{kind: _cached_csv_encoder(kind) for kind in (INT, RANK, *sorted(_NUMERIC_KINDS))},
}


# JSON cells are encoded exactly as ``json.dumps`` writes them: JSON scalars
# need no context, only the object framing around them, which a per-table
# template adds. Numbers are not cached: 0.0 and -0.0 compare equal but json
# writes them differently.


def _json_text(value) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    return "null" if value is None else json.dumps(value, ensure_ascii=False)


def _json_int(value) -> str:
    return "null" if value is None else int.__repr__(int(value))


def _json_float(value) -> str:
    if value is None:
        return "null"
    number = float(value)
    # json writes finite floats with float.__repr__ and spells out the rest.
    return float.__repr__(number) if math.isfinite(number) else json.dumps(number)


_FLOAT_OR_NA = frozenset((float, type(None)))
_float_repr = float.__repr__


def _json_numbers(values: Sequence) -> Iterable[str]:
    """A number column in one pass when each cell is NA or a float and their
    sum is finite, so that each is; otherwise cell by cell."""
    if _FLOAT_OR_NA.issuperset(map(type, values)) and math.isfinite(sum(filter(None, values))):
        return ["null" if value is None else _float_repr(value) for value in values]
    return map(_json_float, values)


def _each(encode, fast=None, types=()):
    """The column encoder that applies ``encode`` to each cell, or the faster
    ``fast`` when every cell is of one of ``types`` (the common case)."""
    types = frozenset(types)

    def encode_column(values: Sequence) -> Iterable[str]:
        if fast is not None and types.issuperset(map(type, values)):
            return map(fast, values)
        return map(encode, values)

    return encode_column


# Column encoders by format and kind: each maps a column's cells to their text.
_COLUMN_ENCODERS = {
    "csv": {
        **{kind: _each(encode) for kind, encode in _CSV_ENCODERS.items()},
        TEXT: _each(_csv_text, str, (str,)),
    },
    "jsonl": {
        TEXT: _each(_json_text, encode_basestring, (str,)),
        INT: _each(_json_int, int.__repr__, (int,)),
        RANK: _each(_json_int, int.__repr__, (int,)),
        **{kind: _json_numbers for kind in _NUMERIC_KINDS},
    },
}


def _csv_text_of(rows: Iterable[Sequence[str]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@lru_cache(maxsize=64)
def _renderer(columns: tuple[Column, ...], fmt: str) -> tuple[str, Callable[[Sequence], str]]:
    """The header of a table in ``csv`` or ``jsonl`` (empty for ``jsonl``),
    and a function from the cells of some of its rows, given column by
    column, to the text of those rows, each ending in a newline. Kinds and
    formats are this module's own constants."""
    encoders = [_COLUMN_ENCODERS[fmt][column.kind] for column in columns]
    if fmt == "csv":
        emit = _csv_text_of
        header = emit([[c.name for c in columns]])
    else:
        # json.dumps's default separators: ", " between items, ": " after keys.
        template = "{" + ", ".join(
            encode_basestring(c.name).replace("%", "%%") + ": %s" for c in columns
        ) + "}\n"
        emit = lambda rows: "".join(map(template.__mod__, rows))  # noqa: E731
        header = ""

    def render(cells_by_column: Sequence) -> str:
        return emit(zip(*[encode(cells) for encode, cells in zip(encoders, cells_by_column)]))

    return header, render


def render_table(table: RenderedTable, fmt: str) -> str:
    """Serialize a table to ``csv`` or ``jsonl``; deterministic byte output."""
    header, render = _renderer(table.columns, fmt)
    return header + render(list(zip(*table.rows)))


def _columns(names: Sequence[str], kinds: Sequence[str]) -> tuple[Column, ...]:
    """One column per name, of the kind at its position; a count mismatch
    raises ``ValueError``."""
    return tuple(Column(name, kind) for name, kind in zip(names, kinds, strict=True))


# Each table's columns are its indicator record's fields, so the builders
# below pass the records through as rows, and ``diff`` checks the keys of a
# JSONL line against the same fields.
_REGIONAL_COLUMNS = _columns(
    RegionalSummary._fields, (TEXT, INT, INT, INT, INT, INT, INT, INT, PCT0)
)
_CORRESPONDENCE_COLUMNS = _columns(
    SectorCorrespondenceRow._fields, (TEXT, NUM6, INT, NUM6, NUM2, NUM2)
)
_FLOWS_COLUMNS = _columns(
    SectorFlowsRow._fields, (TEXT, INT, INT, INT, NUM2, NUM2, NUM2, NUM2, PCT2, PCT2, PCT2)
)
_REGION_STATS_COLUMNS = _columns(
    RegionSectorStats._fields, (TEXT, INT, NUM3, NUM3, NUM3, NUM3, NUM3, INT)
)
_AGGREGATE_COLUMNS = _columns(
    AggregateRow._fields, (TEXT, NUM3, RANK, NUM3, RANK, NUM3, RANK, PCT3, RANK, NUM3, RANK)
)

DELTA_REPORT = "diff_report"
# One row per metric of a (region, sector) cell.
_DELTA_COLUMNS = _columns(
    (*SnapshotDelta._fields[:2], "metric", *MetricDelta._fields),
    (TEXT, TEXT, TEXT, NUM6, NUM6, NUM6, TEXT),
)


def regional_summary_table(rows: Sequence[RegionalSummary]) -> RenderedTable:
    return RenderedTable("table1_regional", _REGIONAL_COLUMNS, tuple(rows))


def sector_correspondence_table(sds: str, rows: Sequence[SectorCorrespondenceRow]) -> RenderedTable:
    return RenderedTable(f"table2_{sanitize_code(sds)}", _CORRESPONDENCE_COLUMNS, tuple(rows))


def sector_flows_table(sds: str, rows: Sequence[SectorFlowsRow]) -> RenderedTable:
    return RenderedTable(f"table3_{sanitize_code(sds)}", _FLOWS_COLUMNS, tuple(rows))


def region_stats_table(stats: RegionSectorStats) -> RenderedTable:
    return RenderedTable(f"table4_{sanitize_code(stats.region)}", _REGION_STATS_COLUMNS, (stats,))


def aggregate_table(rows: Sequence[AggregateRow]) -> RenderedTable:
    return RenderedTable("table5_aggregate", _AGGREGATE_COLUMNS, tuple(rows))


_METRICS = SnapshotDelta._fields[2:]
# Cells of the delta report rendered at once: a bound on the text ``diff``
# holds while it streams the report.
_DELTA_CHUNK = 128


def delta_table(deltas: Sequence[SnapshotDelta]) -> RenderedTable:
    """Long-format diff: one row per (region, sds, metric)."""
    rows = tuple(
        (cell.region, cell.sds, metric, entry.value_t0, entry.value_t1, entry.delta,
         entry.flag or "")
        for cell in deltas
        for metric, entry in zip(_METRICS, cell[2:])
    )
    return RenderedTable(DELTA_REPORT, _DELTA_COLUMNS, rows)


def _delta_columns(cells: Sequence[SnapshotDelta]) -> tuple[Sequence, ...]:
    """The seven columns of ``delta_table(cells)``, made without its rows."""
    value_t0, value_t1, delta, flags = zip(*[entry for cell in cells for entry in cell[2:]])
    return (
        [cell.region for cell in cells for _ in _METRICS],
        [cell.sds for cell in cells for _ in _METRICS],
        _METRICS * len(cells),
        value_t0,
        value_t1,
        delta,
        [flag or "" for flag in flags],
    )


def delta_lines(deltas: Sequence[SnapshotDelta], fmt: str) -> Iterator[str]:
    """The text of ``render_table(delta_table(deltas), fmt)``: its header, then
    the lines of a bounded chunk of cells at a time, without building the
    table."""
    header, render = _renderer(_DELTA_COLUMNS, fmt)
    yield header
    for start in range(0, len(deltas), _DELTA_CHUNK):
        yield render(_delta_columns(deltas[start:start + _DELTA_CHUNK]))


def sanitize_code(code: str) -> str:
    """File-name-safe form of a sector code or region name."""
    cleaned = "".join(ch if ch.isalnum() or ch in "_-" else "-" for ch in code)
    return cleaned.strip("-") or "blank"


# The bytes a file name may hold on common file systems (ext4, XFS, Btrfs),
# and the longest name a stem goes into: the JSONL twin of a table2,
# table3 or table4 file.
MAX_FILE_NAME_BYTES = 255
_LONGEST_NAME = "table2_{}.jsonl"


def output_stems(codes: Iterable[str], what: str) -> dict[str, str]:
    """File-name stem of each code, in code order.

    Raises a ``ValidationError`` naming the code when its longest file name
    would pass ``MAX_FILE_NAME_BYTES`` in UTF-8, which no file can be
    created under, or naming both codes when two codes share a stem, since
    their files would overwrite each other.
    """
    stems: dict[str, str] = {}
    owners: dict[str, str] = {}
    for code in sorted(codes):
        stem = sanitize_code(code)
        size = len(_LONGEST_NAME.format(stem).encode("utf-8"))
        if size > MAX_FILE_NAME_BYTES:
            raise ValidationError(
                f"{what} {code!r} would write its outputs under a file name of {size} "
                f"bytes, past the {MAX_FILE_NAME_BYTES} a file name may hold"
            )
        if stem in owners:
            raise ValidationError(
                f"{what} {owners[stem]!r} and {code!r} would both write their "
                f"outputs under the name {stem!r}"
            )
        owners[stem] = code
        stems[code] = stem
    return stems


def _xml_text(text: str) -> str:
    """Escape a name for SVG character data.

    Written out rather than taken from ``xml.sax.saxutils.escape``, whose
    import pulls in ``urllib.request``; every run would pay for that in
    start-up time and memory.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 46
_MARGIN_BOTTOM = 58


def emit_quadrant_svg(
    positions: Sequence[QuadrantPosition], sds: str, share_threshold: float = 0.5
) -> str:
    """Scatter of demand-bearing regions with the two quadrant dividers.

    Pure text output, no external assets; identical input yields identical
    bytes. The caller skips a sector without positions: an empty plot would
    hide the difference between "no demand anywhere" and a rendering bug.
    """
    ordered = sorted(positions, key=lambda p: p.region)
    xs = [p.surplus for p in ordered]
    lo, hi = min(min(xs), 0.0), max(max(xs), 0.0)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    else:
        pad = 0.08 * (hi - lo)
        lo, hi = lo - pad, hi + pad

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_of(value: float) -> float:
        return _MARGIN_LEFT + (value - lo) / (hi - lo) * plot_w

    def y_of(share: float) -> float:
        return _MARGIN_TOP + (1.0 - share) * plot_h

    divider_x = x_of(0.0)
    divider_y = y_of(share_threshold)
    bottom = _MARGIN_TOP + plot_h
    right = _MARGIN_LEFT + plot_w

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<title>{_xml_text(sds)}: capacity surplus vs regional market share</title>',
        f'<rect class="frame" x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{_MARGIN_LEFT}" y="{_MARGIN_TOP - 18}" font-size="14">'
        f"{_xml_text(sds)}: who satisfies regional demand</text>",
        # The two quadrant dividers: capacity balance and the share threshold.
        f'<line class="divider" x1="{divider_x:.2f}" y1="{_MARGIN_TOP}" '
        f'x2="{divider_x:.2f}" y2="{bottom}" stroke="#888888" stroke-dasharray="4 3"/>',
        f'<line class="divider" x1="{_MARGIN_LEFT}" y1="{divider_y:.2f}" '
        f'x2="{right}" y2="{divider_y:.2f}" stroke="#888888" stroke-dasharray="4 3"/>',
        f'<text x="{(_MARGIN_LEFT + right) / 2:.2f}" y="{_SVG_HEIGHT - 16}" '
        f'text-anchor="middle">scientist capacity surplus (scientists - national demand)</text>',
        f'<text x="16" y="{(_MARGIN_TOP + bottom) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MARGIN_TOP + bottom) / 2:.2f})">'
        "regional market share (%)</text>",
        f'<text x="{_MARGIN_LEFT - 6}" y="{y_of(1.0):.2f}" text-anchor="end" '
        f'dominant-baseline="middle">100</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{divider_y:.2f}" text-anchor="end" '
        f'dominant-baseline="middle">{format_cell(share_threshold, PCT0)}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{y_of(0.0):.2f}" text-anchor="end" '
        f'dominant-baseline="middle">0</text>',
        f'<text x="{divider_x:.2f}" y="{bottom + 16}" text-anchor="middle">0</text>',
    ]
    for quadrant, qx, qy in (
        ("I", _MARGIN_LEFT + 10, _MARGIN_TOP + 16),
        ("II", right - 18, _MARGIN_TOP + 16),
        ("III", right - 18, bottom - 8),
        ("IV", _MARGIN_LEFT + 10, bottom - 8),
    ):
        parts.append(
            f'<text class="quadrant" x="{qx}" y="{qy}" fill="#999999">{quadrant}</text>'
        )
    for p in ordered:
        cx, cy = x_of(p.surplus), y_of(p.market_share)
        parts.append(
            f'<circle class="point" cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="#1f5fa8"/>'
        )
        parts.append(
            f'<text class="label" x="{cx + 6:.2f}" y="{cy - 5:.2f}">{_xml_text(p.region)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
