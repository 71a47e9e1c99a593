"""Cell formatting, table rendering, and the quadrant figure."""

from __future__ import annotations

import csv
import io
import json
import re
from decimal import Decimal
from xml.dom import minidom

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collabmarket.errors import ValidationError
from collabmarket.indicators import (
    AggregateRow,
    MetricDelta,
    QuadrantPosition,
    RegionalSummary,
    RegionSectorStats,
    SectorCorrespondenceRow,
    SectorFlowsRow,
    SnapshotDelta,
)
from collabmarket.report import (
    INT,
    NUM2,
    NUM3,
    NUM6,
    PCT0,
    PCT2,
    PCT3,
    RANK,
    TEXT,
    Column,
    RenderedTable,
    aggregate_table,
    delta_table,
    emit_quadrant_svg,
    format_cell,
    output_stems,
    region_stats_table,
    regional_summary_table,
    render_table,
    round_half_away,
    sanitize_code,
    sector_correspondence_table,
    sector_flows_table,
    _CSV_ENCODERS,
)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.565, 2) == Decimal("0.57")
        assert round_half_away(0.125, 2) == Decimal("0.13")
        assert round_half_away(-0.125, 2) == Decimal("-0.13")
        assert round_half_away(2.5, 0) == Decimal("3")
        assert round_half_away(-2.5, 0) == Decimal("-3")

    def test_repr_based_not_binary_artifacts(self):
        # 0.565 as a binary double is slightly below 0.565; repr-based
        # quantization still rounds it up
        assert format_cell(0.565, NUM2) == "0.57"

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_rounding_is_stable(self, value):
        once = round_half_away(value, 2)
        assert round_half_away(float(once), 2) == once


    @given(st.floats(min_value=1e22, max_value=1.7976931348623157e308), st.booleans(),
           st.sampled_from([(NUM2, ".00"), (NUM3, ".000"), (NUM6, "")]))
    def test_large_values_keep_every_integer_digit(self, magnitude, negative, kind_and_tail):
        """From 1e22 up a float is an integer of more digits than the
        default decimal precision; the cell still writes all of them."""
        value = -magnitude if negative else magnitude
        kind, tail = kind_and_tail
        assert format_cell(value, kind) == format(Decimal(repr(value)), "f") + tail


class TestFormatCell:
    def test_none_is_na_everywhere(self):
        for kind in (TEXT, INT, NUM2, NUM6, PCT0, PCT2, RANK):
            assert format_cell(None, kind) == "NA"

    def test_int_kind(self):
        assert format_cell(3, INT) == "3"
        assert format_cell(3.0, INT) == "3"

    def test_percent_kinds_scale_fractions(self):
        assert format_cell(0.5652, PCT0) == "57"
        assert format_cell(0.41772, PCT2) == "41.77"
        assert format_cell(1.0, PCT0) == "100"

    @pytest.mark.parametrize("kind, decimals", [(PCT0, ""), (PCT2, ".00"), (PCT3, ".000")])
    def test_percent_past_the_float_range_is_written_in_full(self, kind, decimals):
        """A share per scientist over a subnormal headcount is a finite float
        whose float percentage is not; its exact percentage is written."""
        assert format_cell(-1.7976931348623157e308, kind) == (
            "-17976931348623157" + "0" * 294 + decimals
        )

    def test_no_negative_zero(self):
        assert format_cell(-0.0001, NUM2) == "0.00"
        assert format_cell(-0.004, NUM2) == "0.00"
        assert format_cell(-0.0000001, PCT2) == "0.00"

    def test_num6_trims_trailing_zeros(self):
        assert format_cell(0.1, NUM6) == "0.1"
        assert format_cell(2.0, NUM6) == "2"
        assert format_cell(0.1234567, NUM6) == "0.123457"

    def test_rank(self):
        assert format_cell(4, RANK) == "4"

    def test_numeric_cache_matches_uncached_rounding(self):
        for kind in (INT, RANK, NUM2, NUM3, NUM6, PCT0, PCT2, PCT3):
            cached = _CSV_ENCODERS[kind]
            for value in (1, 1.0, True, -0.0, 0.565, 2.675, None):
                expected = format_cell(value, kind)
                assert cached(value) == expected
                assert cached(value) == expected
        assert format_cell(0.565, NUM2) == "0.57"
        assert format_cell(2.675, NUM2) == "2.68"
        assert format_cell(-0.0, NUM2) == "0.00"

    def test_text_cells_are_not_shared_across_types(self):
        assert format_cell(1, TEXT) != format_cell(1.0, TEXT)
        assert format_cell(True, TEXT) == "True"


SAMPLE = RenderedTable(
    "sample",
    (Column("region", TEXT), Column("share", PCT2), Column("count", INT)),
    ((("Lazio"), 0.41772, 4), (("Veneto"), None, 0)),
)


ALL_KINDS = tuple(
    Column(f"c{i}", kind)
    for i, kind in enumerate((TEXT, INT, RANK, NUM2, NUM3, NUM6, PCT0, PCT2, PCT3))
)

# Values of the non-text columns: equal values of different types and both
# zeros; NaN only where format_cell takes it, not in the integer kinds.
# Infinities are left out because format_cell rejects them.
_WHOLE = (
    st.sampled_from([None, 0.0, -0.0, 1, 1.0, True, False])
    | st.integers(-10**15, 10**15)
    | st.floats(-1e15, 1e15)
)
_NUMBERS = _WHOLE | st.just(float("nan"))


class TestRenderTable:
    def test_csv(self):
        text = render_table(SAMPLE, "csv")
        assert text == "region,share,count\nLazio,41.77,4\nVeneto,NA,0\n"
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["region", "share", "count"]

    def test_jsonl_keeps_unrounded_values(self):
        lines = render_table(SAMPLE, "jsonl").splitlines()
        first = json.loads(lines[0])
        assert first == {"region": "Lazio", "share": 0.41772, "count": 4}
        second = json.loads(lines[1])
        assert second["share"] is None

    @given(st.lists(st.tuples(
        st.none() | st.text() | st.integers(),
        st.none() | st.integers() | st.booleans() | st.floats(-1e15, 1e15),
        st.none() | st.floats() | st.integers(-10**15, 10**15) | st.booleans(),
    ), max_size=4))
    def test_jsonl_matches_json_dumps(self, rows):
        columns = (Column('name "é"\n', TEXT), Column("n", RANK), Column("x", PCT2))
        expected = "".join(
            json.dumps({
                'name "é"\n': text,
                "n": None if n is None else int(n),
                "x": None if x is None else float(x),
            }, ensure_ascii=False) + "\n"
            for text, n, x in rows
        )
        assert render_table(RenderedTable("t", columns, tuple(rows)), "jsonl") == expected

    @given(st.lists(st.tuples(
        st.none() | st.text() | st.integers() | st.floats() | st.booleans(),
        _WHOLE, _WHOLE, *[_NUMBERS] * 6,
    ), max_size=6))
    def test_csv_matches_format_cell(self, rows):
        """Each column's bound encoder writes what format_cell writes."""
        table = RenderedTable("t", ALL_KINDS, tuple(rows))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([c.name for c in ALL_KINDS])
        for row in rows:
            writer.writerow([format_cell(v, c.kind) for v, c in zip(row, ALL_KINDS)])
        assert render_table(table, "csv") == buffer.getvalue()

    def test_render_is_deterministic(self):
        assert render_table(SAMPLE, "csv") == render_table(SAMPLE, "csv")
        assert render_table(SAMPLE, "jsonl") == render_table(SAMPLE, "jsonl")


class TestTableBuilders:
    def test_correspondence_round_trips_through_jsonl(self):
        rows = [SectorCorrespondenceRow("Lazio", 4.0, 8, -4.0, 2.0, 3.0),
                SectorCorrespondenceRow("Sicily", 0.0, 0, 0.0, None, None)]
        table = sector_correspondence_table("ING-INF/01", rows)
        assert table.name == "table2_ING-INF-01"
        rebuilt = [
            SectorCorrespondenceRow(**json.loads(line))
            for line in render_table(table, "jsonl").splitlines()
        ]
        assert rebuilt == rows

    def test_region_stats_table_single_row(self):
        stats = RegionSectorStats("Lazio", 3, 1.0, 0.5, 1.0, 0.0, 2.0, 1)
        table = region_stats_table(stats)
        assert table.name == "table4_Lazio"
        text = render_table(table, "csv")
        assert text.splitlines()[1].startswith("Lazio,3,1.000,0.500")

    def test_delta_table_long_format(self):
        cell = SnapshotDelta(
            "Lazio", "S1",
            MetricDelta(1.0, 3.5, 2.5, None),
            MetricDelta(None, 2.0, None, "emergent"),
            MetricDelta(0.5, None, None, "vanished"),
            MetricDelta(None, None, None, None),
        )
        table = delta_table([cell])
        text = render_table(table, "csv")
        lines = text.splitlines()
        assert lines[0] == "region,sds,metric,value_t0,value_t1,delta,flag"
        assert lines[1] == "Lazio,S1,surplus,1,3.5,2.5,"
        assert lines[2] == "Lazio,S1,demand_per_scientist,NA,2,NA,emergent"
        assert lines[3] == "Lazio,S1,market_share,0.5,NA,NA,vanished"
        assert lines[4] == "Lazio,S1,intra_over_national_supply,NA,NA,NA,"


class TestRecordsAreRows:
    @pytest.mark.parametrize("record, table", [
        (RegionalSummary, regional_summary_table([])),
        (SectorCorrespondenceRow, sector_correspondence_table("S1", [])),
        (SectorFlowsRow, sector_flows_table("S1", [])),
        (RegionSectorStats, region_stats_table(
            RegionSectorStats("Lazio", 0, None, None, None, None, None, 0))),
        (AggregateRow, aggregate_table([])),
    ])
    def test_record_fields_are_the_table_columns(self, record, table):
        assert record._fields == tuple(c.name for c in table.columns)


class TestSanitizeCode:
    def test_slash_becomes_dash(self):
        assert sanitize_code("ING-INF/01") == "ING-INF-01"

    def test_all_symbols_fall_back(self):
        assert sanitize_code("///") == "blank"

    def test_safe_chars_kept(self):
        assert sanitize_code("FIS_01-x") == "FIS_01-x"

    def test_output_stems_map_each_code(self):
        assert output_stems(["FIS/01", "ING-INF/01"], "sectors") == {
            "FIS/01": "FIS-01", "ING-INF/01": "ING-INF-01",
        }

    @pytest.mark.parametrize("first, second", [("ING-INF/01", "ING-INF-01"), ("A B", "A-B")])
    def test_shared_stem_names_both_codes(self, first, second):
        with pytest.raises(ValidationError) as err:
            output_stems([second, first], "regions")
        message = str(err.value)
        assert repr(first) in message and repr(second) in message

    def test_stem_past_the_file_name_limit_is_refused(self):
        """table2_ + stem + .jsonl may hold 255 bytes of UTF-8, no more; a
        non-ASCII letter counts its bytes, not one character."""
        assert output_stems(["A" * 242, "é" * 121], "sectors") == {
            "A" * 242: "A" * 242, "é" * 121: "é" * 121,
        }
        for code in ("A" * 243, "é" * 122, "A/" * 122):
            with pytest.raises(ValidationError) as err:
                output_stems(["FIS/01", code], "sectors")
            assert repr(code) in str(err.value)


class TestQuadrantSvg:
    POSITIONS = [
        QuadrantPosition("Lazio", "S1", -2.0, 0.75, "I"),
        QuadrantPosition("Lombardy", "S1", 3.0, 0.9, "II"),
        QuadrantPosition("Sicily", "S1", 4.0, 0.1, "III"),
        QuadrantPosition("Veneto", "S1", -1.0, 0.2, "IV"),
    ]

    def test_one_point_per_position_and_two_dividers(self):
        svg = emit_quadrant_svg(self.POSITIONS, "S1")
        assert svg.count('class="point"') == 4
        assert svg.count('<line class="divider"') == 2
        assert svg.count('class="label"') == 4
        for letter in ("I", "II", "III", "IV"):
            assert re.search(rf'class="quadrant"[^>]*>{letter}<', svg)
        assert 'viewBox="0 0 640 480"' in svg
        assert svg.endswith("\n")

    def test_point_on_both_dividers(self):
        svg = emit_quadrant_svg(
            [QuadrantPosition("Lazio", "S1", 0.0, 0.5, "II")], "S1"
        )
        (circle,) = re.findall(r'<circle class="point" cx="([\d.]+)" cy="([\d.]+)"', svg)
        dividers = re.findall(r'<line class="divider" x1="([\d.]+)" y1="([\d.]+)" '
                              r'x2="([\d.]+)" y2="([\d.]+)"', svg)
        assert len(dividers) == 2
        vertical = next(d for d in dividers if d[0] == d[2])
        horizontal = next(d for d in dividers if d[1] == d[3])
        assert circle[0] == vertical[0]
        assert circle[1] == horizontal[1]

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError):
            emit_quadrant_svg([], "S1")

    def test_markup_in_names_is_escaped(self):
        positions = [
            QuadrantPosition("Trentino & Alto", "A&B<1>", 1.0, 0.75, "II"),
            QuadrantPosition("<Lazio>", "A&B<1>", -1.0, 0.25, "IV"),
        ]
        document = minidom.parseString(emit_quadrant_svg(positions, "A&B<1>"))
        labels = [
            node.firstChild.data
            for node in document.getElementsByTagName("text")
            if node.getAttribute("class") == "label"
        ]
        assert labels == ["<Lazio>", "Trentino & Alto"]
        title = document.getElementsByTagName("title")[0].firstChild.data
        assert title.startswith("A&B<1>: ")

    def test_threshold_label_present(self):
        svg = emit_quadrant_svg(self.POSITIONS, "S1", share_threshold=0.5)
        assert "50" in svg
