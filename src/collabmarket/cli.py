"""Command line interface.

Subcommands:

* ``validate``  load and cross-check all inputs, write the resolution report.
* ``analyze``   run the full pipeline and write every table, figure and export.
* ``sector``    analyze's tables and figure of one sector, byte for byte; a
                taxonomy sector without events gets zero demand and supply.
* ``region``    analyze's cross-sector statistics card of one region.
* ``diff``      compare two analyze output directories.

The run subcommands load the registries, then take each in-window publication
through one flat pass (``run_pipeline``) as ``ingest.iter_publications``
parses it. The pass reads a per-run table of each distinct affiliation
string's entry in the affiliation table that ``Resolver.build`` makes once,
the registry's roster triples and the publication's own tables of
universities and enterprises by region; from them it resolves, attributes,
tallies the resolution-report row, filters, and counts each retained
publication's products of regions into a ``collab.FlowCube``, with no record
per mention, author or event. Its docstring states the resolution,
attribution and retention rules. Every indicator reads the cube's counts. The
pass hands back counts and the pub_ids of the publications with no resolved
affiliation; a per-publication row goes only into a list that the caller
hands it to write: the resolution report's rows for ``validate`` and
``analyze``, the event tuples, derived only then, for ``analyze``'s exports.
No list of the corpus is kept, so memory follows the registries and the cube,
plus the rows that a command writes. The cyclic garbage collector stays
paused for the whole of a command (``main``).
``validate`` and the run subcommands print the same warnings: shared aliases,
the publications with no resolved affiliation capped at ``MAX_DIAGNOSTICS``
lines and a count of the rest, and an empty window.

Before anything is written, the run subcommands and ``validate`` go through one
refusal stage (``_indicator_rows``): file-name stems (shared, or too long for a
file name), headcounts, the table2 and table3 rows, and a check of every number
in them. Its problems, like the inputs', go to ``ingest._report``, which alone
decides whether to stop or to list: it raises without a diagnostics list, so
the run subcommands stop at the first problem, and appends with one, so
``validate`` lists them all and exits 1 exactly when ``analyze`` would.

``diff`` reads each snapshot's JSONL tables one file at a time and keeps only
the four values of each (sector, region) cell that it compares. A table must
list each region of its manifest exactly once, with finite compared numbers;
each line and the manifest are read by ``ingest._json_line``, the one JSON
reader, and each line goes through one chain of checks, the first failing
one naming its problem. The delta report goes to its two files a bounded
chunk of cells at a time, rendered column by column.

Diagnostics go to stderr, data to files. The exit code is 0 exactly when the
run completed without hard errors, 1 for a ``DataError`` and 2 for a
``UsageError`` or an ``OSError`` (an output path that cannot be a directory,
an input that cannot be read). ``main`` alone turns an error into its
``error:`` line and exit code; ``validate`` first prints the diagnostics it
collected before the error ended it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .collab import (
    FlowCube,
    corpus_totals,
    derive_sds_events,
    derive_ue_events,
    export_sds_events,
    export_ue_events,
    write_csv,
)
from .config import POLICIES, RunConfig, apply_setting, dump_config, load_config
from .errors import DataError, UsageError
from .indicators import (
    IndicatorSnapshot,
    SectorCorrespondenceRow,
    SectorFlowsRow,
    SnapshotCell,
    SnapshotDelta,
    aggregate_regions,
    quadrant_positions,
    region_sector_stats,
    regional_summary,
    sds_weights,
    sector_correspondence,
    sector_flows,
    snapshot_diff,
)
from .ingest import (
    LONE_SURROGATE,
    _json_line,
    _report,
    iter_publications,
    load_registries,
    not_utf8,
)
from .model import Registry
from .report import (
    DELTA_REPORT,
    FORMATS,
    RenderedTable,
    aggregate_table,
    delta_lines,
    emit_quadrant_svg,
    output_stems,
    region_stats_table,
    regional_summary_table,
    render_table,
    sanitize_code,
    sector_correspondence_table,
    sector_flows_table,
)
from .resolve import EXACT, NO_MATCH, Resolver, normalize_name

MAX_DIAGNOSTICS = 20

RESOLUTION_REPORT_COLUMNS = ("pub_id", "exact", "alias", "unresolved", "unique", "ambiguous")
ReportRow = tuple[str, int, int, int, int, int]  # a resolution-report line, as its columns


@dataclass(frozen=True)
class PipelineResult:
    """What the subcommands read once the corpus has been through one pass.

    ``ambiguous_aliases`` maps each alias that several organizations share
    to their sorted ids and the id that the resolver's table resolves it to.
    ``publications`` counts the in-window publications, ``orphans`` lists the
    pub_ids of those with no resolved affiliation in pass order, and the cube
    holds every count an indicator reads. Only a caller that hands
    ``run_pipeline`` its ``report`` or ``events`` lists gets those rows.
    """

    registry: Registry
    ambiguous_aliases: Mapping[str, tuple[tuple[str, ...], str]]
    publications: int
    orphans: list[str]
    retained: int
    cube: FlowCube


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore its state.

    ``main`` runs each command under it. A command allocates its records in
    bulk and keeps them until it exits: immutable tuples that form no
    reference cycles, yet tuple subclasses are never untracked, so every
    collection of the older generations walks them all.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_pipeline(
    config: RunConfig, diagnostics: list[str] | None = None, sector: str | None = None,
    report: list[ReportRow] | None = None,
    events: tuple[list[tuple], list[tuple]] | None = None,
) -> PipelineResult:
    """Load the registries, then take each in-window publication through one
    flat pass as the parser yields it. A ``capacity.<sds>`` setting or a
    requested ``sector`` that the taxonomy lacks is a ``UsageError`` before
    the pass.

    Given ``report``, a list, the pass appends each in-window publication's
    report row to it. Given ``events``, a (UE, SDS) pair of lists, it derives
    each retained publication's event tuples (``collab.derive_ue_events`` and
    ``derive_sds_events``) and extends the lists with them, in the column
    order of ``events_ue.csv`` and ``events_sds.csv``. Both are in pass
    order. Without them the pass keeps only counts, the cube's among them,
    and the pub_ids of the publications with no resolved affiliation.

    The rules of the pass (the staged functions of ``resolve`` and ``ingest``,
    which no command calls, build the same as records):

    * Resolution. An affiliation string, normalized by ``normalize_name``,
      resolves ``exact`` to the lowest org id whose normalized canonical name
      it is; failing that, ``alias`` to the lowest org id that lists it as a
      non-empty normalized alias; failing that, not at all. A publication's
      universities and enterprises are its distinct resolved organizations
      of each kind, each with its region.
    * Attribution. An author's candidates are the distinct (university,
      sector) pairs of the roster rows under the author's (surname,
      initials) key whose university is one of the publication's universities
      and whose active years hold the publication's year. One candidate
      attributes the author to it. With several the author is ambiguous:
      policy ``strict`` attributes nothing, policy ``all`` attributes each
      candidate sector at its lowest university id. Each attribution carries
      a (sector, supply region) pair, the region of its university. Under
      ``sds_region_split = single`` a sector keeps only its pair of the
      alphabetically first supply region.
    * Report row: the pub_id, the affiliation mentions resolved exact, by
      alias and not at all, the authors attributed to one candidate, and the
      ambiguous authors under either policy.
    * Retention. A publication with a resolved enterprise and an attributed
      (sector, supply region) pair is retained; only a retained one has
      events. It counts one ``ue_flows`` event for each of its universities
      and enterprises, and one ``sds_flows`` event for each of its pairs and
      enterprises, keyed by the regions.

    The pass reads three tables: ``seen``, each raw affiliation string's entry
    in the resolver's table, filled the first time the string appears; the
    roster triples; and the publication's universities and enterprises by id.
    A bad line raises (or, given ``diagnostics``, is reported) when the parse
    reaches it; the caller writes nothing before this returns.
    """
    config.require_inputs()
    registry = load_registries(
        config.organizations,
        config.roster,
        config.taxonomy,
        config.regions,
        diagnostics,
    )
    for sds in config.capacity_multipliers:
        if sds not in registry.taxonomy:
            raise UsageError(
                f"config key capacity.{sds} names no sector of the taxonomy {config.taxonomy}"
            )
    if sector is not None and sector not in registry.taxonomy:
        raise UsageError(f"sds {sector!r} is not in the taxonomy")
    resolver = Resolver.build(registry)
    table, roster, taxonomy = resolver.table, registry.roster, registry.taxonomy
    spread_ambiguous = config.ambiguity == "all"
    single_region = config.sds_region_split == "single"
    seen: dict[str, tuple[str, str | None, bool, str | None]] = {}
    orphans: list[str] = []
    publications = retained = 0
    if events is not None:
        ue_sink, sds_sink = events
    cube = FlowCube()
    ue_flows, sds_flows = cube.ue_flows, cube.sds_flows
    for pub in iter_publications(config.publications, config.window, diagnostics):
        universities: dict[str, str] = {}
        enterprises: dict[str, str] = {}
        exact = alias = 0
        affiliations = pub.affiliations
        for raw in affiliations:
            hit = seen.get(raw)
            if hit is None:
                hit = seen[raw] = table.get(normalize_name(raw), NO_MATCH)
            tier, org_id, is_university, region = hit
            if org_id is None:
                continue
            if tier == EXACT:
                exact += 1
            else:
                alias += 1
            if is_university:
                universities[org_id] = region
            else:
                enterprises[org_id] = region
        # Attribution: the distinct (university, sector) candidates of each
        # author at the listed universities in the publication's year.
        unique = ambiguous = 0
        pairs: set[tuple[str, str]] = set()
        if universities:
            year = pub.year
            for author in pub.authors:
                triples = roster.get(author)
                if triples is None:
                    continue
                candidates = {
                    (university_id, sds)
                    for university_id, sds, years in triples
                    if university_id in universities and year in years
                }
                if len(candidates) == 1:
                    unique += 1
                    ((university_id, sds),) = candidates
                    pairs.add((sds, universities[university_id]))
                elif candidates:
                    ambiguous += 1
                    if spread_ambiguous:
                        # Each candidate sector, at its lowest university id.
                        lowest: dict[str, str] = {}
                        for university_id, sds in sorted(candidates):
                            lowest.setdefault(sds, university_id)
                        pairs.update((sds, universities[u]) for sds, u in lowest.items())
            if single_region:  # each sector at its alphabetically first supply region
                pairs = {sds: region for sds, region in sorted(pairs, reverse=True)}.items()
        publications += 1
        if not (exact or alias):
            orphans.append(pub.pub_id)
        if report is not None:
            unresolved = len(affiliations) - exact - alias
            report.append((pub.pub_id, exact, alias, unresolved, unique, ambiguous))
        if enterprises and pairs:
            retained += 1
            e_regions = enterprises.values()
            for u_region in universities.values():
                for e_region in e_regions:
                    ue_flows[u_region, e_region] += 1
            for sds, supply_region in pairs:
                flows = sds_flows.get(sds)
                if flows is None:
                    flows = sds_flows[sds] = Counter()
                for e_region in e_regions:
                    flows[supply_region, e_region] += 1
            if events is not None:
                ue_sink.extend(derive_ue_events(pub, universities.items(), enterprises.items()))
                sds_sink.extend(derive_sds_events(pub, pairs, enterprises.items(), taxonomy))
            cube.universities.update(universities)
            cube.enterprises.update(enterprises)
    shared = {name: (ids, table[name][1]) for name, ids in resolver.ambiguous_aliases.items()}
    return PipelineResult(registry, shared, publications, orphans, retained, cube)


def _write_resolution_report(out_dir: Path, rows: Sequence[ReportRow]) -> None:
    write_csv(out_dir / "resolution_report.csv", RESOLUTION_REPORT_COLUMNS, rows)


def _write_table(out_dir: Path, table: RenderedTable) -> None:
    (out_dir / f"{table.name}.csv").write_text(render_table(table, "csv"), encoding="utf-8")
    (out_dir / f"{table.name}.jsonl").write_text(render_table(table, "jsonl"), encoding="utf-8")


def _print_capped(line: str, items: Sequence[object], rest: str) -> None:
    """Print ``line`` filled in with each of the first ``MAX_DIAGNOSTICS``
    items to stderr, then ``rest`` filled in with the count of the others, if any."""
    for item in items[:MAX_DIAGNOSTICS]:
        print(line.format(item), file=sys.stderr)
    if len(items) > MAX_DIAGNOSTICS:
        print(rest.format(len(items) - MAX_DIAGNOSTICS), file=sys.stderr)


def _print_diagnostics(diagnostics: Sequence[str]) -> None:
    _print_capped("error: {}", diagnostics, "... and {} more")


def _warn(result: PipelineResult) -> None:
    """Print each alias that several organizations share, then the first
    ``MAX_DIAGNOSTICS`` in-window publications none of whose affiliations
    resolved and a count of the rest (the resolution report lists them all),
    then whether no publication fell inside the window."""
    for alias, (org_ids, winner) in result.ambiguous_aliases.items():
        print(
            f"warning: alias {alias!r} is shared by {', '.join(org_ids)}; resolving to {winner}",
            file=sys.stderr,
        )
    _print_capped(
        "warning: publication {!r}: no affiliation resolved", result.orphans,
        "warning: ... and {} more publications with no affiliation resolved",
    )
    if not result.publications:
        print("warning: no publications fall inside the configured window", file=sys.stderr)


def cmd_validate(config: RunConfig) -> int:
    diagnostics: list[str] = []
    report: list[ReportRow] = []
    try:
        result = run_pipeline(config, diagnostics, report=report)
        _indicator_rows(config, result, sorted(result.cube.sds_flows), config.regions, diagnostics)
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_resolution_report(out_dir, report)
    except (DataError, UsageError, OSError):  # print what came before it; main prints it
        _print_diagnostics(diagnostics)
        raise
    _warn(result)
    totals = corpus_totals(result.cube)
    print(
        f"validate: {result.publications} publications read, "
        f"{result.retained} retained by the collaboration filter, "
        f"{totals.ue_events} university-enterprise events, "
        f"{totals.sds_events} sector events",
        file=sys.stderr,
    )
    _print_diagnostics(diagnostics)
    return 1 if diagnostics else 0


def _check_rows(
    correspondence: Mapping[str, Sequence[SectorCorrespondenceRow]],
    flows: Mapping[str, Sequence[SectorFlowsRow]],
) -> Iterator[str]:
    """Name the table, sector, region and column of each value that is
    neither a finite number nor NA, then of each table2 row with scientists
    but no demand per scientist: a roster weight or capacity multiplier so
    small that their capacity underflows to zero.

    The sum of a sector's numbers is finite when each of them is, so one sum
    in C screens the sector; only a sum that is not looks at each value.
    """
    for table, rows_by_sds in (("table2", correspondence), ("table3", flows)):
        for sds, rows in rows_by_sds.items():
            if math.isfinite(sum(filter(None, chain.from_iterable(row[1:] for row in rows)))):
                continue
            for row in rows:
                for name, value in zip(row._fields[1:], row[1:]):
                    if value is not None and not math.isfinite(value):
                        yield (
                            f"{table} of sector {sds!r}, region {row.region!r}: "
                            f"{name} is {value!r}, not a finite number"
                        )
    for sds, rows in correspondence.items():
        for row in rows:
            if row.scientists > 0 and row.demand_per_scientist is None:
                yield (
                    f"table2 of sector {sds!r}, region {row.region!r}: demand_per_scientist "
                    f"is NA for {row.scientists!r} scientists, whose capacity underflows to 0"
                )


def _indicator_rows(
    config: RunConfig,
    result: PipelineResult,
    sectors: Sequence[str],
    regions: Sequence[str],
    diagnostics: list[str] | None = None,
) -> tuple[
    dict[str, str], dict[str, list[SectorCorrespondenceRow]], dict[str, list[SectorFlowsRow]]
]:
    """The refusal stage of the run commands and ``validate``.

    Computes table2 of ``sectors`` (of every taxonomy sector when ``regions``
    asks for cards, which span them all) and table3 of ``sectors``, and
    returns the sectors' file-name stems and those rows. Each problem goes to
    ``ingest._report``, in order: a configured region, then one of the active
    and the requested sectors, whose stem is too long for a file name or
    shared with another's (``report.output_stems``), then each message of
    ``_check_rows``.
    """
    cube = result.cube
    try:
        output_stems(config.regions, "regions")
    except DataError as exc:
        _report(exc, diagnostics)
    try:
        stems = output_stems({*cube.sds_flows, *sectors}, "sectors")
    except DataError as exc:
        _report(exc, diagnostics)
        stems = {}
    headcounts = result.registry.headcounts
    correspondence = {
        sds: sector_correspondence(
            sds,
            headcounts[sds],
            cube,
            config.regions,
            config.capacity_multipliers.get(sds, 1.0),
        )
        for sds in (sorted(result.registry.taxonomy) if regions else sectors)
    }
    flows = {sds: sector_flows(sds, headcounts[sds], cube, config.regions) for sds in sectors}
    for message in _check_rows(correspondence, flows):
        _report(DataError(message), diagnostics)
    return stems, correspondence, flows


def _write_indicators(
    config: RunConfig, result: PipelineResult, sectors: Sequence[str], regions: Sequence[str]
) -> tuple[
    dict[str, str], dict[str, list[SectorCorrespondenceRow]], dict[str, list[SectorFlowsRow]]
]:
    """Write table2, table3 and fig1 of each of ``sectors`` and table4 of each
    of ``regions``, the files of ``analyze``, ``sector`` and ``region`` alike.

    Raises the first problem of ``_indicator_rows`` before ``--out`` is
    created. Returns the sectors' stems, correspondence rows and flows rows.
    """
    stems, correspondence, flows = _indicator_rows(config, result, sectors, regions)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sds in sectors:
        _write_table(out_dir, sector_correspondence_table(sds, correspondence[sds]))
        _write_table(out_dir, sector_flows_table(sds, flows[sds]))
        positions = quadrant_positions(
            sds, correspondence[sds], flows[sds], config.quadrant_share_threshold
        )
        if positions:
            figure = emit_quadrant_svg(positions, sds, config.quadrant_share_threshold)
            (out_dir / f"fig1_{sanitize_code(sds)}.svg").write_text(figure, encoding="utf-8")

    ordered = sorted(config.regions)  # the row order of every table2
    for region in sorted(regions):
        i = ordered.index(region)
        by_sds = {sds: table[i] for sds, table in correspondence.items()}
        _write_table(out_dir, region_stats_table(region_sector_stats(region, by_sds)))
    return stems, correspondence, flows


def cmd_analyze(config: RunConfig) -> int:
    report: list[ReportRow] = []
    ue_events, sds_events = [], []  # the tuples of events_ue.csv and events_sds.csv
    result = run_pipeline(config, report=report, events=(ue_events, sds_events))
    _warn(result)
    active = sorted(result.cube.sds_flows)
    stems, correspondence, flows = _write_indicators(config, result, active, config.regions)
    out_dir = Path(config.out)
    (out_dir / "effective_config.txt").write_text(dump_config(config), encoding="utf-8")
    _write_resolution_report(out_dir, report)
    export_ue_events(ue_events, out_dir / "events_ue.csv")
    export_sds_events(sds_events, out_dir / "events_sds.csv")
    summary = regional_summary(result.cube, config.regions)
    _write_table(out_dir, regional_summary_table(summary))
    aggregate = aggregate_regions(
        correspondence,
        flows,
        sds_weights(result.cube),
        config.regions,
        config.aggregation_na_policy,
    )
    _write_table(out_dir, aggregate_table(aggregate))

    manifest = {
        "regions": sorted(config.regions),
        "window": list(config.window) if config.window is not None else None,
        "taxonomy": dict(sorted(result.registry.taxonomy.items())),
        "active_sds": stems,
        "totals": corpus_totals(result.cube)._asdict(),
    }
    (out_dir / "snapshot.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"analyze: wrote outputs for {len(active)} active sectors to {out_dir}", file=sys.stderr)
    return 0


def cmd_sector(config: RunConfig, sds: str) -> int:
    result = run_pipeline(config, sector=sds)
    _warn(result)
    _write_indicators(config, result, [sds], ())
    return 0


def cmd_region(config: RunConfig, name: str) -> int:
    if name not in config.regions:
        raise UsageError(f"region {name!r} is not in the configured region set")
    result = run_pipeline(config)
    _warn(result)
    _write_indicators(config, result, (), [name])
    return 0


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


def _read_compared(
    path: Path, fields: tuple[str, ...], compared: tuple[str, str], regions: Mapping[str, str]
) -> dict[str, tuple]:
    """The two ``compared`` values of each region in one table's JSONL twin,
    keyed by the manifest's own region string, in one pass over the file.

    Each non-blank line is read by ``ingest._json_line`` and goes through one
    chain of checks, the first failing one naming the problem: an object
    whose keys are ``fields`` in order, as ``render_table`` writes them; a
    string region; a finite number or null in each compared field, as any
    other value, a boolean included, would fail inside snapshot_diff; a
    region of ``regions`` not seen yet. Each of ``regions`` must be on
    exactly one line. A value that is null or a finite float, as
    ``render_table`` writes it, passes its check by one test.
    """
    first, second = compared
    cells: dict[str, tuple] = {}
    try:
        with path.open(encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = _json_line(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"bad JSON: {exc.msg}", path, line_no) from None
                if type(obj) is not dict or tuple(obj) != fields:
                    keys = ", ".join(fields)
                    raise DataError(f"expected an object with the keys {keys}", path, line_no)
                region = obj["region"]
                if type(region) is not str:
                    kind = _JSON_TYPE_NAMES[type(region)]
                    raise DataError(f"region is {kind}, expected a string", path, line_no)
                values = a, b = obj[first], obj[second]
                if not (a is None or type(a) is float and math.isfinite(a)) or not (
                    b is None or type(b) is float and math.isfinite(b)
                ):
                    for name, value in zip(compared, values):
                        if type(value) not in _NUMBER_OR_NULL:
                            kind = _JSON_TYPE_NAMES[type(value)]
                            raise DataError(
                                f"{name} is {kind}, expected a number or null", path, line_no
                            )
                    for name, value in zip(compared, values):
                        if value is not None and not _is_finite(value):
                            raise DataError(f"{name} is not a finite number", path, line_no)
                if region not in regions:
                    raise DataError(
                        f"region {region!r} is not in the snapshot's regions", path, line_no
                    )
                if region in cells:
                    raise DataError(f"region {region!r} is listed twice", path, line_no)
                cells[regions[region]] = values
    except OSError as exc:
        raise DataError(f"cannot read: {exc}", path) from None
    except UnicodeDecodeError:
        line_no, message = not_utf8(path)
        raise DataError(message, path, line_no) from None
    if len(cells) < len(regions):
        missing = [region for region in regions if region not in cells]
        raise DataError(f"no row for region {', '.join(map(repr, missing))}", path)
    return cells


def _read_manifest(path: Path) -> dict:
    if not path.exists():
        raise DataError(f"{path} is missing; not a complete analyze output")
    try:
        manifest = _json_line(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"bad JSON: {exc.msg}", path, exc.lineno) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read: {exc}", path) from None
    if not isinstance(manifest, dict):
        raise DataError("expected a JSON object", path)
    regions = manifest.get("regions")
    if not isinstance(regions, list) or not all(isinstance(r, str) for r in regions):
        raise DataError("'regions' is missing or not an array of strings", path)
    if len(set(regions)) < len(regions):
        raise DataError("'regions' lists a region twice", path)
    for key in ("taxonomy", "active_sds"):
        value = manifest.get(key)
        if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
            raise DataError(f"{key!r} is missing or not an object of strings", path)
    # The delta report and the table file names hold these; no file can hold a lone surrogate.
    active = manifest["active_sds"]
    for key, texts in (("regions", regions), ("active_sds", chain(active, active.values()))):
        for text in texts:
            if LONE_SURROGATE.search(text):
                raise DataError(f"{key!r} holds {text!r}, a lone surrogate, not text", path)
    return manifest


def _read_snapshot(directory: Path) -> IndicatorSnapshot:
    """The cells diff compares, from table2 and table3 of each active sector.

    No row is kept beyond its compared values, and every cell is keyed by
    the manifest's own region string.
    """
    manifest = _read_manifest(directory / "snapshot.json")
    regions = {region: region for region in manifest["regions"]}
    cells: dict[str, dict[str, SnapshotCell]] = {}
    for sds, stem in sorted(manifest["active_sds"].items()):
        corr_path = directory / f"table2_{stem}.jsonl"
        flow_path = directory / f"table3_{stem}.jsonl"
        for path in (corr_path, flow_path):
            if not path.exists():
                raise DataError(f"{path} is missing; snapshot {directory} is incomplete")
        demand = _read_compared(
            corr_path, SectorCorrespondenceRow._fields, SnapshotCell._fields[:2], regions
        )
        flows = _read_compared(flow_path, SectorFlowsRow._fields, SnapshotCell._fields[2:], regions)
        cells[sds] = {
            region: SnapshotCell(*demand[region], *values) for region, values in flows.items()
        }
    return IndicatorSnapshot(tuple(manifest["regions"]), manifest["taxonomy"], cells)


def _write_delta_report(out_dir: Path, deltas: Sequence[SnapshotDelta]) -> None:
    """Write the delta report's two files line by line as its rows are made;
    the bytes are ``_write_table``'s for ``delta_table(deltas)``."""
    for fmt in FORMATS:
        with (out_dir / f"{DELTA_REPORT}.{fmt}").open("w", encoding="utf-8") as handle:
            handle.writelines(delta_lines(deltas, fmt))


def _compared_settings(directory: Path) -> dict[str, str]:
    """The settings of the run that wrote ``directory`` that change the
    compared columns, each as ``effective_config.txt`` writes it."""
    settings = {}
    for line in dump_config(load_config(directory / "effective_config.txt")).splitlines():
        key, _, value = line.partition(" = ")
        if key in ("ambiguity", "sds_region_split") or key.startswith("capacity."):
            settings[key] = value
    return settings


def _warn_settings(t0: Path, t1: Path) -> None:
    """Warn of each setting that changes the compared columns and differs
    between the two runs, which a diff would show as a change of the market;
    or of each ``effective_config.txt`` that does not load."""
    settings = []
    for directory in (t0, t1):
        try:
            settings.append(_compared_settings(directory))
        except UsageError as exc:
            print(f"warning: settings not compared: {exc}", file=sys.stderr)
    if len(settings) < 2:
        return
    before, after = settings
    unset = repr(1.0)  # only a capacity multiplier may be absent
    for key in sorted({*before, *after}):
        value_t0, value_t1 = before.get(key, unset), after.get(key, unset)
        if value_t0 != value_t1:
            print(
                f"warning: the snapshots differ in {key}: {value_t0} in {t0}, {value_t1} in {t1}",
                file=sys.stderr,
            )


def cmd_diff(t0: str, t1: str, out: str) -> int:
    deltas = snapshot_diff(_read_snapshot(Path(t0)), _read_snapshot(Path(t1)))
    _warn_settings(Path(t0), Path(t1))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_delta_report(out_dir, deltas)
    flagged = sum(1 for cell in deltas for metric in cell[2:] if metric.flag)
    print(f"diff: {len(deltas)} cells compared, {flagged} flagged", file=sys.stderr)
    return 0


# Each run flag, the config key it sets (its argparse dest) and its help.
_RUN_FLAGS = (
    ("--publications", "publications", "publications file (line-delimited records)"),
    ("--organizations", "organizations", "organization registry CSV"),
    ("--roster", "roster", "scientist roster CSV"),
    ("--taxonomy", "taxonomy", "sector taxonomy CSV"),
    ("--out", "out", "output directory"),
    ("--window", "window", "inclusive year window, e.g. 2001:2003"),
    ("--regions", "regions", "|-separated region set override"),
    ("--ambiguity", "ambiguity", f"ambiguous author policy: {' or '.join(POLICIES['ambiguity'])}"),
    ("--share-threshold", "quadrant_share_threshold", "quadrant share divider, between 0 and 1"),
)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key-value config file")
    for flag, key, text in _RUN_FLAGS:
        parser.add_argument(flag, dest=key, help=text)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file's settings, then each flag given, parsed as its
    config key is but with a relative path resolved against the working
    directory."""
    config = load_config(args.config) if args.config else RunConfig()
    for flag, key, _ in _RUN_FLAGS:
        value = getattr(args, key)
        if value is not None:
            try:
                config = apply_setting(config, key, value)
            except UsageError as exc:
                raise UsageError(f"{flag}: {exc}") from None
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabmarket",
        description="Regional supply/demand analytics for university-industry collaborations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check all inputs, write the resolution report")
    _add_run_flags(p_validate)
    p_validate.set_defaults(func=lambda args: cmd_validate(_config_from_args(args)))

    p_analyze = sub.add_parser("analyze", help="run the full pipeline, write every output")
    _add_run_flags(p_analyze)
    p_analyze.set_defaults(func=lambda args: cmd_analyze(_config_from_args(args)))

    p_sector = sub.add_parser("sector", help="tables and figure for one sector")
    _add_run_flags(p_sector)
    p_sector.add_argument("--sds", required=True, help="sector code, e.g. ING-INF/01")
    p_sector.set_defaults(func=lambda args: cmd_sector(_config_from_args(args), args.sds))

    p_region = sub.add_parser("region", help="cross-sector statistics for one region")
    _add_run_flags(p_region)
    p_region.add_argument("--name", required=True, help="region name")
    p_region.set_defaults(func=lambda args: cmd_region(_config_from_args(args), args.name))

    p_diff = sub.add_parser("diff", help="compare two analyze output directories")
    p_diff.add_argument("--t0", required=True, help="earlier analyze output directory")
    p_diff.add_argument("--t1", required=True, help="later analyze output directory")
    p_diff.add_argument("--out", default="diff", help="directory for the delta report")
    p_diff.set_defaults(func=lambda args: cmd_diff(args.t0, args.t1, args.out))

    return parser


@_collector_paused()
def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        message, code = exc, 1
    except UsageError as exc:
        message, code = exc, 2
    except OSError as exc:
        # An output path that cannot be a directory, or an input that exists
        # but cannot be read.
        where = f"{exc.filename}: " if exc.filename is not None else ""
        message, code = f"{where}{exc.strerror or exc}", 2
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
