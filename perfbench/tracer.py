"""One traced iteration of a workload, run in a fresh interpreter.

    python3 perfbench/tracer.py PLAN.json

The plan (written by ``run.py``) lists the CLI commands of one iteration.
Spans are recorded from outside the program: the public functions of each
module are wrapped in every ``collabmarket`` module that binds them (``cli``
imports them by name, ``ingest`` binds ``normalize_name``, ``collab`` calls
its own sort functions), and ``Resolver.build`` is wrapped on the class.
Each span records a name, start, end and parent span, and all spans of one
command share its id. Counts are taken at the same boundaries. Spans stay in
memory and are written to a CSV file when the run ends.

Every ``*_s`` layer metric is self time: the span's duration minus the part
of it that its child spans cover, summed over the layer's spans. The command
spans ``cli.<command>_s`` are whole durations, and the layer metrics plus
``cli.self_s`` add up to them, less the tracer's own time: what it spends
counting at a boundary is taken out of the enclosing span. A function that no
longer exists makes the metrics that depend on it absent instead of failing
the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> (module, attribute). Layer time buckets group span names.
TARGETS = {
    "ingest.load_registries": ("ingest", "load_registries"),
    "ingest.load_publications": ("ingest", "load_publications"),
    "ingest.partition_resolvable": ("ingest", "partition_resolvable"),
    "ingest.filter_hard_sciences": ("ingest", "filter_hard_sciences"),
    "resolve.Resolver.build": ("resolve", "Resolver.build"),
    "resolve.normalize_name": ("resolve", "normalize_name"),
    "resolve.normalize_initials": ("resolve", "normalize_initials"),
    "resolve.resolve_publication": ("resolve", "resolve_publication"),
    "resolve.attribute_authors": ("resolve", "attribute_authors"),
    "resolve.resolution_report_rows": ("resolve", "resolution_report_rows"),
    "collab.derive_ue_events": ("collab", "derive_ue_events"),
    "collab.derive_sds_events": ("collab", "derive_sds_events"),
    "collab.sort_ue_events": ("collab", "sort_ue_events"),
    "collab.sort_sds_events": ("collab", "sort_sds_events"),
    "collab.export_ue_events": ("collab", "export_ue_events"),
    "collab.export_sds_events": ("collab", "export_sds_events"),
    "collab.events_by_sds": ("collab", "events_by_sds"),
    "collab.corpus_totals": ("collab", "corpus_totals"),
    "indicators.all_headcounts": ("indicators", "all_headcounts"),
    "indicators.roster_headcounts": ("indicators", "roster_headcounts"),
    "indicators.sector_correspondence": ("indicators", "sector_correspondence"),
    "indicators.sector_flows": ("indicators", "sector_flows"),
    "indicators.quadrant_positions": ("indicators", "quadrant_positions"),
    "indicators.region_sector_stats": ("indicators", "region_sector_stats"),
    "indicators.aggregate_regions": ("indicators", "aggregate_regions"),
    "indicators.sds_weights": ("indicators", "sds_weights"),
    "indicators.regional_summary": ("indicators", "regional_summary"),
    "indicators.snapshot_diff": ("indicators", "snapshot_diff"),
    "report.regional_summary_table": ("report", "regional_summary_table"),
    "report.sector_correspondence_table": ("report", "sector_correspondence_table"),
    "report.sector_flows_table": ("report", "sector_flows_table"),
    "report.region_stats_table": ("report", "region_stats_table"),
    "report.aggregate_table": ("report", "aggregate_table"),
    "report.delta_table": ("report", "delta_table"),
    "report.render_table": ("report", "render_table"),
    "report.emit_quadrant_svg": ("report", "emit_quadrant_svg"),
}

BUCKETS = {
    "ingest.load_registries_s": ("ingest.load_registries",),
    "ingest.load_publications_s": ("ingest.load_publications",),
    "ingest.filter_s": ("ingest.partition_resolvable", "ingest.filter_hard_sciences"),
    "resolve.build_s": ("resolve.Resolver.build",),
    "resolve.normalize_s": ("resolve.normalize_name", "resolve.normalize_initials"),
    "resolve.affiliations_s": ("resolve.resolve_publication",),
    "resolve.attribute_s": ("resolve.attribute_authors",),
    "resolve.report_rows_s": ("resolve.resolution_report_rows",),
    "collab.derive_s": ("collab.derive_ue_events", "collab.derive_sds_events"),
    "collab.sort_s": ("collab.sort_ue_events", "collab.sort_sds_events"),
    "collab.export_s": ("collab.export_ue_events", "collab.export_sds_events"),
    "collab.group_s": ("collab.events_by_sds", "collab.corpus_totals"),
    "indicators.headcounts_s": ("indicators.all_headcounts", "indicators.roster_headcounts"),
    "indicators.correspondence_s": ("indicators.sector_correspondence",),
    "indicators.flows_s": ("indicators.sector_flows",),
    "indicators.quadrant_s": ("indicators.quadrant_positions",),
    "indicators.region_stats_s": ("indicators.region_sector_stats",),
    "indicators.aggregate_s": ("indicators.aggregate_regions", "indicators.sds_weights"),
    "indicators.regional_summary_s": ("indicators.regional_summary",),
    "indicators.snapshot_diff_s": ("indicators.snapshot_diff",),
    "report.table_build_s": (
        "report.regional_summary_table", "report.sector_correspondence_table",
        "report.sector_flows_table", "report.region_stats_table",
        "report.aggregate_table", "report.delta_table",
    ),
    "report.render_s": ("report.render_table",),
    "report.svg_s": ("report.emit_quadrant_svg",),
}

# Call counts of a bucket's spans.
CALLS = {
    "collab.sort_calls": "collab.sort_s",
    "indicators.headcounts_calls": "indicators.headcounts_s",
    "report.render_calls": "report.render_s",
    "report.svg_calls": "report.svg_s",
}

COMMANDS = ("analyze", "diff", "validate")

# (metric, unit, span names it needs). Order is the report order.
METRICS: list[tuple[str, str, tuple[str, ...]]] = [
    ("ingest.load_registries_s", "s", BUCKETS["ingest.load_registries_s"]),
    ("ingest.load_publications_s", "s", BUCKETS["ingest.load_publications_s"]),
    ("ingest.lines_read", "count", ("ingest.load_publications",)),
    ("ingest.rejected_ratio", "ratio", ("ingest.load_publications",)),
    ("ingest.filter_s", "s", BUCKETS["ingest.filter_s"]),
    ("ingest.retained_ratio", "ratio", ("ingest.load_publications", "ingest.filter_hard_sciences")),
    ("resolve.build_s", "s", BUCKETS["resolve.build_s"]),
    ("resolve.normalize_calls", "count", BUCKETS["resolve.normalize_s"]),
    ("resolve.normalize_s", "s", BUCKETS["resolve.normalize_s"]),
    ("resolve.normalize_distinct_ratio", "ratio", BUCKETS["resolve.normalize_s"]),
    ("resolve.affiliations_s", "s", BUCKETS["resolve.affiliations_s"]),
    ("resolve.affiliations", "count", ("resolve.resolve_publication",)),
    ("resolve.exact_ratio", "ratio", ("resolve.resolve_publication",)),
    ("resolve.alias_ratio", "ratio", ("resolve.resolve_publication",)),
    ("resolve.unresolved_ratio", "ratio", ("resolve.resolve_publication",)),
    ("resolve.attribute_s", "s", BUCKETS["resolve.attribute_s"]),
    ("resolve.authors", "count", ("resolve.attribute_authors",)),
    ("resolve.attributed_ratio", "ratio", ("resolve.attribute_authors",)),
    ("resolve.report_rows_s", "s", BUCKETS["resolve.report_rows_s"]),
    ("collab.derive_s", "s", BUCKETS["collab.derive_s"]),
    ("collab.ue_events", "count", ("collab.derive_ue_events",)),
    ("collab.sds_events", "count", ("collab.derive_sds_events",)),
    ("collab.sort_s", "s", BUCKETS["collab.sort_s"]),
    ("collab.sort_calls", "count", BUCKETS["collab.sort_s"]),
    ("collab.export_s", "s", BUCKETS["collab.export_s"]),
    ("collab.group_s", "s", BUCKETS["collab.group_s"]),
    ("indicators.headcounts_s", "s", BUCKETS["indicators.headcounts_s"]),
    ("indicators.headcounts_calls", "count", BUCKETS["indicators.headcounts_s"]),
    ("indicators.correspondence_s", "s", BUCKETS["indicators.correspondence_s"]),
    ("indicators.flows_s", "s", BUCKETS["indicators.flows_s"]),
    ("indicators.quadrant_s", "s", BUCKETS["indicators.quadrant_s"]),
    ("indicators.region_stats_s", "s", BUCKETS["indicators.region_stats_s"]),
    ("indicators.aggregate_s", "s", BUCKETS["indicators.aggregate_s"]),
    ("indicators.regional_summary_s", "s", BUCKETS["indicators.regional_summary_s"]),
    ("indicators.snapshot_diff_s", "s", BUCKETS["indicators.snapshot_diff_s"]),
    ("indicators.diff_cells", "count", ("indicators.snapshot_diff",)),
    ("report.table_build_s", "s", BUCKETS["report.table_build_s"]),
    ("report.render_s", "s", BUCKETS["report.render_s"]),
    ("report.render_calls", "count", BUCKETS["report.render_s"]),
    ("report.rows_rendered", "count", ("report.render_table",)),
    ("report.bytes_rendered", "bytes", ("report.render_table",)),
    ("report.svg_s", "s", BUCKETS["report.svg_s"]),
    ("report.svg_calls", "count", BUCKETS["report.svg_s"]),
    ("cli.analyze_s", "s", ()),
    ("cli.diff_s", "s", ()),
    ("cli.validate_s", "s", ()),
    ("cli.self_s", "s", ()),
    ("cli.files_written", "count", ()),
    ("cli.bytes_written", "bytes", ()),
    ("cli.import_s", "s", ()),
    ("trace.spans", "count", ()),
    ("trace.wall_s", "s", ()),
    ("trace.overhead_s", "s", ()),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


# Counting hooks: called with the call's arguments before it runs, they
# return a function that takes its result.

def _count_load_publications(tally, args, kwargs):
    diagnostics = _arg(args, kwargs, 2, "diagnostics")
    before = len(diagnostics) if diagnostics is not None else 0

    def after(result):
        with open(_arg(args, kwargs, 0, "path"), encoding="utf-8") as handle:
            tally["lines_read"] += sum(1 for line in handle if line.strip())
        tally["rejected"] += len(diagnostics) - before if diagnostics is not None else 0
        tally["in_window"] += len(result)
    return after


def _count_normalize(tally, args, kwargs):
    tally["normalize_calls"] += 1
    tally.distinct.add(args[0] if args else kwargs.get("raw"))
    return None


def _count_resolutions(tally, args, kwargs):
    def after(result):
        tally["affiliations"] += len(result)
        for resolution in result:
            tally[resolution.confidence] += 1
    return after


def _count_attributions(tally, args, kwargs):
    def after(result):
        tally["authors"] += len(_arg(args, kwargs, 0, "pub").authors)
        tally["attributed"] += len({a.author_index for a in result if a.sds is not None})
    return after


def _count_len(key):
    def hook(tally, args, kwargs):
        def after(result):
            tally[key] += len(result)
        return after
    return hook


def _count_render(tally, args, kwargs):
    def after(result):
        tally["rows_rendered"] += len(_arg(args, kwargs, 0, "table").rows)
        tally["bytes_rendered"] += len(result.encode("utf-8"))
    return after


HOOKS = {
    "ingest.load_publications": _count_load_publications,
    "ingest.filter_hard_sciences": _count_len("retained"),
    "resolve.normalize_name": _count_normalize,
    "resolve.normalize_initials": _count_normalize,
    "resolve.resolve_publication": _count_resolutions,
    "resolve.attribute_authors": _count_attributions,
    "collab.derive_ue_events": _count_len("ue_events"),
    "collab.derive_sds_events": _count_len("sds_events"),
    "indicators.snapshot_diff": _count_len("diff_cells"),
    "report.render_table": _count_render,
}


class Tally(Counter):
    """Counts taken at span boundaries, plus the distinct normalize inputs."""

    def __init__(self) -> None:
        super().__init__()
        self.distinct: set = set()


class Tracer:
    """Spans in flat arrays: name index, command id, parent id, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.name_of = array("l")
        self.command_of = array("l")
        self.parent_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.hook_time: defaultdict[int, float] = defaultdict(float)
        self.stack = [-1]
        self.command = 0
        self.tally = Tally()

    def _name(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def wrap(self, name: str, fn, hook=None):
        index = self._name(name)
        clock = time.perf_counter
        tally = self.tally

        def traced(*args, **kwargs):
            begin = clock()
            after = hook(tally, args, kwargs) if hook is not None else None
            parent = self.stack[-1]
            span = len(self.starts)
            self.name_of.append(index)
            self.command_of.append(self.command)
            self.parent_of.append(parent)
            self.ends.append(0.0)
            self.stack.append(span)
            start = clock()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.ends[span] = end
                self.stack.pop()
            if after is not None:
                after(result)
            self.hook_time[parent] += (start - begin) + (clock() - end)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's and the tracer's own time."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for span, parent in enumerate(self.parent_of):
            if parent >= 0:
                own[parent] -= self.ends[span] - self.starts[span]
        for span, spent in self.hook_time.items():
            if span >= 0:
                own[span] -= spent
        return own

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,command,parent,name,start,end\n")
            for span in range(len(self.starts)):
                handle.write(
                    f"{span},{self.command_of[span]},{self.parent_of[span]},"
                    f"{self.names[self.name_of[span]]},{self.starts[span]:.9f},{self.ends[span]:.9f}\n"
                )


def _resolve_target(module_name: str, attr: str):
    """(owner, attribute name, object) of a target; the object is None if gone."""
    try:
        owner = importlib.import_module(f"collabmarket.{module_name}")
    except ImportError:
        return None, None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, leaf, getattr(owner, leaf, None)


def install(tracer: Tracer) -> tuple[list[str], list[tuple[object, str, object]]]:
    """Wrap every target wherever a collabmarket module binds it.

    Returns the span names whose function is missing, and the
    (owner, attribute, original) triples that undo the wrapping.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("collabmarket") and m is not None]
    missing = []
    undo = []
    for name, (module_name, attr) in TARGETS.items():
        owner, leaf, original = _resolve_target(module_name, attr)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, HOOKS.get(name))
        if isinstance(owner, type):
            # A classmethod: the bound method stands in for it on the class.
            undo.append((owner, leaf, vars(owner)[leaf]))
            setattr(owner, leaf, staticmethod(wrapped))
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    return missing, undo


def absent_metrics(missing: list[str]) -> list[str]:
    """Metrics all of whose span names lack a function to wrap."""
    return [name for name, _, needs in METRICS if needs and all(n in missing for n in needs)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, import_s: float, files: int, nbytes: int) -> dict[str, float]:
    own = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, seconds in enumerate(own):
        name = tracer.names[tracer.name_of[span]]
        by_name[name] += seconds
        total[name] += tracer.ends[span] - tracer.starts[span]
        calls[name] += 1
    t = tracer.tally
    metrics = {bucket: sum(by_name[n] for n in names) for bucket, names in BUCKETS.items()}
    metrics.update({key: float(sum(calls[n] for n in BUCKETS[bucket])) for key, bucket in CALLS.items()})
    metrics.update({f"cli.{c}_s": total[f"cli.{c}"] for c in COMMANDS})
    metrics["cli.self_s"] = sum(by_name[f"cli.{c}"] for c in COMMANDS)
    affiliations = t["affiliations"]
    metrics.update({
        "ingest.lines_read": float(t["lines_read"]),
        "ingest.rejected_ratio": _ratio(t["rejected"], t["lines_read"]),
        "ingest.retained_ratio": _ratio(t["retained"], t["in_window"]),
        "resolve.normalize_calls": float(t["normalize_calls"]),
        "resolve.normalize_distinct_ratio": _ratio(len(t.distinct), t["normalize_calls"]),
        "resolve.affiliations": float(affiliations),
        "resolve.exact_ratio": _ratio(t["exact"], affiliations),
        "resolve.alias_ratio": _ratio(t["alias"], affiliations),
        "resolve.unresolved_ratio": _ratio(t["unresolved"], affiliations),
        "resolve.authors": float(t["authors"]),
        "resolve.attributed_ratio": _ratio(t["attributed"], t["authors"]),
        "collab.ue_events": float(t["ue_events"]),
        "collab.sds_events": float(t["sds_events"]),
        "indicators.diff_cells": float(t["diff_cells"]),
        "report.rows_rendered": float(t["rows_rendered"]),
        "report.bytes_rendered": float(t["bytes_rendered"]),
        "cli.files_written": float(files),
        "cli.bytes_written": float(nbytes),
        "cli.import_s": import_s,
        "trace.spans": float(len(own)),
    })
    return metrics


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    cli = importlib.import_module("collabmarket.cli")
    import_s = time.perf_counter() - start

    tracer = Tracer()
    missing, _ = install(tracer)
    absent = absent_metrics(missing)
    rcs = []
    files = nbytes = 0
    counting = 0.0
    for number, command in enumerate(plan["commands"], start=1):
        tracer.command = number
        run = tracer.wrap(f"cli.{command['name']}", cli.main)
        log = Path(command["log"])
        with open(log.with_suffix(".out"), "w", encoding="utf-8") as out, \
                open(log.with_suffix(".err"), "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rcs.append(run(command["argv"]))
        began = time.perf_counter()
        written = [p for p in Path(command["out"]).rglob("*") if p.is_file()]
        files += len(written)
        nbytes += sum(p.stat().st_size for p in written)
        counting += time.perf_counter() - began

    finished = time.perf_counter()
    metrics = layer_metrics(tracer, import_s, files, nbytes)
    for name in absent:
        metrics.pop(name, None)
    tracer.write_spans(Path(plan["spans"]))
    result = {"rcs": rcs, "metrics": metrics, "absent": absent, "missing_functions": missing,
              "post_s": counting + time.perf_counter() - finished}
    Path(plan["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
