#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the collabmarket batch pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus-heavy --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 60     # every workload, one table
    python3 perfbench/run.py --smoke                         # tiny corpora, self-check

Each run generates its corpus from ``--seed`` (see ``corpus.py``), then
measures for ``--seconds``. The load model is a closed loop with one client:
one iteration runs the workload's commands one after another, each in a fresh
interpreter (``python -m collabmarket.cli ...``), so at most one process of
the program runs at a time. Interpreter start, imports and registry load
therefore stay inside every timed iteration; ``setup_s`` reports them again on
their own. Each round runs a set-up probe, a fixed reference task
(``reference.py``) and one iteration, so that drift on a shared machine hits
all three alike; with ``--workload all`` the workload order rotates from one
round to the next. CPU time and peak RSS of every process come from its own
``wait4``.

Every iteration is checked: exit codes, a digest of every output file (the
first iteration sets the reference digest; every iteration writes into the
same empty directories, so the absolute paths in ``effective_config.txt``
match) and the oracle totals the generator planted. A failed check fails the
iteration, which ``ok_ratio`` counts.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json, medians over the iterations; with ``--trace 1`` it
carries the per-layer metrics of one traced iteration (see ``tracer.py``) and
the tracing overhead. The lines before it give every metric with its unit,
sample count and tail percentile, the raw times, the host facts and the
oracle totals.

Corpora, the last outputs, logs and the span file of the last traced
iteration stay in ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5

# Why each workload exists: the layers it loads and the optimizations it
# exercises or bypasses.
WORKLOADS = {
    "corpus-heavy": "analyze; parse, normalize, resolve, attribute, derive and sort dominate, "
                    "and affiliation and author strings repeat (a memo pays here)",
    "snapshot-cycle": "analyze on a small corpus with all 370 sectors active, then diff against "
                      "the previous period: indicators, rendering, file writes and the read-back",
    "validate-dirty": "validate; malformed lines take the collecting-diagnostics path and resolve "
                      "sees mostly one-off strings (a memo costs here)",
}

# The end-to-end metrics BENCHMARK.json gates, then those only reported.
# Raw times on a shared 2-vCPU virtual machine were seen to move by up to
# 1.6x for minutes at a time, so the gated times are relative: an
# iteration's time divided by the median time of the (up to) four runs of a
# fixed reference task around it (reference.py, two before the iteration and
# two after).
END_TO_END = (
    ("wall_rel", "ratio"),
    ("cpu_rel", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
)
REPORTED = END_TO_END + (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("pubs_per_s", "1/s"),
    ("reference_s", "s"),
)
PER_ITERATION = ("wall_s", "cpu_s", "pubs_per_s", "peak_rss_mb", "wall_rel", "cpu_rel")

# A fresh interpreter imports the CLI, loads the registries and builds the
# resolver: what every command pays before it reads a publication.
SETUP_PROBE = (
    "import sys, collabmarket.cli as cli\n"
    "registry = cli.load_registries(*sys.argv[1:4], sys.argv[4].split('|'))\n"
    "cli.Resolver.build(registry)\n"
)


def shapes(smoke: bool) -> dict:
    from corpus import Shape

    # Mostly one-off junk enterprises and external co-authors, uniform choice
    # of roster co-authors, 5% of publications without any resolvable
    # affiliation and 2.5% of lines malformed or invalid.
    dirty = dict(unresolvable_share=0.7, junk_pool=0, external_pool=0, author_skew=1.0,
                 externals=(1, 1, 2, 3), orphan_share=0.05, invalid_share=0.025)
    if smoke:
        return {
            "corpus-heavy": Shape(450, 20, 60, 600),
            "snapshot-cycle": Shape(420, 20, 40, 500),
            "validate-dirty": Shape(500, 20, 60, 600, **dirty),
        }
    return {
        "corpus-heavy": Shape(12_000, 90, 2000, 20_000),
        "snapshot-cycle": Shape(4000, 90, 300, 8000),
        "validate-dirty": Shape(16_000, 90, 2000, 20_000, **dirty),
    }


@dataclass
class Command:
    name: str
    args: list[str]  # after ``python -m collabmarket.cli``
    out: Path  # directory the command writes, moved aside before each iteration


@dataclass
class Bench:
    """One prepared workload and the samples measured on it."""

    name: str
    dir: Path
    commands: list[Command]
    expected: object  # corpus.Expected of the measured corpus
    lines: int  # publication lines read by one iteration
    diff_cells: int  # cells the diff must compare, 0 without a diff
    probe_args: list[str]
    reference_digest: str | None = None
    iterations: list[dict] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    reference: list[dict] = field(default_factory=list)
    set_aside: int = 0
    load: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], log: Path, cwd: Path) -> dict:
    """Run one process to completion; its resources come from its own wait4.

    Output goes to files, never to a pipe nobody drains.
    """
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
    }


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "collabmarket.cli", *args]


def clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)


def digest(dirs: list[Path]) -> str:
    """Hash of every file under the output directories, names included."""
    h = hashlib.sha256()
    for base in dirs:
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(f"{base.name}/{path.relative_to(base).as_posix()}\0".encode())
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def prepare(name: str, seed: int, smoke: bool) -> Bench:
    """Generate the workload's inputs; for snapshot-cycle also the previous period."""
    import corpus

    shape = shapes(smoke)[name]
    wdir = WORK / ("smoke" if smoke else "runs") / name
    clear(wdir)
    cdir = wdir / "corpus"
    cdir.mkdir(parents=True)
    (wdir / "logs").mkdir()
    rng = random.Random(f"{name}:{seed}")
    registries = corpus.Registries(rng, shape)
    files = registries.write(cdir)
    files["publications"] = cdir / "publications.jsonl"
    expected = corpus.write_publications_file(rng, registries, shape, files["publications"], "P")
    corpus.write_config(cdir / "run.cfg", files)
    probe_args = [str(files[k]) for k in ("organizations", "roster", "taxonomy")]
    probe_args.append("|".join(corpus.REGIONS))

    out = wdir / "out"
    command = "validate" if name == "validate-dirty" else "analyze"
    commands = [Command(command, [command, "--config", str(cdir / "run.cfg"), "--out", str(out)], out)]
    diff_cells = 0
    if name == "snapshot-cycle":
        # The previous period: same registries, publications from another seed.
        prev_rng = random.Random(f"{name}:{seed}:previous")
        prev_files = dict(files, publications=cdir / "previous.jsonl")
        previous = corpus.write_publications_file(prev_rng, registries, shape, prev_files["publications"], "Q")
        corpus.write_config(cdir / "previous.cfg", prev_files)
        prev_out = wdir / "previous_out"
        log = wdir / "logs" / "previous"
        result = run_child(cli_argv(["analyze", "--config", str(cdir / "previous.cfg"), "--out", str(prev_out)]),
                           log, wdir)
        problems = check_analyze(prev_out, previous, result["rc"], log.with_suffix(".err"))
        if problems:
            raise SystemExit(f"perfbench: previous snapshot set-up failed: {problems}")
        diff_out = wdir / "diff"
        commands.append(Command("diff", ["diff", "--t0", str(prev_out), "--t1", str(out), "--out", str(diff_out)],
                                diff_out))
        diff_cells = len(corpus.REGIONS) * len(expected.active_sds | previous.active_sds)
    return Bench(name, wdir, commands, expected, expected.lines, diff_cells, probe_args)


def _data_rows(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle) - 1


def check_analyze(out: Path, expected, rc: int, err: Path) -> list[str]:
    if rc != 0:
        return [f"analyze exited {rc}: {err.read_text(errors='replace')[-300:]}"]
    problems = []
    totals = json.loads((out / "snapshot.json").read_text(encoding="utf-8"))["totals"]
    if totals != expected.totals():
        problems.append(f"snapshot totals {totals} != oracle {expected.totals()}")
    for fname, count in (("events_ue.csv", expected.ue_events), ("events_sds.csv", expected.sds_events),
                         ("resolution_report.csv", expected.in_window)):
        rows = _data_rows(out / fname)
        if rows != count:
            problems.append(f"{fname} has {rows} rows, oracle says {count}")
    return problems


VALIDATE_SUMMARY = re.compile(
    r"^validate: (\d+) publications read, (\d+) retained by the collaboration filter, "
    r"(\d+) university-enterprise events, (\d+) sector events$", re.M)


def check_validate(out: Path, expected, rc: int, err: Path) -> list[str]:
    text = err.read_text(encoding="utf-8", errors="replace")
    want_rc = 1 if expected.diagnostics else 0
    problems = [] if rc == want_rc else [f"validate exited {rc}, expected {want_rc}"]
    match = VALIDATE_SUMMARY.search(text)
    want = (expected.in_window, expected.retained, expected.ue_events, expected.sds_events)
    if match is None or tuple(int(g) for g in match.groups()) != want:
        problems.append(f"validate summary {match and match.group(0)!r} != oracle {want}")
    shown = sum(1 for line in text.splitlines() if line.startswith("error: "))
    more = re.search(r"^\.\.\. and (\d+) more$", text, re.M)
    diagnostics = shown + (int(more.group(1)) if more else 0)
    if diagnostics != expected.diagnostics:
        problems.append(f"{diagnostics} diagnostics, oracle says {expected.diagnostics}")
    rows = _data_rows(out / "resolution_report.csv")
    if rows != expected.in_window:
        problems.append(f"resolution_report.csv has {rows} rows, oracle says {expected.in_window}")
    return problems


def check_diff(out: Path, cells: int, rc: int, err: Path) -> list[str]:
    if rc != 0:
        return [f"diff exited {rc}: {err.read_text(errors='replace')[-300:]}"]
    match = re.search(r"^diff: (\d+) cells compared", err.read_text(encoding="utf-8"), re.M)
    problems = [] if match and int(match.group(1)) == cells else \
        [f"diff says {match and match.group(0)!r}, oracle says {cells} cells"]
    rows = _data_rows(out / "diff_report.csv")
    if rows != 4 * cells:
        problems.append(f"diff_report.csv has {rows} rows, oracle says {4 * cells}")
    return problems


def check_command(bench: Bench, command: Command, rc: int, err: Path) -> list[str]:
    try:
        if command.name == "analyze":
            return check_analyze(command.out, bench.expected, rc, err)
        if command.name == "validate":
            return check_validate(command.out, bench.expected, rc, err)
        return check_diff(command.out, bench.diff_cells, rc, err)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{command.name} outputs unreadable: {exc!r}"]


def check_digest(bench: Bench) -> list[str]:
    value = digest([c.out for c in bench.commands])
    if bench.reference_digest is None:
        bench.reference_digest = value
    if value == bench.reference_digest:
        return []
    return [f"output digest {value[:12]} != reference {bench.reference_digest[:12]}"]


def probe_setup(bench: Bench) -> float:
    log = bench.dir / "logs" / "setup"
    result = run_child([sys.executable, "-c", SETUP_PROBE, *bench.probe_args], log, bench.dir)
    if result["rc"] != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {log.with_suffix('.err').read_text()[-300:]}")
    return result["wall"]


def set_aside(bench: Bench) -> Path:
    """A fresh path under ``retired/``, which is deleted only when the run ends.

    No timed process then shares the disk with the deletion of the two
    thousand files an iteration writes.
    """
    bench.set_aside += 1
    (bench.dir / "retired").mkdir(exist_ok=True)
    return bench.dir / "retired" / str(bench.set_aside)


def retire(bench: Bench) -> None:
    for command in bench.commands:
        if command.out.exists():
            command.out.rename(set_aside(bench))


def run_reference(bench: Bench) -> dict:
    return run_child([sys.executable, str(HERE / "reference.py"), str(set_aside(bench))],
                     bench.dir / "logs" / "reference", bench.dir)


def iterate(bench: Bench) -> dict:
    """One untraced iteration: every command once, then the checks."""
    retire(bench)
    logs = bench.dir / "logs"
    results = [run_child(cli_argv(c.args), logs / c.name, bench.dir) for c in bench.commands]
    problems = []
    for command, result in zip(bench.commands, results):
        problems += check_command(bench, command, result["rc"], logs / f"{command.name}.err")
    problems += check_digest(bench)
    wall = sum(r["wall"] for r in results)
    return {
        "wall_s": wall,
        "cpu_s": sum(r["cpu"] for r in results),
        "pubs_per_s": bench.lines / wall,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "ok": not problems,
        "problems": problems,
    }


def traced(bench: Bench) -> dict:
    """One traced iteration in a fresh interpreter; returns per-layer metrics."""
    retire(bench)
    tdir = bench.dir / "trace"
    clear(tdir)
    tdir.mkdir()
    plan = {
        "commands": [{"name": c.name, "argv": c.args, "out": str(c.out), "log": str(tdir / c.name)}
                     for c in bench.commands],
        "spans": str(tdir / "spans.csv"),
        "result": str(tdir / "result.json"),
    }
    (tdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    run = run_child([sys.executable, str(HERE / "tracer.py"), str(tdir / "plan.json")], tdir / "tracer", bench.dir)
    if run["rc"] != 0:
        return {"ok": False, "problems": [f"tracer exited {run['rc']}: {(tdir / 'tracer.err').read_text()[-500:]}"],
                "metrics": {}, "absent": []}
    result = json.loads((tdir / "result.json").read_text(encoding="utf-8"))
    problems = []
    for command, rc in zip(bench.commands, result["rcs"]):
        problems += check_command(bench, command, rc, tdir / f"{command.name}.err")
    problems += check_digest(bench)
    metrics = result["metrics"]
    # The traced iteration ends with its last command, before the tracer
    # counts output files, computes metrics and writes the spans out.
    metrics["trace.wall_s"] = run["wall"] - result["post_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(i["wall_s"] for i in bench.iterations)
    return {"ok": not problems, "problems": problems, "metrics": metrics, "absent": result["absent"]}


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"p{p:g} {q:.4f}"
    return f"no tail percentile (n={n} < 20)"


def summarize(bench: Bench) -> dict[str, float]:
    its = bench.iterations
    values = {key: statistics.median(i[key] for i in its) for key in PER_ITERATION}
    values["setup_s"] = statistics.median(bench.setup)
    values["ok_ratio"] = sum(i["ok"] for i in its) / len(its)
    values["reference_s"] = statistics.median(r["wall"] for r in bench.reference)
    return values


def report(bench: Bench, values: dict, trace_result: dict | None) -> None:
    samples = {key: [i[key] for i in bench.iterations] for key in PER_ITERATION}
    samples["setup_s"] = bench.setup
    samples["reference_s"] = [r["wall"] for r in bench.reference]
    print(f"== {bench.name}: {len(bench.iterations)} iterations, {bench.lines} publication lines each")
    print(f"   {WORKLOADS[bench.name]}")
    for key, unit in REPORTED:
        spread = f"n={len(samples[key])}  {tail(samples[key])}" if key in samples else f"n={len(bench.iterations)}"
        print(f"  {key:<14} {values[key]:>12.4f} {unit:<6} median  {spread}")
    for i, it in enumerate(bench.iterations):
        for problem in it["problems"]:
            print(f"  iteration {i}: {problem}")
    if trace_result is not None:
        from tracer import METRICS

        for problem in trace_result["problems"]:
            print(f"  traced iteration: {problem}")
        for name, unit, _ in METRICS:
            value = trace_result["metrics"].get(name)
            shown = "absent" if name in trace_result["absent"] else "missing" if value is None else f"{value:.6g}"
            print(f"  {name:<34} {shown:>12} {unit}")
    print(json.dumps({
        "workload": bench.name,
        "load": bench.load,
        "oracle": bench.expected.summary(),
        "samples": samples,
        "absent": trace_result["absent"] if trace_result else [],
    }))


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def measure(benches: list[Bench], seconds: float) -> None:
    """Rounds of probe, reference and iteration per workload, rotating the order."""
    for bench in benches:
        probe_setup(bench)  # warm-up: bytecode caches, file cache
        bench.load["before"] = os.getloadavg()
    start = time.perf_counter()
    rounds = 0
    round_s = 0.0
    # At least one round; after it, start no round that the last one says
    # would end past the deadline.
    while rounds == 0 or time.perf_counter() - start + round_s <= seconds:
        began = time.perf_counter()
        shift = rounds % len(benches)
        for bench in benches[shift:] + benches[:shift]:
            bench.setup.append(probe_setup(bench))
            bench.reference.append(run_reference(bench))
            bench.iterations.append(iterate(bench))
        round_s = time.perf_counter() - began
        rounds += 1
    for bench in benches:
        bench.reference.append(run_reference(bench))
        refs = bench.reference  # refs[i] ran just before iteration i, refs[-1] after the last
        for i, it in enumerate(bench.iterations):
            near = refs[max(0, i - 1):i + 3]
            it["wall_rel"] = it["wall_s"] / statistics.median(r["wall"] for r in near)
            it["cpu_rel"] = it["cpu_s"] / statistics.median(r["cpu"] for r in near)
        while len(bench.setup) < SETUP_SAMPLES:
            bench.setup.append(probe_setup(bench))
        bench.load["after"] = os.getloadavg()


def smoke_check(traces: dict[str, dict]) -> bool:
    """Every per-layer metric is reported or marked absent on every workload."""
    from tracer import METRICS

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    ok = True
    for name, result in traces.items():
        reported = set(result["metrics"]) | set(result["absent"])
        missing = [m for m in (*declared, *(n for n, _, _ in METRICS)) if m not in reported]
        if missing:
            print(f"smoke: {name} lacks per-layer metrics {missing}")
            ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, one round and a traced iteration per workload; "
                             "checks the oracle and every per-layer metric")
    args = parser.parse_args(argv)

    if not (SRC / "collabmarket" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'collabmarket'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"host": host_facts(), "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    benches = [prepare(name, args.seed, args.smoke) for name in names]
    measure(benches, 0 if args.smoke else args.seconds)
    traces = {b.name: traced(b) for b in benches} if args.trace or args.smoke else {}
    for bench in benches:
        clear(bench.dir / "retired")

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for bench in benches:
        values = summarize(bench)
        trace_result = traces.get(bench.name)
        report(bench, values, trace_result)
        attempted += len(bench.iterations)
        failed += sum(not i["ok"] for i in bench.iterations)
        if trace_result is not None:
            attempted += 1
            failed += not trace_result["ok"]
        prefix = "" if len(benches) == 1 else f"{bench.name}."
        if args.trace:
            from tracer import METRICS

            # An absent layer reads 0 here and is listed under "absent" above.
            for name, unit, _ in METRICS:
                metrics[prefix + name] = {"value": trace_result["metrics"].get(name, 0.0), "unit": unit}
        else:
            for key, unit in END_TO_END:
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    correct = failed == 0 and (smoke_check(traces) if args.smoke else True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if args.smoke and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
