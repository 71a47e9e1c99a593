#!/usr/bin/env python3
"""Mutation checks that the test suite must keep catching.

Each entry names a file under ``src/collabmarket``, an exact source-text edit
and the tests that must fail once the edit is made. For each entry the script
copies ``src/`` to a temporary directory, applies the edit there, and runs
only the named tests against the copy, with ``--hypothesis-seed=0`` and an
empty Hypothesis example database. It fails when a named test passes (the
mutant survived), when the edit no longer applies (its source text is not in
the file exactly once), or when the tests imported ``collabmarket`` from
anywhere but the copy. It prints each mutant's kill time.

    python scripts/mutants.py             # every entry
    python scripts/mutants.py NAME ...    # the named entries
    python scripts/mutants.py --list      # the names

A named test "fails" when it, or one of its parametrizations or methods,
fails. Adding an oracle means adding the mutant that shows it works; a
mutant that survives is a missing test, or an edit that changes nothing
observable, and is never weakened to pass.

The script uses the standard library only. Run from the repository root, it
starts pytest in a child and loads this same file there as a pytest plugin
(``-p mutants``): the two hooks at the end record which tests failed and
where ``collabmarket`` came from.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/collabmarket
    old: str
    new: str
    tests: tuple[str, ...]


NORMALIZE = "tests/test_resolve.py"
RESPELLING = "tests/test_pipeline.py::test_respelling_the_names_leaves_the_outputs_unchanged"
EVENT_TABLES = (
    "tests/test_event_tables.py::test_demo_tables_agree_with_its_event_files",
    "tests/test_event_tables.py::test_generated_tables_agree_with_their_event_files",
)

# Two check blocks each, for the mutants that swap their order.
_TYPE_CHECK = """\
                    for name, value in zip(compared, values):
                        if type(value) not in _NUMBER_OR_NULL:
                            kind = _JSON_TYPE_NAMES[type(value)]
                            raise DiffError(
                                f"{path}:{line_no}: {name} is {kind}, expected a number or null"
                            )
"""
_FINITE_CHECK = """\
                    for name, value in zip(compared, values):
                        if value is not None and not _is_finite(value):
                            raise DiffError(f"{path}:{line_no}: {name} is not a finite number")
"""
_UNIVERSITY_CHECK = """\
                university = universities.get(university_id)
                if university is None:
                    org = by_id.get(university_id)
                    if org is None:
                        raise ReferentialError(
                            f"{path}:{line_no}: roster row for {surname!r} references "
                            f"unknown university_id {university_id!r}"
                        )
                    raise ReferentialError(
                        f"{path}:{line_no}: org {university_id!r} is a {org.kind}, "
                        "roster entries must point at universities"
                    )
"""
_SECTOR_CHECK = """\
                sector = sectors.get(sds)
                if sector is None:
                    raise ReferentialError(f"{path}:{line_no}: sds {sds!r} is not in the taxonomy")
                if sector[1] != uda:
                    raise ReferentialError(
                        f"{path}:{line_no}: sds {sds!r} belongs to uda {sector[1]!r}, row says {uda!r}"
                    )
"""

MUTANTS = (
    Mutant(
        "code-point table without NFKD",
        "resolve.py",
        'decomposed = unicodedata.normalize("NFKD", chr(code))',
        "decomposed = chr(code)",
        (f"{NORMALIZE}::test_marks_reordered_across_code_points_match_the_reference",
         f"{NORMALIZE}::test_every_code_point_matches_the_per_character_reference",
         f"{NORMALIZE}::test_one_pass_is_a_fixpoint_on_every_code_point"),
    ),
    Mutant(
        "ASCII name table without the case fold",
        "resolve.py",
        "_ASCII_NAME = {code: _NAME_TABLE[code] for code in range(128)}",
        '_ASCII_NAME = {code: chr(code) if chr(code).isalnum() else " " for code in range(128)}',
        (RESPELLING,),
    ),
    Mutant(
        "name rule keeps combining marks",
        "resolve.py",
        "    if unicodedata.combining(ch):\n        return None\n",
        "    if unicodedata.combining(ch):\n        return ch\n",
        (RESPELLING,),
    ),
    Mutant(
        "name rule turns combining marks into spaces",
        "resolve.py",
        "    if unicodedata.combining(ch):\n        return None\n",
        '    if unicodedata.combining(ch):\n        return " "\n',
        (RESPELLING,),
    ),
    Mutant(
        "ASCII initials table without uppercasing",
        "resolve.py",
        "_ASCII_INITIALS = {code: _INITIALS_TABLE[code] for code in range(128)}",
        "_ASCII_INITIALS = {code: chr(code) if chr(code).isalpha() else None for code in range(128)}",
        (RESPELLING,),
    ),
    Mutant(
        "SDS export drops one event the cube keeps",
        "cli.py",
        "                sds_sink.extend(sds)\n",
        "                sds_sink.extend(sds[1:] if retained == 1 else sds)\n",
        EVENT_TABLES,
    ),
    Mutant(
        "SDS cube keyed by the demand region at both ends",
        "cli.py",
        "flows[supply_region, e_region] += 1",
        "flows[e_region, e_region] += 1",
        EVENT_TABLES,
    ),
    Mutant(
        "UE cube keyed by the demand region at both ends",
        "cli.py",
        "ue_flows[u_region, e_region] += 1",
        "ue_flows[e_region, e_region] += 1",
        EVENT_TABLES,
    ),
    Mutant(
        "_warn without the empty-window line",
        "cli.py",
        "    if not result.publications:\n"
        '        print("warning: no publications fall inside the configured window", file=sys.stderr)\n',
        "",
        ("tests/test_cli.py::test_run_commands_print_the_warnings_of_validate",),
    ),
    Mutant(
        "orphans taken as not exact",
        "cli.py",
        "        if not (exact or alias):\n            orphans.append(pub.pub_id)\n",
        "        if not exact:\n            orphans.append(pub.pub_id)\n",
        ("tests/test_pipeline.py::test_one_pass_equals_the_per_publication_reference",),
    ),
    Mutant(
        "the highest university id wins under ambiguity = all",
        "cli.py",
        "for university_id, sds in sorted(candidates):",
        "for university_id, sds in sorted(candidates, reverse=True):",
        ("tests/test_pipeline.py::test_one_pass_equals_the_per_publication_reference",),
    ),
    Mutant(
        "a roster row outside its active years is accepted",
        "cli.py",
        "if university_id in universities and year in years",
        "if university_id in universities",
        ("tests/test_resolve.py::TestAttribution::test_year_outside_active_years_blocks",
         "tests/test_pipeline.py::test_one_pass_equals_the_per_publication_reference"),
    ),
    Mutant(
        "diff's reader checks finiteness before type",
        "cli.py",
        _TYPE_CHECK + _FINITE_CHECK,
        _FINITE_CHECK + _TYPE_CHECK,
        ("tests/test_snapshot_reader.py::test_reader_matches_the_reference_on_damaged_tables",),
    ),
    Mutant(
        "the roster checks the sector before the university",
        "ingest.py",
        _UNIVERSITY_CHECK + _SECTOR_CHECK,
        _SECTOR_CHECK + _UNIVERSITY_CHECK,
        ("tests/test_ingest.py::test_roster_load_matches_dict_reader_reference",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Make the mutant's edit in the copy under ``src``, or raise
    ``ValueError`` when its source text is not there exactly once."""
    path = src / "collabmarket" / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"the edit no longer applies: its text occurs {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def failed_under(test: str, failed: list[str]) -> bool:
    return any(node == test or node.startswith((test + "[", test + "::")) for node in failed)


def run(mutant: Mutant) -> str | None:
    """Run one mutant; return None when every named test failed, else what
    went wrong."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        try:
            apply(mutant, src)
        except ValueError as exc:
            return str(exc)
        record = Path(tmp) / "record.json"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((str(src), str(HERE))),
            HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / "hypothesis"),
            MUTANTS_RECORD=str(record),
        )
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants",
                   "--hypothesis-seed=0", *mutant.tests]
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1) or not record.exists():
            return f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        seen = json.loads(record.read_text(encoding="utf-8"))
        origin = seen["collabmarket"]
        if origin is None or not Path(origin).resolve().is_relative_to(src.resolve()):
            return f"the tests imported collabmarket from {origin}, not from the mutated copy"
        survived = [test for test in mutant.tests if not failed_under(test, seen["failed"])]
        if survived:
            return "survived: " + ", ".join(survived) + " passed"
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--list"]:
        print("\n".join(mutant.name for mutant in MUTANTS))
        return 0
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"mutants: no entry named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not argv or mutant.name in argv]
    problems = 0
    for mutant in chosen:
        start = time.perf_counter()
        problem = run(mutant)
        seconds = time.perf_counter() - start
        if problem is None:
            print(f"killed   {seconds:6.1f} s  {mutant.name}", flush=True)
        else:
            problems += 1
            print(f"FAILED   {seconds:6.1f} s  {mutant.name}: {problem}", flush=True)
    print(f"{len(chosen) - problems} of {len(chosen)} mutants killed")
    return 1 if problems else 0


# The pytest plugin half, loaded in the child by ``-p mutants``.
_FAILED: set[str] = set()


def pytest_runtest_logreport(report) -> None:
    if report.failed:
        _FAILED.add(report.nodeid)


def pytest_sessionfinish(session) -> None:
    package = sys.modules.get("collabmarket")
    Path(os.environ["MUTANTS_RECORD"]).write_text(
        json.dumps({"failed": sorted(_FAILED), "collabmarket": getattr(package, "__file__", None)}),
        encoding="utf-8",
    )


if __name__ == "__main__":
    sys.exit(main())
