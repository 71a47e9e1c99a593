#!/usr/bin/env python3
"""Every executable line of ``src/collabmarket`` runs under tier-1, or is on
the allowlist below with its reason.

Runs the tier-1 suite in this process under ``sys.settrace`` and takes the
executable lines of each ``src/collabmarket/*.py`` from ``co_lines()`` of
its compiled code objects. A Python child that a test starts through
``subprocess`` with ``sys.executable`` (the CLI tests' ``python -m
collabmarket.cli``, the benchmark's smoke run and its children) is started
under this script instead and traced the same way; a child this script
cannot start so is named as untraced. Fails when a line that did not run is
not allowlisted, when an allowlist entry covers no unrun line, or when the
suite itself fails.

    python scripts/line_coverage.py                 # tier-1, from the repository root
    python scripts/line_coverage.py PYTEST_ARGS...  # a part of it (fails: lines go unrun)

Standard library only, apart from the pytest that it runs in process.
Hypothesis deadlines are off for the run: tracing slows every example.
"""

from __future__ import annotations

import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "collabmarket"
SCRIPT = str(Path(__file__).resolve())

# "module.py:scope" -> reason. A scope is a dotted path of code-object
# names (``Class.method``, ``function.<genexpr>``) and covers every scope
# nested in it.
STAGED = "the staged chain: no command or oracle calls it, and it stays only while the " \
         "benchmark's tracer wraps it by name (ROADMAP item 7 deletes it)"
ALLOWLIST = {
    "resolve.py:attribute_authors": STAGED,
    "resolve.py:resolution_report_rows": STAGED,
    "ingest.py:load_publications": STAGED,
    "ingest.py:partition_resolvable": STAGED,
    "ingest.py:filter_hard_sciences": STAGED,
    "collab.py:events_by_sds": STAGED,
}


def executable_lines(path: Path) -> dict[int, str]:
    """Each line that some code object of ``path`` maps an instruction to,
    with the innermost scope that holds it."""
    lines: dict[int, str] = {}

    def walk(code: types.CodeType, scope: str) -> None:
        for _, _, line in code.co_lines():
            if line is not None:
                lines[line] = scope
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, f"{scope}.{const.co_name}" if scope else const.co_name)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")
    return lines


class Collector:
    """The lines run in ``src/collabmarket``, by file name."""

    def __init__(self) -> None:
        self.ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}
        self.untraced: list[list[str]] = []
        self._local: dict[str, object] = {}

    def _tracer_for(self, filename: str):
        if filename not in self._local:
            lines = self.ran.get(os.path.realpath(filename))

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            self._local[filename] = None if lines is None else (lines, local)
        return self._local[filename]

    def trace(self, frame, event, arg):
        hit = self._tracer_for(frame.f_code.co_filename)
        if hit is None:
            return None
        lines, local = hit
        lines.add(frame.f_lineno)
        return local

    def start(self, children: str) -> None:
        """Trace this process and start each Python child under this script,
        writing its lines into the directory ``children``."""
        original = self._popen_init = subprocess.Popen.__init__
        collector = self

        def popen_init(self, args, *rest, **kwargs):
            if isinstance(args, (list, tuple)) and args and os.fspath(args[0]) == sys.executable:
                args = [os.fspath(arg) for arg in args]
                if args[1:2] in (["-m"], ["-c"]) or (args[1:] and not args[1].startswith("-")):
                    args = [sys.executable, SCRIPT, "--child", children, *args[1:]]
                else:
                    collector.untraced.append(args)
            original(self, args, *rest, **kwargs)

        subprocess.Popen.__init__ = popen_init
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)
        subprocess.Popen.__init__ = self._popen_init

    def merge(self, children: Path) -> int:
        """Add the lines of every child run; return how many there were."""
        runs = sorted(children.glob("*.json"))
        for path in runs:
            record = json.loads(path.read_text(encoding="utf-8"))
            for filename, lines in record["ran"].items():
                self.ran[filename].update(lines)
            self.untraced.extend(record["untraced"])
        return len(runs)


def child(children: str, args: list[str]) -> None:
    """Run ``python ARGS`` (``-m MODULE``, ``-c CODE`` or ``SCRIPT``, then
    its arguments) traced, and write its lines under ``children``."""
    collector = Collector()
    collector.start(children)
    code = 0
    try:
        if args[0] == "-m":
            sys.argv, sys.path[0] = [args[1], *args[2:]], os.getcwd()
            runpy.run_module(args[1], run_name="__main__", alter_sys=True)
        elif args[0] == "-c":
            sys.argv, sys.path[0] = ["-c", *args[2:]], ""
            exec(compile(args[1], "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv, sys.path[0] = args, os.path.dirname(os.path.abspath(args[0]))
            runpy.run_path(args[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        collector.stop()
        record = {"ran": {name: sorted(lines) for name, lines in collector.ran.items()},
                  "untraced": collector.untraced}
        handle, out = tempfile.mkstemp(suffix=".json", dir=children)
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(record, stream)
    sys.exit(code)


class _NoDeadline:
    """Switch Hypothesis deadlines off before any test module is collected."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("line-coverage", deadline=None)
        settings.load_profile("line-coverage")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    collector = Collector()
    with tempfile.TemporaryDirectory(prefix="line-coverage-") as children:
        collector.start(children)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                  *argv], plugins=[_NoDeadline()])
        finally:
            collector.stop()
        runs = collector.merge(Path(children))

    unrun: dict[str, list[tuple[str, int, str]]] = {}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        ran = collector.ran[str(path)]
        for line, scope in sorted(lines.items()):
            if line not in ran:
                entry = next((key for key in ALLOWLIST
                              if key.partition(":")[0] == path.name
                              and f"{scope}.".startswith(key.partition(":")[2] + ".")), None)
                unrun.setdefault(entry or "", []).append((path.name, line, source[line - 1].strip()))

    missed = sum(map(len, unrun.values()))
    print(f"\nline coverage: {total - missed} of {total} executable lines of src/collabmarket ran; "
          f"{runs} Python children traced")
    for args in collector.untraced:
        print(f"untraced child: {' '.join(args)[:200]}")
    for key, reason in ALLOWLIST.items():
        print(f"allowlisted {key}: {len(unrun.get(key, ()))} lines ({reason})")
    if status != 0:
        print(f"FAILED: the test run exited {int(status)}")
    stale = [key for key in ALLOWLIST if key not in unrun]
    for key in stale:
        print(f"FAILED: allowlist entry {key} covers no unrun line; remove it")
    for name, line, text in unrun.get("", ()):
        print(f"FAILED: {name}:{line} never ran: {text}")
    return 1 if status != 0 or stale or "" in unrun else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3:])
    sys.exit(main(sys.argv[1:]))
