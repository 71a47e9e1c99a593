"""A bounded fuzz of the command line: damaged inputs never end in a traceback.

The demo inputs, and a copy of an ``analyze`` output for ``diff``, are
damaged byte- and line-wise: flipped bytes, files cut short, lines and
cells dropped or repeated, CRLF line ends. Every subcommand, called in
process, must exit 0, 1 or 2 and raise nothing, and every SVG figure that a
run which exits 0 writes must parse as XML.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmarket.cli import main
from collabmarket.demo import write_demo_corpus

INPUTS = ("publications", "organizations", "roster", "taxonomy", "config")
RUN_COMMANDS = (
    ("analyze",),
    ("validate",),
    ("sector", "--sds", "ING-INF/01"),
    ("region", "--name", "Lombardy"),
)
SNAPSHOT_FILES = ("snapshot.json", "table2_ING-INF-01.jsonl", "table3_ING-INF-01.jsonl")
OPERATIONS = ("flip", "cut", "drop-line", "repeat-line", "drop-cell", "repeat-cell", "crlf")

damage = st.lists(
    st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 1 << 20), st.integers(0, 1 << 20)),
    min_size=1,
    max_size=3,
)


def _damage(data: bytes, operations) -> bytes:
    """``data`` with each operation applied in turn; positions wrap around."""
    for operation, i, j in operations:
        lines = data.splitlines(keepends=True)
        if operation == "flip" and data:
            k = i % len(data)
            data = data[:k] + bytes([data[k] ^ (1 + j % 255)]) + data[k + 1:]
        elif operation == "cut":
            data = data[: i % (len(data) + 1)]
        elif operation == "crlf":
            data = data.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
        elif lines:
            k = i % len(lines)
            if operation == "drop-line":
                del lines[k]
            elif operation == "repeat-line":
                lines.insert(k, lines[k])
            else:
                cells = lines[k].split(b",")
                c = j % len(cells)
                if operation == "drop-cell":
                    del cells[c]
                else:
                    cells.insert(c, cells[c])
                lines[k] = b",".join(cells)
            data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo corpus and its ``analyze`` output."""
    directory = tmp_path_factory.mktemp("fuzz")
    corpus = write_demo_corpus(directory / "corpus")
    out = directory / "analyzed"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", "--config", str(corpus["config"]), "--out", str(out)]) == 0
    return corpus, out


def _run(argv: list[str], out: Path) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    if rc == 0 and out.is_dir():
        for figure in out.glob("*.svg"):
            ET.parse(figure)
    return rc


# About 5 s for both tests on a 2-CPU machine.
_FUZZ = settings(max_examples=100, deadline=None)


@_FUZZ
@given(target=st.sampled_from(INPUTS), operations=damage, command=st.sampled_from(RUN_COMMANDS))
def test_run_commands_on_damaged_inputs(demo, target, operations, command):
    corpus, _ = demo
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        copied = {}
        for name, path in corpus.items():
            copied[name] = work / Path(path).name
            shutil.copyfile(path, copied[name])
        copied[target].write_bytes(_damage(copied[target].read_bytes(), operations))
        out = work / "out"
        _run([*command, "--config", str(copied["config"]), "--out", str(out)], out)


@_FUZZ
@given(target=st.sampled_from(SNAPSHOT_FILES), operations=damage, damaged_first=st.booleans())
def test_diff_of_a_damaged_snapshot(demo, target, operations, damaged_first):
    _, analyzed = demo
    with tempfile.TemporaryDirectory() as work:
        damaged = Path(work) / "damaged"
        shutil.copytree(analyzed, damaged)
        (damaged / target).write_bytes(_damage((damaged / target).read_bytes(), operations))
        t0, t1 = (damaged, analyzed) if damaged_first else (analyzed, damaged)
        out = Path(work) / "delta"
        _run(["diff", "--t0", str(t0), "--t1", str(t1), "--out", str(out)], out)
