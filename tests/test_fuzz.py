"""A bounded fuzz of the command line: damaged inputs never end in a traceback.

The demo inputs, and a copy of an ``analyze`` output for ``diff``, are
damaged byte- and line-wise: flipped bytes, files cut short, lines and
cells dropped or repeated, CRLF line ends. They are also damaged value by
value: one JSON value, or one CSV or config cell, is replaced by an
adversarial one, such as an integer too long to convert, a non-finite
number, nesting far past the parser's limit, a lone surrogate, a duplicate
key, a byte-order mark or NUL byte mid-file, or a 200k-character string.
Every subcommand, called in process, must exit 0, 1 or 2 and raise nothing,
and every SVG figure that a run which exits 0 writes must parse as XML.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
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
JSON_FILES = ("publications.jsonl", *SNAPSHOT_FILES)
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


# Stands for a duplicate key: in an object the key is written twice, first
# with null, then with its own value; in an array the value is an object that
# repeats a key; a CSV or config cell becomes a copy of the cell before it, so
# a header names a column twice.
DUPLICATE_KEY = b"duplicate key"
ADVERSARIAL = (
    b"9" * (sys.get_int_max_str_digits() + 1),
    b"-" + b"1" * 5000,
    b"1e999",
    b"NaN",
    b"Infinity",
    b"-Infinity",
    b"-0.0",
    b"[" * 10_000 + b"]" * 10_000,
    b'"\\ud800"',
    b'"\\udfff\\ud800x"',
    DUPLICATE_KEY,
    b"\xef\xbb\xbf",
    b"\x00",
    b'"' + b"x" * 200_000 + b'"',
)

adversarial = st.tuples(
    st.sampled_from(ADVERSARIAL), st.integers(0, 1 << 20), st.integers(0, 1 << 20)
)


def _slots(value, found: list) -> list:
    """Each (container, key or index) of a parsed JSON document, in order."""
    if isinstance(value, (dict, list)):
        for key in value if isinstance(value, dict) else range(len(value)):
            found.append((value, key))
            _slots(value[key], found)
    return found


def _replace_value(text: str, token: bytes, at: int, indent: int | None) -> bytes:
    """The JSON document ``text`` with its ``at``-th value (wrapping around)
    written as ``token``."""
    document = json.loads(text)
    slots = _slots(document, [])
    container, key = slots[at % len(slots)]
    if token == DUPLICATE_KEY:
        token = (b'{"a": 1, "a": 2}' if isinstance(container, list) else
                 f"null, {json.dumps(key)}: {json.dumps(container[key])}".encode())
    container[key] = "\0"
    dumped = json.dumps(document, ensure_ascii=False, indent=indent).encode("utf-8")
    return dumped.replace(b'"\\u0000"', token)


def _with_value(name: str, data: bytes, value) -> bytes:
    """``data`` with one JSON value, or one CSV or config cell, replaced by an
    adversarial value; positions wrap around."""
    token, i, j = value
    if name == "snapshot.json":
        return _replace_value(data.decode("utf-8"), token, i, 2) + b"\n"
    lines = data.split(b"\n")
    k = i % (len(lines) - 1)  # every file ends with a newline
    if name in JSON_FILES:
        lines[k] = _replace_value(lines[k].decode("utf-8"), token, j, None)
    else:
        separator = b" = " if name.endswith(".cfg") else b","
        cells = lines[k].split(separator)
        c = j % len(cells)
        cells[c] = cells[c - 1] if token == DUPLICATE_KEY else token
        lines[k] = separator.join(cells)
    return b"\n".join(lines)


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


# About 3 s for both tests on a 2-CPU machine.
_VALUE_FUZZ = settings(max_examples=100, deadline=None)


@_VALUE_FUZZ
@given(target=st.sampled_from(INPUTS), value=adversarial, command=st.sampled_from(RUN_COMMANDS))
def test_run_commands_on_adversarial_values(demo, target, value, command):
    corpus, _ = demo
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        copied = {}
        for name, path in corpus.items():
            copied[name] = work / Path(path).name
            shutil.copyfile(path, copied[name])
        path = copied[target]
        path.write_bytes(_with_value(path.name, path.read_bytes(), value))
        out = work / "out"
        _run([*command, "--config", str(copied["config"]), "--out", str(out)], out)


@_VALUE_FUZZ
@given(target=st.sampled_from(SNAPSHOT_FILES), value=adversarial, damaged_first=st.booleans())
def test_diff_of_adversarial_values(demo, target, value, damaged_first):
    _, analyzed = demo
    with tempfile.TemporaryDirectory() as work:
        damaged = Path(work) / "damaged"
        shutil.copytree(analyzed, damaged)
        path = damaged / target
        path.write_bytes(_with_value(target, path.read_bytes(), value))
        t0, t1 = (damaged, analyzed) if damaged_first else (analyzed, damaged)
        out = Path(work) / "delta"
        _run(["diff", "--t0", str(t0), "--t1", str(t1), "--out", str(out)], out)
