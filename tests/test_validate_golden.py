"""``validate`` on a small dirty corpus gives the recorded report, stderr and
exit code.

The corpus is the demo corpus plus malformed publication lines, one-off
non-ASCII names and bad registry rows, so that every loader's
collecting-diagnostics path and the general normalization path run. The
expected outputs were recorded from the row-by-row loaders the current ones
replaced; ``validate_golden.json`` holds them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from collabmarket.cli import main
from collabmarket.demo import write_demo_corpus

GOLDEN = Path(__file__).resolve().parent / "validate_golden.json"

EXTRA_PUBLICATION_LINES = [
    "{broken",
    "[1, 2]",
    "",
    '{"pub_id": "G01", "year": "2002", "authors": [], "affiliations": ["x"]}',
    '{"pub_id": "G02", "year": 2002, "authors": [], "affiliations": ["Univ. Abruzzo"]}',
    '{"pub_id": "G03", "year": 2002, "authors": [{"surname": "Rossi", "initials": "M"}], '
    '"affiliations": ["Univ. Abruzzo", "  "]}',
    '{"pub_id": "G04", "year": 2002, "authors": [{"surname": "Rossi", "initials": "ABCD"}], '
    '"affiliations": ["Univ. Abruzzo"]}',
    '{"pub_id": "G05", "year": 2002, "authors": [{"surname": "***", "initials": "M"}], '
    '"affiliations": ["Univ. Abruzzo"]}',
    '{"pub_id": "G06", "year": 2002, "authors": ["Rossi"], "affiliations": ["Univ. Abruzzo"]}',
    '{"pub_id": "D0001", "year": 2002, "authors": [{"surname": "Rossi", "initials": "M"}], '
    '"affiliations": ["Univ. Abruzzo"]}',
    '{"pub_id": "G07", "year": 2002, "authors": [{"surname": "Rossi", "initials": "M"}], '
    '"affiliations": ["Univ. Abruzzo"]} {}',
    '  {"pub_id": "G08", "year": 2002, "authors": [{"surname": "Ørsted", "initials": "Ø"}], '
    '"affiliations": ["Università di Abruzzo", "Abruzzo Labs"]}  ',
    '{"pub_id": "G09", "year": 2002, "authors": [{"surname": "Łukasiewicz", "initials": "J."}, '
    '{"surname": "Straße", "initials": "ß"}, {"surname": "ﬁnnegan", "initials": "Ⓐ"}], '
    '"affiliations": ["Università di Abruzzo", "Ōsaka Kōgyō K.K.", "Abruzzo Labs"]}',
    '{"pub_id": "G10", "year": 2002, '
    '"authors": [{"surname": "Ğürsel-Çelik", "initials": "Ş"}], '
    '"affiliations": ["Ｕｎｉｖ．Ａｂｒｕｚｚｏ", "ⅫΣ Holdings"]}',
    '{"pub_id": "G11", "year": 1999, "authors": [{"surname": "Dvořák", "initials": "A"}], '
    '"affiliations": ["Abruzzo Labs"]}',
]

EXTRA_ROSTER_LINES = [
    "Ørsted,Ø,U-ABR,ING-INF/01,09,2001|2002|2003,1",
    "łukasiewicz,J,U-ABR,ING-INF/01,09,2002,0.5",
    "",
    "nobody,A,U-XXX,ING-INF/01,09,2002,1",
    "nobody,B,E-ABR,ING-INF/01,09,2002,1",
    "nobody,C,U-ABR,MAT/05,01,2002,1",
    "nobody,D,U-ABR,ING-INF/01,03,2002,1",
    "nobody,E,U-ABR,ING-INF/01,09,two,1",
    "nobody,F,U-ABR,ING-INF/01,09,2002,0",
    "nobody,G,U-ABR,ING-INF/01,09,,1",
    "nobody,H,U-ABR,ING-INF/01,09,2002,",
    "nobody,I",
    "***,J,U-ABR,ING-INF/01,09,2002,1",
    "nobody,ABCD,U-ABR,ING-INF/01,09,2002,1",
    '"multi\nline",K,U-ABR,ING-INF/01,09,2002,1,extra',
]

EXTRA_ORGANIZATION_LINES = [
    "X-NGO,ngo,Abruzzo,Some Charity,",
    "U-ABR,university,Abruzzo,Duplicate,",
    "E-ATL,enterprise,Atlantis,Lost Labs,",
]


def _append(path: Path, lines: list[str]) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))


def write_dirty_corpus(directory: Path) -> dict[str, Path]:
    paths = write_demo_corpus(directory)
    _append(paths["publications"], EXTRA_PUBLICATION_LINES)
    _append(paths["roster"], EXTRA_ROSTER_LINES)
    _append(paths["organizations"], EXTRA_ORGANIZATION_LINES)
    return paths


def run_validate(directory: Path, capsys) -> dict:
    paths = write_dirty_corpus(directory / "corpus")
    out = directory / "out"
    rc = main(["validate", "--config", str(paths["config"]), "--out", str(out)])
    err = capsys.readouterr().err.replace(str(directory), "<dir>")
    report = (out / "resolution_report.csv").read_bytes()
    return {
        "rc": rc,
        "stderr": err.splitlines(),
        "resolution_report_sha256": hashlib.sha256(report).hexdigest(),
    }


def test_validate_on_dirty_corpus_matches_recorded_outputs(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_validate(tmp_path, capsys) == expected
