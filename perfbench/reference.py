"""Fixed reference work that gauges how fast the machine runs right now.

    python3 perfbench/reference.py NEW_DIR

It uses the standard library only, never the program under test, so its time
moves with the machine (other tenants, clock speed, cache and disk pressure)
and not with changes to the benchmarked code. Its mix follows the pipeline's:
a fresh interpreter, JSON parsing, Unicode normalization, frozen dataclasses,
dict and set building, sorting, decimal formatting, and many small CSV files
written into NEW_DIR and read back. Removing them is left to the caller, as
the benchmark does with the program's outputs.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import unicodedata
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

RECORDS = 12000
FILES = 300


@dataclass(frozen=True)
class Record:
    pub_id: str
    year: int
    names: tuple[str, ...]


def _normalize(raw: str) -> str:
    text = unicodedata.normalize("NFKD", raw)
    kept = [ch if ch.isalnum() else " " for ch in text if not unicodedata.combining(ch)]
    return " ".join("".join(kept).casefold().split())


def work(directory: Path) -> int:
    lines = [
        json.dumps({
            "pub_id": f"R{i:06d}",
            "year": 2001 + i % 3,
            "authors": [{"surname": f"Rossì-Bianchi {i % 997}", "initials": "M.A."}],
            "affiliations": [f"Università degli Studi di Região {i % 89}", f"Tecno {i % 1999} S.p.A."],
        }, ensure_ascii=False)
        for i in range(RECORDS)
    ]
    records = []
    index: dict[str, set[str]] = {}
    for line in lines:
        obj = json.loads(line)
        names = tuple(_normalize(a) for a in obj["affiliations"])
        names += tuple(_normalize(a["surname"]) for a in obj["authors"])
        record = Record(obj["pub_id"], obj["year"], names)
        records.append(record)
        for name in names:
            index.setdefault(name, set()).add(record.pub_id)
    records.sort(key=lambda r: (r.year, r.names, r.pub_id))
    rows = sorted(
        (name, len(pubs), Decimal(repr(len(pubs) / RECORDS)).quantize(Decimal("0.000001"), ROUND_HALF_UP))
        for name, pubs in index.items()
    )
    directory.mkdir(parents=True)
    size = 0
    for k in range(FILES):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows[k::FILES])
        path = directory / f"part{k:03d}.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        size += len(path.read_text(encoding="utf-8"))
    return size + len(records)


if __name__ == "__main__":
    print(work(Path(sys.argv[1])))
