"""Bundled demo dataset and synthetic corpus builders.

The demo models a 19-region country with one collaboration-active sector. Two
marginal tables drive everything: ``REGIONAL_FLOWS`` fixes each region's
intra-regional, outgoing and incoming university-enterprise event counts over
all sectors, and ``SECTOR_TABLE`` fixes the single sector's per-region
scientist headcounts and flow counts. ``demo_corpus`` turns the sector table
into a complete corpus (publications plus registries) that reproduces it
exactly when run through the full pipeline; the regional table is reference
data for the tests of the indicator maths.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .collab import write_csv
from .config import ITALIAN_REGIONS
from .ingest import ORG_COLUMNS, ROSTER_COLUMNS, TAXONOMY_COLUMNS, write_publications
from .model import AuthorName, PublicationRecord

# The demo country: every region of ``config.ITALIAN_REGIONS`` but Aosta Valley.
REGIONS: tuple[str, ...] = tuple(r for r in ITALIAN_REGIONS if r != "Aosta Valley")

# region -> (intra events, outgoing extra-regional, incoming extra-regional)
REGIONAL_FLOWS: Mapping[str, tuple[int, int, int]] = {
    "Abruzzo": (13, 44, 10),
    "Basilicata": (0, 6, 0),
    "Calabria": (0, 13, 2),
    "Campania": (13, 90, 8),
    "Emilia Romagna": (93, 205, 103),
    "Friuli Venezia Giulia": (15, 45, 6),
    "Lazio": (63, 97, 226),
    "Liguria": (7, 52, 16),
    "Lombardy": (233, 170, 536),
    "Marche": (6, 31, 2),
    "Molise": (0, 0, 2),
    "Piedmont": (57, 77, 90),
    "Puglia": (3, 45, 1),
    "Sardinia": (3, 22, 6),
    "Sicily": (62, 56, 23),
    "Trentino Alto Adige": (2, 18, 8),
    "Tuscany": (67, 146, 148),
    "Umbria": (3, 56, 1),
    "Veneto": (50, 120, 105),
}

SECTOR = "ING-INF/01"
SECTOR_UDA = "09"
# Inactive sectors that pad the demo taxonomy.
EXTRA_SECTORS: tuple[tuple[str, str], ...] = (("CHIM/07", "03"), ("FIS/01", "02"))

# region -> (scientists, national demand, national supply, intra supply)
SECTOR_TABLE: Mapping[str, tuple[int, int, int, int]] = {
    "Abruzzo": (5, 3, 3, 3),
    "Basilicata": (0, 0, 0, 0),
    "Calabria": (6, 0, 0, 0),
    "Campania": (24, 2, 4, 0),
    "Emilia Romagna": (37, 6, 22, 4),
    "Friuli Venezia Giulia": (12, 0, 3, 0),
    "Lazio": (53, 13, 13, 3),
    "Liguria": (15, 1, 0, 0),
    "Lombardy": (47, 79, 39, 33),
    "Marche": (3, 0, 1, 0),
    "Molise": (0, 0, 0, 0),
    "Piedmont": (26, 6, 0, 0),
    "Puglia": (14, 1, 10, 1),
    "Sardinia": (6, 0, 0, 0),
    "Sicily": (21, 15, 9, 8),
    "Trentino Alto Adige": (2, 0, 1, 0),
    "Tuscany": (32, 6, 4, 2),
    "Umbria": (5, 1, 4, 1),
    "Veneto": (12, 1, 21, 1),
}

DEMO_YEAR = 2002
DEMO_WINDOW = (2001, 2003)

_REGION_SLUGS = {
    "Abruzzo": "ABR",
    "Basilicata": "BAS",
    "Calabria": "CAL",
    "Campania": "CAM",
    "Emilia Romagna": "EMI",
    "Friuli Venezia Giulia": "FRI",
    "Lazio": "LAZ",
    "Liguria": "LIG",
    "Lombardy": "LOM",
    "Marche": "MAR",
    "Molise": "MOL",
    "Piedmont": "PIE",
    "Puglia": "PUG",
    "Sardinia": "SAR",
    "Sicily": "SIC",
    "Trentino Alto Adige": "TRE",
    "Tuscany": "TUS",
    "Umbria": "UMB",
    "Veneto": "VEN",
}


def university_id(region: str) -> str:
    return f"U-{_REGION_SLUGS[region]}"


def enterprise_id(region: str) -> str:
    return f"E-{_REGION_SLUGS[region]}"


def pair_extra_flows(
    outgoing: Mapping[str, int], incoming: Mapping[str, int]
) -> list[tuple[str, str]]:
    """Deterministically pair outgoing with incoming extra-regional slots.

    No pair may be intra-regional, which makes this a transportation problem
    with a forbidden diagonal: marginals are feasible exactly when no region
    holds more than half of all remaining slots (outgoing plus incoming).
    Serving the region with the greatest combined remainder first, matched
    against the largest opposite-side remainder elsewhere, preserves that
    condition at every step, so the greedy never strands a slot.
    """
    remaining_out = {r: n for r, n in sorted(outgoing.items()) if n > 0}
    remaining_in = {r: n for r, n in sorted(incoming.items()) if n > 0}
    total = sum(remaining_out.values())
    if total != sum(remaining_in.values()):
        raise ValueError("outgoing and incoming extra-regional totals differ")
    pairs: list[tuple[str, str]] = []
    while total:
        regions = sorted(set(remaining_out) | set(remaining_in))
        pressure = {
            r: remaining_out.get(r, 0) + remaining_in.get(r, 0) for r in regions
        }
        crowded = max(regions, key=pressure.get)
        if pressure[crowded] > total:
            raise ValueError(
                f"{crowded!r} holds {pressure[crowded]} of {total} remaining "
                "extra-regional slots; marginals are infeasible without self-pairs"
            )
        if remaining_out.get(crowded, 0) >= remaining_in.get(crowded, 0):
            supplier = crowded
            consumer = max(
                sorted(r for r in remaining_in if r != crowded),
                key=remaining_in.get,
            )
        else:
            consumer = crowded
            supplier = max(
                sorted(r for r in remaining_out if r != crowded),
                key=remaining_out.get,
            )
        pairs.append((supplier, consumer))
        total -= 1
        remaining_out[supplier] -= 1
        remaining_in[consumer] -= 1
        if not remaining_out[supplier]:
            del remaining_out[supplier]
        if not remaining_in[consumer]:
            del remaining_in[consumer]
    return pairs


def _sector_pairs(table: Mapping[str, tuple[int, int, int, int]]) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    outgoing: dict[str, int] = {}
    incoming: dict[str, int] = {}
    for region in sorted(table):
        _, demand, supply, intra = table[region]
        pairs.extend((region, region) for _ in range(intra))
        outgoing[region] = supply - intra
        incoming[region] = demand - intra
    pairs.extend(pair_extra_flows(outgoing, incoming))
    return pairs


def _surname(region: str, index: int) -> str:
    return f"{_REGION_SLUGS[region].lower()}ini{index:02d}"


def demo_corpus() -> tuple[
    list[PublicationRecord],
    list[tuple[str, str, str, str, str]],
    list[tuple[str, str, str, str, str, str, str]],
    list[tuple[str, str]],
]:
    """Full synthetic corpus whose pipeline output reproduces the marginals.

    Returns (publications, organization rows, roster rows, taxonomy rows) in
    the on-disk column orders. One publication is written per sector event;
    every publication lists exactly one university and one enterprise, cycling
    a region's scientists as authors and alternating canonical and alias
    spellings so both resolution tiers get exercised.
    """
    organizations = []
    for region in REGIONS:
        slug = _REGION_SLUGS[region]
        organizations.append(
            (
                university_id(region),
                "university",
                region,
                f"Università di {region}",
                f"Univ. {region}|{slug} State University",
            )
        )
        organizations.append(
            (
                enterprise_id(region),
                "enterprise",
                region,
                f"{region} Innovazione S.p.A.",
                f"{region} Labs",
            )
        )

    roster = []
    scientists: dict[str, list[AuthorName]] = {}
    for region in REGIONS:
        count = SECTOR_TABLE[region][0]
        scientists[region] = []
        for index in range(1, count + 1):
            surname = _surname(region, index)
            roster.append(
                (
                    surname,
                    "A",
                    university_id(region),
                    SECTOR,
                    SECTOR_UDA,
                    "|".join(str(y) for y in range(DEMO_WINDOW[0], DEMO_WINDOW[1] + 1)),
                    "1",
                )
            )
            scientists[region].append(AuthorName(surname, "A"))

    taxonomy = [(SECTOR, SECTOR_UDA), *EXTRA_SECTORS]

    publications = []
    author_cursor: dict[str, int] = {region: 0 for region in REGIONS}
    for i, (supply, demand) in enumerate(_sector_pairs(SECTOR_TABLE), start=1):
        pool = scientists[supply]
        author = pool[author_cursor[supply] % len(pool)]
        author_cursor[supply] += 1
        if i % 2:
            uni_mention = f"Università di {supply}"
            ent_mention = f"{demand} Labs"
        else:
            uni_mention = f"Univ. {supply}"
            ent_mention = f"{demand} Innovazione S.p.A."
        authors: list[AuthorName] = [author]
        if i % 3 == 0:
            # industry co-author with no roster match
            authors.append(AuthorName(f"esterni{i:03d}", "B"))
        publications.append(
            PublicationRecord(
                f"D{i:04d}",
                DEMO_YEAR,
                tuple(authors),
                (uni_mention, ent_mention),
            )
        )
    return publications, organizations, roster, taxonomy


def write_demo_corpus(directory: str | Path) -> dict[str, Path]:
    """Write the demo corpus and a ready-to-run config file into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    publications, organizations, roster, taxonomy = demo_corpus()

    paths = {
        "publications": directory / "publications.jsonl",
        "organizations": directory / "organizations.csv",
        "roster": directory / "roster.csv",
        "taxonomy": directory / "taxonomy.csv",
        "config": directory / "demo.cfg",
    }
    write_publications(publications, paths["publications"])
    write_csv(paths["organizations"], ORG_COLUMNS, organizations)
    write_csv(paths["roster"], ROSTER_COLUMNS, roster)
    write_csv(paths["taxonomy"], TAXONOMY_COLUMNS, taxonomy)
    config_lines = [
        "# demo corpus configuration",
        "publications = publications.jsonl",
        "organizations = organizations.csv",
        "roster = roster.csv",
        "taxonomy = taxonomy.csv",
        "out = out",
        f"window = {DEMO_WINDOW[0]}:{DEMO_WINDOW[1]}",
        "regions = " + "|".join(REGIONS),
    ]
    paths["config"].write_text("\n".join(config_lines) + "\n", encoding="utf-8")
    return paths
