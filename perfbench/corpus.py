"""Seeded synthetic corpus for the benchmark, with its own oracle.

The corpus is written in the repository's one corpus format, through
``collabmarket.ingest.write_publications`` and the registry column orders, as
``collabmarket.demo`` does. Every count the benchmark checks is computed here
from what the generator planted: roster keys are unique, every registry
spelling and variant is known to resolve to one organization, and junk
strings are known not to. Nothing here calls the resolver or the event
derivation, so the oracle stays independent of the code under test.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

from collabmarket.ingest import ORG_COLUMNS, ROSTER_COLUMNS, TAXONOMY_COLUMNS, write_publications
from collabmarket.model import AuthorName, PublicationRecord

REGIONS: tuple[str, ...] = (
    "Abruzzo", "Aosta Valley", "Basilicata", "Calabria", "Campania",
    "Emilia Romagna", "Friuli Venezia Giulia", "Lazio", "Liguria", "Lombardy",
    "Marche", "Molise", "Piedmont", "Puglia", "Sardinia",
    "Sicily", "Trentino Alto Adige", "Tuscany", "Umbria", "Veneto",
)
# Relative economic weight of each region when placing enterprises.
_REGION_WEIGHT = (3, 1, 1, 2, 5, 8, 3, 9, 3, 14, 3, 1, 8, 3, 2, 4, 3, 6, 2, 9)

WINDOW = (2001, 2003)
_OUTSIDE_YEARS = (1999, 2000, 2004, 2005)

# 14 disciplinary areas; their sector counts add up to the 370-sector shape.
_AREAS = (
    ("01", "MAT", 10), ("02", "FIS", 8), ("03", "CHIM", 12), ("04", "GEO", 12),
    ("05", "BIO", 19), ("06", "MED", 50), ("07", "AGR", 30), ("08", "ICAR", 22),
    ("09", "ING", 42), ("10", "LETT", 77), ("11", "STO", 34), ("12", "IUS", 21),
    ("13", "SECS", 19), ("14", "SPS", 14),
)

_UNI_PARTS = ("Nord", "Sud", "Centro", "Est", "Ovest")
_ENT_FIRST = (
    "Tecno", "Bio", "Elettro", "Meccanica", "Chimica", "Nova", "Alfa", "Delta",
    "Sigma", "Omega", "Idro", "Termo", "Agro", "Geo", "Info", "Micro", "Nano",
    "Fotonica", "Robotica", "Sistemi", "Ricerche", "Energia", "Materiali",
    "Farmaceutica", "Aerospazio", "Navale", "Ottica", "Acustica", "Tessile",
    "Alimentare", "Ceramica", "Vetraria", "Plastica", "Metalli", "Cantieri",
    "Logistica", "Digitale", "Quantica", "Laser", "Ferroviaria", "Automotive",
    "Medicale", "Diagnostica", "Genomica", "Sensori", "Reti", "Software",
    "Impianti", "Ambiente", "Acque", "Minerali", "Calcestruzzi", "Motori",
    "Turbine", "Valvole", "Pompe", "Cavi", "Batterie", "Polimeri", "Vernici",
)
_ENT_SECOND = (
    "Italia", "Adriatica", "Tirrenica", "Padana", "Alpina", "Appenninica",
    "Mediterranea", "Lombarda", "Veneta", "Toscana", "Emiliana", "Ligure",
    "Sarda", "Sicula", "Pugliese", "Campana", "Romana", "Friulana", "Umbra",
    "Marchigiana", "Calabra", "Lucana", "Molisana", "Abruzzese", "Trentina",
    "Valdostana", "Piemontese", "Europea", "Internazionale", "Nazionale",
    "Avanzata", "Integrata", "Applicata", "Industriale", "Innovativa",
    "Sostenibile", "Strutturale", "Elettronica", "Sperimentale", "Moderna",
    "Globale", "Centrale", "Orientale", "Occidentale", "Meridionale",
    "Settentrionale", "Costiera", "Montana", "Insulare", "Urbana",
    "Unita", "Associata", "Consortile", "Cooperativa", "Generale", "Tecnica",
    "Scientifica", "Produttiva", "Commerciale", "Holding",
)
_ENT_FORMS = ("S.p.A.", "S.r.l.")
_SURNAMES = (
    "Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano", "Colombo",
    "Ricci", "Marino", "Greco", "Bruno", "Gallo", "Conti", "Mancini", "Costa",
    "Giordano", "Rizzo", "Lombardi", "Moretti", "Barbieri", "Fontana",
    "Santoro", "Mariani", "Rinaldi", "Caruso", "Ferrara", "Galli", "Martini",
    "Leone", "Longo", "Gentile", "Martinelli", "Vitale", "Lombardo", "Serra",
    "Coppola", "Marchetti", "Parisi", "Villa", "Conte", "Ferraro", "Ferri",
    "Fabbri", "Bianco", "Marini", "Grasso", "Valentini", "Messina", "Sala",
    "Gatti", "Pellegrini", "Palumbo", "Sanna", "Farina", "Rizzi", "Monti",
    "Cattaneo", "Morelli", "Amato", "Silvestri", "Mazza", "Testa", "Grassi",
    "Pellegrino", "Carbone", "Giuliani", "Benedetti", "Barone", "Rossetti",
    "Caputo", "Montanari", "Guerra", "Palmieri", "Bernardi", "Martino",
    "Fiore", "Ferretti", "Bellini", "Basile", "Riva", "Donati", "Piras",
    "Vitali", "Battaglia", "Sartori", "Neri", "Costantini", "Milani",
    "Pagano", "Ruggiero", "Sorrentino", "Orlando", "Negri", "Cocco", "Bassi",
    "Cantù", "Nicolò", "Mosè", "Forlì", "Zanè",
)
# Disjoint from _SURNAMES and single-word, so an external co-author never
# matches a (two-word) roster surname.
_EXTERNAL_SURNAMES = (
    "Smith", "Müller", "Dubois", "García", "Novák", "Jensen", "Kowalski",
    "O'Brien", "Nakamura", "Schmidt", "Martin", "Fischer", "Weber", "Lefèvre",
    "Andersson", "Popescu", "Horváth", "Silva", "Brown", "Wagner",
)
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_JUNK_WORDS = (
    "Consulting", "Partners", "Studio", "Laboratory", "Institute", "Foundation",
    "Services", "Group", "Agency", "Office", "Clinic", "Hospital", "Department",
)


@dataclass(frozen=True)
class Shape:
    """Size and dirtiness of one generated corpus."""

    publications: int
    universities: int
    enterprises: int
    roster: int
    unresolvable_share: float = 0.15  # enterprise mentions that match nothing
    junk_pool: int = 400  # distinct junk strings; 0 makes every one distinct
    external_pool: int = 2000  # distinct external co-authors; 0: all distinct
    orphan_share: float = 0.0  # publications whose affiliations all are junk
    author_skew: float = 2.0  # 1 picks co-authors uniformly; higher favours a few
    externals: tuple[int, ...] = (0, 0, 1, 2)  # external co-author counts to draw from
    invalid_share: float = 0.0  # malformed or invalid lines


@dataclass
class Expected:
    """Oracle totals of one publication file against the shared registries."""

    lines: int = 0
    in_window: int = 0
    retained: int = 0
    ue_events: int = 0
    sds_events: int = 0
    diagnostics: int = 0
    universities: set = field(default_factory=set)
    enterprises: set = field(default_factory=set)
    active_sds: set = field(default_factory=set)

    def summary(self) -> dict[str, int]:
        return {**self.totals(), "lines": self.lines, "in_window": self.in_window,
                "retained": self.retained, "diagnostics": self.diagnostics}

    def totals(self) -> dict[str, int]:
        """The ``totals`` block ``analyze`` writes into ``snapshot.json``."""
        return {
            "ue_events": self.ue_events,
            "sds_events": self.sds_events,
            "universities": len(self.universities),
            "enterprises": len(self.enterprises),
            "active_sds": len(self.active_sds),
        }


@dataclass(frozen=True)
class _Org:
    org_id: str
    kind: str
    region: str
    canonical: str
    aliases: tuple[str, ...]
    # Spellings that differ from canonical and aliases only in case, accents,
    # punctuation or spacing, so they normalize to one of them.
    variants: tuple[str, ...]


@dataclass(frozen=True)
class _Scientist:
    surname: str
    initials: str
    university: _Org
    sds: str
    years: frozenset


class Registries:
    """Seeded organizations, roster and taxonomy, plus what the oracle needs."""

    def __init__(self, rng: random.Random, shape: Shape) -> None:
        self.sectors = [
            (f"{prefix}/{k:02d}", uda)
            for uda, prefix, count in _AREAS
            for k in range(1, count + 1)
        ]
        self.universities = [self._university(i) for i in range(shape.universities)]
        self.enterprises = self._enterprises(rng, shape.enterprises)
        self.scientists = self._roster(rng, shape.roster)
        self.by_university: dict[str, list[_Scientist]] = {}
        for scientist in self.scientists:
            self.by_university.setdefault(scientist.university.org_id, []).append(scientist)
        self.sector_uda = dict(self.sectors)

    @staticmethod
    def _university(i: int) -> _Org:
        region = REGIONS[i % len(REGIONS)]
        part = _UNI_PARTS[i // len(REGIONS)]
        canonical = f"Università degli Studi di {region} {part}"
        alias = f"Univ. {region} {part}"
        slug = region.upper().replace(" ", "")
        variants = (
            canonical.upper(),
            canonical.replace("à", "a"),
            f"Università degli Studi di {region}, {part}",
            f"UNIV {region}  {part}",
        )
        return _Org(f"U{i:03d}", "university", region, canonical, (alias, f"{slug}-{part} University"), variants)

    @staticmethod
    def _enterprises(rng: random.Random, count: int) -> list[_Org]:
        names = [(a, b) for a in _ENT_FIRST for b in _ENT_SECOND]
        if count > len(names):
            raise ValueError(f"at most {len(names)} enterprises can be generated")
        orgs = []
        for i, (first, second) in enumerate(rng.sample(names, count)):
            region = rng.choices(REGIONS, weights=_REGION_WEIGHT)[0]
            form = _ENT_FORMS[i % 2]
            canonical = f"{first} {second} {form}"
            variants = (
                canonical.lower(),
                f"{first.upper()} {second.upper()} {form.upper()}",
                f"{first}  {second} - {form}",
            )
            orgs.append(_Org(f"E{i:04d}", "enterprise", region, canonical, (f"{first} {second} Group",), variants))
        return orgs

    def _roster(self, rng: random.Random, count: int) -> list[_Scientist]:
        # Unique (surname, initials) keys: two base surnames and 1-2 initials.
        n_initials = len(_LETTERS) + len(_LETTERS) ** 2
        n_keys = len(_SURNAMES) ** 2 * n_initials
        if count > n_keys:
            raise ValueError(f"at most {n_keys} roster rows can be generated")
        scientists = []
        for i, key in enumerate(rng.sample(range(n_keys), count)):
            pair, ini = divmod(key, n_initials)
            first, second = divmod(pair, len(_SURNAMES))
            initials = _LETTERS[ini] if ini < len(_LETTERS) else \
                _LETTERS[(ini - 26) // 26] + _LETTERS[(ini - 26) % 26]
            # The first rows cover every sector once and are active all window
            # long, which is how every generated corpus makes all sectors active.
            if i < len(self.sectors):
                sds = self.sectors[i][0]
                years = frozenset(range(WINDOW[0], WINDOW[1] + 1))
            else:
                sds = rng.choice(self.sectors)[0]
                years = frozenset(range(WINDOW[0], WINDOW[1] + 1)) if rng.random() < 0.8 \
                    else frozenset(rng.sample(range(WINDOW[0], WINDOW[1] + 1), rng.randint(1, 2)))
            university = self.universities[i % len(self.universities)] if i < len(self.sectors) \
                else rng.choice(self.universities)
            scientists.append(
                _Scientist(f"{_SURNAMES[first]}-{_SURNAMES[second]}", initials, university, sds, years)
            )
        return scientists

    def write(self, directory: Path) -> dict[str, Path]:
        paths = {
            "organizations": directory / "organizations.csv",
            "roster": directory / "roster.csv",
            "taxonomy": directory / "taxonomy.csv",
        }
        orgs = [
            (o.org_id, o.kind, o.region, o.canonical, "|".join(o.aliases))
            for o in (*self.universities, *self.enterprises)
        ]
        roster = [
            (s.surname, s.initials, s.university.org_id, s.sds, self.sector_uda[s.sds],
             "|".join(str(y) for y in sorted(s.years)), "1")
            for s in self.scientists
        ]
        for key, columns, rows in (
            ("organizations", ORG_COLUMNS, orgs),
            ("roster", ROSTER_COLUMNS, roster),
            ("taxonomy", TAXONOMY_COLUMNS, self.sectors),
        ):
            with paths[key].open("w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(rows)
        return paths


def _spell(rng: random.Random, org: _Org) -> str:
    roll = rng.random()
    if roll < 0.5:
        return org.canonical
    if roll < 0.75:
        return rng.choice(org.aliases)
    return rng.choice(org.variants)


def _author_spelling(rng: random.Random, scientist: _Scientist) -> AuthorName:
    surname = scientist.surname
    initials = scientist.initials
    roll = rng.random()
    if roll < 0.15:
        surname = surname.upper()
    elif roll < 0.3:
        surname = surname.replace("-", " ")
    if rng.random() < 0.3:
        initials = ".".join(initials) + "."
    return AuthorName(surname, initials)


class _Pools:
    """Junk affiliations and external co-authors, shared or one-off."""

    def __init__(self, rng: random.Random, shape: Shape) -> None:
        self.rng = rng
        self.shape = shape
        self.serial = 0

    def junk(self) -> str:
        if self.shape.junk_pool:
            n = self.rng.randrange(self.shape.junk_pool)
        else:
            self.serial += 1
            n = 10_000 + self.serial
        word = _JUNK_WORDS[n % len(_JUNK_WORDS)]
        return f"{word} {n} Unlisted"

    def external(self) -> AuthorName:
        if self.shape.external_pool:
            n = self.rng.randrange(self.shape.external_pool)
        else:
            self.serial += 1
            n = 10_000 + self.serial
        base = _EXTERNAL_SURNAMES[n % len(_EXTERNAL_SURNAMES)]
        return AuthorName(f"{base}{_code(n)}", _LETTERS[n % 26])


def _code(n: int) -> str:
    letters = []
    while True:
        n, r = divmod(n, 26)
        letters.append(_LETTERS[r].lower())
        if not n:
            return "".join(letters)


def _publication(
    rng: random.Random, reg: Registries, pools: _Pools, shape: Shape,
    pub_id: str, expected: Expected, seed_sector: int | None,
) -> PublicationRecord:
    """One valid publication; its oracle contribution goes into ``expected``."""
    if seed_sector is not None:
        # Plant one retained publication per sector (see Registries._roster).
        anchor = reg.scientists[seed_sector]
        year = rng.randint(*WINDOW)
        universities = [anchor.university]
    else:
        anchor = None
        year = rng.randint(*WINDOW) if rng.random() < 0.95 else rng.choice(_OUTSIDE_YEARS)
        universities = rng.sample(reg.universities, 2 if rng.random() < 0.25 else 1)
    orphan = seed_sector is None and rng.random() < shape.orphan_share

    authors: list[tuple[AuthorName, _Scientist | None]] = []
    if anchor is not None:
        authors.append((_author_spelling(rng, anchor), anchor))
    pool = [s for u in universities for s in reg.by_university.get(u.org_id, ())]
    chosen: set[int] = {id(anchor)}
    for _ in range(rng.randint(0 if anchor else 1, 3)):
        # Mostly scientists of the listed universities; some from elsewhere,
        # who then cannot be attributed.
        scientist = pool[int(len(pool) * rng.random() ** shape.author_skew)] \
            if pool and rng.random() < 0.9 else rng.choice(reg.scientists)
        if id(scientist) not in chosen:
            chosen.add(id(scientist))
            authors.append((_author_spelling(rng, scientist), scientist))
    for _ in range(rng.choice(shape.externals)):
        authors.append((pools.external(), None))

    mentions: list[tuple[str, _Org | None]] = []
    if orphan:
        mentions = [(pools.junk(), None) for _ in range(rng.randint(1, 3))]
    else:
        mentions = [(_spell(rng, u), u) for u in universities]
        if anchor is not None:
            ent = rng.choice(reg.enterprises)
            mentions.append((_spell(rng, ent), ent))
        elif rng.random() < 0.95:
            for _ in range(2 if rng.random() < 0.3 else 1):
                if rng.random() < shape.unresolvable_share:
                    mentions.append((pools.junk(), None))
                else:
                    # Skewed choice: a few enterprises collaborate a lot.
                    ent = reg.enterprises[int(len(reg.enterprises) * rng.random() ** 2)]
                    mentions.append((_spell(rng, ent), ent))
        if rng.random() < 0.1:
            # A repeated mention of a listed university, in another spelling.
            mentions.append((_spell(rng, universities[0]), universities[0]))
        rng.shuffle(mentions)

    if WINDOW[0] <= year <= WINDOW[1]:
        expected.in_window += 1
        resolved_unis = {o.org_id for _, o in mentions if o is not None and o.kind == "university"}
        resolved_ents = {o.org_id for _, o in mentions if o is not None and o.kind == "enterprise"}
        pairs = {
            (s.sds, s.university.region)
            for _, s in authors
            if s is not None and s.university.org_id in resolved_unis and year in s.years
        }
        if pairs and resolved_ents:
            expected.retained += 1
            expected.ue_events += len(resolved_unis) * len(resolved_ents)
            expected.sds_events += len(pairs) * len(resolved_ents)
            expected.universities |= resolved_unis
            expected.enterprises |= resolved_ents
            expected.active_sds |= {sds for sds, _ in pairs}
    return PublicationRecord(
        pub_id, year, tuple(a for a, _ in authors), tuple(m for m, _ in mentions)
    )


def _invalid(rng: random.Random, kind: int, pub_id: str, valid: list[PublicationRecord]) -> PublicationRecord | str:
    """A line the loader rejects with exactly one diagnostic.

    Returns a record for ``write_publications`` or, for broken JSON, raw text.
    """
    author = AuthorName("Rossi-Bianchi", "M")
    if kind == 0:
        return '{"pub_id": "' + pub_id + '", "year": 2002, "authors": [{"surname": "Ros'
    if kind == 1:
        return PublicationRecord(pub_id, str(WINDOW[0]), (author,), ("Junk Unlisted",))  # type: ignore[arg-type]
    if kind == 2:
        return PublicationRecord(pub_id, WINDOW[0], (), ("Junk Unlisted",))
    if kind == 3:
        return PublicationRecord(pub_id, WINDOW[0], (author,), ("Junk Unlisted", "  "))
    if kind == 4:
        return PublicationRecord(pub_id, WINDOW[0], (AuthorName("Rossi-Bianchi", "12"),), ("Junk Unlisted",))
    # A well-formed record that repeats an earlier pub_id.
    earlier = rng.choice(valid)
    return PublicationRecord(earlier.pub_id, WINDOW[0], (author,), ("Junk Unlisted",))


def write_publications_file(
    rng: random.Random, reg: Registries, shape: Shape, path: Path, prefix: str
) -> Expected:
    """Write one publication file and return its oracle totals."""
    expected = Expected()
    pools = _Pools(rng, shape)
    valid: list[PublicationRecord] = []
    lines: list[PublicationRecord | str] = []
    for i in range(shape.publications):
        pub_id = f"{prefix}{i:06d}"
        if i >= len(reg.sectors) and rng.random() < shape.invalid_share:
            lines.append(_invalid(rng, i % 6, pub_id, valid))
            expected.diagnostics += 1
            continue
        seed_sector = i if i < len(reg.sectors) else None
        record = _publication(rng, reg, pools, shape, pub_id, expected, seed_sector)
        valid.append(record)
        lines.append(record)
    expected.lines = len(lines)
    records = [line for line in lines if isinstance(line, PublicationRecord)]
    write_publications(records, path)
    if len(records) < len(lines):
        # Splice the broken-JSON lines back in at their planted positions.
        written = iter(path.read_text(encoding="utf-8").splitlines(keepends=True))
        text = "".join(line + "\n" if isinstance(line, str) else next(written) for line in lines)
        path.write_text(text, encoding="utf-8")
    return expected


def write_config(path: Path, files: dict[str, Path]) -> None:
    lines = [f"{key} = {files[key].name}" for key in ("publications", "organizations", "roster", "taxonomy")]
    lines.append(f"window = {WINDOW[0]}:{WINDOW[1]}")
    lines.append("regions = " + "|".join(REGIONS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
