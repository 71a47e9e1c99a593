"""Name normalization, the affiliation table, and the staged resolution and
attribution functions.

The same normalization pipeline is used for organization names, aliases and
author surnames so that registry matching and roster matching cannot drift
apart. Each normalizer is one ``str.translate`` through a table whose entry
for a code point is its NFKD decomposition with the character rule applied.
The tables fill themselves on demand, a module-level memo of one entry per
distinct code point seen that no result depends on; ASCII input goes
through plain copies of their 128 ASCII entries.

``Resolver.build`` makes the one table the pass (``cli.run_pipeline``) looks
each affiliation string up in; the pass's docstring states the rules.

``resolve_affiliation``, ``resolve_publication``, ``attribute_authors`` and
``resolution_report_rows`` are the staged chain the pass replaced: the same
rules as records. No command calls them; they stay only while the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .model import UNIVERSITY, AffiliationResolution, AuthorAttribution, PublicationRecord, Registry

EXACT = "exact"
ALIAS = "alias"
UNRESOLVED = "unresolved"

UNIQUE = "unique"
AMBIGUOUS_SKIPPED = "ambiguous_skipped"
AMBIGUOUS_ALL = "ambiguous_all"


def _name_rule(ch: str) -> str | None:
    """One code point of a name after NFKD: a combining mark is dropped, any
    other character that is not alphanumeric becomes a space, and the rest
    are case-folded (``casefold`` maps each character on its own)."""
    if unicodedata.combining(ch):
        return None
    return ch.casefold() if ch.isalnum() else " "


def _initials_rule(ch: str) -> str | None:
    """One code point of initials after NFKD: a letter that is not a
    combining mark is uppercased, everything else is dropped."""
    return ch.upper() if ch.isalpha() and not unicodedata.combining(ch) else None


class _CodePointTable(dict):
    """A ``str.translate`` table that fills itself: a code point's entry is
    its NFKD decomposition with ``rule`` applied to each character (None if
    nothing is left), computed at the first lookup and kept. One translate
    through it equals NFKD of the whole string, then the rule: NFKD
    decomposes each code point on its own, and its canonical reordering
    moves only marks of non-zero combining class, which both rules drop."""

    def __init__(self, rule: Callable[[str], str | None]):
        super().__init__()
        self.rule = rule

    def __missing__(self, code: int) -> str | None:
        decomposed = unicodedata.normalize("NFKD", chr(code))
        value = self[code] = "".join(filter(None, map(self.rule, decomposed))) or None
        return value


_NAME_TABLE = _CodePointTable(_name_rule)
_INITIALS_TABLE = _CodePointTable(_initials_rule)

# Plain-dict copies of the first 128 entries: ASCII input translates faster
# through a plain dict than through the subclass. Deletions are None, not "":
# an empty string takes ASCII input off CPython's fast translate path.
_ASCII_NAME = {code: _NAME_TABLE[code] for code in range(128)}
_ASCII_INITIALS = {code: _INITIALS_TABLE[code] for code in range(128)}


def normalize_name(raw: str) -> str:
    """Return the canonical matching form of a name.

    Compatibility-decompose, strip diacritics, casefold, replace punctuation
    with spaces, collapse whitespace, in one ``str.translate`` through the
    code-point table (its ASCII copy for ASCII input). The result is
    idempotent: normalizing an already-normalized string changes nothing.

    >>> normalize_name("Università  di ROMA “Tor Vergata”")
    'universita di roma tor vergata'
    """
    return " ".join(raw.translate(_ASCII_NAME if raw.isascii() else _NAME_TABLE).split())


def normalize_initials(raw: str) -> str:
    """Uppercase the letters of an initials string, dropping punctuation and
    diacritics, in one ``str.translate`` like ``normalize_name``."""
    return raw.translate(_ASCII_INITIALS if raw.isascii() else _INITIALS_TABLE)


# What the table gives every name it lacks: one shared entry.
NO_MATCH = (UNRESOLVED, None, False, None)


@dataclass(frozen=True)
class Resolver:
    """The affiliation table of a registry, and its shared aliases.

    ``table`` maps each normalized canonical name and alias to (tier, org id,
    is a university, region). A canonical name resolves ``exact`` at the
    lowest org id that carries it; any other alias resolves ``alias`` at the
    lowest id that lists it.

    ``ambiguous_aliases`` records every normalized alias shared by more than
    one organization, mapped to the sorted org ids that share it, so that
    callers can surface the ambiguity as a warning once per alias.
    """

    table: Mapping[str, tuple[str, str, bool, str]]
    ambiguous_aliases: Mapping[str, tuple[str, ...]]

    @classmethod
    def build(cls, registry: Registry) -> "Resolver":
        # Highest id first, so that the lowest writes last; the canonical
        # names go after every alias, which they beat.
        orgs = sorted(registry.by_id.items(), reverse=True)
        table: dict[str, tuple[str, str, bool, str]] = {}
        sharing: dict[str, set[str]] = {}
        for org_id, org in orgs:
            for alias in org.aliases:
                normalized = normalize_name(alias)
                if normalized:
                    sharing.setdefault(normalized, set()).add(org_id)
                    table[normalized] = (ALIAS, org_id, org.kind == UNIVERSITY, org.region)
        for org_id, org in orgs:
            table[normalize_name(org.canonical_name)] = (
                EXACT, org_id, org.kind == UNIVERSITY, org.region
            )
        ambiguous = {
            name: tuple(sorted(ids)) for name, ids in sorted(sharing.items()) if len(ids) > 1
        }
        return cls(table, ambiguous)


def resolve_affiliation(raw: str, resolver: Resolver) -> AffiliationResolution:
    """Match one raw address string against the organization registry, by
    the resolution rule of ``cli.run_pipeline``."""
    tier, org_id, _, _ = resolver.table.get(normalize_name(raw), NO_MATCH)
    return AffiliationResolution(raw, org_id, tier)


def resolve_publication(
    pub: PublicationRecord,
    resolver: Resolver,
    seen: dict[str, AffiliationResolution] | None = None,
) -> tuple[AffiliationResolution, ...]:
    """Resolve every affiliation of a publication, preserving input order.

    ``seen`` maps raw strings already resolved against the same resolver to
    their resolution; a run passes one dict for all its publications so that
    each distinct string is resolved once. Resolutions are immutable, so
    mentions of one string share one object.
    """
    if seen is None:
        seen = {}
    resolutions = []
    for raw in pub.affiliations:
        if raw not in seen:
            seen[raw] = resolve_affiliation(raw, resolver)
        resolutions.append(seen[raw])
    return tuple(resolutions)


def attribute_authors(
    pub: PublicationRecord,
    universities: Sequence[str],
    roster: Mapping[tuple[str, str], tuple[tuple[str, str, frozenset[int]], ...]],
    policy: str = "strict",
) -> tuple[AuthorAttribution, ...]:
    """Attach roster universities and sectors to a publication's authors, by
    the attribution rule of ``cli.run_pipeline``, given the publication's
    resolved university ids: one ``unique`` record per author with one
    candidate; for an ambiguous author one ``ambiguous_skipped`` marker (no
    sector) under policy ``strict``, one ``ambiguous_all`` record per
    candidate sector under ``all``.
    """
    if not universities:
        return ()
    pub_id, year = pub.pub_id, pub.year
    out: list[AuthorAttribution] = []
    for index, author in enumerate(pub.authors):
        # An AuthorName equals the (surname, initials) key it holds.
        triples = roster.get(author)
        if triples is None:
            continue
        candidates = {
            (university_id, sds)
            for university_id, sds, years in triples
            if university_id in universities and year in years
        }
        if not candidates:
            continue
        if len(candidates) == 1:
            ((university_id, sds),) = candidates
            out.append(AuthorAttribution(pub_id, index, university_id, sds, UNIQUE))
        elif policy == "strict":
            out.append(AuthorAttribution(pub_id, index, None, None, AMBIGUOUS_SKIPPED))
        else:
            for sds in sorted({sds for _, sds in candidates}):
                university_id = min(u for u, s in candidates if s == sds)
                out.append(AuthorAttribution(pub_id, index, university_id, sds, AMBIGUOUS_ALL))
    return tuple(out)


def resolution_report_rows(
    pubs: Sequence[PublicationRecord],
    resolutions: Mapping[str, Sequence[AffiliationResolution]],
    attributions: Mapping[str, Sequence[AuthorAttribution]],
) -> list[tuple[str, int, int, int, int, int]]:
    """Per-publication resolution and attribution tallies.

    Columns: pub_id, exact, alias, unresolved, unique, ambiguous. The
    ``ambiguous`` column counts authors (not attribution rows) whose candidate
    set was ambiguous, under either policy.
    """
    rows = []
    for pub in pubs:
        res = resolutions.get(pub.pub_id, ())
        attrs = attributions.get(pub.pub_id, ())
        exact = sum(1 for r in res if r.confidence == EXACT)
        alias = sum(1 for r in res if r.confidence == ALIAS)
        unresolved = sum(1 for r in res if r.confidence == UNRESOLVED)
        unique = sum(1 for a in attrs if a.status == UNIQUE)
        ambiguous = len({a.author_index for a in attrs if a.status != UNIQUE})
        rows.append((pub.pub_id, exact, alias, unresolved, unique, ambiguous))
    return rows
