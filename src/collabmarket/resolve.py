"""Name normalization, the affiliation table, and the staged resolution and
attribution functions.

The same normalization pipeline is used for organization names, aliases and
author surnames so that registry matching and roster matching cannot drift
apart. Each normalizer makes one table-driven ``str.translate`` per pass:
ASCII input through a complete table of the 128 ASCII characters, any other
input, after NFKD, through a code-point table that applies the character rule
to each code point once. The code-point tables are module-level memos, one
entry per distinct code point seen; no result depends on what they hold.

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
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .model import UNIVERSITY, AffiliationResolution, AuthorAttribution, PublicationRecord, Registry

EXACT = "exact"
ALIAS = "alias"
UNRESOLVED = "unresolved"

UNIQUE = "unique"
AMBIGUOUS_SKIPPED = "ambiguous_skipped"
AMBIGUOUS_ALL = "ambiguous_all"


# Distinct non-ASCII names and initials per run are a few thousand.
_UNICODE_CACHE_SIZE = 1 << 14


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
    """A ``str.translate`` table filled on demand: the entry of a code point
    is ``rule(chr(code))``, computed the first time ``translate`` looks it up
    and kept. It is a memo, one entry per distinct code point seen; no
    result depends on what it holds."""

    def __init__(self, rule: Callable[[str], str | None]):
        super().__init__()
        self.rule = rule

    def __missing__(self, code: int) -> str | None:
        value = self[code] = self.rule(chr(code))
        return value


_NAME_TABLE = _CodePointTable(_name_rule)
_INITIALS_TABLE = _CodePointTable(_initials_rule)

# On ASCII input NFKD is the identity, so the rules' values for all 128
# characters make a complete table, the case fold built in, and one translate
# does the whole pass. The rules delete by None, not "": an empty string takes
# ASCII input off CPython's fast translate path.
_ASCII_NAME = {code: _name_rule(chr(code)) for code in range(128)}
_ASCII_INITIALS = {code: _initials_rule(chr(code)) for code in range(128)}


@lru_cache(maxsize=_UNICODE_CACHE_SIZE)
def _normalize_unicode(raw: str) -> str:
    """The general path, correct for any input: NFKD, so that accents split
    off as combining marks and compatibility characters flatten out, then one
    translate. One pass is a fixpoint: it is one on the output of each code
    point, which a test checks, and the rule maps each character on its own
    and drops exactly the marks that canonical reordering moves."""
    return " ".join(unicodedata.normalize("NFKD", raw).translate(_NAME_TABLE).split())


def normalize_name(raw: str) -> str:
    """Return the canonical matching form of a name.

    Compatibility-decompose, strip diacritics, casefold, replace punctuation
    with spaces, collapse whitespace. The result is idempotent: normalizing an
    already-normalized string changes nothing.

    Each pass is one table-driven ``str.translate``. ASCII input goes through
    a table of all 128 characters with the case fold built in; any other
    input is NFKD-decomposed, then goes through the code-point table. That
    table is a module-level memo, one entry per distinct code point seen,
    and no result depends on what it holds. On ASCII input both paths give
    the same string, so which one ran never shows in the result.

    >>> normalize_name("Università  di ROMA “Tor Vergata”")
    'universita di roma tor vergata'
    """
    if raw.isascii():
        return " ".join(raw.translate(_ASCII_NAME).split())
    return _normalize_unicode(raw)


@lru_cache(maxsize=_UNICODE_CACHE_SIZE)
def _initials_unicode(raw: str) -> str:
    return unicodedata.normalize("NFKD", raw).translate(_INITIALS_TABLE)


def normalize_initials(raw: str) -> str:
    """Uppercase the letters of an initials string, dropping punctuation.

    Like ``normalize_name``, one table-driven ``translate``: ASCII input goes
    through a table of all 128 characters with the uppercasing built in, any
    other input is NFKD-decomposed and goes through a code-point table, a
    module-level memo of one entry per distinct code point seen that no
    result depends on. Both paths give the same result on ASCII input.
    """
    if raw.isascii():
        return raw.translate(_ASCII_INITIALS)
    return _initials_unicode(raw)


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
