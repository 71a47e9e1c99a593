"""Name normalization, affiliation resolution, and author attribution.

The same normalization pipeline is used for organization names, aliases and
author surnames so that registry matching and roster matching cannot drift
apart.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .model import UNIVERSITY, AffiliationResolution, AuthorAttribution, PublicationRecord, Registry

EXACT = "exact"
ALIAS = "alias"
UNRESOLVED = "unresolved"

UNIQUE = "unique"
AMBIGUOUS_SKIPPED = "ambiguous_skipped"
AMBIGUOUS_ALL = "ambiguous_all"


# Distinct non-ASCII names and initials per run are a few thousand.
_UNICODE_CACHE_SIZE = 1 << 14

# On ASCII input NFKD is the identity, nothing is a combining mark and
# casefold() equals lower(), so one translate does the whole per-character pass.
_ASCII_NON_ALNUM_TO_SPACE = {c: " " for c in range(128) if not chr(c).isalnum()}
_ASCII_NON_ALPHA = {c: None for c in range(128) if not chr(c).isalpha()}


def _normalize_once(raw: str) -> str:
    # NFKD first so that accented letters split into base + combining mark and
    # compatibility characters (ligatures, fullwidth forms) flatten out.
    decomposed = unicodedata.normalize("NFKD", raw)
    kept: list[str] = []
    for ch in decomposed:
        if unicodedata.combining(ch):
            continue
        kept.append(ch if ch.isalnum() else " ")
    return " ".join("".join(kept).casefold().split())


@lru_cache(maxsize=_UNICODE_CACHE_SIZE)
def _normalize_unicode(raw: str) -> str:
    """The general normalization path, correct for any input."""
    text = _normalize_once(raw)
    if text.isascii():
        # Already a fixpoint: the pass changes nothing in ASCII letters,
        # digits and single spaces.
        return text
    # casefold can introduce characters that decompose again (rare); iterate
    # to a fixpoint so idempotence holds for arbitrary input.
    for _ in range(3):
        again = _normalize_once(text)
        if again == text:
            break
        text = again
    return text


def normalize_name(raw: str) -> str:
    """Return the canonical matching form of a name.

    Compatibility-decompose, strip diacritics, casefold, replace punctuation
    with spaces, collapse whitespace. The result is idempotent: normalizing an
    already-normalized string changes nothing.

    ASCII input takes a single ``translate`` pass; every other input takes the
    general per-character path. On ASCII input both give the same string, so
    which path ran never shows in the result.

    >>> normalize_name("Università  di ROMA “Tor Vergata”")
    'universita di roma tor vergata'
    """
    if raw.isascii():
        return " ".join(raw.translate(_ASCII_NON_ALNUM_TO_SPACE).lower().split())
    return _normalize_unicode(raw)


@lru_cache(maxsize=_UNICODE_CACHE_SIZE)
def _initials_unicode(raw: str) -> str:
    decomposed = unicodedata.normalize("NFKD", raw)
    letters = [c for c in decomposed if c.isalpha() and not unicodedata.combining(c)]
    return "".join(letters).upper()


def normalize_initials(raw: str) -> str:
    """Uppercase the letters of an initials string, dropping punctuation.

    Like ``normalize_name``, ASCII input takes a ``translate`` fast path that
    gives the same result as the general path.
    """
    if raw.isascii():
        return raw.translate(_ASCII_NON_ALPHA).upper()
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
    """Match one raw address string against the organization registry.

    Tier 1 is an exact match on the normalized canonical name, tier 2 a match
    on any normalized alias; anything else is unresolved. Ties on a shared
    name are broken deterministically by the lowest org id.
    """
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
    """Attach roster universities and sectors to a publication's authors.

    The candidate set for an author is every distinct (university, sds) pair
    among the ``roster`` triples (``Registry.roster``) of the author's name
    key whose university is among ``universities``, the publication's
    resolved university ids, and whose active years contain the publication
    year.
    A single candidate yields a ``unique`` attribution. With several
    candidates, policy ``strict`` emits one ``ambiguous_skipped`` marker (no
    sector), while policy ``all`` emits one ``ambiguous_all`` attribution per
    distinct candidate sector, using the lowest university id when the same
    sector appears at several universities.
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
