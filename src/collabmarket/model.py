"""Domain model: publications, registries, and derived collaboration events.

Every type is an immutable ``NamedTuple``; the registry bundle, built once per
run, holds the loaders' own dicts and tuples. Loaders (module ``ingest``) and
derivation functions (modules ``resolve`` and ``collab``) are responsible for
enforcing the invariants documented on each class; the classes themselves
stay dumb so they are cheap to construct, in the pipeline and in tests.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

UNIVERSITY = "university"
ENTERPRISE = "enterprise"
ORG_KINDS = (UNIVERSITY, ENTERPRISE)


class AuthorName(NamedTuple):
    """Author name key as indexed in bibliographies.

    ``surname`` is stored in normalized form (see ``resolve.normalize_name``)
    and ``initials`` as 1-3 uppercase letters without punctuation, so that two
    occurrences of the same person compare equal.
    """

    surname: str
    initials: str


class PublicationRecord(NamedTuple):
    """One indexed article: identity, year, author keys, raw address strings.

    Affiliations are kept verbatim; resolution against the organization
    registry happens later and never mutates the record.
    """

    pub_id: str
    year: int
    authors: tuple[AuthorName, ...]
    affiliations: tuple[str, ...]


class Organization(NamedTuple):
    """Registry entry for a university or a domestically located enterprise.

    ``aliases`` always contains the canonical name itself plus any alternative
    spellings; all matching is done on normalized forms.
    """

    org_id: str
    canonical_name: str
    aliases: tuple[str, ...]
    kind: str
    region: str


class Registry(NamedTuple):
    """Immutable bundle of the loaded registries, shared by every stage.

    ``roster`` maps each roster name key (surname, initials) to the
    (university id, sds, active years) triples of its rows, in file order:
    all that attribution reads of a row. ``headcounts`` maps every taxonomy
    sector, in sorted order, to its fractional scientist headcount by the
    region of each row's university. ``taxonomy`` maps each scientific
    disciplinary sector (SDS) to its parent area (UDA). ``by_id`` maps each
    org id to its organization, in file order: the loader skips a duplicate
    org id.
    """

    roster: Mapping[tuple[str, str], tuple[tuple[str, str, frozenset[int]], ...]]
    headcounts: Mapping[str, Mapping[str, float]]
    taxonomy: Mapping[str, str]
    by_id: Mapping[str, Organization]


class AffiliationResolution(NamedTuple):
    """Outcome of matching one raw address string against the registry.

    ``org_id`` is set exactly when ``confidence`` is not ``unresolved``.
    """

    raw: str
    org_id: str | None
    confidence: str  # "exact" | "alias" | "unresolved"


class AuthorAttribution(NamedTuple):
    """Assignment of one publication author to a university and an SDS.

    ``sds`` and ``university_id`` are set for statuses ``unique`` and
    ``ambiguous_all``; an ``ambiguous_skipped`` row marks an author whose
    roster candidates conflicted and was therefore left unattributed.
    """

    pub_id: str
    author_index: int
    university_id: str | None
    sds: str | None
    status: str  # "unique" | "ambiguous_skipped" | "ambiguous_all"


class UECollaboration(NamedTuple):
    """One university-enterprise collaboration event for one publication.

    The field order is the column order of ``events_ue.csv``.
    """

    pub_id: str
    university_id: str
    u_region: str
    enterprise_id: str
    e_region: str
    year: int


class SDSCollaboration(NamedTuple):
    """One sector-enterprise collaboration event for one publication.

    ``supply_region`` is the region of the university whose roster author
    carried the sector into the publication. The field order is the column
    order of ``events_sds.csv``.
    """

    pub_id: str
    sds: str
    uda: str
    supply_region: str
    enterprise_id: str
    e_region: str
    year: int


class CorpusTotals(NamedTuple):
    """Headline event counts over a derived corpus; ``snapshot.json`` holds
    them under ``totals``, keyed by field name."""

    ue_events: int
    sds_events: int
    universities: int
    enterprises: int
    active_sds: int
