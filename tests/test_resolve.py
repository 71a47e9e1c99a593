"""Name normalization, registry resolution, and author attribution."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from collabmarket.model import (
    ENTERPRISE,
    UNIVERSITY,
    AffiliationResolution,
    AuthorName,
    Organization,
)
from collabmarket.resolve import (
    ALIAS,
    AMBIGUOUS_ALL,
    AMBIGUOUS_SKIPPED,
    EXACT,
    UNIQUE,
    UNRESOLVED,
    Resolver,
    attribute_authors,
    normalize_initials,
    normalize_name,
    resolution_report_rows,
    resolve_affiliation,
    resolve_publication,
    _initials_unicode,
    _normalize_once,
    _normalize_unicode,
)

from conftest import YEARS, make_org, make_pub, make_registry, make_roster, split_org_ids

# Every ASCII character, controls included: str.split() treats \x1c-\x1f as
# whitespace, which the translate fast path must match.
ASCII = "".join(chr(c) for c in range(128))


class TestNormalizeName:
    def test_accents_quotes_case_and_whitespace(self):
        raw = "Università  di ROMA “Tor Vergata”"
        assert normalize_name(raw) == "universita di roma tor vergata"

    def test_punctuation_becomes_single_space(self):
        assert normalize_name("S.p.A. - R&D") == "s p a r d"

    def test_empty_and_symbol_only(self):
        assert normalize_name("") == ""
        assert normalize_name("***") == ""

    def test_digits_survive(self):
        assert normalize_name("Area 51 Labs") == "area 51 labs"

    @given(st.text(max_size=60))
    def test_idempotent(self, raw):
        once = normalize_name(raw)
        assert normalize_name(once) == once

    @given(st.text(max_size=60))
    def test_output_shape(self, raw):
        result = normalize_name(raw)
        assert result == result.strip()
        assert "  " not in result
        assert result == result.casefold()

    @given(st.text(max_size=60) | st.text(alphabet=ASCII, max_size=60))
    def test_matches_general_path(self, raw):
        assert normalize_name(raw) == _normalize_unicode.__wrapped__(raw)

    @settings(max_examples=1000)
    @given(st.text(max_size=60))
    def test_general_path_matches_fixpoint_loop(self, raw):
        """Returning after one pass when the result is ASCII gives what
        iterating to the fixpoint gives."""
        text = _normalize_once(raw)
        for _ in range(3):
            again = _normalize_once(text)
            if again == text:
                break
            text = again
        assert _normalize_unicode.__wrapped__(raw) == text


class TestNormalizeInitials:
    def test_strips_dots_and_upcases(self):
        assert normalize_initials("m.g.") == "MG"
        assert normalize_initials(" A ") == "A"

    def test_letters_only(self):
        assert normalize_initials("J-P") == "JP"

    @given(st.text(max_size=20) | st.text(alphabet=ASCII, max_size=20))
    def test_matches_general_path(self, raw):
        assert normalize_initials(raw) == _initials_unicode.__wrapped__(raw)


class TestResolver:
    def test_canonical_and_alias_indexes(self, registry):
        resolver = Resolver.build(registry)
        assert resolver.table["universita di roma"][:2] == (EXACT, "U1")
        assert resolver.table["milan polytechnic"][:2] == (ALIAS, "U2")

    def test_alias_collision_lowest_org_id_wins(self, taxonomy):
        organizations = (
            make_org("U1", UNIVERSITY, "Lazio", "First University", aliases=("UniX",)),
            make_org("U2", UNIVERSITY, "Lombardy", "Second University", aliases=("UniX",)),
        )
        registry = make_registry(organizations, (), taxonomy)
        resolver = Resolver.build(registry)
        assert resolver.table["unix"][:2] == (ALIAS, "U1")
        assert resolver.ambiguous_aliases == {"unix": ("U1", "U2")}

    def test_roster_index_groups_homonyms(self, registry):
        triples = registry.roster[("rossi", "M")]
        assert triples == (("U1", "ING-INF/01", YEARS), ("U2", "ING-INF/01", YEARS))


# Names that registries share: spellings that normalize alike, and names that
# normalize to nothing.
NAME_POOL = ("Alpha Lab", "ALPHA  lab", "alpha-lab", "Beta", "Béta", "Gamma Works", "Delta",
             "***", "", "Ωmega")


@st.composite
def org_registries(draw):
    """Up to six organizations, ids in any order, whose canonical names and
    aliases come from ``NAME_POOL``: a name can be canonical for one and an
    alias of others, and an alias can be listed by two or three."""
    ids = draw(st.lists(st.sampled_from([f"O{i}" for i in range(12)]), min_size=1, max_size=6,
                        unique=True))
    return tuple(
        Organization(
            org_id,
            draw(st.sampled_from(NAME_POOL)),
            tuple(draw(st.lists(st.sampled_from(NAME_POOL), max_size=3))),
            draw(st.sampled_from((UNIVERSITY, ENTERPRISE))),
            draw(st.sampled_from(("Lazio", "Sicily"))),
        )
        for org_id in ids
    )


def _reference_resolution(organizations, raw):
    """The resolution rule read off the registry: the lowest id whose
    canonical name matches, else the lowest id with a matching non-empty
    alias."""
    name = normalize_name(raw)
    exact = [org.org_id for org in organizations if normalize_name(org.canonical_name) == name]
    if exact:
        return AffiliationResolution(raw, min(exact), EXACT)
    alias = [
        org.org_id
        for org in organizations
        if name and any(normalize_name(a) == name for a in org.aliases)
    ]
    if alias:
        return AffiliationResolution(raw, min(alias), ALIAS)
    return AffiliationResolution(raw, None, UNRESOLVED)


@settings(max_examples=300)
@given(organizations=org_registries(), unknown=st.text(max_size=12))
def test_table_resolves_canonical_first_then_alias_at_the_lowest_id(organizations, unknown):
    registry = make_registry(organizations, (), {})
    resolver = Resolver.build(registry)
    for raw in (*NAME_POOL, unknown, "Nowhere Institute"):
        assert resolve_affiliation(raw, resolver) == _reference_resolution(organizations, raw)
    for tier, org_id, is_university, region in resolver.table.values():
        org = registry.by_id[org_id]
        assert (is_university, region) == (org.kind == UNIVERSITY, org.region)
    sharing = {}
    for org in organizations:
        for alias in map(normalize_name, org.aliases):
            if alias:
                sharing.setdefault(alias, set()).add(org.org_id)
    assert resolver.ambiguous_aliases == {
        alias: tuple(sorted(ids)) for alias, ids in sorted(sharing.items()) if len(ids) > 1
    }


class TestResolveAffiliation:
    def test_exact_match(self, registry):
        resolver = Resolver.build(registry)
        res = resolve_affiliation("UNIVERSITA DI ROMA", resolver)
        assert (res.org_id, res.confidence) == ("U1", EXACT)

    def test_alias_match(self, registry):
        resolver = Resolver.build(registry)
        res = resolve_affiliation("Borg", resolver)
        assert (res.org_id, res.confidence) == ("E2", ALIAS)

    def test_exact_beats_alias(self, taxonomy):
        organizations = (
            make_org("A1", ENTERPRISE, "Lazio", "Target Name"),
            make_org("A2", ENTERPRISE, "Veneto", "Other Firm", aliases=("Target Name",)),
        )
        registry = make_registry(organizations, (), taxonomy)
        resolver = Resolver.build(registry)
        assert resolve_affiliation("Target Name", resolver).org_id == "A1"

    def test_unresolved(self, registry):
        resolver = Resolver.build(registry)
        res = resolve_affiliation("Nowhere Institute", resolver)
        assert (res.org_id, res.confidence) == (None, UNRESOLVED)

    def test_resolve_publication_preserves_order(self, registry):
        resolver = Resolver.build(registry)
        pub = make_pub("P1", ["Borg", "Nowhere", "Univ. Roma"])
        resolutions = resolve_publication(pub, resolver)
        assert [r.org_id for r in resolutions] == ["E2", None, "U1"]

    def test_shared_seen_resolves_each_string_once(self, registry):
        resolver = Resolver.build(registry)
        pub = make_pub("P1", ["Borg", "Univ. Roma", "Borg"])
        seen = {}
        first = resolve_publication(pub, resolver, seen)
        second = resolve_publication(make_pub("P2", ["Univ. Roma"]), resolver, seen)
        assert first == resolve_publication(pub, resolver)
        assert first[0] is first[2]
        assert second[0] is first[1]
        assert sorted(seen) == ["Borg", "Univ. Roma"]

    def test_split_org_ids_dedup_and_kind(self, registry):
        resolver = Resolver.build(registry)
        pub = make_pub("P1", ["Borg", "Borg Devices", "Univ. Roma", "Acme Research", "Nowhere"])
        resolutions = resolve_publication(pub, resolver)
        universities, enterprises = split_org_ids(resolutions, registry)
        assert enterprises == ("E1", "E2")
        assert universities == ("U1",)


class TestAttribution:
    def _resolve(self, registry, pub):
        """The roster table and the publication's resolved university ids."""
        resolver = Resolver.build(registry)
        universities, _ = split_org_ids(resolve_publication(pub, resolver), registry)
        return registry.roster, universities

    def test_unique_match(self, registry):
        pub = make_pub("P1", ["Politecnico di Milano"], authors=[("bianchi", "G")])
        roster, universities = self._resolve(registry, pub)
        (att,) = attribute_authors(pub, universities, roster)
        assert (att.university_id, att.sds, att.status) == ("U2", "FIS/01", UNIQUE)

    def test_year_outside_active_years_blocks(self, registry):
        pub = make_pub("P1", ["Universita di Roma"], authors=[("verdi", "A")], year=2002)
        roster, universities = self._resolve(registry, pub)
        assert attribute_authors(pub, universities, roster) == ()

    def test_unmatched_author_produces_nothing(self, registry):
        pub = make_pub("P1", ["Universita di Roma"], authors=[("neri", "Z")])
        roster, universities = self._resolve(registry, pub)
        assert attribute_authors(pub, universities, roster) == ()

    def test_university_not_in_publication_blocks(self, registry):
        pub = make_pub("P1", ["Acme Research"], authors=[("rossi", "M")])
        roster, universities = self._resolve(registry, pub)
        assert attribute_authors(pub, universities, roster) == ()

    def test_ambiguous_strict_skips_with_no_sds(self, registry):
        pub = make_pub("P1", ["Universita di Roma", "Politecnico di Milano"],
                       authors=[("rossi", "M")])
        roster, universities = self._resolve(registry, pub)
        (att,) = attribute_authors(pub, universities, roster, "strict")
        assert att.status == AMBIGUOUS_SKIPPED
        assert att.sds is None and att.university_id is None

    def test_ambiguous_all_one_per_distinct_sds(self, registry):
        pub = make_pub("P1", ["Universita di Roma", "Politecnico di Milano"],
                       authors=[("rossi", "M")])
        roster, universities = self._resolve(registry, pub)
        atts = attribute_authors(pub, universities, roster, "all")
        # both candidates share ING-INF/01, so one attribution at the lowest id
        assert [(a.university_id, a.sds, a.status) for a in atts] == [
            ("U1", "ING-INF/01", AMBIGUOUS_ALL)
        ]

    def test_single_candidate_from_many_entries_is_unique(self, registry):
        pub = make_pub("P1", ["Universita di Roma"], authors=[("rossi", "M")])
        roster, universities = self._resolve(registry, pub)
        (att,) = attribute_authors(pub, universities, roster)
        assert (att.university_id, att.status) == ("U1", UNIQUE)

    def test_report_rows(self, registry):
        resolver = Resolver.build(registry)
        pub = make_pub("P1", ["Univ. Roma", "Nowhere", "Acme Research"],
                       authors=[("rossi", "M"), ("neri", "Z")])
        resolutions = {"P1": resolve_publication(pub, resolver)}
        universities, _ = split_org_ids(resolutions["P1"], registry)
        attributions = {"P1": attribute_authors(pub, universities, registry.roster)}
        (row,) = resolution_report_rows([pub], resolutions, attributions)
        # exact=1 (Acme), alias=1 (Univ. Roma), unresolved=1, unique=1, ambiguous=0
        assert row == ("P1", 1, 1, 1, 1, 0)
