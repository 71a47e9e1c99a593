"""Name normalization, the affiliation table, and the pass's resolution and
attribution rules, read off its report rows and events."""

from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmarket import resolve
from collabmarket.model import ENTERPRISE, UNIVERSITY, Organization
from collabmarket.resolve import (
    ALIAS,
    EXACT,
    NO_MATCH,
    Resolver,
    normalize_initials,
    normalize_name,
    resolve_publication,
)

from conftest import YEARS, make_org, make_pub, make_registry, make_roster, run_pass

# Every ASCII character, controls included: str.split() treats \x1c-\x1f as
# whitespace, which the translate fast path must match.
ASCII = "".join(chr(c) for c in range(128))


def _reference_once(raw):
    """One normalization pass as a per-character loop: drop combining marks,
    turn every other non-alphanumeric into a space, casefold, collapse
    whitespace."""
    decomposed = unicodedata.normalize("NFKD", raw)
    kept = []
    for ch in decomposed:
        if unicodedata.combining(ch):
            continue
        kept.append(ch if ch.isalnum() else " ")
    return " ".join("".join(kept).casefold().split())


def _reference_initials(raw):
    """Initials as a per-character loop: keep the letters that are not
    combining marks, uppercase."""
    decomposed = unicodedata.normalize("NFKD", raw)
    letters = [c for c in decomposed if c.isalpha() and not unicodedata.combining(c)]
    return "".join(letters).upper()


def _name_pass(raw):
    """One translate through the code-point name table, as a non-ASCII
    string takes it. The table is read at call time, so a test that patches
    in a fresh one is what this uses."""
    return " ".join(raw.translate(resolve._NAME_TABLE).split())


def _initials_pass(raw):
    """One translate through the code-point initials table, read at call
    time."""
    return raw.translate(resolve._INITIALS_TABLE)


@given(st.text(max_size=60) | st.text(alphabet=ASCII, max_size=60))
def test_translate_passes_match_the_per_character_reference(raw):
    assert _name_pass(raw) == _reference_once(raw)
    assert _initials_pass(raw) == _reference_initials(raw)


def test_every_code_point_matches_the_per_character_reference(monkeypatch):
    """Every code point, 0 to 0x10FFFF, in consecutive 64-character strings,
    under this Python's Unicode database. Each plane starts from empty
    code-point tables, so the memos hold at most one plane at a time."""
    for start in range(0, 0x110000, 64):
        if start % 0x10000 == 0:
            monkeypatch.setattr(resolve, "_NAME_TABLE", resolve._CodePointTable(resolve._name_rule))
            monkeypatch.setattr(resolve, "_INITIALS_TABLE",
                                resolve._CodePointTable(resolve._initials_rule))
        raw = "".join(map(chr, range(start, start + 64)))
        assert _name_pass(raw) == _reference_once(raw), hex(start)
        assert _initials_pass(raw) == _reference_initials(raw), hex(start)


def test_one_pass_is_a_fixpoint_on_every_code_point(monkeypatch):
    """A second pass changes nothing in the output of any code point, 0 to
    0x10FFFF but the surrogates, under this Python's Unicode database. The
    rule maps each character on its own and drops exactly the marks that
    canonical reordering moves, so one pass is then a fixpoint on every
    string. Each plane starts from an empty code-point table."""
    once = _name_pass
    for code in range(0x110000):
        if code % 0x10000 == 0:
            monkeypatch.setattr(resolve, "_NAME_TABLE", resolve._CodePointTable(resolve._name_rule))
        if 0xD800 <= code <= 0xDFFF:
            continue
        out = once(chr(code))
        assert once(out) == out, hex(code)


# Marks of classes 230 (U+0301), 220 (U+0323), 1 (U+0334) and 10 (U+05B0)
# out of canonical order, after a base letter, after the marks that a
# precomposed letter (ệ, ǘ) decomposes into, and before a letter; then
# Hangul syllables and conjoining jamo, and compatibility characters (ﬁ, ①)
# and ẞ, with marks of their own. NFKD of each string reorders marks that
# came from different code points, so the table's per-code-point entries
# hold only because both rules drop every mark that moves.
REORDERED = [
    "a\u0301\u0323\u0334\u05b0",
    "Z\u05b0\u0334\u0323\u0301q",
    "\u1ec7\u0334\u0301",
    "\u01d8\u0323x\u0334\u1ec7\u05b0",
    "\u0301\u1ec7\u0323 \u01d8",
    "\ud55c\u0301\u0334\uae00 \u1100\u1161\u11a8\u0323\u0334",
    "\ufb01\u0301\u0334n \u2460\u0323\u05b0 \u1e9e\u0323\u0334\u00df",
]


@pytest.mark.parametrize("raw", REORDERED, ids=ascii)
def test_marks_reordered_across_code_points_match_the_reference(raw):
    by_code_point = "".join(unicodedata.normalize("NFKD", ch) for ch in raw)
    assert unicodedata.normalize("NFKD", raw) != by_code_point
    assert normalize_name(raw) == _reference_once(raw)
    assert normalize_initials(raw) == _reference_initials(raw)


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
        assert normalize_name(raw) == _name_pass(raw)

    @settings(max_examples=1000)
    @given(st.text(max_size=60))
    def test_general_path_matches_fixpoint_loop(self, raw):
        """One pass of the general path gives what iterating the reference
        pass to its fixpoint gives."""
        text = _reference_once(raw)
        for _ in range(3):
            again = _reference_once(text)
            if again == text:
                break
            text = again
        assert _name_pass(raw) == text


class TestNormalizeInitials:
    def test_strips_dots_and_upcases(self):
        assert normalize_initials("m.g.") == "MG"
        assert normalize_initials(" A ") == "A"

    def test_letters_only(self):
        assert normalize_initials("J-P") == "JP"

    @given(st.text(max_size=20) | st.text(alphabet=ASCII, max_size=20))
    def test_matches_general_path(self, raw):
        assert normalize_initials(raw) == _initials_pass(raw)


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
    """The resolution rule read off the registry as (tier, org id): the
    lowest id whose canonical name matches, else the lowest id with a
    matching non-empty alias."""
    name = normalize_name(raw)
    exact = [org.org_id for org in organizations if normalize_name(org.canonical_name) == name]
    if exact:
        return EXACT, min(exact)
    alias = [
        org.org_id
        for org in organizations
        if name and any(normalize_name(a) == name for a in org.aliases)
    ]
    if alias:
        return ALIAS, min(alias)
    return NO_MATCH[:2]


@settings(max_examples=300)
@given(organizations=org_registries(), unknown=st.text(max_size=12))
def test_table_resolves_canonical_first_then_alias_at_the_lowest_id(organizations, unknown):
    registry = make_registry(organizations, (), {})
    resolver = Resolver.build(registry)
    for raw in (*NAME_POOL, unknown, "Nowhere Institute"):
        hit = resolver.table.get(normalize_name(raw), NO_MATCH)
        assert hit[:2] == _reference_resolution(organizations, raw)
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


def _ue_pairs(ue_events):
    """(university, enterprise) of each university-enterprise event."""
    return sorted((u, e) for _, u, _, e, _, _ in ue_events)


class TestResolveAffiliation:
    """Report rows: pub_id, exact, alias, unresolved, unique, ambiguous. The
    events show the resolved org ids of a retained publication. The two
    ``resolve_publication`` tests check that records form of the rule, which
    only the benchmark's tracer still wraps."""

    def test_exact_match(self, run):
        _, report, ue_events, _ = run([make_pub("P1", ["UNIVERSITA DI ROMA", "Acme Research"])])
        assert report == [("P1", 2, 0, 0, 1, 0)]
        assert _ue_pairs(ue_events) == [("U1", "E1")]

    def test_alias_match(self, run):
        _, report, ue_events, _ = run([make_pub("P1", ["Borg", "Universita di Roma"])])
        assert report == [("P1", 1, 1, 0, 1, 0)]
        assert _ue_pairs(ue_events) == [("U1", "E2")]

    def test_exact_beats_alias(self, taxonomy, tmp_path):
        organizations = (
            make_org("A1", ENTERPRISE, "Lazio", "Target Name"),
            make_org("A2", ENTERPRISE, "Veneto", "Other Firm", aliases=("Target Name",)),
            make_org("U1", UNIVERSITY, "Lazio", "Uni"),
        )
        _, report, ue_events, _ = run_pass(tmp_path, [make_pub("P1", ["Target Name", "Uni"])],
                                           organizations, [make_roster("rossi", "M", "U1")],
                                           taxonomy)
        assert report == [("P1", 2, 0, 0, 1, 0)]
        assert _ue_pairs(ue_events) == [("U1", "A1")]

    def test_unresolved(self, run):
        result, report, ue_events, _ = run([make_pub("P1", ["Nowhere Institute"])])
        assert report == [("P1", 0, 0, 1, 0, 0)]
        assert (result.retained, ue_events) == (0, [])

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

    def test_split_org_ids_dedup_and_kind(self, run):
        pub = make_pub("P1", ["Borg", "Borg Devices", "Univ. Roma", "Acme Research", "Nowhere"])
        result, report, ue_events, _ = run([pub])
        assert report == [("P1", 2, 2, 1, 1, 0)]
        assert _ue_pairs(ue_events) == [("U1", "E1"), ("U1", "E2")]
        assert (result.cube.universities, result.cube.enterprises) == ({"U1"}, {"E1", "E2"})


def _sds_events(sds_events):
    """(sector, area, supply region, enterprise) of each sector event."""
    return sorted((sds, uda, region, e) for _, sds, uda, region, e, _, _ in sds_events)


class TestAttribution:
    """Each publication lists Acme Research, an enterprise, so that an
    attributed author's sector shows in its events."""

    def test_unique_match(self, run):
        pub = make_pub("P1", ["Politecnico di Milano", "Acme Research"], authors=[("bianchi", "G")])
        _, report, ue_events, sds_events = run([pub])
        assert report == [("P1", 2, 0, 0, 1, 0)]
        assert _sds_events(sds_events) == [("FIS/01", "02", "Lombardy", "E1")]
        assert _ue_pairs(ue_events) == [("U2", "E1")]

    def test_year_outside_active_years_blocks(self, run):
        result, report, _, _ = run([make_pub("P1", ["Universita di Roma", "Acme Research"],
                                             authors=[("verdi", "A")], year=2002)])
        assert report == [("P1", 2, 0, 0, 0, 0)]
        assert result.retained == 0

    def test_unmatched_author_produces_nothing(self, run):
        result, report, _, _ = run([make_pub("P1", ["Universita di Roma", "Acme Research"],
                                             authors=[("neri", "Z")])])
        assert report == [("P1", 2, 0, 0, 0, 0)]
        assert result.retained == 0

    def test_university_not_in_publication_blocks(self, run):
        result, report, _, _ = run([make_pub("P1", ["Acme Research"], authors=[("rossi", "M")])])
        assert report == [("P1", 1, 0, 0, 0, 0)]
        assert result.retained == 0

    def test_ambiguous_strict_skips_with_no_sds(self, run):
        pub = make_pub("P1", ["Universita di Roma", "Politecnico di Milano", "Acme Research"],
                       authors=[("rossi", "M")])
        result, report, _, sds_events = run([pub], ambiguity="strict")
        assert report == [("P1", 3, 0, 0, 0, 1)]
        assert (result.retained, sds_events) == (0, [])

    def test_ambiguous_all_one_per_distinct_sds(self, run):
        pub = make_pub("P1", ["Universita di Roma", "Politecnico di Milano", "Acme Research"],
                       authors=[("rossi", "M")])
        _, report, _, sds_events = run([pub], ambiguity="all")
        assert report == [("P1", 3, 0, 0, 0, 1)]
        # both candidates share ING-INF/01, so one attribution at the lowest
        # id, U1, whose region supplies the sector
        assert _sds_events(sds_events) == [("ING-INF/01", "09", "Lazio", "E1")]

    def test_single_candidate_from_many_entries_is_unique(self, run):
        _, report, _, sds_events = run([make_pub("P1", ["Universita di Roma", "Acme Research"],
                                                 authors=[("rossi", "M")])])
        assert report == [("P1", 2, 0, 0, 1, 0)]
        assert _sds_events(sds_events) == [("ING-INF/01", "09", "Lazio", "E1")]

    def test_report_rows(self, run):
        _, report, _, _ = run([make_pub("P1", ["Univ. Roma", "Nowhere", "Acme Research"],
                                        authors=[("rossi", "M"), ("neri", "Z")])])
        # exact=1 (Acme), alias=1 (Univ. Roma), unresolved=1, unique=1, ambiguous=0
        assert report == [("P1", 1, 1, 1, 1, 0)]
