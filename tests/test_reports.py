"""The reports against their hand-written forms.

AnalysisReport.to_json builds its keys from the dataclass fields, and
chiral_report reads the facts it shares with a string group off analyze.
The references below spell both out the long way: the JSON key by key,
and the rotation report computing its face counts, flatness, tightness
and intersection verdict itself.  Every report must equal its reference
on the corpus (with each entry's facet and vertex-figure for analyze),
on the rotation tori {4,4}_(b,c) and {3,6}_(b,c) with b, c <= 6, and on
a rotation group that fails the intersection condition.
"""

import pytest

from polyflag.analysis import analyze, f_vector, flatness_spectrum, is_tight
from polyflag import chiral as chiral_module
from polyflag.chiral import (
    StructureFacts, build_rotation_group, chiral_lower_bound, chiral_report,
    mixed_regular_cover_flags, rotation_torus_map, _kind,
)
from polyflag.corpus import corpus_names, load_entry
from polyflag.presentation import parse_presentation
from polyflag.stringc import is_string_c_group

NAMES = corpus_names()
ROTATION_NAMES = [n for n in NAMES if load_entry(n)[0].kind == "rotation"]
TORI = [(kind, b, c) for kind in ("44", "36") for b in range(7)
        for c in range(7) if (b, c) != (0, 0)]
# s1^2 = s2^2 makes <s1> meet <s2> in a subgroup of order 2
NOT_C_PLUS = ("rank 3\nkind rotation\nrel s1^4\nrel s2^4\nrel (s1 s2)^2\n"
              "rel s1^2 s2^-2\n")


def reference_to_json(report):
    out = {
        "rank": report.rank,
        "order": report.order,
        "flag_count": report.flag_count,
        "schlafli": list(report.schlafli),
        "f_vector": list(report.f_vector),
        "c_group": report.c_group,
        "flat_pairs": [list(p) for p in report.flat_pairs],
        "is_flat": report.is_flat,
        "is_tight": report.is_tight,
        "is_degenerate": report.is_degenerate,
        "audit_violations": list(report.audit_violations),
    }
    if not report.c_group:
        out["c_group_witness"] = report.c_group_witness.rank_sets()
    return out


def reference_chiral_report(group):
    n, flags = group.rank, group.flag_count()
    cover = mixed_regular_cover_flags(group)
    chiral = cover != flags
    faces = f_vector(group)
    fk, vk, bound_check, violations = None, None, None, []
    cls, gens = type(group), group.gens
    if n >= 3:
        facet = cls(None, gens[0:n - 2])
        fk, vk = _kind(facet), _kind(cls(None, gens[1:n - 1]))
    if chiral:
        bound = chiral_lower_bound(n, fk, vk).value
        bound_check = {"minimum_flags": bound, "flags": flags,
                       "ok": flags >= bound}
        violations = chiral_module.structure_constraint_audit(StructureFacts(
            n, fk, vk, flat_pairs=flatness_spectrum(group),
            tight=is_tight(group),
            medial_kind=_kind(cls(None, gens[1:n - 2])) if n >= 5 else None,
            facet_flat_pairs=flatness_spectrum(facet)))
    verdict = is_string_c_group(group)
    payload = {
        "order": group.order,
        "flags": flags,
        "is_chiral": chiral,
        "vertices": faces[0],
        "facets": faces[-1],
        "mixed_cover_flags": cover,
        "facet_kind": fk,
        "vf_kind": vk,
        "bound_check": bound_check,
        "audit_violations": violations,
        "c_group": verdict.ok,
    }
    if not verdict.ok:
        payload["c_group_witness"] = verdict.witness.rank_sets()
    return payload


def assert_json_matches(group):
    report = analyze(group)
    data = report.to_json()
    assert data == reference_to_json(report)
    assert list(data) == list(reference_to_json(report))


@pytest.fixture
def audited(monkeypatch):
    """The StructureFacts each structure audit is given, in call order."""
    facts = []
    audit = chiral_module.structure_constraint_audit

    def record(given):
        facts.append(given)
        return audit(given)

    monkeypatch.setattr(chiral_module, "structure_constraint_audit", record)
    return facts


def assert_rotation_matches(group, audited):
    """The report, its key order and the facts it audits are the
    reference's."""
    payload = chiral_report(group)
    expected = reference_chiral_report(group)
    assert payload == expected
    assert list(payload) == list(expected)
    if payload["is_chiral"]:
        assert len(audited) == 2 and audited[0] == audited[1]
    else:
        assert audited == []
    audited.clear()
    return payload


def not_c_plus():
    return build_rotation_group(parse_presentation(NOT_C_PLUS))


@pytest.mark.parametrize("name", NAMES)
def test_to_json_matches_the_reference_on_the_corpus(name, built_groups):
    group = built_groups[name]
    top = group.rank - 1
    for part in (group, group.section(0, top - 1),
                 group.section(1, top)):
        assert_json_matches(part)


@pytest.mark.parametrize("name", ROTATION_NAMES)
def test_chiral_report_matches_the_reference_on_the_corpus(
        name, built_groups, audited):
    assert_rotation_matches(built_groups[name], audited)


@pytest.mark.parametrize("kind, b, c", TORI)
def test_reports_match_the_references_on_the_tori(kind, b, c, audited):
    group = rotation_torus_map(kind, b, c)
    assert_rotation_matches(group, audited)
    assert_json_matches(group)


def test_reports_match_the_references_off_the_intersection_condition(
        audited):
    group = not_c_plus()
    payload = assert_rotation_matches(group, audited)
    assert payload["c_group"] is False
    assert payload["c_group_witness"] == [[0, 1], [1, 2]]
    assert_json_matches(group)
    assert list(analyze(group).to_json())[-1] == "c_group_witness"
