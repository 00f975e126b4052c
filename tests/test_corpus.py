"""The bundled corpus is the regression anchor: every sidecar value is
re-derived here from the presentation text alone, and the structural
theorems are checked across the whole collection."""

import itertools

import pytest

from polyflag.presentation import (Word, parse_presentation,
                                   serialize_presentation, REFLECTION)
from polyflag.corpus import corpus_names, load_entry, entry_text
from polyflag.stringc import (is_string_c_group,
                              intersection_condition_exhaustive, dual)
from polyflag.analysis import (analyze, flatness_spectrum, min_nonflat_flags,
                               f_vector)
from polyflag.permgroup import brute_force_closure, intersect_subgroups
from polyflag.chiral import (RotationGroup, is_chiral, chiral_report,
                             mixed_regular_cover_flags, chiral_lower_bound)

NAMES = corpus_names()
SIDECARS = {name: load_entry(name)[1] for name in NAMES}
REFLECTION_NAMES = [n for n in NAMES if SIDECARS[n]["kind"] == "reflection"]
POLYTOPAL = [n for n in REFLECTION_NAMES if SIDECARS[n].get("c_group")]
ROTATION_NAMES = [n for n in NAMES if SIDECARS[n]["kind"] == "rotation"]
SMALL = [n for n in POLYTOPAL if SIDECARS[n]["order"] <= 2000]


def test_corpus_inventory():
    assert NAMES == sorted(NAMES)
    assert len(NAMES) == 22
    assert set(NAMES) == {
        "amalgam-43-36", "coxeter-3-3", "coxeter-3-3-3",
        "coxeter-3-3-3-3", "coxeter-3-4", "coxeter-3-5", "cube-4",
        "cube-5", "digon", "hemi-icosahedron", "lambda-6-3",
        "lambda-6-3-3", "lambda-6-3-3-3", "lambda-6-6-3",
        "lambda-6-6-3-3", "p2-collapsed", "rotation-338",
        "rotation-44-1-2", "rotation-44-2-0", "torus-36-1-1",
        "torus-44-2-0", "torus-44-2-2"}


@pytest.mark.parametrize("name", NAMES)
def test_serialization_round_trip(name):
    first = parse_presentation(entry_text(name))
    assert parse_presentation(serialize_presentation(first)) == first


@pytest.mark.parametrize("name", POLYTOPAL)
def test_sidecar_matches_fresh_analysis(name, reflection_reports):
    expected = dict(SIDECARS[name])
    for extra in ("kind", "note", "table2_cell"):
        expected.pop(extra, None)
    assert reflection_reports[name].to_json() == expected


def test_collapsed_entry(built_groups):
    group = built_groups["p2-collapsed"]
    expected = SIDECARS["p2-collapsed"]
    assert group.order == expected["order"] == 4
    verdict = is_string_c_group(group)
    assert not verdict.ok
    assert [sorted(verdict.witness.left),
            sorted(verdict.witness.right)] == expected["witness"]
    assert expected["witness"] == [[0], [2]]
    assert not intersection_condition_exhaustive(group)


@pytest.mark.parametrize("name", REFLECTION_NAMES)
def test_lagrange_over_all_parabolics(name, built_groups):
    group = built_groups[name]
    for size in range(group.rank + 1):
        for subset in itertools.combinations(range(group.rank), size):
            sub = group.parabolic_order(subset)
            assert group.order % sub == 0


@pytest.mark.parametrize("name", NAMES)
def test_order_against_plain_closure(name, built_groups):
    group = built_groups[name]
    if group.order > 5000:
        pytest.skip("closure oracle capped at 5000 elements")
    assert len(brute_force_closure(group.gens, limit=5001)) == group.order


@pytest.mark.parametrize("name", SMALL)
def test_facet_vertex_intersection_chain(name, built_groups):
    """The Schreier-generator chain for facet meet vertex agrees with
    intersecting the element orbits directly."""
    group = built_groups[name]
    n = group.rank
    facet = tuple(range(n - 1))
    vertex = tuple(range(1, n))
    chain = intersect_subgroups(
        group.pres,
        [Word.gen(i) for i in facet],
        [Word.gen(i) for i in vertex])
    oracle = len(set(group.parabolic_orbit(facet))
                 & set(group.parabolic_orbit(vertex)))
    assert chain.order == oracle


@pytest.mark.parametrize("name", [n for n in REFLECTION_NAMES
                                  if SIDECARS[n]["order"] <= 2000])
def test_recursive_verdict_matches_exhaustive(name, built_groups):
    group = built_groups[name]
    assert is_string_c_group(group).ok == \
        intersection_condition_exhaustive(group).ok


def rotation_part(group):
    """The rotations r_{i-1} r_i of a string group, on its points."""
    return RotationGroup(None, group.rotations())


@pytest.mark.parametrize("name", [n for n in REFLECTION_NAMES
                                  if n != "hemi-icosahedron"])
def test_rotation_gamma_is_the_even_parabolic(name, built_groups):
    # tau_{a,b} = r_a r_b, so Gamma_I is <r_i : i in I> cut to the
    # rotations, wherever the rotations have index 2
    group = built_groups[name]
    rotation = rotation_part(group)
    even = rotation.parabolic_orbit(range(group.rank))
    assert 2 * len(even) == group.order
    for size in range(group.rank + 1):
        for subset in itertools.combinations(range(group.rank), size):
            assert (rotation.parabolic_orbit(subset)
                    == group.parabolic_orbit(subset) & even)
    for i in range(group.rank):
        assert (rotation.face_stabilizer(i)
                == group.face_stabilizer(i) & even)


@pytest.mark.parametrize("name", REFLECTION_NAMES)
def test_rotation_oracle_matches_string_verdict(name, built_groups):
    # the window verdict on the rotations agrees with the entry's own
    # verdict, and with the oracle on the rotations, witness included
    group = built_groups[name]
    rotation = rotation_part(group)
    verdict = is_string_c_group(rotation)
    assert verdict.ok == is_string_c_group(group).ok
    assert verdict == intersection_condition_exhaustive(rotation)


def test_collapsed_entry_rotation_witness(built_groups):
    rotation = rotation_part(built_groups["p2-collapsed"])
    for verdict in (intersection_condition_exhaustive(rotation),
                    is_string_c_group(rotation)):
        assert not verdict.ok
        assert ((verdict.witness.left, verdict.witness.right)
                == ((0, 1), (1, 2)))


@pytest.mark.parametrize("name", ROTATION_NAMES)
def test_rotation_entries_pass_the_oracle(name, built_groups):
    group = built_groups[name]
    assert intersection_condition_exhaustive(group).ok
    assert is_string_c_group(group).ok


@pytest.mark.parametrize("name", POLYTOPAL)
def test_flat_pairs_widen_monotonically(name, reflection_reports):
    report = reflection_reports[name]
    pairs = set(report.flat_pairs)
    for k, m in pairs:
        for k2 in range(k + 1):
            for m2 in range(m, report.rank):
                assert (k2, m2) in pairs


@pytest.mark.parametrize("name", POLYTOPAL)
def test_flatness_transfers_to_sections(name, built_groups,
                                        reflection_reports):
    group = built_groups[name]
    report = reflection_reports[name]
    n = report.rank
    if n < 3:
        pytest.skip("no proper sections below rank 3")
    facet_pairs = flatness_spectrum(group.section(0, n - 2))
    vf_pairs = flatness_spectrum(group.section(1, n - 1))
    for k, m in report.flat_pairs:
        if m <= n - 2:
            assert (k, m) in facet_pairs
        if k >= 1:
            assert (k - 1, m - 1) in vf_pairs


@pytest.mark.parametrize("name", [n for n in NAMES if SIDECARS[n]["rank"] >= 3
                                  and n != "p2-collapsed"])
def test_sections_share_out_the_flags(name, built_groups):
    # facet: ranks 0..n-2, vertex-figure: ranks 1..n-1, of either class
    group = built_groups[name]
    top = group.rank - 1
    faces = f_vector(group)
    flags = group.flag_count()
    assert group.section(0, top - 1).flag_count() * faces[-1] == flags
    assert group.section(1, top).flag_count() * faces[0] == flags


@pytest.mark.parametrize("name", POLYTOPAL)
def test_tight_iff_locally_flat(name, reflection_reports):
    report = reflection_reports[name]
    local = all((i, i + 2) in report.flat_pairs
                for i in range(report.rank - 2))
    assert report.is_tight == local


@pytest.mark.parametrize("name", POLYTOPAL)
def test_audit_clean_corpus_wide(name, reflection_reports):
    assert reflection_reports[name].audit_violations == ()


@pytest.mark.parametrize("name", POLYTOPAL)
def test_dual_invariants(name, built_groups, reflection_reports):
    report = reflection_reports[name]
    mirror = analyze(dual(built_groups[name]))
    n = report.rank
    assert mirror.order == report.order
    assert mirror.schlafli == report.schlafli[::-1]
    assert mirror.f_vector == report.f_vector[::-1]
    assert set(mirror.flat_pairs) == {
        (n - 1 - m, n - 1 - k) for k, m in report.flat_pairs}
    assert mirror.is_flat == report.is_flat
    assert mirror.is_tight == report.is_tight


@pytest.mark.parametrize(
    "name", [n for n in POLYTOPAL if "table2_cell" in SIDECARS[n]])
def test_table2_tags(name, reflection_reports):
    rank, which = SIDECARS[name]["table2_cell"]
    report = reflection_reports[name]
    assert report.rank == rank
    assert not report.is_flat
    bound = min_nonflat_flags(rank, which)
    if bound.exact:
        assert report.flag_count == bound.value
    else:
        assert report.flag_count >= bound.value


@pytest.mark.parametrize("name", ROTATION_NAMES)
def test_rotation_sidecars(name, built_groups):
    group = built_groups[name]
    expected = SIDECARS[name]
    assert group.rank == expected["rank"]
    assert group.order == expected["order"]
    assert group.flag_count() == expected["flags"] == 2 * group.order
    assert list(group.schlafli_symbol()) == expected["schlafli"]
    assert is_chiral(group) == expected["is_chiral"]
    faces = f_vector(group)
    assert (faces[0], faces[-1]) == (expected["vertices"],
                                     expected["facets"])
    assert mixed_regular_cover_flags(group) == expected["mixed_cover_flags"]


@pytest.mark.parametrize("name", ROTATION_NAMES)
def test_section_kinds_match_the_sidecar(name, built_groups):
    # the report classifies the facet (ranks 0..n-2) and the
    # vertex-figure (ranks 1..n-1), sections with no presentation
    group = built_groups[name]
    expected = SIDECARS[name]
    n = group.rank
    payload = chiral_report(group)
    kinds = (payload["facet_kind"], payload["vf_kind"])
    assert kinds == (expected["facet_kind"], expected["vf_kind"])
    assert kinds == tuple("chiral" if is_chiral(section) else "regular"
                          for section in (group.section(0, n - 2),
                                          group.section(1, n - 1)))
    assert payload["c_group"] is expected["c_group"]


@pytest.mark.parametrize(
    "name", [n for n in ROTATION_NAMES if SIDECARS[n]["is_chiral"]])
def test_chiral_entries_respect_bounds(name, built_groups):
    group = built_groups[name]
    expected = SIDECARS[name]
    assert group.flag_count() % 4 == 0
    faces = f_vector(group)
    assert (faces[0], faces[-1]) >= (3, 3)
    bound = chiral_lower_bound(
        group.rank, expected["facet_kind"], expected["vf_kind"])
    assert group.flag_count() >= bound.value
