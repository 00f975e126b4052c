"""Face counts, flatness, tightness, coverings, counting bounds."""

import math
from itertools import combinations

import pytest

from polyflag.presentation import Word, make_presentation, REFLECTION
from polyflag.stringc import build_string_group, dual
from polyflag.analysis import (
    AnalysisReport, analyze, f_vector, is_flat_km, flatness_spectrum,
    is_flat, is_tight, is_degenerate, covering_exists,
    audit_counting_propositions, min_nonflat_flags,
)
from polyflag.constructions import coxeter, torus_map, simplex_extension
from polyflag.chiral import rotation_torus_map


def test_simplex_f_vector_against_combinatorics():
    # i-faces of the n-simplex are the (i+1)-subsets of its n+1 vertices
    for n in (3, 4):
        group = coxeter(*([3] * (n - 1)))
        counts = tuple(
            sum(1 for _ in combinations(range(n + 1), i + 1))
            for i in range(n))
        assert f_vector(group) == counts
        assert group.flag_count() == math.factorial(n + 1)


def test_cube_f_vector():
    assert f_vector(coxeter(4, 3)) == (8, 12, 6)
    assert f_vector(coxeter(4, 3, 3)) == (16, 32, 24, 8)


def test_flag_count_is_group_order():
    group = coxeter(3, 4)
    assert group.flag_count() == group.order == 48


def test_simplex_has_no_flat_pairs():
    group = coxeter(3, 3, 3)
    assert flatness_spectrum(group) == ()
    assert not is_flat(group)
    assert not is_tight(group)
    assert not is_degenerate(group)


def test_digon_is_flat_tight_degenerate():
    group = coxeter(2)
    assert f_vector(group) == (2, 2)
    assert is_flat(group)
    assert is_tight(group)
    assert is_degenerate(group)


def test_torus_flatness():
    group = torus_map("44", 2, 0)
    assert flatness_spectrum(group) == ((0, 2),)
    assert is_flat(group)
    assert is_tight(group)
    group = torus_map("36", 1, 1)
    assert flatness_spectrum(group) == ((0, 2),)
    assert is_tight(group)  # 36 flags = 2*3*6, the minimum for its type
    group = torus_map("44", 2, 2)
    assert flatness_spectrum(group) == ()


def test_is_flat_km_validates_range():
    group = coxeter(3, 3)
    with pytest.raises(ValueError):
        is_flat_km(group, 1, 1)
    with pytest.raises(ValueError):
        is_flat_km(group, -1, 2)
    with pytest.raises(ValueError):
        is_flat_km(group, 0, 3)


@pytest.mark.parametrize("kind", ["44", "36", "63"])
@pytest.mark.parametrize("b, c", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 2)])
def test_regular_torus_string_and_rotation_groups_agree(kind, b, c):
    # a regular map is carried by both group classes; the shared counts,
    # flatness and tightness must not tell them apart
    string, rotation = torus_map(kind, b, c), rotation_torus_map(kind, b, c)
    assert string.flag_count() == rotation.flag_count()
    assert f_vector(string) == f_vector(rotation)
    assert flatness_spectrum(string) == flatness_spectrum(rotation)
    assert is_tight(string) == is_tight(rotation)
    assert string.schlafli_symbol() == rotation.schlafli_symbol()


def test_section_flat_pairs_match_section_analysis():
    from polyflag.constructions import universal_amalgam
    amal = universal_amalgam(coxeter(4, 3), torus_map("36", 1, 1))
    facet_pairs = flatness_spectrum(amal.section(0, amal.rank - 2))
    assert facet_pairs == flatness_spectrum(coxeter(4, 3))


def test_section_analyzes_as_the_smaller_group():
    assert analyze(coxeter(4, 3, 3).section(0, 2)).to_json() == \
        analyze(coxeter(4, 3)).to_json()


def test_dual_of_a_section_needs_no_presentation():
    section = coxeter(4, 3, 3).section(0, 2)
    assert analyze(dual(section)).to_json() == \
        analyze(coxeter(3, 4)).to_json()


def test_presentation_covers_a_section():
    section = coxeter(4, 3, 3).section(0, 2)
    assert covering_exists(make_presentation(REFLECTION, 3, [4, 3]), section)
    assert not covering_exists(make_presentation(REFLECTION, 3, [4, 4]),
                               section)
    assert not covering_exists(make_presentation(REFLECTION, 4, [4, 3, 3]),
                               section)


def test_lambda_polytopes_non_flat():
    for periods in ((6, 3), (6, 3, 3), (6, 6, 3)):
        group = simplex_extension(*periods)
        assert not is_flat(group)
        assert flatness_spectrum(group) == ()


def test_covering_exists_directions():
    # the universal {4,4} Coxeter group covers every {4,4} torus map
    universal = make_presentation(REFLECTION, 3, [4, 4])
    small = torus_map("44", 2, 0)
    assert covering_exists(universal, small)
    # a torus map does not cover the cube: its translation relator
    # fails there
    assert not covering_exists(small.pres, coxeter(4, 3))
    # rotation groups: the relators of {4,4}_(2,2) hold in {4,4}_(2,0),
    # and not the other way round
    big_rot = rotation_torus_map("44", 2, 2)
    small_rot = rotation_torus_map("44", 2, 0)
    assert covering_exists(big_rot.pres, small_rot)
    assert not covering_exists(small_rot.pres, big_rot)
    # a reflection presentation never maps onto a rotation group, even
    # of the same rank
    assert not covering_exists(universal, small_rot)


def test_covering_requires_matching_rank():
    assert not covering_exists(
        make_presentation(REFLECTION, 3, [4, 4]), coxeter(3,))


def test_torus_covers_torus():
    # {4,4}_(4,0) covers {4,4}_(2,0): the translation relator of the
    # big lattice evaluates trivially in the small quotient
    big = torus_map("44", 4, 0)
    small = torus_map("44", 2, 0)
    assert covering_exists(big.pres, small)
    assert not covering_exists(small.pres, big)


def fake_report(**kw):
    base = dict(
        rank=3, order=24, flag_count=24, schlafli=(3, 3),
        f_vector=(4, 6, 4), c_group=True, c_group_witness=None,
        flat_pairs=(), is_flat=False, is_tight=False,
        is_degenerate=False, audit_violations=())
    base.update(kw)
    return AnalysisReport(**base)


def test_audit_clean_on_real_polytope():
    assert audit_counting_propositions(fake_report()) == []


def test_audit_vertex_bound():
    # a non-flat rank-3 report claiming 5 vertices with p1 = 5 needs
    # at least 5 + 1 = 6
    report = fake_report(schlafli=(5, 3), f_vector=(5, 10, 6),
                         flag_count=60, order=60)
    assert "nonflat_vertex_bound" in audit_counting_propositions(report)


def test_audit_facet_bound():
    report = fake_report(schlafli=(3, 5), f_vector=(6, 10, 5),
                         flag_count=60, order=60)
    assert "nonflat_facet_bound" in audit_counting_propositions(report)


def test_audit_min_counts_and_flags():
    report = fake_report(schlafli=(3, 3), f_vector=(3, 6, 4),
                         flag_count=20)
    names = audit_counting_propositions(report)
    assert "nonflat_min_counts" in names
    assert "nonflat_min_flags" in names


def test_audit_few_vertices_must_be_flat():
    # 4 vertices with p1 = 4 and rank 3: k <= p1 + n - 3 forces
    # (0, k+2-p1)-flatness, here (0,2)
    report = fake_report(schlafli=(4, 3), f_vector=(4, 12, 6),
                         flag_count=48, order=48, flat_pairs=())
    assert "few_vertices_flat" in audit_counting_propositions(report)
    ok = fake_report(schlafli=(4, 3), f_vector=(4, 12, 6),
                     flag_count=48, order=48, flat_pairs=((0, 2),),
                     is_flat=True)
    assert "few_vertices_flat" not in audit_counting_propositions(ok)


def test_audit_very_few_vertices():
    report = fake_report(f_vector=(2, 6, 4), flat_pairs=(),
                         flag_count=24)
    assert "very_few_vertices_flat" in audit_counting_propositions(report)
    ok = fake_report(f_vector=(2, 6, 4), flat_pairs=((0, 1),),
                     flag_count=24)
    assert "very_few_vertices_flat" not in audit_counting_propositions(ok)


def test_audit_skips_flat_polytopes():
    # the counting bounds only constrain non-flat polytopes
    report = fake_report(is_flat=True, flat_pairs=((0, 2),),
                         f_vector=(3, 6, 4), flag_count=12)
    names = audit_counting_propositions(report)
    assert "nonflat_min_flags" not in names
    assert "nonflat_min_counts" not in names


def test_analyze_collapsed_group_skips_audit():
    pres = make_presentation(
        REFLECTION, 3, [2, 2], extra_relators=[Word.gen(0) * Word.gen(2)])
    report = analyze(build_string_group(pres))
    assert not report.c_group
    assert report.c_group_witness is not None
    assert report.audit_violations == ()
    # the report's own JSON carries the witness, as rank sets
    assert report.to_json()["c_group_witness"] == [[0], [2]]


def test_analyze_report_json_keys():
    report = analyze(coxeter(3, 3))
    data = report.to_json()
    assert sorted(data) == [
        "audit_violations", "c_group", "f_vector", "flag_count",
        "flat_pairs", "is_degenerate", "is_flat", "is_tight", "order",
        "rank", "schlafli"]
    assert data["f_vector"] == [4, 6, 4]
    assert data["flat_pairs"] == []


@pytest.mark.parametrize("rank, row", [
    (3, (24, 48, 60, 64)),
    (4, (120, 240, 384, 480)),
    (5, (720, 1440, 2880, 3840)),
])
def test_min_nonflat_flags_small_ranks(rank, row):
    for which, value in enumerate(row, start=1):
        bound = min_nonflat_flags(rank, which)
        assert bound.value == value
        assert bound.exact


def test_min_nonflat_flags_formula_ranks():
    for n in (6, 7, 9):
        first = min_nonflat_flags(n, 1)
        assert first.value == math.factorial(n + 1)
        assert first.exact
        assert min_nonflat_flags(n, 2).value == 2 * math.factorial(n + 1)
        assert min_nonflat_flags(n, 3).value == 4 * math.factorial(n + 1)
        fourth = min_nonflat_flags(n, 4)
        assert fourth.value == 16 * math.factorial(n + 1) // 3
        assert not fourth.exact


def test_min_nonflat_flags_rejects():
    with pytest.raises(ValueError):
        min_nonflat_flags(2, 1)
    with pytest.raises(ValueError):
        min_nonflat_flags(4, 5)
