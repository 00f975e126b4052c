"""Rotation groups: chirality, enantiomorphs, mixing, bounds, audits."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from polyflag.presentation import (Word, Presentation, make_presentation,
                                   REFLECTION, ROTATION, coxeter_order)
from polyflag.constructions import (CertificateMismatch, coxeter, torus_map,
                                    torus_order)
from polyflag.coset_enum import (CosetLimitExceeded, InternalError,
                                 enumerate_cosets, pair_orbit_table)
from polyflag.analysis import (FlagBound, analyze, f_vector, flatness_spectrum,
                               is_tight)
from polyflag import chiral, coset_enum, stringc
from polyflag.corpus import load_entry
from polyflag.permgroup import orbit, word_image
from polyflag.stringc import (dual, intersection_condition_exhaustive,
                              is_string_c_group)
from polyflag.chiral import (
    RotationGroup, RotationViolation, build_rotation_group, is_chiral,
    enantiomorph, mix_order, mixed_regular_cover_flags,
    chiral_lower_bound, StructureFacts, structure_constraint_audit,
    rotation_torus_map, chiral_report, _mirror,
)

from oracles import standardize


def rot338():
    s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)
    extra = s3.inverse() * s1 * s3 * s2.inverse() * s1 * s3 ** -2 * s2
    pres = make_presentation(ROTATION, 4, [3, 3, 8],
                             extra_relators=[extra])
    return build_rotation_group(pres)


def test_rejects_reflection_kind():
    with pytest.raises(ValueError):
        build_rotation_group(make_presentation(REFLECTION, 3, [4, 4]))


def test_declared_period_must_be_attained():
    pres = make_presentation(ROTATION, 3, [4, 4],
                             extra_relators=[Word.gen(0) ** 2])
    with pytest.raises(RotationViolation, match="s1 has order 2"):
        build_rotation_group(pres)


def test_product_squares_must_hold():
    # the (2,3,3) triangle rotation group: s1 s2 has order 3, not 2
    s1, s2 = Word.gen(0), Word.gen(1)
    pres = Presentation(
        num_generators=2, kind=ROTATION,
        relators=(s1 ** 2, s2 ** 3, (s1 * s2) ** 3))
    with pytest.raises(RotationViolation, match=r"\(s1\.\.\.s2\)\^2"):
        build_rotation_group(pres)


def test_rotation_group_shape():
    group = rotation_torus_map("44", 1, 2)
    assert group.rank == 3
    assert group.order == 20
    assert group.flag_count() == 40
    assert group.schlafli_symbol() == (4, 4)


@pytest.mark.parametrize("kind, factor", [("44", 4), ("36", 6)])
def test_torus_rotation_orders_and_chirality_classification(kind, factor):
    for b in range(1, 4):
        for c in range(0, b + 1):
            group = rotation_torus_map(kind, b, c)
            norm = (b * b + c * c if kind == "44"
                    else b * b + b * c + c * c)
            assert group.order == factor * norm
            # reflexible exactly when bc(b-c) = 0
            assert is_chiral(group) == (c != 0 and b != c)
            # the smallest lattices collapse below polytopality:
            # {4,4} needs norm > 2, {3,6} needs norm > 1
            polytopal = norm > (2 if kind == "44" else 1)
            assert is_string_c_group(group).ok == polytopal
            assert group.flag_count() % 4 == 0


@pytest.mark.parametrize("kind", ["44", "36"])
def test_torus_rotation_oracle_is_the_polytopality_rule(kind):
    # every torus with b, c <= 6, both handednesses: the window verdict
    # and its witness equal the exhaustive pair scan, and it holds
    # exactly when {4,4} has norm above 2, {3,6} above 1
    for b in range(7):
        for c in range(7):
            if (b, c) == (0, 0):
                continue
            group = rotation_torus_map(kind, b, c)
            norm = (b * b + c * c if kind == "44"
                    else b * b + b * c + c * c)
            polytopal = norm > (2 if kind == "44" else 1)
            verdict = is_string_c_group(group)
            assert verdict == intersection_condition_exhaustive(group)
            assert verdict.ok == polytopal


def test_rotation_verdict_runs_on_rotation_groups():
    # a rank-3 rotation group has two generators; the verdict reads no third
    assert is_string_c_group(rotation_torus_map("44", 1, 2)).ok
    # {4,4}_(1,1): the relator s1 s2^-2 s1, too small to be polytopal
    group = rotation_torus_map("44", 1, 1)
    assert group.order == 8
    verdict = is_string_c_group(group)
    assert not verdict.ok
    assert (verdict.witness.left, verdict.witness.right) == ((0, 1), (1, 2))
    assert verdict == intersection_condition_exhaustive(group)


def test_torus_63_duality():
    group = rotation_torus_map("63", 1, 2)
    assert group.order == 42
    assert group.schlafli_symbol() == (6, 3)
    assert is_chiral(group)


def test_polygons_are_never_chiral():
    pentagon = build_rotation_group(make_presentation(ROTATION, 2, [5]))
    assert pentagon.order == 5
    assert not is_chiral(pentagon)


letters = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=12)


@given(letters)
def test_mirror_substitution_is_involution(ls):
    w = Word(tuple(ls))
    assert w.substitute(_mirror(4)).substitute(_mirror(4)) == w


@given(letters, letters, st.lists(letters, min_size=4, max_size=4))
def test_substitute_is_a_free_group_homomorphism(u, v, images):
    u, v = Word(tuple(u)), Word(tuple(v))
    images = [Word(tuple(ls)) for ls in images]
    assert [Word.gen(g).substitute(images) for g in range(4)] == images
    assert (u * v).substitute(images) == \
        u.substitute(images) * v.substitute(images)
    assert u.inverse().substitute(images) == u.substitute(images).inverse()


def reference_mirror_word(w):
    """The mirror substitution written out letter by letter: an
    independent reference for Word.substitute."""
    out = []
    for g, e in w.letters:
        if g == 0:
            out.append((0, -e))
        elif g == 1:
            if e == 1:
                out.extend(((0, 1), (0, 1), (1, 1)))
            else:
                out.extend(((1, -1), (0, -1), (0, -1)))
        else:
            out.append((g, e))
    return Word(tuple(out))


@given(letters)
def test_mirror_substitution_matches_the_letter_loop(ls):
    w = Word(tuple(ls))
    assert w.substitute(_mirror(4)) == reference_mirror_word(w)


def test_enantiomorph_relators_match_the_letter_loop(built_groups):
    groups = [g for g in built_groups.values()
              if isinstance(g, RotationGroup)]
    assert len(groups) == 3
    groups += [rotation_torus_map(kind, b, c) for kind in ("44", "36")
               for b in range(7) for c in range(7) if (b, c) != (0, 0)]
    for group in groups:
        mirrored = tuple(map(reference_mirror_word, group.pres.relators))
        assert [w.letters for w in enantiomorph(group).pres.relators] == \
            [w.letters for w in mirrored]


def test_enantiomorph_preserves_order_and_chirality():
    group = rotation_torus_map("44", 1, 2)
    mirror = enantiomorph(group)
    assert mirror.order == group.order
    assert is_chiral(mirror)
    again = enantiomorph(mirror)
    assert again.order == group.order
    # a regular group equals its mirror image
    square = rotation_torus_map("44", 2, 0)
    assert enantiomorph(square).order == 16
    assert not is_chiral(enantiomorph(square))


def test_enantiomorph_of_chiral_torus_is_the_swapped_map():
    mirror = enantiomorph(rotation_torus_map("44", 1, 2))
    swapped = rotation_torus_map("44", 2, 1)
    assert mirror.order == swapped.order == 20


def test_mix_with_self_is_diagonal():
    group = rotation_torus_map("44", 1, 2)
    assert mix_order(group, group) == group.order


def test_mix_order_lattice_oracle():
    # {4,4}_(1,2) mixed with {4,4}_(2,1): the two index-5 sublattices
    # meet in 5Z x 5Z of index 25, so the mix has order 4 * 25
    group = rotation_torus_map("44", 1, 2)
    assert mix_order(group, enantiomorph(group)) == 100
    assert mix_order(group, rotation_torus_map("44", 2, 1)) == 100


def _sympy_mix_order(g, h):
    """Order of the paired generators acting on the disjoint union of the
    two regular domains, computed by sympy."""
    off = g.order
    pairs = [Permutation(a.images.tolist()
                         + [off + int(x) for x in b.images])
             for a, b in zip(g.gens, h.gens)]
    return PermutationGroup(pairs).order()


@pytest.mark.parametrize("build", [
    lambda: rotation_torus_map("44", 1, 2),
    lambda: rotation_torus_map("44", 1, 3),
    lambda: rotation_torus_map("36", 1, 2),
    lambda: rotation_torus_map("63", 2, 1),
    lambda: rotation_torus_map("44", 2, 0),
    rot338,
], ids=["44-1-2", "44-1-3", "36-1-2", "63-2-1", "44-2-0", "rotation-338"])
def test_mix_order_matches_sympy(build):
    group = build()
    mirror = enantiomorph(group)
    order = mix_order(group, mirror)
    assert order == _sympy_mix_order(group, mirror)
    assert mix_order(mirror, group) == order


def test_mix_order_needs_the_normal_closure():
    # s2^3 is a relator of the cube's rotation group; in {4,4}_(1,2) it
    # generates a non-normal C4, so the kernel needs its conjugates too
    cube = build_rotation_group(make_presentation(ROTATION, 3, [4, 3]))
    torus = rotation_torus_map("44", 1, 2)
    images = [word_image(torus.gens, w) for w in cube.pres.relators]
    assert cube.order * len(orbit(images, 0)) == 96
    assert mix_order(cube, torus) == mix_order(torus, cube) == 480
    assert _sympy_mix_order(cube, torus) == 480


def test_mix_rejects_generator_count_mismatch():
    with pytest.raises(ValueError):
        mix_order(rotation_torus_map("44", 1, 2), rot338())


def test_mixed_cover_of_chiral_map():
    group = rotation_torus_map("44", 1, 2)
    flags = mixed_regular_cover_flags(group)
    assert flags == 200
    assert flags > group.flag_count()
    assert flags % group.flag_count() == 0


def test_mirror_holds_no_table(monkeypatch):
    # the mirror's generators do not act by G's table, so it holds none
    group = rotation_torus_map("44", 1, 2)
    made = []
    init = RotationGroup.__init__

    def spy(self, pres, gens):
        init(self, pres, gens)
        made.append((pres, self.table))

    monkeypatch.setattr(RotationGroup, "__init__", spy)
    assert mixed_regular_cover_flags(group) == 200
    assert made == [(None, None)]


def test_mixed_cover_of_regular_map_is_itself():
    group = rotation_torus_map("44", 2, 0)
    assert mixed_regular_cover_flags(group) == group.flag_count() == 32


@functools.cache
def _mirror_oracle_groups():
    """{4,4} and {3,6} tori with 0 <= b, c <= 6, and the rotation corpus."""
    groups = [(f"{kind}-{b}-{c}", rotation_torus_map(kind, b, c))
              for kind in ("44", "36")
              for b in range(7) for c in range(7) if (b, c) != (0, 0)]
    for name in ("rotation-338", "rotation-44-1-2", "rotation-44-2-0"):
        groups.append((name, build_rotation_group(load_entry(name)[0])))
    return groups


def _enumerated_mirror(group):
    """The enantiomorph built independently: the mirrored presentation,
    its relators rewritten by the letter loop, enumerated afresh."""
    mirrored = tuple(map(reference_mirror_word, group.pres.relators))
    return build_rotation_group(replace(group.pres, relators=mirrored))


def test_cover_matches_the_enumerated_enantiomorph():
    # the enantiomorph's group is G under the mirror images; enumerating
    # the mirrored presentation instead must give the same mix, and the
    # table read off G must be that enumeration's up to renumbering
    # the whole-slice section is the same group with no presentation
    groups = _mirror_oracle_groups()
    assert len(groups) == 99
    for label, group in groups:
        reference = _enumerated_mirror(group)
        expected = 2 * mix_order(group, reference)
        assert mixed_regular_cover_flags(group) == expected, label
        whole = group.section(0, group.rank - 1)
        assert mixed_regular_cover_flags(whole) == expected, label
        assert (standardize(enantiomorph(group).table)
                == standardize(reference.table)), label


def _relator_image_chirality(group):
    """Chirality as first defined: some relator image under the mirror
    images is not the identity, or the images fail to generate G."""
    images = [word_image(group.gens, w) for w in _mirror(len(group.gens))]
    for w in group.pres.relators:
        if not word_image(images, w).is_identity():
            return True
    return len(orbit(images, 0)) != group.order


def test_is_chiral_matches_relator_images():
    verdicts = set()
    for label, group in _mirror_oracle_groups():
        verdict = is_chiral(group)
        assert verdict == _relator_image_chirality(group), label
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_chiral_report_enumerates_no_second_group(monkeypatch):
    group = rotation_torus_map("44", 1, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("chiral_report enumerated a second group")

    for name in ("enantiomorph", "build_rotation_group", "enumerate_cosets"):
        monkeypatch.setattr(chiral, name, refuse)
    payload = chiral_report(group)
    assert payload["is_chiral"] is True
    assert payload["mixed_cover_flags"] == 200


def test_enantiomorph_of_a_section_is_the_section_of_the_enantiomorph():
    # a section has no presentation, so its mirror image has none and no
    # table; it is the facet of the enantiomorph all the same
    group = rot338()
    n = group.rank
    mirror = enantiomorph(group.section(0, n - 2))
    assert mirror.pres is None and mirror.table is None
    assert mirror.gens == enantiomorph(group).section(0, n - 2).gens


def test_a_wrong_mirror_fails_the_table_proof(monkeypatch):
    # s2 -> s1 s2 with s1 fixed is no involution, so the relators it
    # rewrites do not close on the images it evaluates
    s1, s2 = Word.gen(0), Word.gen(1)
    monkeypatch.setattr(chiral, "_mirror", lambda m: [s1, s1 * s2][:m])
    with pytest.raises(InternalError, match="does not close"):
        enantiomorph(rotation_torus_map("44", 1, 2))


def test_string_groups_have_no_mirror_image():
    # the mirror substitution conjugates by a missing reflection; a
    # string group has every reflection, so it is refused by name
    group = coxeter(4, 3)
    for derive in (is_chiral, mixed_regular_cover_flags, enantiomorph):
        with pytest.raises(ValueError, match="StringGroup"):
            derive(group)


def test_derived_groups_enumerate_nothing(monkeypatch):
    # sections, duals, mirrors and the cover are all read off the group
    cube5 = make_presentation(ROTATION, 5, [4, 3, 3, 3])
    groups = [rot338(), rotation_torus_map("44", 1, 2),
              build_rotation_group(cube5)]

    def refuse(*args, **kwargs):
        raise AssertionError("a derived group was enumerated")

    for module, name in ((coset_enum, "enumerate_cosets"),
                         (stringc, "enumerate_cosets"),
                         (chiral, "enumerate_cosets"),
                         (chiral, "build_rotation_group"),
                         (chiral, "pair_orbit_table"),
                         (stringc, "flag_orbit_table")):
        monkeypatch.setattr(module, name, refuse)
    for group in groups:
        n = group.rank
        facet = group.section(0, n - 2)
        assert dual(group).order == group.order
        assert enantiomorph(group).order == group.order
        assert enantiomorph(facet).order == facet.order
        assert mixed_regular_cover_flags(group) >= group.flag_count()
        is_chiral(group)
        is_chiral(facet)


def test_dual_rejects_a_table_its_relators_do_not_close():
    group = rotation_torus_map("44", 1, 2)
    # s1 = 1 is no relation of the torus, so the dual table cannot close
    pres = Presentation(
        num_generators=2, kind=ROTATION,
        relators=group.pres.relators + (Word.gen(0),),
        declared_schlafli=group.pres.declared_schlafli)
    broken = RotationGroup.from_table(pres, group.table)
    with pytest.raises(InternalError, match="relator 4 does not close"):
        dual(broken)


@pytest.mark.parametrize("b, c", [(1, 2), (2, 1), (1, 1), (3, 1)])
def test_dual_torus_matches_reenumeration(b, c):
    group = rotation_torus_map("63", b, c)
    again = build_rotation_group(group.pres)
    assert again.order == group.order
    assert chiral_report(again) == chiral_report(group)


@pytest.mark.parametrize("build", [
    lambda: rotation_torus_map("44", 1, 2),
    lambda: rotation_torus_map("36", 2, 1),
    rot338,
], ids=["44-1-2", "36-2-1", "338"])
def test_rotation_double_dual_identity(build):
    group = build()
    dd = dual(dual(group))
    assert dd.pres == group.pres
    assert np.array_equal(dd.table.action, group.table.action)
    assert [g.images.tolist() for g in dd.gens] == [
        g.images.tolist() for g in group.gens]


def test_dual_of_rank4_rotation_group_keeps_rotation_shape():
    # the dual's generators are the reversed rotations inverted; reversed
    # alone, (s3 s2 s1)^2 would have to vanish, and here it does not
    group = rot338()
    d = dual(group)
    assert d.schlafli_symbol() == (8, 3, 3)
    again = build_rotation_group(d.pres)
    assert again.order == d.order == 192
    assert again.schlafli_symbol() == (8, 3, 3)
    assert is_chiral(d)


def test_chiral_counts_and_f_vector():
    group = rotation_torus_map("44", 1, 2)
    faces = f_vector(group)
    assert (faces[0], faces[-1]) == (5, 5)
    assert faces == (5, 10, 5)
    assert flatness_spectrum(group) == ()
    assert not is_tight(group)


def test_tight_rotation_group():
    group = rotation_torus_map("44", 2, 0)
    assert is_tight(group)  # 16 = 4 * 4
    assert flatness_spectrum(group) == ((0, 2),)


def test_338_polytope():
    group = rot338()
    assert group.order == 192
    assert group.flag_count() == 384
    assert group.schlafli_symbol() == (3, 3, 8)
    assert is_chiral(group)
    faces = f_vector(group)
    vertices, facets = faces[0], faces[-1]
    assert (vertices, facets) == (4, 16)
    assert vertices >= 3 and facets >= 3
    assert is_string_c_group(group).ok
    assert not is_tight(group)
    assert mixed_regular_cover_flags(group) == 768
    # the flag count meets the rank-4 regular/regular bound exactly
    bound = chiral_lower_bound(4, "regular", "regular")
    assert bound.exact and bound.value == group.flag_count()


def test_338_sections_are_presentation_free():
    group = rot338()
    facet, vertex_figure = group.section(0, 2), group.section(1, 3)
    assert (facet.schlafli_symbol(), facet.flag_count()) == ((3, 3), 24)
    assert (vertex_figure.schlafli_symbol(),
            vertex_figure.flag_count()) == ((3, 8), 96)
    assert facet.pres is None and vertex_figure.pres is None


def test_338_structure_audit_clean():
    group = rot338()
    facts = StructureFacts(
        rank=4,
        facet_kind="regular",
        vf_kind="regular",
        flat_pairs=flatness_spectrum(group),
        tight=is_tight(group),
        facet_flat_pairs=analyze(coxeter(3, 3)).flat_pairs)
    assert structure_constraint_audit(facts) == []
    # the report computes the same facts from the group itself
    assert flatness_spectrum(group.section(0, 2)) == facts.facet_flat_pairs
    payload = chiral_report(group)
    assert (payload["facet_kind"], payload["vf_kind"]) == ("regular",
                                                           "regular")
    assert payload["audit_violations"] == []


def test_338_meets_its_own_profile_bound():
    # regular facets and vertex-figures: the rank-4 regular/regular bound
    payload = chiral_report(rot338())
    assert payload["bound_check"] == {
        "minimum_flags": 384, "flags": 384, "ok": True}


def rotation_amalgam(b, c):
    """{{4,4}_(b,c),{4,3}}: the rank-4 rotation group with the torus
    relator x^b y^c on s1, s2 and the cube's symbol on s2, s3."""
    s1, s2 = Word.gen(0), Word.gen(1)
    x = s1 * s2.inverse()
    y = s2.inverse() * x * s2
    return build_rotation_group(make_presentation(
        ROTATION, 4, [4, 4, 3], extra_relators=[x ** b * y ** c]))


def test_amalgam_with_chiral_facets_gets_its_profile_bound():
    group = rotation_amalgam(1, 2)
    payload = chiral_report(group)
    assert payload["is_chiral"] is True
    assert (payload["facet_kind"], payload["vf_kind"]) == ("chiral",
                                                           "regular")
    assert payload["flags"] == 240
    assert payload["bound_check"] == {
        "minimum_flags": 240, "flags": 240, "ok": True}
    assert payload["audit_violations"] == []
    assert payload["c_group"] is True


def test_regular_amalgam_is_not_audited():
    # {{4,4}_(2,0),{4,3}} has flat regular facets and regular
    # vertex-figures; the theorem forbids that only to chiral polytopes
    group = rotation_amalgam(2, 0)
    assert group.order == 96
    assert not is_chiral(group)
    facet_flats = flatness_spectrum(group.section(0, 2))
    assert facet_flats == ((0, 2),)
    facts = StructureFacts(4, "regular", "regular",
                           flat_pairs=flatness_spectrum(group),
                           tight=is_tight(group),
                           facet_flat_pairs=facet_flats)
    assert structure_constraint_audit(facts) == ["flat_regular_facets"]
    payload = chiral_report(group)
    assert (payload["facet_kind"], payload["vf_kind"]) == ("regular",
                                                           "regular")
    assert payload["audit_violations"] == []
    assert payload["bound_check"] is None


@pytest.mark.parametrize("rank, fk, vk, value, exact, upper", [
    (3, "regular", "regular", 40, True, None),
    (4, "regular", "regular", 384, True, None),
    (5, "regular", "regular", 4004, False, None),
    (6, "regular", "regular", 23040, False, None),
    (7, "regular", "regular", 188160, False, None),
    (4, "chiral", "regular", 240, True, None),
    (4, "regular", "chiral", 240, True, None),
    (5, "chiral", "regular", 4004, False, 4608),
    (6, "chiral", "regular", 18432, False, None),
    (7, "chiral", "regular", 69120, False, None),
    (4, "chiral", "chiral", 240, True, None),
    (5, "chiral", "chiral", 1440, True, None),
    (6, "chiral", "chiral", 18432, True, None),
    (7, "chiral", "chiral", 55296, False, None),
])
def test_bound_table(rank, fk, vk, value, exact, upper):
    bound = chiral_lower_bound(rank, fk, vk)
    assert bound == FlagBound(value, exact, upper)


def test_bound_formulas_high_rank():
    for n in range(8, 17):
        rr = chiral_lower_bound(n, "regular", "regular")
        cr = chiral_lower_bound(n, "chiral", "regular")
        cc = chiral_lower_bound(n, "chiral", "chiral")
        assert rr.value == 16 * n * math.factorial(n) // 3
        assert cr.value == 16 * (n - 1) * math.factorial(n - 1)
        assert cc.value == 48 * (n - 2) * math.factorial(n - 2)
        assert cc.value < cr.value < rr.value


def test_bound_rank8_values():
    assert chiral_lower_bound(8, "regular", "regular").value == 1720320
    assert chiral_lower_bound(8, "chiral", "regular").value == 564480
    assert chiral_lower_bound(8, "chiral", "chiral").value == 207360


def test_bound_duality_normalization():
    for n in (4, 5, 6, 7, 9):
        assert (chiral_lower_bound(n, "regular", "chiral")
                == chiral_lower_bound(n, "chiral", "regular"))


def test_bound_rejects():
    with pytest.raises(ValueError):
        chiral_lower_bound(2, "regular", "regular")
    with pytest.raises(ValueError):
        chiral_lower_bound(3, "chiral", "regular")
    with pytest.raises(ValueError):
        chiral_lower_bound(3, "regular", "chiral")
    with pytest.raises(ValueError):
        chiral_lower_bound(3, "chiral", "chiral")
    with pytest.raises(ValueError):
        chiral_lower_bound(4, "mirrored", "regular")


def test_audit_flat_regular_facets():
    flat_facet = analyze(torus_map("44", 2, 0))
    facts = StructureFacts(rank=4, facet_kind="regular",
                           vf_kind="regular", flat_pairs=(), tight=False,
                           facet_flat_pairs=flat_facet.flat_pairs)
    assert "flat_regular_facets" in structure_constraint_audit(facts)
    # with a chiral vertex-figure the restriction no longer applies
    facts = StructureFacts(rank=4, facet_kind="regular",
                           vf_kind="chiral", flat_pairs=(), tight=False,
                           facet_flat_pairs=flat_facet.flat_pairs)
    assert "flat_regular_facets" not in structure_constraint_audit(facts)


def test_audit_forbidden_facet_flatness():
    # a (1,2)-flat polyhedron cannot be the facet of a chiral 4-polytope
    hoso = analyze(coxeter(2, 2))
    assert (1, 2) in hoso.flat_pairs
    facts = StructureFacts(rank=4, facet_kind="regular", vf_kind=None,
                           flat_pairs=(), tight=False,
                           facet_flat_pairs=hoso.flat_pairs)
    assert "forbidden_facet_flatness" in structure_constraint_audit(facts)


def test_audit_excessive_flatness():
    for pair in ((1, 2), (2, 3)):
        facts = StructureFacts(rank=5, facet_kind=None, vf_kind=None,
                               flat_pairs=(pair,), tight=False)
        assert structure_constraint_audit(facts) == ["excessive_flatness"]
    facts = StructureFacts(rank=5, facet_kind=None, vf_kind=None,
                           flat_pairs=((0, 4),), tight=False)
    assert structure_constraint_audit(facts) == []


def test_audit_tightness_restrictions():
    facts = StructureFacts(rank=6, facet_kind=None, vf_kind=None,
                           flat_pairs=(), tight=True)
    assert structure_constraint_audit(facts) == ["tight_high_rank"]
    facts = StructureFacts(rank=4, facet_kind="regular",
                           vf_kind="regular",
                           flat_pairs=(), tight=True)
    assert structure_constraint_audit(facts) == [
        "tight_rank4_regular_sections"]
    # one chiral section is enough at rank 4
    facts = StructureFacts(rank=4, facet_kind="chiral",
                           vf_kind="regular",
                           flat_pairs=(), tight=True)
    assert structure_constraint_audit(facts) == []
    # rank 5 needs chiral facets, vertex-figures AND medial sections
    facts = StructureFacts(rank=5, facet_kind="chiral", vf_kind="chiral",
                           flat_pairs=(), tight=True,
                           medial_kind="regular")
    assert structure_constraint_audit(facts) == ["tight_rank5_sections"]
    facts = StructureFacts(rank=5, facet_kind="chiral", vf_kind="chiral",
                           flat_pairs=(), tight=True, medial_kind="chiral")
    assert structure_constraint_audit(facts) == []


def test_rank5_report_audits_the_medial_section(monkeypatch):
    # the 4-simplex's rotation group, read as chiral as a whole only, so
    # the report reaches the medial section and the structure audit
    group = build_rotation_group(make_presentation(ROTATION, 5, [3, 3, 3, 3]))
    assert group.order == 360
    cover = chiral.mixed_regular_cover_flags
    monkeypatch.setattr(chiral, "mixed_regular_cover_flags",
                        lambda g: cover(g) * (2 if g is group else 1))
    kinds, audited = [], []
    kind, audit = chiral._kind, chiral.structure_constraint_audit
    monkeypatch.setattr(chiral, "_kind",
                        lambda section: kinds.append(section.gens)
                        or kind(section))
    monkeypatch.setattr(chiral, "structure_constraint_audit",
                        lambda facts: audited.append(facts) or audit(facts))
    payload = chiral_report(group)
    assert payload["is_chiral"] is True
    gens = group.gens
    assert kinds == [gens[0:3], gens[1:4], gens[1:3]]  # facet, vf, medial
    (facts,) = audited
    assert (facts.facet_kind, facts.vf_kind, facts.medial_kind) == (
        "regular", "regular", "regular")
    assert facts.facet_flat_pairs == flatness_spectrum(
        RotationGroup(None, gens[0:3]))


def test_audit_unknown_sections_skip():
    facts = StructureFacts(rank=4, facet_kind=None, vf_kind=None,
                           flat_pairs=(), tight=True)
    assert structure_constraint_audit(facts) == []


def test_chiral_report_keys_and_values():
    payload = chiral_report(rotation_torus_map("44", 1, 2))
    assert sorted(payload) == [
        "audit_violations", "bound_check", "c_group", "facet_kind",
        "facets", "flags", "is_chiral", "mixed_cover_flags", "order",
        "vertices", "vf_kind"]
    assert payload["c_group"] is True
    assert (payload["facet_kind"], payload["vf_kind"]) == ("regular",
                                                           "regular")
    assert payload["is_chiral"] is True
    assert payload["bound_check"] == {
        "minimum_flags": 40, "flags": 40, "ok": True}
    assert payload["audit_violations"] == []


def test_chiral_report_regular_group():
    payload = chiral_report(rotation_torus_map("44", 2, 2))
    assert payload["is_chiral"] is False
    assert payload["bound_check"] is None
    assert payload["mixed_cover_flags"] == payload["flags"] == 64


# -- torus maps from the orbit of a vertex pair ------------------------------
# The orbit table is numbered in visit order, not as an enumeration over
# the trivial subgroup numbers it, so these compare orders and reports.

_DEGENERATE_TORI = {(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


@pytest.mark.parametrize("kind", ["44", "36", "63"])
def test_torus_route_matches_plain_enumeration(kind):
    for b in range(7):
        for c in range(7):
            if (b, c) == (0, 0):
                continue
            group = rotation_torus_map(kind, b, c)
            plain = RotationGroup.from_table(group.pres,
                                             enumerate_cosets(group.pres))
            assert group.order == plain.order, (b, c)
            assert chiral_report(group) == chiral_report(plain), (b, c)


@pytest.mark.parametrize("kind", ["44", "36"])
def test_only_degenerate_tori_fall_back(kind, monkeypatch):
    fell_back = []
    enumerate_plainly = chiral.enumerate_cosets

    def plain(pres, subgroup_words, max_cosets):
        fell_back.append(pres)
        return enumerate_plainly(pres, subgroup_words, max_cosets)

    monkeypatch.setattr(chiral, "enumerate_cosets", plain)
    degenerate = set()
    for b in range(7):
        for c in range(7):
            if (b, c) == (0, 0):
                continue
            fell_back.clear()
            group = rotation_torus_map(kind, b, c)
            assert group.order == torus_order(kind, b, c) // 2
            if fell_back:
                degenerate.add((b, c))
    assert degenerate == _DEGENERATE_TORI


@pytest.mark.parametrize("b, c", [(1, 2), (2, 0)])
def test_shape_check_stops_both_torus_routes(b, c, monkeypatch):
    # (1,2) takes the vertex-pair route, (2,0) falls back to enumeration
    def refuse(group):
        raise RotationViolation("shape refused")

    monkeypatch.setattr(RotationGroup, "check_shape", refuse)
    with pytest.raises(RotationViolation, match="shape refused"):
        rotation_torus_map("44", b, c)


def test_torus_orbit_over_the_cap_raises():
    with pytest.raises(CosetLimitExceeded) as info:
        rotation_torus_map("36", 11, 9, max_cosets=1000)
    assert info.value.max_cosets == 1000


def test_torus_certificate_failure_is_a_certificate_mismatch(monkeypatch):
    # the torus closed form is certified like every builder's
    monkeypatch.setattr(chiral, "torus_order", lambda kind, b, c: 2)
    with pytest.raises(CertificateMismatch,
                       match="^order: expected 1, got 20$"):
        rotation_torus_map("44", 1, 2)


def test_torus_vertex_enumeration_over_the_cap_is_final(monkeypatch):
    # {4,4}_(3,5) has 34 vertices: enumerating them already passes a cap
    # of 20, so the group passes it too and no plain enumeration runs
    def enumerate_plainly(*args):
        raise AssertionError("fell back to a plain enumeration")

    monkeypatch.setattr(chiral, "enumerate_cosets", enumerate_plainly)
    with pytest.raises(CosetLimitExceeded) as info:
        rotation_torus_map("44", 3, 5, max_cosets=20)
    assert str(info.value) == (
        "coset limit 20 exceeded (high water 20 live cosets)")


@pytest.mark.parametrize("kind, b, c", [("44", 1, 2), ("44", 3, 5),
                                        ("36", 1, 2), ("36", 11, 9)])
def test_torus_fits_a_cap_equal_to_its_order(kind, b, c):
    # an enumeration over the trivial subgroup needs more live cosets
    order = torus_order(kind, b, c) // 2
    group = rotation_torus_map(kind, b, c, max_cosets=order)
    assert group.order == order


# -- every rotation presentation takes the vertex-pair route ---------------

FINITE_ROTATION_SYMBOLS = [
    symbol for rank in range(2, 6)
    for symbol in itertools.product(range(2, 7), repeat=rank - 1)
    if (coxeter_order(symbol) or math.inf) <= 2000]


def test_finite_rotation_symbols_match_plain_enumeration():
    # build_rotation_group takes the vertex-pair route wherever it
    # certifies (every symbol of rank 3 or more whose first entry is not
    # 2), builds at a cap of the order either way, and gives the group
    # and the report a plain enumeration gives
    assert len(FINITE_ROTATION_SYMBOLS) == 189
    routed = 0
    for symbol in FINITE_ROTATION_SYMBOLS:
        pres = make_presentation(ROTATION, len(symbol) + 1, symbol)
        order = coxeter_order(symbol) // 2
        certified = pair_orbit_table(pres, order) is not None
        assert certified == (len(symbol) > 1 and symbol[0] != 2), symbol
        routed += certified
        group = build_rotation_group(pres, max_cosets=order)
        plain = RotationGroup.from_table(pres, enumerate_cosets(pres))
        assert group.order == plain.order == order, symbol
        assert chiral_report(group) == chiral_report(plain), symbol
    assert routed == 123
