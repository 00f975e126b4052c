"""Family builders, their order certificates, and Table-2 witnesses."""

import math
import re
import time

import pytest

from polyflag.presentation import (Word, REFLECTION, PresentationError,
                                   make_presentation)
from polyflag.coset_enum import CoxeterLimitExceeded
from polyflag.stringc import (SggiViolation, build_string_group,
                              is_string_c_group)
from polyflag.analysis import analyze, is_flat, min_nonflat_flags, f_vector
from polyflag.corpus import load_entry
from polyflag.chiral import rotation_torus_map
from polyflag import constructions, stringc
from polyflag.constructions import (
    CertificateMismatch, AmalgamCollapse, coxeter, simplex_extension,
    torus_map, hemi_icosahedron, universal_amalgam, simplex_amalgam_check,
    table2_witness, FamilySpec, build_family, NAMED, torus_kind,
    check_torus_params, is_regular_torus,
)


def test_coxeter_orders_and_symbols():
    group = coxeter(4, 3)
    assert group.order == 48
    assert group.schlafli_symbol() == (4, 3)
    assert coxeter(3, 5).order == 120


def test_coxeter_rejects_bad_periods():
    with pytest.raises(ValueError):
        coxeter(1, 3)


@pytest.mark.parametrize("periods, order, vertices", [
    ((6,), 12, 6),
    ((3,), 6, 3),
    ((6, 3), 48, 8),
    ((6, 3, 3), 240, 10),
    ((6, 6, 3), 480, 10),
    ((6, 3, 3, 3), 1440, 12),
    ((6, 6, 3, 3), 2880, 12),
])
def test_simplex_extension_certificates(periods, order, vertices):
    group = simplex_extension(*periods)
    n = len(periods) + 1
    assert group.order == order
    assert group.order == (math.prod(periods)
                           * math.factorial(n + 1)) // 3 ** (n - 1)
    assert group.schlafli_symbol() == periods
    assert f_vector(group)[0] == vertices
    assert vertices == (n + 1) * periods[0] // 3


def test_simplex_extension_rejects_other_periods():
    with pytest.raises(ValueError):
        simplex_extension(4, 3)
    with pytest.raises(ValueError):
        simplex_extension(6, 5)


def test_torus_orders():
    assert torus_map("44", 2, 0).order == 32
    assert torus_map("44", 2, 2).order == 64
    assert torus_map("44", 3, 0).order == 72
    assert torus_map("36", 1, 1).order == 36
    assert torus_map("36", 2, 2).order == 144
    assert torus_map("63", 1, 1).order == 36


def test_torus_symbols():
    assert torus_map("44", 2, 0).schlafli_symbol() == (4, 4)
    assert torus_map("36", 1, 1).schlafli_symbol() == (3, 6)
    assert torus_map("63", 1, 1).schlafli_symbol() == (6, 3)


def test_torus_kind_spellings():
    assert torus_map("{4,4}", 2, 0).order == 32
    assert torus_map("{3, 6}", 1, 1).order == 36
    with pytest.raises(ValueError):
        torus_map("45", 2, 0)


def test_torus_rejects_chiral_parameters():
    with pytest.raises(ValueError, match="chiral"):
        torus_map("44", 1, 2)
    with pytest.raises(ValueError, match="chiral"):
        torus_map("36", 1, 3)
    # regular parameter shapes all pass
    torus_map("44", 0, 2)
    torus_map("36", 2, 2)


def test_hemi_icosahedron():
    group = hemi_icosahedron()
    assert group.order == 60
    assert group.schlafli_symbol() == (3, 5)
    assert f_vector(group) == (6, 15, 10)
    assert is_string_c_group(group).ok
    assert not is_flat(group)


def test_amalgam_cube_with_torus():
    amal = universal_amalgam(coxeter(4, 3), torus_map("36", 1, 1))
    assert amal.order == 288
    assert amal.schlafli_symbol() == (4, 3, 6)
    report = analyze(amal)
    assert report.c_group
    assert report.f_vector == (8, 12, 18, 6)
    assert report.flat_pairs == ((0, 3), (1, 3))
    assert report.is_flat


def test_amalgam_simplices_gives_simplex():
    amal = universal_amalgam(coxeter(3, 3), coxeter(3, 3))
    assert amal.order == 120
    assert amal.schlafli_symbol() == (3, 3, 3)


def test_amalgam_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        universal_amalgam(coxeter(3, 3), coxeter(3, 3, 3))


def test_amalgam_rejects_symbol_overlap_mismatch():
    # cube facets end in 3, cube vertex-figures start with 4
    with pytest.raises(ValueError):
        universal_amalgam(coxeter(4, 3), coxeter(4, 3))


def test_amalgam_collapse_detected():
    # the hemi-icosahedron's relator forces dodecahedral vertex-figures
    # down to hemi-dodecahedra, so the full {5,3} cannot survive
    with pytest.raises(AmalgamCollapse, match="vertex-figure"):
        universal_amalgam(hemi_icosahedron(), coxeter(5, 3))


def test_amalgam_facet_collapse_detected():
    # the torus {4,4}_(1,1) forces the octahedral facets down to order 12
    with pytest.raises(AmalgamCollapse,
                       match="^facet subgroup has order 12, wanted 48$"):
        universal_amalgam(coxeter(3, 4), torus_map("44", 1, 1))


def test_amalgam_failing_the_intersection_condition_detected():
    with pytest.raises(AmalgamCollapse,
                       match="^amalgam fails the intersection condition$"):
        universal_amalgam(coxeter(2, 4), torus_map("44", 1, 1))


def test_amalgam_killing_a_generator_is_a_shape_violation():
    # the hemi-icosahedron's relator kills r0 in the join: the shape
    # check of build_string_group raises before any order is compared
    with pytest.raises(SggiViolation,
                       match="^generator r0 collapses to the identity$"):
        universal_amalgam(coxeter(3, 3), hemi_icosahedron())


def enumerate_nothing(*args):
    raise AssertionError("enumerated a refused amalgam")


@pytest.mark.parametrize("periods, symbol", [((4, 3), "[4,3,4]"),
                                             ((3, 5), "[3,5,3]")])
def test_amalgam_of_infinite_coxeter_sections_fails_fast(periods, symbol,
                                                         monkeypatch):
    # bare Coxeter sections join to a bare Coxeter presentation, so the
    # closed-form precheck refuses the infinite group before enumerating
    facet, vertex_figure = coxeter(*periods), coxeter(*periods[::-1])
    monkeypatch.setattr(stringc, "enumerate_cosets", enumerate_nothing)
    start = time.perf_counter()
    with pytest.raises(CoxeterLimitExceeded,
                       match=re.escape(f"{symbol} is infinite")):
        universal_amalgam(facet, vertex_figure)
    assert time.perf_counter() - start < 1


def test_amalgam_of_a_period_one_section_is_refused(monkeypatch):
    # r0 = r1: a rank-2 string group of order 2 whose period is 1, never
    # a C-group; no Schlafli symbol has that entry, so the join's
    # make_presentation refuses it before anything is enumerated
    r0, r1 = Word.gen(0), Word.gen(1)
    facet = build_string_group(make_presentation(
        REFLECTION, 2, extra_relators=[r0 ** 2, r0 * r1]))
    assert (facet.order, facet.schlafli_symbol()) == (2, (1,))
    vertex_figure = coxeter(3)
    monkeypatch.setattr(stringc, "enumerate_cosets", enumerate_nothing)
    with pytest.raises(PresentationError, match="entries must be >= 2"):
        universal_amalgam(facet, vertex_figure)


def test_simplex_extension_needs_a_period():
    with pytest.raises(ValueError, match="^need at least one period$"):
        simplex_extension()


def test_simplex_amalgam_check():
    assert simplex_amalgam_check(6, 3, 3)
    assert simplex_amalgam_check(6, 6, 3)
    with pytest.raises(ValueError):
        simplex_amalgam_check(6, 3)  # needs rank at least 4


@pytest.mark.parametrize("rank, which, flags", [
    (3, 1, 24), (3, 2, 48), (3, 3, 60), (3, 4, 64),
    (4, 1, 120), (4, 2, 240), (4, 3, 384), (4, 4, 480),
    (5, 1, 720), (5, 2, 1440), (5, 3, 2880), (5, 4, 3840),
])
def test_table2_witness_grid(rank, which, flags):
    bound = min_nonflat_flags(rank, which)
    assert bound.exact and bound.value == flags
    witness = table2_witness(rank, which)
    assert witness.order == flags
    assert not is_flat(witness)
    assert is_string_c_group(witness).ok


def test_table2_witness_value_only_cell():
    assert table2_witness(6, 4) is None
    assert not min_nonflat_flags(6, 4).exact


def test_table2_witness_rank6_formula_cells():
    witness = table2_witness(6, 2)
    assert witness.order == 2 * math.factorial(7)
    assert not is_flat(witness)


def test_table2_witness_rejects():
    with pytest.raises(ValueError):
        table2_witness(2, 1)
    with pytest.raises(ValueError):
        table2_witness(4, 5)


def test_named_builders():
    assert sorted(NAMED) == ["4-cube", "5-cube", "hemi-icosahedron"]
    assert build_family(NAMED["4-cube"]).order == 384
    assert build_family(NAMED["hemi-icosahedron"]).order == 60


def test_build_family_dispatch():
    assert build_family(FamilySpec("coxeter", (3, 3))).order == 24
    assert build_family(FamilySpec("lambda", (6, 3))).order == 48
    assert build_family(FamilySpec("torus44", (2, 0))).order == 32
    assert build_family(FamilySpec("torus36", (1, 1))).order == 36
    assert build_family(FamilySpec("torus63", (1, 1))).order == 36
    assert build_family(FamilySpec("hemi")).order == 60
    assert build_family(FamilySpec("named", ("5-cube",))).order == 3840
    amal = FamilySpec("amalgam", sections=(
        FamilySpec("coxeter", (4, 3)), FamilySpec("torus36", (1, 1))))
    assert build_family(amal).order == 288


def test_build_family_rejects_unknown():
    with pytest.raises(ValueError):
        build_family(FamilySpec("klein", (4,)))
    with pytest.raises(ValueError):
        build_family(FamilySpec("named", ("6-cube",)))


@pytest.mark.parametrize("spec, order", [
    (FamilySpec("coxeter", (3, 3)), 24),
    (FamilySpec("lambda", (6, 3, 3)), 240),
    (FamilySpec("torus44", (2, 0)), 32),
    (FamilySpec("torus36", (1, 1)), 36),
    (FamilySpec("torus63", (1, 1)), 36),
    (FamilySpec("hemi"), 60),
    (FamilySpec("named", ("4-cube",)), 384),
], ids=lambda v: v.family if isinstance(v, FamilySpec) else None)
def test_build_family_certifies_order_once(monkeypatch, spec, order):
    # the builder is the only place the closed form is checked, so every
    # routed family must pass through exactly one order certificate
    calls = []
    certify = constructions.certify

    def spy(label, expected, got):
        calls.append((label, expected, got))
        certify(label, expected, got)

    monkeypatch.setattr(constructions, "certify", spy)
    assert build_family(spec).order == order
    assert [c for c in calls if c[0] == "order"] == [("order", order, order)]


@pytest.mark.parametrize("which", ["facet", "vertex-figure"])
def test_universal_amalgam_refuses_sections(which):
    # a section has no presentation, so there are no relators to join
    section = coxeter(4, 3, 3).section(0, 1)
    pair = ((section, coxeter(3)) if which == "facet"
            else (coxeter(4), section))
    with pytest.raises(ValueError, match=f"the {which} group is a section"):
        universal_amalgam(*pair)


@pytest.mark.parametrize("facet, vertex_figure", [
    ("rotation", "rotation"), ("rotation", "string"), ("string", "rotation"),
])
def test_universal_amalgam_refuses_rotation_groups(facet, vertex_figure,
                                                   monkeypatch):
    # a rotation group's relators are in s_i, not in reflections to join
    groups = {"rotation": rotation_torus_map("44", 1, 2),
              "string": torus_map("44", 2, 0)}
    pair = groups[facet], groups[vertex_figure]
    monkeypatch.setattr(stringc, "enumerate_cosets", enumerate_nothing)
    which = "facet" if facet == "rotation" else "vertex-figure"
    with pytest.raises(ValueError,
                       match=f"the {which} group is a RotationGroup"):
        universal_amalgam(*pair, max_cosets=20000)


def reference_amalgam_relators(k, l):
    """The amalgam's relators, the vertex-figure's shifted letter by
    letter: an independent reference for Word.substitute."""
    n = k.rank + 1
    shift = tuple(Word(tuple((g + 1, e) for g, e in w.letters))
                  for w in l.pres.relators)
    relators = list(k.pres.relators)
    seen = {w.letters for w in relators}
    for w in shift + ((Word.gen(0) * Word.gen(n - 1)) ** 2,):
        if w.letters not in seen:
            seen.add(w.letters)
            relators.append(w)
    return relators


def test_amalgam_relators_match_the_letter_loop():
    k, l = coxeter(4, 3), torus_map("36", 1, 1)
    pres = universal_amalgam(k, l).pres
    want = [w.letters for w in reference_amalgam_relators(k, l)]
    # make_presentation orders them its own way: the scaffold first
    assert sorted(w.letters for w in pres.relators) == sorted(want)
    # which is the corpus entry's order too
    assert pres == load_entry("amalgam-43-36")[0]


def test_torus_rules():
    assert torus_kind("{6,3}") == torus_kind("6, 3") == torus_kind(63) == "63"
    with pytest.raises(ValueError, match="kind must be one of"):
        torus_kind("{3,3}")
    for b, c in [(0, 0), (-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="b, c >= 0"):
            check_torus_params(b, c)
    assert all(is_regular_torus(b, c) for b, c in [(2, 0), (0, 3), (2, 2)])
    assert not any(is_regular_torus(b, c) for b, c in [(1, 2), (3, 1)])


@pytest.mark.parametrize("family, params, message", [
    ("torus44", (1,), "torus44 takes 2 parameter"),
    ("torus63", (1, "x"), "torus63 parameters must be integers, got 'x'"),
    ("torus36", (None, 1), "torus36 parameters must be integers, got 'inf'"),
    ("lambda", (6, None), "lambda parameters must be integers"),
    ("coxeter", (4, "y"), "coxeter parameters must be integers"),
    ("hemi", (5,), "hemi takes 0 parameter"),
    ("named", (), "named takes 1 parameter"),
    ("klein", (4,), "^unknown family 'klein'$"),
    ("amalgam", ("x",), "amalgam parameters must be integers, got 'x'"),
])
def test_family_spec_rejects_bad_parameters(family, params, message):
    with pytest.raises(ValueError, match=message):
        FamilySpec(family, params)


@pytest.mark.parametrize("family, sections, message", [
    ("amalgam", (), "amalgam takes 2 section"),
    ("amalgam", (FamilySpec("coxeter", (3,)),), "amalgam takes 2 section"),
    ("coxeter", (FamilySpec("coxeter", (3,)),), "coxeter takes 0 section"),
])
def test_family_spec_checks_section_count(family, sections, message):
    with pytest.raises(ValueError, match=message):
        FamilySpec(family, (), sections)


def test_family_spec_allows_inf_coxeter_period():
    assert FamilySpec("coxeter", (4, None)).params == (4, None)


def test_family_spec_json():
    spec = FamilySpec("amalgam", sections=(
        FamilySpec("coxeter", (4, 3)), FamilySpec("torus36", (1, 1))))
    data = spec.to_json()
    assert data["family"] == "amalgam"
    assert data["sections"][0] == {"family": "coxeter", "params": [4, 3]}
