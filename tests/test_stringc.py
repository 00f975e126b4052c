"""String group construction, the intersection condition, duality."""

import pytest

from polyflag import stringc
from polyflag.corpus import load_entry
from polyflag.coset_enum import CosetLimitExceeded, enumerate_cosets
from polyflag.presentation import (Word, Presentation, make_presentation,
                                   REFLECTION, ROTATION)
from polyflag.stringc import (
    SggiViolation, CoxeterLimitExceeded, StringGroup, build_string_group,
    is_string_c_group, intersection_condition_exhaustive, dual,
)
from polyflag.chiral import (RotationGroup, build_rotation_group,
                             rotation_torus_map)


def cox(*periods):
    return build_string_group(
        make_presentation(REFLECTION, len(periods) + 1, list(periods)))


def test_rejects_rotation_kind():
    pres = make_presentation(ROTATION, 3, [4, 4])
    with pytest.raises(ValueError):
        build_string_group(pres)


def test_infinite_bare_coxeter_refused_before_enumeration(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated a refused presentation")

    monkeypatch.setattr("polyflag.stringc.enumerate_cosets",
                        enumerate_nothing)
    for periods in ([4, 3, 4], [3, 6], [None, 3]):
        pres = make_presentation(REFLECTION, len(periods) + 1, periods)
        with pytest.raises(CoxeterLimitExceeded, match="is infinite") as exc:
            build_string_group(pres)
        assert isinstance(exc.value, CosetLimitExceeded)
        assert exc.value.high_water == 0 and exc.value.order is None


def test_bare_coxeter_refused_exactly_when_order_exceeds_cap():
    # [3,3] has order 24: a cap of 24 fits it, 23 cannot
    pres = make_presentation(REFLECTION, 3, [3, 3])
    assert build_string_group(pres, max_cosets=24).order == 24
    with pytest.raises(CosetLimitExceeded):
        enumerate_cosets(pres, (), max_cosets=23)
    with pytest.raises(CoxeterLimitExceeded, match=r"\[3,3\] has order 24"):
        build_string_group(pres, max_cosets=23)


def test_finite_bare_coxeter_under_default_cap_still_builds():
    group = build_string_group(make_presentation(REFLECTION, 4, [3, 3, 5]))
    assert group.order == 14400


def test_coxeter_with_extra_relators_still_enumerates():
    # torus-44-2-0 is the infinite [4,4] plus one relator: no precheck
    pres, expected = load_entry("torus-44-2-0")
    assert pres.declared_schlafli == (4, 4)
    assert build_string_group(pres).order == expected["order"] == 32


def test_generator_collapse_detected():
    pres = make_presentation(REFLECTION, 2, [2],
                             extra_relators=[Word.gen(0)])
    with pytest.raises(SggiViolation, match="r0 collapses"):
        build_string_group(pres)


def test_non_involution_detected():
    g0, g1 = Word.gen(0), Word.gen(1)
    pres = Presentation(
        num_generators=2, kind=REFLECTION,
        relators=(g0 ** 3, g1 ** 2, (g0 * g1) ** 2))
    with pytest.raises(SggiViolation, match="r0 is not an involution"):
        build_string_group(pres)


def test_distant_non_commutation_detected():
    g0, g1, g2 = Word.gen(0), Word.gen(1), Word.gen(2)
    pres = Presentation(
        num_generators=3, kind=REFLECTION,
        relators=(g0 ** 2, g1 ** 2, g2 ** 2, (g0 * g1) ** 2,
                  (g1 * g2) ** 2, (g0 * g2) ** 3))
    with pytest.raises(SggiViolation, match="r0 and r2 do not commute"):
        build_string_group(pres)


def test_simplex_is_c_group():
    group = cox(3, 3)
    assert group.order == 24
    assert group.schlafli_symbol() == (3, 3)
    verdict = is_string_c_group(group)
    assert verdict.ok
    assert bool(verdict)
    assert verdict.witness is None


def test_parabolic_orders_octahedron():
    group = cox(3, 4)
    assert group.parabolic_order(()) == 1
    assert group.parabolic_order((1,)) == 2
    assert group.parabolic_order((0, 1)) == 6
    assert group.parabolic_order((1, 2)) == 8
    assert group.parabolic_order((0, 2)) == 4
    assert group.parabolic_order((0, 1, 2)) == 48


def test_parabolic_orbit_is_cached():
    group = cox(3, 3)
    a = group.parabolic_orbit((0, 1))
    b = group.parabolic_orbit([1, 0])
    assert a is b  # same frozenset key


def rot(*periods):
    return build_rotation_group(
        make_presentation(ROTATION, len(periods) + 1, list(periods)))


@pytest.mark.parametrize("build", [cox, rot], ids=["string", "rotation"])
def test_schlafli_symbol_is_cached(monkeypatch, build):
    group = build(4, 3, 3)
    symbol = group.schlafli_symbol()
    # a second call reads the cache and walks no rotation's cycle again
    monkeypatch.setattr(stringc, "orbit",
                        lambda *args: pytest.fail("symbol recomputed"))
    assert group.schlafli_symbol() == symbol == (4, 3, 3)


@pytest.mark.parametrize("build", [cox, rot], ids=["string", "rotation"])
def test_section_rejects_windows_outside_the_generators(build):
    group = build(4, 3, 3)
    for lo, hi in ((-1, 1), (2, 1), (0, len(group.gens))):
        with pytest.raises(ValueError):
            group.section(lo, hi)


def test_recursive_matches_exhaustive_small():
    for group in (cox(3, 3), cox(4, 3), cox(2, 2), cox(3, 3, 3)):
        assert is_string_c_group(group).ok
        assert intersection_condition_exhaustive(group).ok


def test_collapsed_sggi_fails_with_minimal_witness():
    pres = make_presentation(
        REFLECTION, 3, [2, 2],
        extra_relators=[Word.gen(0) * Word.gen(2)])
    group = build_string_group(pres)
    assert group.order == 4
    verdict = is_string_c_group(group)
    assert not verdict.ok
    assert tuple(verdict.witness.left) == (0,)
    assert tuple(verdict.witness.right) == (2,)
    assert verdict.witness.intersection_order == 2
    assert verdict.witness.expected_order == 1
    exhaustive = intersection_condition_exhaustive(group)
    assert not exhaustive.ok
    assert exhaustive.witness == verdict.witness


def test_dual_reverses_symbol():
    group = cox(3, 4)
    d = dual(group)
    assert d.order == group.order
    assert d.schlafli_symbol() == (4, 3)
    assert is_string_c_group(d).ok


@pytest.mark.parametrize("kind, build", [(REFLECTION, build_string_group),
                                         (ROTATION, build_rotation_group)])
def test_dual_keeps_coset_cap(kind, build, monkeypatch):
    # a group holds its action, not the cap it was built under: the dual
    # reads that action backwards and enumerates nothing, so it needs no
    # cap of its own, and every builder takes one as an argument
    group = build(make_presentation(kind, 3, [4, 3]), 5000)
    assert not hasattr(group, "max_cosets")

    def enumerate_nothing(*args):
        raise AssertionError("the dual enumerated")

    monkeypatch.setattr(stringc, "enumerate_cosets", enumerate_nothing)
    assert dual(group).table.num_cosets == group.order


@pytest.mark.parametrize("cls, build", [
    (StringGroup, lambda: cox(4, 3)),
    (RotationGroup, lambda: rotation_torus_map("36", 1, 2)),
])
def test_dual_runs_the_shape_check(cls, build, monkeypatch):
    # the dual is made by from_table, so the class's check_shape runs
    group = build()

    def refuse(self):
        raise RuntimeError("shape checked")

    monkeypatch.setattr(cls, "check_shape", refuse)
    with pytest.raises(RuntimeError, match="shape checked"):
        dual(group)


def test_section_order_is_read_on_first_use(monkeypatch):
    group = cox(4, 3)

    def refuse(gens, point):
        raise AssertionError("orbit walked")

    monkeypatch.setattr(stringc, "orbit", refuse)
    section = group.section(0, 1)
    assert section.table is None
    with pytest.raises(AssertionError, match="orbit walked"):
        section.order


def reference_dual_relator(w, n):
    """The dual's relabelling written out letter by letter: an
    independent reference for Word.substitute."""
    return Word(tuple((n - 1 - g, e) for g, e in reversed(w.letters)))


def test_dual_relators_match_the_letter_loop(built_groups):
    assert len(built_groups) == 22
    for name, group in built_groups.items():
        n = group.pres.num_generators
        want = [reference_dual_relator(w, n).letters
                for w in group.pres.relators]
        assert [w.letters for w in dual(group).pres.relators] == want, name


def test_double_dual_identity():
    group = cox(4, 3, 3)
    dd = dual(dual(group))
    assert dd.pres == group.pres
    assert dd.table.action == group.table.action
    assert [g.images.tolist() for g in dd.gens] == [
        g.images.tolist() for g in group.gens]


def test_dual_parabolic_orders_mirror():
    group = cox(3, 4)
    d = dual(group)
    n = group.rank
    for subset in [(0,), (0, 1), (1, 2), (0, 2)]:
        mirrored = tuple(n - 1 - i for i in subset)
        assert (group.parabolic_order(subset)
                == d.parabolic_order(mirrored))


def test_degenerate_period_two_is_still_c_group():
    group = cox(2, 2)
    assert group.order == 8
    assert is_string_c_group(group).ok


def test_attained_symbol_can_drop_below_declared():
    # forcing (r0r1)^2 = 1 on a declared period-4 symbol halves it
    pres = make_presentation(
        REFLECTION, 2, [4],
        extra_relators=[(Word.gen(0) * Word.gen(1)) ** 2])
    group = build_string_group(pres)
    assert group.pres.declared_schlafli == (4,)
    assert group.schlafli_symbol() == (2,)
