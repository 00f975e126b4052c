"""String group construction, the intersection condition, duality."""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyflag import stringc
from polyflag.corpus import corpus_names, load_entry
from polyflag import coset_enum
from polyflag.coset_enum import (CosetLimitExceeded, CoxeterLimitExceeded,
                                 InternalError, coset_action,
                                 enumerate_cosets, flag_orbit_table,
                                 pair_orbit_table)
from polyflag.permgroup import orbit, word_image
from polyflag.presentation import (Word, Presentation, make_presentation,
                                   REFLECTION, ROTATION, coxeter_order)
from polyflag.stringc import (
    SggiViolation, StringGroup, build_string_group,
    is_string_c_group, intersection_condition_exhaustive, dual,
)
from polyflag.chiral import (RotationGroup, RotationViolation,
                             build_rotation_group, rotation_torus_map,
                             enantiomorph, _mirror)

from oracles import standardize


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
    monkeypatch.setattr("polyflag.coset_enum.enumerate_cosets",
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


SMALL_FINITE_SYMBOLS = [
    symbol for rank in range(1, 6)
    for symbol in itertools.product(range(2, 7), repeat=rank - 1)
    if (coxeter_order(symbol) or math.inf) <= 15_000]


def test_small_finite_symbols_are_counted():
    # reducible symbols (entries 2) included, rank 1 as the empty symbol
    assert len(SMALL_FINITE_SYMBOLS) == 196
    assert () in SMALL_FINITE_SYMBOLS and (2, 2, 2, 2) in SMALL_FINITE_SYMBOLS


@pytest.mark.parametrize("symbol", SMALL_FINITE_SYMBOLS,
                         ids=lambda s: "[" + ",".join(map(str, s)) + "]")
def test_flag_orbit_is_the_standard_regular_action(symbol):
    # the flag walk gives the enumerated table, standard-numbered, builds
    # at a cap of exactly the order and is refused below it
    order = coxeter_order(symbol)
    pres = make_presentation(REFLECTION, len(symbol) + 1, symbol)
    group = build_string_group(pres, max_cosets=order)
    assert np.array_equal(group.table.columns,
                          standardize(enumerate_cosets(pres)))
    with pytest.raises(CoxeterLimitExceeded):
        build_string_group(pres, max_cosets=order - 1)


def test_short_flag_orbit_is_an_internal_error(monkeypatch):
    # a closed form that claims [3,3] has order 48 leaves an orbit of 24
    # points short: a bug, not a reason to enumerate instead
    monkeypatch.setattr(coset_enum, "coxeter_order", lambda symbol: 48)
    pres = make_presentation(REFLECTION, 3, [3, 3])
    with pytest.raises(InternalError, match="orbit has 24 points"):
        build_string_group(pres)


def test_long_flag_orbit_is_an_internal_error(monkeypatch):
    # a closed form that claims [3,3] has order 12: the walk stops as
    # soon as it passes the claimed order
    monkeypatch.setattr(coset_enum, "coxeter_order", lambda symbol: 12)
    pres = make_presentation(REFLECTION, 3, [3, 3])
    with pytest.raises(InternalError, match="orbit has more than 12 points"):
        build_string_group(pres)


def test_flag_orbit_table_applies_to_bare_coxeter_only(monkeypatch):
    # an extra relator (the hemi-icosahedron's) or a rotation kind is not
    # bare Coxeter: the route does not apply and enumerates nothing
    def enumerate_nothing(*args):
        raise AssertionError("enumerated for a route that does not apply")

    hemi = load_entry("hemi-icosahedron")[0]
    assert hemi.declared_schlafli == (3, 5)
    with monkeypatch.context() as patch:
        patch.setattr(coset_enum, "enumerate_cosets", enumerate_nothing)
        assert flag_orbit_table(hemi) is None
        assert flag_orbit_table(
            make_presentation(ROTATION, 3, [3, 3])) is None
    assert flag_orbit_table(cox(3, 3).pres).num_cosets == 24


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
    for lo, hi in ((-1, 1), (2, 1), (0, group.rank)):
        with pytest.raises(ValueError):
            group.section(lo, hi)


@pytest.mark.parametrize("name", corpus_names())
def test_section_is_the_subgroup_of_its_ranks(name, built_groups):
    # section(lo, hi) is Gamma_{lo..hi} of either class: the parabolic
    # subgroup of those ranks, as a group of rank hi - lo + 1
    group = built_groups[name]
    n = group.rank
    for lo in range(n):
        for hi in range(lo, n):
            if isinstance(group, RotationGroup) and lo == hi:
                with pytest.raises(ValueError):  # spans no generator
                    group.section(lo, hi)
                continue
            part = group.section(lo, hi)
            assert part.rank == hi - lo + 1
            assert (frozenset(orbit(part.gens, 0))
                    == group.parabolic_orbit(range(lo, hi + 1)))


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
    assert np.array_equal(dd.table.action, group.table.action)
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


# -- the shape check, against the two loops it replaced ----------------------

def reference_sggi_faults(group):
    """Every failed string-group condition, in the order the old
    StringGroup.check_shape loop met them: per generator a collapse or a
    lost involution, then the distant pairs that fail to commute."""
    gens, n = group.gens, len(group.gens)
    faults = []
    for i, g in enumerate(gens):
        if g.is_identity():
            faults.append(f"generator r{i} collapses to the identity")
        if not (g * g).is_identity():
            faults.append(f"generator r{i} is not an involution")
    for i in range(n):
        for j in range(i + 2, n):
            if not (gens[i] * gens[j] * gens[i] * gens[j]).is_identity():
                faults.append(f"generators r{i} and r{j} do not commute")
    return faults


def reference_rotation_faults(group):
    """Every failed rotation-shape condition, in the order the old
    RotationGroup.check_shape loop met them: a declared period not
    attained, then each (s_i...s_j)^2 that is not the identity."""
    gens, m = group.gens, len(group.gens)
    declared = group.pres.declared_schlafli if group.pres else None
    faults = [f"s{i + 1} has order {k}, declared {p}"
              for i, (p, k) in enumerate(zip(declared or (),
                                             group.schlafli_symbol()))
              if p is not None and k != p]
    for i in range(m):
        prod = gens[i]
        for j in range(i + 1, m):
            prod = prod * gens[j]
            if not (prod * prod).is_identity():
                faults.append(f"(s{i + 1}...s{j + 1})^2 is not the identity")
    return faults


def assert_shape_check_matches_reference(group):
    """check_shape raises exactly when the reference finds a fault, with
    the class's violation, naming one of the faults, and naming the
    reference's when it is the only one."""
    if isinstance(group, StringGroup):
        faults, violation = reference_sggi_faults(group), SggiViolation
    else:
        faults, violation = reference_rotation_faults(group), RotationViolation
    if not faults:
        group.check_shape()
        return
    with pytest.raises(violation) as info:
        group.check_shape()
    assert type(info.value) is violation
    assert str(info.value) in faults
    if len(faults) == 1:
        assert str(info.value) == faults[0]


def test_shape_check_matches_the_loops_on_the_corpus(built_groups):
    assert len(built_groups) == 22
    for name, group in built_groups.items():
        m, top = len(group.gens), group.rank - 1
        groups = [group]
        if m >= 2:  # the facet and the vertex-figure
            groups += [group.section(0, top - 1), group.section(1, top)]
        for g in groups:
            assert_shape_check_matches_reference(g)


words_drawn = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=10)


@st.composite
def shape_presentations(draw):
    """A reflection or rotation presentation with no schlafli line: a
    small period for each generator and for each product the shape
    constrains (every pair of reflections, every run s_i...s_j), mostly
    those of a valid shape, and perhaps one random relator."""
    kind = draw(st.sampled_from((REFLECTION, ROTATION)))
    ngens = draw(st.integers(2, 4)) - (kind == ROTATION)
    if kind == REFLECTION:
        periods = st.sampled_from((2, 2, 2, 2, 1, 3))
        runs = st.sampled_from((2, 2, 2, 3, 3, 4, 1))
        products = [Word.gen(i) * Word.gen(j)
                    for i in range(ngens) for j in range(i + 1, ngens)]
    else:
        periods = st.sampled_from((2, 3, 3, 4, 5))
        runs = st.sampled_from((2, 2, 3, 3, 4))
        products = [Word(tuple((k, 1) for k in range(i, j + 1)))
                    for i in range(ngens) for j in range(i + 1, ngens)]
    relators = [Word.gen(i) ** draw(periods) for i in range(ngens)]
    relators += [w ** draw(runs) for w in products]
    relators += [Word(tuple((g % ngens, e) for g, e in ls))
                 for ls in draw(st.lists(words_drawn, max_size=1))]
    return Presentation(num_generators=ngens, kind=kind,
                        relators=tuple(w for w in relators if w))


@settings(max_examples=300, deadline=None)
@given(shape_presentations())
def test_shape_check_matches_the_loops_on_drawn_presentations(pres):
    try:
        table = enumerate_cosets(pres, (), max_cosets=200)
    except CosetLimitExceeded:
        return
    cls = StringGroup if pres.kind == REFLECTION else RotationGroup
    assert_shape_check_matches_reference(cls(pres, coset_action(table)))


@settings(max_examples=25, deadline=None)
@given(st.lists(words_drawn, min_size=1, max_size=4))
def test_is_trivial_is_the_identity_test(built_groups, drawn):
    for name, group in built_groups.items():
        m, top = len(group.gens), group.rank - 1
        groups = [group, group.section(0, top)]
        if m >= 2:
            groups += [group.section(0, top - 1), group.section(1, top)]
        if isinstance(group, RotationGroup):
            groups.append(group.on_words(_mirror(m)))
        for g in groups:
            n = len(g.gens)
            for ls in drawn:
                w = Word(tuple((i % n, e) for i, e in ls))
                image = word_image(g.gens, w)
                assert g.is_trivial(w) == image.is_identity(), name
                # the action is free, so w has the length of 0's cycle
                # as its order, and that power of w is trivial
                assert g.is_trivial(w ** len(orbit([image], 0))), name


def test_verdict_is_its_witness(built_groups):
    assert [f.name for f in fields(stringc.CGroupVerdict)] == ["witness"]
    for name, group in built_groups.items():
        for verdict in (is_string_c_group(group),
                        intersection_condition_exhaustive(group)):
            assert bool(verdict) == verdict.ok == (verdict.witness is None)


def test_dual_columns_are_the_groups_own():
    # dual reads each column off the table, never copying one: column x
    # of the dual is column 2n-1-x of the group
    for group in (cox(4, 3, 3), rotation_torus_map("44", 1, 2)):
        cols = group.table.columns
        d = dual(group).table.columns
        assert len(d) == len(cols)
        for x, col in enumerate(d):
            assert col is cols[len(cols) - 1 - x]


def _from_route(cls, route, source):
    pres = (load_entry(source)[0] if isinstance(source, str)
            else make_presentation(REFLECTION, len(source) + 1, source))
    return cls.from_table(pres, route(pres))


# each route to a table, taken explicitly, and the two derived tables
TABLE_ROUTES = {
    "flag-walk": lambda: _from_route(StringGroup, flag_orbit_table,
                                     [4, 3, 3]),
    "enumeration": lambda: _from_route(StringGroup, enumerate_cosets,
                                       "hemi-icosahedron"),
    "pair-walk": lambda: _from_route(RotationGroup, pair_orbit_table,
                                     "rotation-44-1-2"),
    "dual": lambda: dual(cox(4, 3, 3)),
    "enantiomorph": lambda: enantiomorph(rotation_torus_map("44", 1, 2)),
}


@pytest.mark.parametrize("route", TABLE_ROUTES)
def test_generators_are_views_of_the_table(route):
    # one store: every column is a read-only int32 row, and each
    # generator's permutation wraps its forward column without a copy
    group = TABLE_ROUTES[route]()
    for col in group.table.columns:
        assert isinstance(col, np.ndarray)
        assert col.dtype == np.int32 and col.ndim == 1
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = col[0]
    for i, gen in enumerate(group.gens):
        assert np.shares_memory(gen.images, group.table.columns[2 * i])


def test_on_words_refuses_words_that_miss_points():
    # the table proof shows an action of the presented group, not that
    # the words generate G: s1 alone reaches 4 of the torus's 20 flags
    group = rotation_torus_map("44", 1, 2)
    with pytest.raises(ValueError, match="generate 4 of 20 points"):
        group.on_words([Word.gen(0)], make_presentation(ROTATION, 2, [4]))


def _drawn_word(letters, n):
    return Word(tuple((g % n, e) for g, e in letters))


@settings(max_examples=40, deadline=None)
@given(st.lists(words_drawn, min_size=1, max_size=4),
       st.lists(words_drawn, min_size=1, max_size=4))
def test_on_words_composes_as_substitution(drawn_us, drawn_vs):
    for group in (cox(4, 3), rotation_torus_map("44", 1, 2)):
        us = [_drawn_word(ls, len(group.gens)) for ls in drawn_us]
        vs = [_drawn_word(ls, len(us)) for ls in drawn_vs]
        twice = group.on_words(us).on_words(vs)
        once = group.on_words([v.substitute(us) for v in vs])
        assert twice.gens == once.gens
        assert type(twice) is type(once) is type(group)


@settings(max_examples=40, deadline=None)
@given(words_drawn)
def test_column_is_the_trace_of_every_coset(letters):
    for group in (cox(4, 3), rotation_torus_map("44", 1, 2)):
        table = group.table
        w = _drawn_word(letters, table.num_generators)
        col = table.column(w)
        assert len(col) == table.num_cosets
        assert all(col[c] == table.trace(c, w)
                   for c in range(table.num_cosets))
