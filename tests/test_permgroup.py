import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from polyflag.presentation import Word, make_presentation, REFLECTION
from polyflag.coset_enum import enumerate_cosets, coset_action
from polyflag.permgroup import (
    Perm, DegreeMismatch, word_image, orbit, StabilizerChain, build_chain,
    membership_test, brute_force_closure, intersect_subgroups,
)


def test_perm_basics():
    p = Perm([1, 2, 0])
    q = Perm([1, 0, 2])
    # composition applies self first, then other
    assert (p * q).images.tolist() == [0, 2, 1]
    assert p.inverse().images.tolist() == [2, 0, 1]
    assert (p * p.inverse()).is_identity()
    assert p.order() == 3
    assert q.order() == 2
    assert Perm.identity(3).order() == 1
    assert q.first_moved() == 0
    assert Perm([0, 1, 3, 2]).first_moved() == 2


@pytest.mark.parametrize("images, message", [
    ([[0, 1]], "images must be one-dimensional"),
    ([0, 2], "image out of range"),
    ([0, 0], "images are not a bijection"),
])
def test_perm_rejects_bad_images(images, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Perm(images)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Perm([1, 0]) * Perm([1, 2, 0])


def test_word_image_reading_order():
    p = Perm([1, 2, 3, 0])
    q = Perm([1, 0, 2, 3])
    w = Word.gen(0) * Word.gen(1) * Word.gen(0) ** -1
    assert word_image([p, q], w) == p * q * p.inverse()


def test_orbit_octahedron_vertices():
    # [3,4] acting on the 6 cosets of a vertex stabilizer is transitive
    pres = make_presentation(REFLECTION, 3, [3, 4])
    table = enumerate_cosets(pres, (Word.gen(1), Word.gen(2)))
    perms = coset_action(table)
    assert orbit(perms, 0) == set(range(6))
    # the two mirrors fixing the base vertex generate a 4-orbit of
    # neighbours on the vertex set minus the antipode
    sub = [perms[1], perms[2]]
    assert 0 not in orbit(sub, table.trace(0, Word.gen(0)))


def perm_group(*cycles_lists):
    degree = max(x for cyc in itertools.chain(*cycles_lists)
                 for x in cyc) + 1
    gens = []
    for cycles in cycles_lists:
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        gens.append(Perm(images))
    return gens


@pytest.mark.parametrize("gens, order", [
    (perm_group([(0, 1)], [(0, 1, 2)]), 6),            # S3
    (perm_group([(0, 1, 2, 3)], [(0, 1)]), 24),        # S4
    (perm_group([(0, 1, 2, 3, 4)], [(0, 1, 2)]), 60),  # A5
    (perm_group([(0, 1, 2, 3, 4, 5, 6)]), 7),          # C7
])
def test_chain_order_known_groups(gens, order):
    assert build_chain(gens).order == order


def test_chain_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        degree = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        chain = build_chain(gens)
        elements = brute_force_closure(gens)
        assert chain.order == len(elements)
        for g in elements:
            assert membership_test(chain, g)


def test_membership_negative():
    gens = perm_group([(0, 1, 2)])  # C3 inside S3
    chain = build_chain(gens)
    assert chain.order == 3
    assert not membership_test(chain, Perm([1, 0, 2]))


def test_orbit_stabilizer_identity():
    pres = make_presentation(REFLECTION, 3, [3, 4])
    table = enumerate_cosets(pres, ())
    perms = coset_action(table)
    chain = build_chain(perms)
    assert chain.order == 48
    # walking down the chain: order = product of level orbit sizes
    sizes = [len(level.transversal) for level in chain.levels]
    prod = 1
    for s in sizes:
        prod *= s
    assert prod == 48


def test_chain_deterministic():
    gens = perm_group([(0, 1, 2, 3)], [(0, 1)])
    a = build_chain(gens)
    b = build_chain(gens)
    assert a.order == b.order
    assert [lvl.point for lvl in a.levels] == [lvl.point for lvl in b.levels]


def test_brute_force_limit():
    gens = perm_group([(0, 1, 2, 3, 4)], [(0, 1)])
    with pytest.raises(ValueError):
        brute_force_closure(gens, limit=10)


def test_intersect_subgroups_rotation_meet():
    # in [3,3], <r0,r1> meet <r1,r2> = <r1>, order 2
    pres = make_presentation(REFLECTION, 3, [3, 3])
    chain = intersect_subgroups(
        pres, (Word.gen(0), Word.gen(1)), (Word.gen(1), Word.gen(2)))
    assert chain.order == 2


def test_intersect_subgroups_brute_force_agreement():
    pres = make_presentation(REFLECTION, 3, [4, 3])
    table = enumerate_cosets(pres, ())
    perms = coset_action(table)

    def element_set(words):
        return {word_image(perms, w)._key
                for w in _subgroup_elements(perms, words)}

    def _subgroup_elements(perms, words):
        # walk the orbit of coset 0; the regular action is free
        imgs = [word_image(perms, w) for w in words]
        elems = brute_force_closure(imgs) if imgs else [
            Perm.identity(perms[0].degree)]
        return elems

    for h_words, k_words in [
        ((Word.gen(0), Word.gen(1)), (Word.gen(1), Word.gen(2))),
        ((Word.gen(0),), (Word.gen(0), Word.gen(2))),
        ((Word.gen(0) * Word.gen(1),), (Word.gen(1), Word.gen(2))),
    ]:
        chain = intersect_subgroups(pres, h_words, k_words)
        h = brute_force_closure([word_image(perms, w) for w in h_words])
        k = brute_force_closure([word_image(perms, w) for w in k_words])
        meet = {p._key for p in h} & {p._key for p in k}
        assert chain.order == len(meet)


@settings(max_examples=40)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
def test_chain_vs_closure_random(perm_lists):
    gens = [Perm(list(p)) for p in perm_lists]
    assert build_chain(gens).order == len(brute_force_closure(gens))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)), max_size=3),
    st.integers(0, n - 1))))
def test_orbit_matches_sympy(case):
    perm_lists, start = case
    gens = [Perm(list(p)) for p in perm_lists]
    if perm_lists:
        group = PermutationGroup([Permutation(list(p)) for p in perm_lists])
        assert orbit(gens, start) == set(group.orbit(start))
    else:
        assert orbit(gens, start) == {start}


def test_orbit_without_generators_is_the_start():
    assert orbit([], 5) == {5}


def test_orbit_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        orbit([Perm([1, 0]), Perm([1, 2, 0])], 0)


@pytest.mark.parametrize("start", [-1, 3])
def test_orbit_start_out_of_range(start):
    with pytest.raises(IndexError):
        orbit([Perm([1, 2, 0])], start)
