"""Words, relator families, and the presentation file format."""

import json
from itertools import product
from math import cos, pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyflag.coset_enum import enumerate_cosets
from polyflag.presentation import (
    Word, EMPTY, commutator, Presentation, PresentationError,
    REFLECTION, ROTATION, coxeter_relators, coxeter_order, rotation_relators,
    make_presentation, parse_word, parse_presentation,
    serialize_presentation, MAX_WORD_LETTERS, MAX_GENERATORS,
)

SWEEP_EXPECTED = (Path(__file__).resolve().parent.parent / "perfbench"
                  / "sweep_expected.json")

letters = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=14)


def word(ls):
    return Word(tuple(ls))


def test_free_reduction_on_construction():
    assert word([(0, 1), (0, -1)]) == EMPTY
    assert word([(0, 1), (1, 1), (1, -1), (0, -1)]) == EMPTY
    assert word([(0, 1), (0, 1)]).letters == ((0, 1), (0, 1))


def test_gen_and_mul():
    r0, r1 = Word.gen(0), Word.gen(1)
    assert (r0 * r1).letters == ((0, 1), (1, 1))
    assert (r0 * r0.inverse()) == EMPTY
    assert not EMPTY
    assert r0


def test_pow():
    r0, r1 = Word.gen(0), Word.gen(1)
    w = r0 * r1
    assert (w ** 3).letters == ((0, 1), (1, 1)) * 3
    assert w ** 0 == EMPTY
    assert w ** -2 == (w.inverse()) ** 2


def test_max_generator():
    assert (Word.gen(2) * Word.gen(0)).max_generator() == 2


@given(letters)
def test_inverse_is_involution(ls):
    w = word(ls)
    assert w.inverse().inverse() == w


@given(letters)
def test_word_times_inverse_cancels(ls):
    w = word(ls)
    assert w * w.inverse() == EMPTY
    assert w.inverse() * w == EMPTY


@given(letters, letters)
def test_product_length_bound(a, b):
    assert len(word(a) * word(b)) <= len(word(a)) + len(word(b))


@given(letters, letters, letters)
def test_mul_associative(a, b, c):
    x, y, z = word(a), word(b), word(c)
    assert (x * y) * z == x * (y * z)


@given(letters, letters)
def test_commutator_vanishes_iff_trivially(a, b):
    x, y = word(a), word(b)
    assert commutator(x, y) == x.inverse() * y.inverse() * x * y


@given(letters)
def test_spell_parse_round_trip(ls):
    w = word(ls)
    assert parse_word(w.spell("r", 0), REFLECTION, 4) == w
    assert parse_word(w.spell("s", 1), ROTATION, 4) == w


def test_coxeter_relator_count():
    # n involutions, n-1 periods, (n-1)(n-2)/2 commutations
    rels = coxeter_relators(4, (4, 3, 5))
    assert len(rels) == 4 + 3 + 3
    rels = coxeter_relators(4, (4, None, 5))
    assert len(rels) == 4 + 2 + 3


# every string symbol with entries 2..6 or inf, up to rank 5
SYMBOLS = [sym for k in range(5)
           for sym in product((2, 3, 4, 5, 6, None), repeat=k)]


def gram_positive_definite(sym):
    """The Coxeter group is finite iff its Gram matrix is positive
    definite; an unbounded period contributes -1."""
    n = len(sym) + 1
    gram = np.eye(n)
    for i, p in enumerate(sym):
        gram[i, i + 1] = gram[i + 1, i] = -1 if p is None else -cos(pi / p)
    return np.linalg.eigvalsh(gram).min() > 1e-9


def test_coxeter_order_finiteness_matches_gram_criterion():
    assert len(SYMBOLS) == 1555
    finite = [sym for sym in SYMBOLS if coxeter_order(sym) is not None]
    assert finite == [sym for sym in SYMBOLS if gram_positive_definite(sym)]
    # the criterion is not vacuous on either side
    assert 0 < len(finite) < len(SYMBOLS) - len(finite)


def test_coxeter_order_matches_enumeration():
    small = [sym for sym in SYMBOLS
             if (coxeter_order(sym) or 2001) <= 2000]
    assert len(small) == 190
    for sym in small:
        pres = make_presentation(REFLECTION, len(sym) + 1, list(sym))
        order = enumerate_cosets(pres, (), 2000).num_cosets
        assert order == coxeter_order(sym), sym


def test_coxeter_order_matches_sweep_expected():
    recorded = json.loads(SWEEP_EXPECTED.read_text())
    bare = {key: entry for key, entry in recorded.items() if "|" not in key}
    infinite = over_cap = 0
    for key, entry in bare.items():
        sym = tuple(int(p) for p in key.split())
        order = coxeter_order(sym)
        assert (order is None) == entry["infinite"], key
        if order is None:
            infinite += 1
        else:
            assert order == entry["order"], key
            over_cap += entry["exit"] == 2
    assert (infinite, over_cap) == (241, 2)
    assert bare["3 3 5"]["order"] == bare["5 3 3"]["order"] == 14400


def test_rotation_relator_count():
    rels = rotation_relators(3, (4, 4))
    assert len(rels) == 2 + 1
    rels = rotation_relators(4, (3, 3, 8))
    assert len(rels) == 3 + 3


def test_make_presentation_validates():
    with pytest.raises(PresentationError):
        make_presentation(REFLECTION, 3, [4])  # wrong symbol length
    with pytest.raises(PresentationError):
        make_presentation(REFLECTION, 3, [4, 1])  # period below 2
    with pytest.raises(PresentationError):
        make_presentation(ROTATION, 1)  # no generators left
    pres = make_presentation(REFLECTION, 3, [4, 3])
    assert pres.rank == 3
    assert pres.num_generators == 3


def test_words_over_the_letter_limit_are_refused():
    for k in (MAX_WORD_LETTERS + 1, -MAX_WORD_LETTERS - 1, 10 ** 9):
        with pytest.raises(PresentationError, match="exceed the limit"):
            Word.gen(0) ** k
    with pytest.raises(PresentationError, match="exceed the limit"):
        (Word.gen(0) * Word.gen(1)) ** (MAX_WORD_LETTERS // 2 + 1)
    assert len((Word.gen(0) * Word.gen(1)) ** -500) == 1000
    # a product is bounded as a power is: a line of factors that each
    # stay under the limit cannot add up past it
    half = Word.gen(0) ** (MAX_WORD_LETTERS // 2 + 1)
    with pytest.raises(PresentationError, match="exceed the limit"):
        half * half


def test_generator_count_limit():
    assert Presentation(MAX_GENERATORS, REFLECTION).rank == MAX_GENERATORS
    assert make_presentation(ROTATION, MAX_GENERATORS + 1).num_generators \
        == MAX_GENERATORS
    with pytest.raises(PresentationError, match="exceed the limit"):
        Presentation(MAX_GENERATORS + 1, ROTATION)
    with pytest.raises(PresentationError, match="exceed the limit"):
        make_presentation(ROTATION, MAX_GENERATORS + 2)
    # refused before the 10^8 commutators of a central word are expanded
    with pytest.raises(PresentationError, match="exceed the limit"):
        make_presentation(REFLECTION, 10 ** 8, central_words=[Word.gen(0)])


def test_rotation_rank_offset():
    pres = make_presentation(ROTATION, 4, [3, 3, 8])
    assert pres.num_generators == 3
    assert pres.rank == 4


def test_central_words_filtered_when_trivial():
    # a commutator of a word with itself cancels freely and is dropped
    w = (Word.gen(0) * Word.gen(1)) ** 3
    pres = make_presentation(REFLECTION, 2, [6], central_words=[w])
    base = make_presentation(REFLECTION, 2, [6])
    assert len(pres.relators) == len(base.relators) + 2


def test_parse_grammar():
    r0, r1, r2 = Word.gen(0), Word.gen(1), Word.gen(2)
    n = 3
    assert parse_word("r0r1r2", REFLECTION, n) == r0 * r1 * r2
    assert parse_word("(r0r1)^3", REFLECTION, n) == (r0 * r1) ** 3
    assert parse_word("(r0 r1)^-2", REFLECTION, n) == (r0 * r1) ** -2
    assert parse_word("r0-", REFLECTION, n) == r0.inverse()
    assert parse_word("[r0, r1]", REFLECTION, n) == commutator(r0, r1)
    assert parse_word("s2^3", ROTATION, n) == Word.gen(1) ** 3


@pytest.mark.parametrize("bad", [
    "r0 (r1", "r0)", "[r0 r1]", "r0^0", "q3", "r7", "s1",
])
def test_parse_rejects(bad):
    with pytest.raises(PresentationError):
        parse_word(bad, REFLECTION, 3)


def test_parse_presentation_directives():
    pres = parse_presentation("""
        # a comment
        rank 3
        kind reflection
        schlafli 4 3
        rel (r0r1r2)^5
    """)
    assert pres.rank == 3
    assert pres.declared_schlafli == (4, 3)
    expected = make_presentation(
        REFLECTION, 3, [4, 3],
        extra_relators=[(Word.gen(0) * Word.gen(1) * Word.gen(2)) ** 5])
    assert pres == expected


def test_parse_presentation_unbounded_period():
    pres = parse_presentation("rank 3\nkind reflection\nschlafli 4 inf\n")
    assert pres.declared_schlafli == (4, None)


@pytest.mark.parametrize("text, fragment", [
    ("kind reflection\n", "rank"),
    ("rank 3\n", "kind"),
    ("rank 3\nkind sideways\n", "kind"),
    ("rank 3\nkind reflection\nrel r0r0-\n", "empty"),
    ("rank 3\nkind reflection\nwobble 4\n", "directive"),
    ("rank 0\nkind reflection\n", "rank"),
])
def test_parse_presentation_rejects(text, fragment):
    with pytest.raises(PresentationError, match=fragment):
        parse_presentation(text)


def test_serialize_folds_symbol_back():
    pres = make_presentation(REFLECTION, 3, [4, 3])
    text = serialize_presentation(pres)
    assert "schlafli 4 3" in text
    assert "rel" not in text
    assert parse_presentation(text) == pres


def test_serialize_keeps_surplus_relators():
    extra = (Word.gen(0) * Word.gen(1) * Word.gen(2)) ** 5
    pres = make_presentation(REFLECTION, 3, [3, 5], extra_relators=[extra])
    text = serialize_presentation(pres)
    assert text.count("rel ") == 1
    assert parse_presentation(text) == pres


def test_serialize_without_symbol_writes_everything():
    pres = Presentation(
        num_generators=2, kind=REFLECTION,
        relators=(Word.gen(0) ** 2, Word.gen(1) ** 2,
                  (Word.gen(0) * Word.gen(1)) ** 3))
    text = serialize_presentation(pres)
    assert text.count("rel ") == 3
    assert parse_presentation(text).relators == pres.relators


def test_presentation_validates_relators():
    with pytest.raises(PresentationError):
        Presentation(num_generators=2, kind=REFLECTION, relators=(EMPTY,))
    with pytest.raises(PresentationError):
        Presentation(num_generators=1, kind=REFLECTION,
                     relators=(Word.gen(1) ** 2,))
