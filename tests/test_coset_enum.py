"""Coset enumeration: orders, subgroup indices, determinism, limits."""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.combinatorics.fp_groups import coset_enumeration_r
from sympy.combinatorics.free_groups import free_group

from polyflag.corpus import load_entry
from polyflag.presentation import (Word, Presentation, make_presentation,
                                   parse_presentation, REFLECTION, ROTATION)
from polyflag.coset_enum import (
    CosetLimitExceeded, CoxeterLimitExceeded, enumerate_cosets, coset_action,
    InternalError, relators_close, word_to_columns, pair_orbit_table,
    flag_orbit_table, prove_table, _Enumerator, _row_keys,
)
from polyflag.permgroup import orbit

from oracles import standardize

PERFBENCH_INPUTS = (Path(__file__).resolve().parent.parent / "perfbench"
                    / "inputs.py")


def cox(*periods):
    return make_presentation(REFLECTION, len(periods) + 1, list(periods))


@pytest.mark.parametrize("periods, order", [
    ((3,), 6),
    ((4,), 8),
    ((3, 3), 24),
    ((4, 3), 48),
    ((3, 5), 120),
    ((3, 3, 3), 120),
    ((4, 3, 3), 384),
])
def test_coxeter_orders(periods, order):
    assert enumerate_cosets(cox(*periods), ()).num_cosets == order


def test_subgroup_index_is_face_count():
    # octahedron vertices: index of the parabolic omitting r0
    pres = cox(3, 4)
    table = enumerate_cosets(pres, (Word.gen(1), Word.gen(2)))
    assert table.num_cosets == 6
    table = enumerate_cosets(pres, (Word.gen(0), Word.gen(1)))
    assert table.num_cosets == 8
    table = enumerate_cosets(pres, (Word.gen(0), Word.gen(2)))
    assert table.num_cosets == 12


def test_lagrange_on_parabolics():
    pres = cox(3, 3, 3)
    whole = enumerate_cosets(pres, ()).num_cosets
    for keep in ((0, 1), (1, 2, 3), (0, 2), (3,)):
        table = enumerate_cosets(pres, tuple(Word.gen(i) for i in keep))
        assert whole % table.num_cosets == 0


def test_relators_close_and_trace():
    pres = cox(4, 3)
    table = enumerate_cosets(pres, ())
    assert relators_close(pres, table)
    assert table.num_cosets == 48
    # tracing a relator from any coset returns to it
    rel = (Word.gen(0) * Word.gen(1)) ** 4
    for c in range(0, 48, 7):
        assert table.trace(c, rel) == c
    # the identity coset moves under a generator
    assert table.trace(0, Word.gen(0)) != 0


def test_enumeration_deterministic():
    pres = cox(3, 4)
    a = enumerate_cosets(pres, (Word.gen(1), Word.gen(2)))
    b = enumerate_cosets(pres, (Word.gen(1), Word.gen(2)))
    assert a.num_cosets == b.num_cosets
    assert np.array_equal(a.action, b.action)  # bit-identical renumbering


def test_limit_exceeded():
    # affine [4,3,4] never closes; keep the cap small so the test is quick
    pres = cox(4, 3, 4)
    with pytest.raises(CosetLimitExceeded) as info:
        enumerate_cosets(pres, (), max_cosets=30_000)
    assert info.value.max_cosets == 30_000


def test_limit_respected_when_finite():
    # a group that fits exactly still enumerates
    pres = cox(3, 3)
    table = enumerate_cosets(pres, (), max_cosets=500)
    assert table.num_cosets == 24


@pytest.mark.parametrize("periods, order", [
    ((3,), 6), ((5,), 10), ((3, 2, 3), 36), ((2, 3, 3), 48), ((4, 3), 48),
    ((3, 4, 3), 1152), ((3, 3, 3, 3), 720), ((4, 3, 3, 3), 3840),
    ((3, 3, 3, 3, 3), 5040), ((3, 3, 5), 14400), ((5, 3, 3), 14400),
])
def test_limit_of_the_group_order_holds_the_group(periods, order):
    # the cap bounds live cosets: a table that completes with every one
    # of them live is accepted, and one coset fewer cannot hold it
    pres = cox(*periods)
    table = enumerate_cosets(pres, (), max_cosets=order)
    assert table.num_cosets == order
    prove_table(pres, table)
    with pytest.raises(CosetLimitExceeded) as info:
        enumerate_cosets(pres, (), max_cosets=order - 1)
    assert info.value.max_cosets == order - 1


@pytest.mark.parametrize("cap", [0, -1])
def test_limit_below_one_is_refused(cap):
    with pytest.raises(ValueError, match=f"at least 1, got {cap}$"):
        enumerate_cosets(cox(3, 3), (), max_cosets=cap)


def test_limit_of_one_is_a_limit():
    with pytest.raises(CosetLimitExceeded) as info:
        enumerate_cosets(cox(3), (), max_cosets=1)
    assert info.value.max_cosets == 1


def test_action_is_involution_per_generator():
    pres = cox(3, 4)
    table = enumerate_cosets(pres, ())
    perms = coset_action(table)
    for p in perms:
        assert (p * p).is_identity()


def test_coset_action_transitive():
    pres = cox(3, 3)
    table = enumerate_cosets(pres, ())
    perms = coset_action(table)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = int(p.images[x])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert len(seen) == table.num_cosets


def test_nontrivial_subgroup_words():
    # index of the rotation subgroup <r0r1, r1r2> in [3,3] is 2
    pres = cox(3, 3)
    table = enumerate_cosets(
        pres, (Word.gen(0) * Word.gen(1), Word.gen(1) * Word.gen(2)))
    assert table.num_cosets == 2


def digest(table):
    action = np.asarray(table.action).tolist()
    return hashlib.sha256(json.dumps(action).encode()).hexdigest()[:16]


def coxeter_text(symbol, rel=None):
    text = (f"rank {len(symbol) + 1}\nkind reflection\n"
            f"schlafli {' '.join(map(str, symbol))}\n")
    return text + (f"rel {rel}\n" if rel else "")


# Recorded from the row-major enumerator that preceded the column-major
# one (tools/digests.py prints the same table for any checkout).
# Kept by hand: coset numbering must not drift.
@pytest.mark.parametrize("source, cap, outcome", [
    (coxeter_text((3, 3, 5)), 2_000_000, (14400, "fb8b8c70dec4df1b")),
    (coxeter_text((4, 3, 3, 3, 3)), 2_000_000, (46080, "de2c78052f793050")),
    ("corpus:cube-5", 2_000_000, (3840, "a8e981abc27b198d")),
    ("corpus:lambda-6-3-3-3", 2_000_000, (1440, "ad10c69adbaecdc9")),
    ("corpus:lambda-6-6-3-3", 2_000_000, (2880, "26950d4d49a94e8f")),
    (coxeter_text((5, 4), "(r0 r1 r2)^8"), 2000, (1440, "a3237bb691882690")),
    (coxeter_text((5, 4), "(r0 r1 r2)^8"), 300, ("limit", 300)),
    (coxeter_text((3, 6, 3)), 2000, ("limit", 2000)),
    (coxeter_text((3, 6, 3)), 300, ("limit", 300)),
    # these finish only because lookahead collapses the table at the cap
    (coxeter_text((6, 3, 4), "(r0 r1 r2 r3)^6"), 2000,
     (864, "24769ec1671aa989")),
    (coxeter_text((4, 5, 3), "(r0 r1 r2)^7"), 2000, (2, "a29bb9a2b8ad8036")),
    (coxeter_text((8, 3), "(r0 r1 r2 r1)^4"), 60, (48, "2366ccd4620fe963")),
], ids=["335", "43333", "cube-5", "lambda-6-3-3-3", "lambda-6-6-3-3",
        "54-petrie8-cap2000", "54-petrie8-cap300", "363-cap2000",
        "363-cap300", "634-petrie6-cap2000", "453-petrie7-cap2000",
        "83-hole4-cap60"])
def test_golden_numbering(source, cap, outcome):
    if source.startswith("corpus:"):
        pres = load_entry(source[len("corpus:"):])[0]
    else:
        pres = parse_presentation(source)
    try:
        table = enumerate_cosets(pres, (), max_cosets=cap)
    except CosetLimitExceeded as exc:
        assert exc.max_cosets == cap
        got = ("limit", exc.high_water)
    else:
        got = (table.num_cosets, digest(table))
    assert got == outcome


def sweep_presentations():
    """Every 49th presentation of the sweep benchmark's candidate pool,
    read from perfbench without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(inputs)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return [parse_presentation(inputs.sweep_text(sym, rel))
            for sym, rel in inputs.sweep_pool()[::49]]


def outcomes(presentations, cap):
    out = []
    for pres in presentations:
        try:
            table = enumerate_cosets(pres, (), cap)
            out.append(("table", np.asarray(table.action).tolist()))
        except CosetLimitExceeded as exc:
            out.append(("limit", exc.max_cosets, exc.high_water))
    return out


def test_lookahead_from_scan_pointer_is_exact(monkeypatch):
    # Live cosets below the scan pointer have every relator trace closed,
    # so lookahead may start at the pointer.  Scanning from coset 0
    # instead must give the same tables and the same limit outcomes.
    presentations = sweep_presentations()
    assert len(presentations) == 40
    caps = (60, 300, 2000)
    pointer = [outcomes(presentations, cap) for cap in caps]
    lookahead = _Enumerator.lookahead
    monkeypatch.setattr(_Enumerator, "lookahead",
                        lambda self, start: lookahead(self, 0))
    whole = [outcomes(presentations, cap) for cap in caps]
    assert pointer == whole
    # every cap mixes finished tables with limit hits
    for row in pointer:
        limits = sum(kind == "limit" for kind, *_ in row)
        assert 0 < limits < len(presentations)


def open_marked_traces(enum):
    """Live cosets whose relator trace lookahead marked closed, but which
    no longer trace back to themselves; and how many marks were checked.

    Each column gets a trailing undefined entry, so an undefined step
    (index -1) stays undefined."""
    cols = [np.append(np.array(col), -1) for col in enum.cols]
    n = len(enum.parent)
    live = np.array(enum.parent) == np.arange(n)
    open_pairs, checked = [], 0
    for k, ((word, _, _), marks) in enumerate(zip(enum.bound, enum.closed)):
        start = np.flatnonzero(np.frombuffer(marks, dtype=np.uint8)[:n]
                               & live)
        c = start
        for x in word:
            c = cols[x][c]
        open_pairs.extend((k, int(d)) for d in start[c != start])
        checked += start.size
    return open_pairs, checked


def marks_checked_against_cleared(monkeypatch, presentations, caps):
    """Outcomes with every lookahead's marks checked closed, which must
    equal the outcomes with the marks cleared before every lookahead;
    returns the number of lookaheads and of marks checked."""
    lookahead = _Enumerator.lookahead
    seen = {"lookaheads": 0, "marks": 0}

    def checked(self, start):
        lookahead(self, start)
        open_pairs, marks = open_marked_traces(self)
        assert open_pairs == []
        seen["lookaheads"] += 1
        seen["marks"] += marks

    def unmarked(self, start):
        self.closed = None
        lookahead(self, start)

    monkeypatch.setattr(_Enumerator, "lookahead", checked)
    marked = [outcomes(presentations, cap) for cap in caps]
    monkeypatch.setattr(_Enumerator, "lookahead", unmarked)
    assert marked == [outcomes(presentations, cap) for cap in caps]
    return seen


def test_lookahead_closed_trace_marks_are_exact(monkeypatch):
    # A marked (relator, coset) pair stays closed while the coset lives,
    # so skipping it changes nothing: lookahead with the marks cleared
    # before every call must give the same tables and limit outcomes.
    seen = marks_checked_against_cleared(
        monkeypatch, sweep_presentations(), (300, 2000))
    assert seen["lookaheads"] > 200 and seen["marks"] > 1_000_000


def test_closed_trace_marks_follow_compaction(monkeypatch):
    # these collapse far enough at the cap to compact the table between
    # lookaheads, so the marks are renumbered with the cosets
    presentations = [parse_presentation(coxeter_text(sym, "(r0 r1 r2)^3"))
                     for sym in ((4, 3, 6), (3, 8, 5), (8, 3, 8))]
    compact = _Enumerator.compact
    compactions = []

    def counted(self, pointer):
        if self.closed is not None and pointer > 0:
            compactions.append(pointer)
        return compact(self, pointer)

    monkeypatch.setattr(_Enumerator, "compact", counted)
    marks_checked_against_cleared(monkeypatch, presentations, (2000,))
    # one compaction each, at the same pointer with marks and without
    assert compactions == [4449, 2968, 2760] * 2


def corrupt(table, coset, column, value):
    columns = np.array(table.columns)
    columns[column][coset] = value
    return type(table)(tuple(columns))


def relator_columns(pres):
    return [word_to_columns(w) for w in pres.relators]


def test_prove_table_faults():
    pres = cox(4, 3)
    table = enumerate_cosets(pres, ())
    prove_table(pres, table, [Word.gen(0) ** 2])
    with pytest.raises(AssertionError, match=r"incomplete table at \(5, 2\)"):
        prove_table(pres, corrupt(table, 5, 2, -1))
    with pytest.raises(AssertionError, match="incomplete"):
        prove_table(pres, corrupt(table, 0, 0, 48))
    # send coset 5 under r1 somewhere its r1 image does not come back from
    target = next(d for d in range(48) if d != table.action[5][2])
    with pytest.raises(AssertionError, match="mirror violation"):
        prove_table(pres, corrupt(table, 5, 2, target))
    with pytest.raises(AssertionError, match="subgroup word"):
        prove_table(pres, table, [Word.gen(0)])
    # a mirror-consistent table of [3,3] does not satisfy (r0 r1)^4
    small = enumerate_cosets(cox(3, 3), ())
    with pytest.raises(AssertionError, match="does not close"):
        prove_table(pres, small)
    # a fault is an internal error, and still an AssertionError
    with pytest.raises(InternalError, match="does not close"):
        prove_table(pres, small)


def test_enumerate_and_pair_orbit_prove_through_prove_table(monkeypatch):
    # both routes to a table hand it to the one proof
    from polyflag import coset_enum
    proved = []

    def spy(pres, table, subgroup_words=()):
        proved.append((table.num_cosets, tuple(subgroup_words)))

    pres = _torus_pres("44", 1, 2)
    monkeypatch.setattr(coset_enum, "prove_table", spy)
    pair_orbit_table(pres)
    assert proved == [(5, (Word.gen(1),)), (20, ())]


def test_relators_close_rejects_incomplete_table():
    pres = cox(4, 3)
    table = enumerate_cosets(pres, ())
    assert relators_close(pres, table)
    assert not relators_close(pres, corrupt(table, 7, 0, -1))


def closes_by_loop(pres, table):
    """Reference for relators_close: trace each relator from each coset
    one entry at a time."""
    for c in range(table.num_cosets):
        for cols in relator_columns(pres):
            d = c
            for x in cols:
                d = table.action[d][x]
            if d != c:
                return False
    return True


@pytest.mark.parametrize("table_periods", [(3, 3), (3, 4), (4, 3), (3, 5)])
@pytest.mark.parametrize("rel_periods", [(3, 3), (3, 4), (4, 3), (3, 5),
                                         (6, 3)])
def test_relators_close_matches_loop(table_periods, rel_periods):
    table = enumerate_cosets(cox(*table_periods), ())
    pres = cox(*rel_periods)
    assert relators_close(pres, table) == closes_by_loop(pres, table)


def _torus_pres(kind, b, c):
    from polyflag.chiral import rotation_torus_map
    return rotation_torus_map(kind, b, c).pres


@pytest.mark.parametrize("kind, b, c, period", [("44", 1, 2, 4),
                                                ("44", 3, 5, 4),
                                                ("36", 2, 3, 6)])
def test_pair_orbit_table_is_the_regular_action(kind, b, c, period):
    pres = _torus_pres(kind, b, c)
    vertices = enumerate_cosets(pres, (Word.gen(1),)).num_cosets
    table = pair_orbit_table(pres)
    # a transitive action of G on |G| points is the regular action
    order = enumerate_cosets(pres, ()).num_cosets
    assert table.num_cosets == period * vertices == order
    assert relators_close(pres, table)
    assert len(orbit(coset_action(table), 0)) == table.num_cosets


def test_pair_orbit_table_rejects_a_pair_with_a_stabilizer():
    # {4,4}_(2,0) has double edges: the pair orbit is smaller than 4 m
    assert pair_orbit_table(_torus_pres("44", 2, 0)) is None


def test_pair_orbit_table_needs_a_period():
    s1, s2 = Word.gen(0), Word.gen(1)
    # s2 = s1^-2 in this group of order 2, but no relator is a power of s2
    pres = Presentation(num_generators=2, kind=ROTATION,
                        relators=(s1 ** 4, (s1 * s2) ** 2, s2 * s1 ** 2))
    assert enumerate_cosets(pres, ()).num_cosets == 2
    assert pair_orbit_table(pres) is None


def test_pair_orbit_table_over_the_cap():
    pres = _torus_pres("36", 11, 9)  # 301 vertices, order 1806
    with pytest.raises(CosetLimitExceeded) as info:
        pair_orbit_table(pres, max_cosets=1000)
    assert (info.value.max_cosets, info.value.high_water) == (1000, 1000)
    # enumerating the vertices passes a cap of 200, so |G| does too
    with pytest.raises(CosetLimitExceeded) as info:
        pair_orbit_table(pres, max_cosets=200)
    assert info.value.max_cosets == 200
    assert pair_orbit_table(pres, max_cosets=1806).num_cosets == 1806


def test_limit_in_the_subgroup_phase():
    # at cap 2, tracing the subgroup generator from coset 0 runs out of
    # room before the main scan starts
    r0, r1, r2 = (Word.gen(i) for i in range(3))
    pres = make_presentation(REFLECTION, 3, [4, 3])
    with pytest.raises(CosetLimitExceeded) as exc:
        enumerate_cosets(pres, (r0 * r1 * r2 * r1,), max_cosets=2)
    run = next(entry for entry in exc.traceback if entry.name == "run")
    assert str(run.statement).strip() == "self._lookahead_or_fail(0)"


def test_flag_orbit_table_over_the_cap():
    # [3,3] has order 24; at a cap of 23 it is refused before anything
    # is enumerated
    pres = cox(3, 3)
    with pytest.raises(CoxeterLimitExceeded) as info:
        flag_orbit_table(pres, max_cosets=23)
    assert (info.value.max_cosets, info.value.high_water) == (23, 0)
    assert flag_orbit_table(pres, max_cosets=24).num_cosets == 24


def test_flag_orbit_table_proves_through_prove_table(monkeypatch):
    from polyflag import coset_enum
    proved = []

    def spy(pres, table, subgroup_words=()):
        proved.append((table.num_cosets, len(subgroup_words)))

    monkeypatch.setattr(coset_enum, "prove_table", spy)
    flag_orbit_table(cox(3, 3))
    # the three maximal parabolics (vertices, edges, faces), then the orbit
    assert proved == [(4, 2), (6, 2), (4, 2), (24, 0)]


def test_flag_orbit_table_shares_objects():
    # one row for an involution's two columns
    table = flag_orbit_table(cox(4, 3))
    for g in range(3):
        assert table.columns[2 * g] is table.columns[2 * g + 1]


def test_row_keys_are_exact_past_int64():
    # radices whose product passes 2^63: keys must still match exactly
    # when rows do
    rng = np.random.default_rng(5)
    radices = [2 ** 40, 2 ** 40, 3, 2 ** 40]
    rows = rng.integers(0, 4, size=(500, 4), dtype=np.int64)
    rows[:, 1] *= 2 ** 38
    keys = _row_keys(rows, radices)
    assert keys.dtype == np.int64
    distinct_rows = len({tuple(r) for r in rows.tolist()})
    assert len(set(keys.tolist())) == distinct_rows
    for i in range(0, 500, 7):
        for j in range(0, 500, 11):
            assert (keys[i] == keys[j]) == (rows[i] == rows[j]).all()


def _sympy_standard_columns(pres, letters_once=True):
    """The columns of sympy's HLT enumeration of ``pres`` over the
    trivial subgroup, compressed and standardized.

    sympy's scans read a relator only as ``len(w)`` and ``w[i]``, and its
    ``__getitem__`` rebuilds the whole letter form on every call, so by
    default each relator is handed over as the tuple of its letters,
    looked up once."""
    free, *gens = free_group(", ".join(
        f"x{g}" for g in range(pres.num_generators)))
    relators = [math.prod((gens[g] ** e for g, e in w.letters),
                          start=free.identity) for w in pres.relators]
    if letters_once:
        relators = [tuple(w.letter_form_elm) for w in relators]
    # the enumeration reads only these two attributes; an FpGroup would
    # also build a rewriting system, which takes seconds on long relators
    group = SimpleNamespace(generators=gens, relators=relators)
    table = coset_enumeration_r(group, [])
    table.compress()
    table.standardize()
    return tuple(zip(*table.table))


def test_enumeration_matches_sympy_on_small_corpus_groups(built_groups):
    # an independent enumerator: sympy's HLT, standardized like ours
    checked = 0
    for name, group in built_groups.items():
        if group.kind != REFLECTION or group.order > 500:
            continue
        checked += 1
        assert (_sympy_standard_columns(group.pres)
                == standardize(enumerate_cosets(group.pres))), name
    assert checked == 15
    # handing sympy the letters looked up once changes nothing
    pres = built_groups["coxeter-3-3"].pres
    assert (_sympy_standard_columns(pres)
            == _sympy_standard_columns(pres, letters_once=False))


@settings(max_examples=40, deadline=None)
@given(periods=st.lists(st.integers(2, 6), min_size=1, max_size=3),
       letters=st.lists(st.integers(0, 3), min_size=2, max_size=5),
       power=st.integers(2, 8))
def test_enumeration_matches_sympy_on_drawn_presentations(periods, letters,
                                                          power):
    # a string Coxeter symbol plus one drawn relator, order <= 200
    rank = len(periods) + 1
    extra = math.prod((Word.gen(g % rank) for g in letters),
                      start=Word(()))
    assume(extra ** power)
    pres = make_presentation(REFLECTION, rank, periods,
                             extra_relators=[extra ** power])
    try:
        table = enumerate_cosets(pres, (), max_cosets=200)
    except CosetLimitExceeded:
        assume(False)
    assert _sympy_standard_columns(pres) == standardize(table)
