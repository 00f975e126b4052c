"""Acceptance gate: every release-blocking numeric claim in one place.

Each criterion accumulates failure strings and prints a single
``ACCEPTANCE n PASS``/``FAIL`` line (visible under ``pytest -s``), so a
red run names the exact values that moved.  All comparisons are
integer-exact.
"""

import itertools
import math

import pytest

from polyflag.presentation import (Word, make_presentation, ROTATION,
                                   coxeter_relators)
from polyflag.coset_enum import enumerate_cosets, relators_close
from polyflag.stringc import (build_string_group, is_string_c_group,
                              intersection_condition_exhaustive)
from polyflag.analysis import (analyze, min_nonflat_flags, is_flat_km,
                               f_vector, flatness_spectrum, is_tight)
from polyflag.constructions import (coxeter, simplex_extension, torus_map,
                                    universal_amalgam, table2_witness)
from polyflag.permgroup import orbit, build_chain, brute_force_closure
from polyflag.chiral import (build_rotation_group, rotation_torus_map,
                             is_chiral, mixed_regular_cover_flags,
                             structure_constraint_audit,
                             StructureFacts, chiral_lower_bound)
from polyflag.corpus import corpus_names, load_entry

from oracles import standardize


def _verdict(n, failures):
    print(f"ACCEPTANCE {n} {'FAIL' if failures else 'PASS'}")
    assert not failures, "; ".join(failures)


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


@pytest.fixture(scope="module")
def corpus(built_groups):
    """(name, sidecar, group) triples, reusing the session builds."""
    out = []
    for name in corpus_names():
        _, expected = load_entry(name)
        out.append((name, expected, built_groups[name]))
    return out


def test_acceptance_1_order_certificates():
    failures = []
    cases = [
        (coxeter(3, 3), 24), (coxeter(3, 5), 120),
        (coxeter(3, 3, 3), 120),
        (simplex_extension(6, 3), 48),
        (simplex_extension(6, 3, 3), 240),
        (simplex_extension(6, 6, 3), 480),
        (simplex_extension(6, 3, 3, 3), 1440),
        (simplex_extension(6, 6, 3, 3), 2880),
        (universal_amalgam(coxeter(4, 3), torus_map("36", 1, 1)), 288),
    ]
    for group, expected in cases:
        _check(failures, group.order == expected,
               f"order {group.order} != {expected}")
    _verdict(1, failures)


def test_acceptance_2_extension_family_sweep():
    failures = []
    patterns = [p for n in (2, 3, 4, 5)
                for p in itertools.product((3, 6), repeat=n - 1)]
    _check(failures, len(patterns) == 30, "pattern count")
    for periods in patterns:
        n = len(periods) + 1
        group = simplex_extension(*periods)
        expected = (math.prod(periods) * math.factorial(n + 1)) \
            // 3 ** (n - 1)
        report = analyze(group)
        _check(failures, group.order == expected,
               f"{periods}: order {group.order} != {expected}")
        _check(failures, report.schlafli == periods,
               f"{periods}: symbol {report.schlafli}")
        _check(failures, report.c_group, f"{periods}: not a C-group")
        _check(failures, report.f_vector[0] == (n + 1) * periods[0] // 3,
               f"{periods}: vertices {report.f_vector[0]}")
        _check(failures, not report.is_flat, f"{periods}: flat")
    _verdict(2, failures)


def test_acceptance_3_nonflat_minimum_table():
    failures = []
    table = {
        3: (24, 48, 60, 64),
        4: (120, 240, 384, 480),
        5: (720, 1440, 2880, 3840),
    }
    for rank, row in table.items():
        for which, value in enumerate(row, start=1):
            got = min_nonflat_flags(rank, which)
            _check(failures, got.value == value and got.exact,
                   f"({rank},{which}) = {got.value}")
    for rank in (6, 7, 9):
        fact = math.factorial(rank + 1)
        for which, value, exact in (
                (1, fact, True), (2, 2 * fact, True), (3, 4 * fact, True),
                (4, 16 * fact // 3, False)):
            got = min_nonflat_flags(rank, which)
            _check(failures, got.value == value and got.exact == exact,
                   f"({rank},{which}) formula")
    # witnesses attain the exact cells
    witnessed = [(3, 1), (3, 2), (3, 3), (3, 4),
                 (4, 1), (4, 2), (4, 4),
                 (5, 1), (5, 2), (5, 3)]
    for rank, which in witnessed:
        group = table2_witness(rank, which)
        report = analyze(group)
        value = min_nonflat_flags(rank, which).value
        _check(failures,
               report.flag_count == value and report.c_group
               and not report.is_flat,
               f"witness ({rank},{which})")
    _verdict(3, failures)


def test_acceptance_4_intersection_oracle(corpus):
    failures = []
    checked = 0
    for name, expected, group in corpus:
        if expected["kind"] != "reflection" or group.order > 2000:
            continue
        checked += 1
        recursive = is_string_c_group(group)
        exhaustive = intersection_condition_exhaustive(group)
        _check(failures, recursive.ok == exhaustive.ok,
               f"{name}: verdicts differ")
    _check(failures, checked >= 15, f"only {checked} groups checked")
    collapsed = is_string_c_group(
        next(g for n, _, g in corpus if n == "p2-collapsed"))
    _check(failures, not collapsed.ok, "collapse not detected")
    _check(failures,
           (tuple(collapsed.witness.left),
            tuple(collapsed.witness.right)) == ((0,), (2,)),
           f"witness {collapsed.witness}")
    _verdict(4, failures)


def test_acceptance_5_flatness_theorems(corpus):
    failures = []
    amalgam = universal_amalgam(coxeter(4, 3), torus_map("36", 1, 1))
    _check(failures, is_flat_km(amalgam, 1, 3), "amalgam not (1,3)-flat")
    _check(failures, is_flat_km(amalgam, 0, 3), "amalgam not (0,3)-flat")
    _check(failures, is_flat_km(torus_map("36", 1, 1), 0, 2),
           "{3,6}_(1,1) not (0,2)-flat")
    for periods in ((6, 3), (6, 6, 3), (6, 3, 3, 3)):
        _check(failures, not analyze(simplex_extension(*periods)).is_flat,
               f"extension {periods} flat")
    for name, expected, group in corpus:
        if expected["kind"] != "reflection" or not expected.get("c_group"):
            continue
        report = analyze(group)
        n = report.rank
        pairs = set(report.flat_pairs)
        widened = {(k2, m2) for k, m in pairs
                   for k2 in range(k + 1) for m2 in range(m, n)}
        _check(failures, widened <= pairs, f"{name}: monotonicity")
        for k, m in pairs:
            if m <= n - 2:
                _check(failures, is_flat_km(group, k, m),
                       f"{name}: facet transfer ({k},{m})")
        local = all((i, i + 2) in pairs for i in range(n - 2))
        _check(failures, report.is_tight == local,
               f"{name}: tight vs local flatness")
        _check(failures, not report.audit_violations,
               f"{name}: audit {report.audit_violations}")
    _verdict(5, failures)


def test_acceptance_6_chiral_suite():
    failures = []
    skew = rotation_torus_map("44", 1, 2)
    _check(failures, is_chiral(skew), "(1,2) not chiral")
    _check(failures, skew.flag_count() == 40, "(1,2) flags")
    faces = f_vector(skew)
    _check(failures, (faces[0], faces[-1]) == (5, 5), "(1,2) counts")
    cover = mixed_regular_cover_flags(skew)
    _check(failures, cover > 40 and cover % 40 == 0, f"cover {cover}")
    for b, c in ((2, 0), (2, 2)):
        _check(failures, not is_chiral(rotation_torus_map("44", b, c)),
               f"({b},{c}) chiral")
    s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)
    pres = make_presentation(
        ROTATION, 4, [3, 3, 8],
        extra_relators=[s3.inverse() * s1 * s3 * s2.inverse() * s1
                        * s3 ** -2 * s2])
    deep = build_rotation_group(pres)
    _check(failures, deep.order == 192, f"order {deep.order}")
    _check(failures, deep.flag_count() == 384, "flags")
    _check(failures, is_chiral(deep), "not chiral")
    facts = StructureFacts(
        rank=4, facet_kind="regular", vf_kind="regular",
        flat_pairs=flatness_spectrum(deep), tight=is_tight(deep),
        facet_flat_pairs=analyze(coxeter(3, 3)).flat_pairs)
    _check(failures, structure_constraint_audit(facts) == [],
           "audit not empty")
    chiral_examples = [skew, deep, rotation_torus_map("36", 1, 2),
                       rotation_torus_map("44", 1, 3)]
    for group in chiral_examples:
        _check(failures,
               is_chiral(group) and group.flag_count() % 4 == 0,
               f"flags {group.flag_count()} not divisible by 4")
    _verdict(6, failures)


def test_acceptance_7_bound_formulas(corpus):
    failures = []
    cells = [
        (3, "regular", "regular", 40),
        (4, "chiral", "chiral", 240),
        (4, "chiral", "regular", 240),
        (4, "regular", "regular", 384),
        (5, "chiral", "chiral", 1440),
        (5, "chiral", "regular", 4004),
        (5, "regular", "regular", 4004),
        (6, "chiral", "chiral", 18432),
        (6, "chiral", "regular", 18432),
        (6, "regular", "regular", 23040),
        (7, "chiral", "chiral", 55296),
        (7, "chiral", "regular", 69120),
        (7, "regular", "regular", 188160),
    ]
    for rank, fk, vk, value in cells:
        got = chiral_lower_bound(rank, fk, vk).value
        _check(failures, got == value, f"({rank},{fk},{vk}) = {got}")
    rank8 = {
        ("regular", "regular"): 16 * 8 * math.factorial(8) // 3,
        ("chiral", "regular"): 16 * 7 * math.factorial(7),
        ("chiral", "chiral"): 48 * 6 * math.factorial(6),
    }
    _check(failures, rank8[("regular", "regular")] == 1720320, "rr8 value")
    _check(failures, rank8[("chiral", "regular")] == 564480, "cr8 value")
    _check(failures, rank8[("chiral", "chiral")] == 207360, "cc8 value")
    for (fk, vk), value in rank8.items():
        got = chiral_lower_bound(8, fk, vk).value
        _check(failures, got == value, f"rank-8 {fk}/{vk} = {got}")
    for n in range(8, 17):
        cc = 48 * (n - 2) * math.factorial(n - 2)
        cr = 16 * (n - 1) * math.factorial(n - 1)
        rr = 16 * n * math.factorial(n) // 3
        _check(failures, cc < cr < rr, f"chain breaks at {n}")
    for name, expected, group in corpus:
        if expected["kind"] != "rotation" or not expected["is_chiral"]:
            continue
        bound = chiral_lower_bound(
            group.rank, expected["facet_kind"], expected["vf_kind"])
        _check(failures, group.flag_count() >= bound.value,
               f"{name} under bound")
    _verdict(7, failures)


# the corpus entries built as the orbit of their base flag: the symbol's
# Coxeter relators and nothing else
BARE_COXETER = {"coxeter-3-3", "coxeter-3-3-3", "coxeter-3-3-3-3",
                "coxeter-3-4", "coxeter-3-5", "cube-4", "cube-5", "digon"}


def test_acceptance_8_engine_properties(corpus):
    failures = []
    for name, expected, group in corpus:
        _check(failures, relators_close(group.pres, group.table),
               f"{name}: open relator trace")
        if expected["kind"] == "reflection":
            for size in range(group.rank + 1):
                for subset in itertools.combinations(range(group.rank),
                                                     size):
                    sub = group.parabolic_order(subset)
                    _check(failures, group.order % sub == 0,
                           f"{name}: Lagrange {subset}")
        if group.order <= 5000:
            closure = brute_force_closure(group.gens, limit=5001)
            _check(failures, len(closure) == group.order,
                   f"{name}: closure order")
        chain = build_chain(group.gens)
        _check(failures, chain.order == group.order,
               f"{name}: chain order")
        for i, level in enumerate(chain.levels):
            gens_i = [p for p, lvl in chain.strong if lvl >= i]
            _check(failures,
                   orbit(gens_i, level.point) == set(level.transversal),
                   f"{name}: orbit-stabilizer at level {i}")
        build = (build_string_group if expected["kind"] == "reflection"
                 else build_rotation_group)
        _check(failures, build(group.pres).table == group.table,
               f"{name}: nondeterministic build")
        rerun = standardize(enumerate_cosets(group.pres, ()))
        _check(failures, standardize(group.table) == rerun,
               f"{name}: build and enumeration differ")
        if name in BARE_COXETER:
            _check(failures, group.table.columns == rerun,
                   f"{name}: flag orbit not standard-numbered")
    bare = {name for name, _, group in corpus
            if group.pres.declared_schlafli is not None
            and group.pres.relators == tuple(coxeter_relators(
                group.rank, group.pres.declared_schlafli))}
    _check(failures, bare == BARE_COXETER,
           f"bare Coxeter entries are {sorted(bare)}")
    _verdict(8, failures)
