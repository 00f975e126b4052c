"""String groups generated by involutions, and the intersection condition.

A reflection presentation whose generator images are involutions that
commute at distance two or more presents a string group; it is the
automorphism group of a regular polytope exactly when it also satisfies
the intersection condition, which makes it a string C-group.

All subgroup computations here ride on the regular representation coming
out of the coset enumeration: a subgroup's elements are exactly the orbit
of the trivial coset under its generators, so subgroup orders and
pairwise intersections are plain orbit computations, cached per set of
generating words.  RegularGroup holds that representation and cache for
string groups and rotation groups alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .presentation import Word, REFLECTION
from .coset_enum import (enumerate_cosets, coset_action, relators_close,
                         DEFAULT_MAX_COSETS)
from .permgroup import orbit, word_image


class SggiViolation(Exception):
    """The presented group is not a string group on involutions."""


@dataclass(frozen=True)
class IntersectionWitness:
    """A pair of generator subsets where the intersection condition fails."""

    left: tuple
    right: tuple
    intersection_order: int
    expected_order: int


@dataclass(frozen=True)
class CGroupVerdict:
    ok: bool
    witness: IntersectionWitness | None = None

    def __bool__(self):
        return self.ok


class RegularGroup:
    """A finite group with its faithful regular representation, from a
    reflection or a rotation presentation, or a section of one.

    The regular action is free, so the orbit of the trivial coset under
    any set of elements is the subgroup they generate; each such element
    set is computed once and cached.  Subclasses say which elements the
    rotations are, how many flags there are, which subgroup fixes the
    base i-face and what the rank is.
    """

    def __init__(self, pres, table, gens, max_cosets=DEFAULT_MAX_COSETS):
        self.pres = pres
        self.table = table
        self.gens = gens
        self.order = (len(orbit(gens, 0)) if table is None
                      else table.num_cosets)
        self.max_cosets = max_cosets
        self._orbits = {}
        self._schlafli = None

    def word_orbit(self, words):
        """Element set of the subgroup generated by the given words."""
        key = frozenset(words)
        found = self._orbits.get(key)
        if found is None:
            found = self._orbits[key] = frozenset(
                orbit([word_image(self.gens, w) for w in key], 0))
        return found

    def section(self, lo, hi):
        """The section on generators lo..hi (inclusive): a group of the
        same class on those generators, acting on the same points, with
        no presentation and no table of its own."""
        if not 0 <= lo <= hi < len(self.gens):
            raise ValueError(f"need 0 <= lo <= hi < {len(self.gens)}, "
                             f"got ({lo}, {hi})")
        return type(self)(None, None, self.gens[lo:hi + 1], self.max_cosets)

    def schlafli_symbol(self):
        """Orders of the rotations, computed once per group."""
        if self._schlafli is None:
            self._schlafli = tuple(g.order() for g in self.rotations())
        return self._schlafli


class StringGroup(RegularGroup):
    """A finite string group; its elements are the flags."""

    @property
    def rank(self):
        return len(self.gens)

    def rotations(self):
        return [self.gens[i - 1] * self.gens[i]
                for i in range(1, self.rank)]

    def flag_count(self):
        return self.order

    def parabolic_orbit(self, subset):
        """Element set of the subgroup those generators produce."""
        return self.word_orbit(Word.gen(i) for i in subset)

    def parabolic_order(self, subset):
        return len(self.parabolic_orbit(subset))

    def face_stabilizer(self, i):
        """The parabolic omitting r_i: the stabilizer of the base i-face."""
        return self.parabolic_orbit(j for j in range(self.rank) if j != i)


def build_string_group(pres, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the group and check it really is a string group.

    Raises SggiViolation naming the first failed condition: a generator
    collapsing or losing its involution, or a distant pair failing to
    commute.
    """
    if pres.kind != REFLECTION:
        raise ValueError("string groups are built from reflection "
                         "presentations")
    table = enumerate_cosets(pres, (), max_cosets)
    gens = coset_action(table)
    n = pres.num_generators
    for i, g in enumerate(gens):
        if g.is_identity():
            raise SggiViolation(f"generator r{i} collapses to the identity")
        if not (g * g).is_identity():
            raise SggiViolation(f"generator r{i} is not an involution")
    for i in range(n):
        for j in range(i + 2, n):
            if not (gens[i] * gens[j] * gens[i] * gens[j]).is_identity():
                raise SggiViolation(
                    f"generators r{i} and r{j} do not commute")
    return StringGroup(pres, table, gens, max_cosets)


def dual(group):
    """The dual's group, string or rotation: generator i of the dual is
    generator n-1-i inverted, so s_1..s_m become s_m^-1..s_1^-1 and a
    string of reflections is just reversed.  No re-enumeration: each row
    of the regular action is read backwards (column x becomes 2n-1-x), and
    the table is proved against the relators, each rewritten as its
    inverse in the new generators.  A section has neither presentation
    nor table, so its dual is just the reversed, inverted generators.
    dual(dual(g)) equals g.
    """
    gens = [g.inverse() for g in reversed(group.gens)]
    if group.pres is None:
        return type(group)(None, None, gens, group.max_cosets)
    pres, n = group.pres, group.pres.num_generators
    sym = pres.declared_schlafli
    relators = tuple(
        Word(tuple((n - 1 - g, e) for g, e in reversed(w.letters)))
        for w in pres.relators)
    new_pres = replace(pres, relators=relators,
                       declared_schlafli=sym and tuple(reversed(sym)))
    table = replace(group.table,
                    action=tuple(row[::-1] for row in group.table.action))
    if not relators_close(new_pres, table):
        raise AssertionError("dual table does not satisfy the dual relators")
    return type(group)(new_pres, table, gens, group.max_cosets)


def _witness_scan(group):
    """Smallest subset pair violating the intersection condition."""
    indices = range(group.rank)
    subsets = []
    for size in range(1, group.rank + 1):
        subsets.extend(combinations(indices, size))
    subsets.sort(key=lambda s: (len(s), s))
    for left in subsets:
        for right in subsets:
            meet = frozenset(left) & frozenset(right)
            got = len(group.parabolic_orbit(left)
                      & group.parabolic_orbit(right))
            want = group.parabolic_order(meet)
            if got != want:
                return IntersectionWitness(left, right, got, want)
    return None


def is_string_c_group(group):
    """Intersection-condition verdict, window by window.

    Neighbouring generators must be distinct; on every window lo..hi of
    three or more generators, narrowest first, the facet and
    vertex-figure parabolics must meet in the medial one.  Together these
    are the recursive condition on the whole string.  On failure the
    verdict carries the smallest offending subset pair.
    """
    n, gens = group.rank, group.gens
    ok = all(gens[i] != gens[i + 1] for i in range(n - 1))
    windows = ((lo, lo + width - 1) for width in range(3, n + 1)
               for lo in range(n - width + 1))
    for lo, hi in windows:
        if not ok:
            break
        facet = group.parabolic_orbit(range(lo, hi))
        vfig = group.parabolic_orbit(range(lo + 1, hi + 1))
        middle = group.parabolic_orbit(range(lo + 1, hi))
        ok = len(facet & vfig) == len(middle)
    if ok:
        return CGroupVerdict(True)
    witness = _witness_scan(group)
    if witness is None:  # a window said no but no small witness: impossible
        raise AssertionError("inconsistent intersection verdicts")
    return CGroupVerdict(False, witness)


def intersection_condition_exhaustive(group):
    """Literal check of every subset pair; the test oracle.

    Quadratic in the number of subsets, usable for small groups only.
    """
    witness = _witness_scan(group)
    if witness is None:
        return CGroupVerdict(True)
    return CGroupVerdict(False, witness)
