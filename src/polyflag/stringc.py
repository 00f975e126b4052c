"""String groups generated by involutions, and the intersection condition.

A reflection presentation whose generator images are involutions that
commute at distance two or more presents a string group; it is the
automorphism group of a regular polytope exactly when it also satisfies
the intersection condition, which makes it a string C-group.  The same
verdict makes a rotation group a string C+-group.

All subgroup computations here ride on the regular representation coming
out of the coset enumeration: a subgroup's elements are exactly the orbit
of the trivial coset under its generators, so subgroup orders and
pairwise intersections are plain orbit computations, cached per set of
generating words.  RegularGroup holds that representation and cache for
string groups and rotation groups alike, and only its from_table gives a
group the table its generators act by.  RegularGroup.on_words derives
one group from another: a section, the dual or the mirror image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .presentation import Word, KINDS, REFLECTION, shape_relators
from .coset_enum import (enumerate_cosets, flag_orbit_table, coset_action,
                         prove_table, InternalError, DEFAULT_MAX_COSETS)
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

    def rank_sets(self):
        """[left, right] as lists: a JSON report's c_group_witness."""
        return [list(self.left), list(self.right)]


@dataclass(frozen=True)
class CGroupVerdict:
    witness: IntersectionWitness | None = None

    def __bool__(self):
        return self.witness is None

    ok = property(__bool__)


class RegularGroup:
    """A finite group with its faithful regular representation, from a
    reflection or a rotation presentation, or a section of one.

    The regular action is free, so the orbit of the trivial coset under
    any set of elements is the subgroup they generate; each such element
    set is computed once and cached.  Subclasses say their presentation
    ``kind`` (so the rank), which elements the rotations are, how many
    flags there are, which words generate the subgroup of a set I of
    ranks (``parabolic_orbit``: the reflections r_i, or the rotations
    r_a r_b, for i, a, b in I) and how ``check_shape`` fails (its
    ``violation``, ``shape_clause`` and ``shape_fault``).  The stabilizer
    of the base i-face is the subgroup of every rank but i, for both
    classes.  Only from_table gives a group a table, the one its
    generators act by; a section or a mirror keeps the class's None.
    """

    table = None

    def __init__(self, pres, gens):
        self.pres = pres
        self.gens = gens
        self._orbits = {}
        self._schlafli = None

    @property
    def rank(self):
        return len(self.gens) + KINDS[self.kind][1]

    @classmethod
    def from_table(cls, pres, table):
        """The group of a proved regular action table: its generators'
        action, once the class's shape check (``check_shape``) passes.
        Every builder and the dual return through here."""
        group = cls(pres, coset_action(table))
        group.table = table
        group.check_shape()
        return group

    @cached_property
    def order(self):
        """The table's coset count, or with no table the orbit of 0."""
        if self.table is None:
            return len(orbit(self.gens, 0))
        return self.table.num_cosets

    def is_trivial(self, word):
        """Is the word the identity?  Every group here acts freely (a
        built group regularly, a section or a mirror inside one), so
        exactly when it fixes point 0, which is traced letter by letter:
        an inverse letter reads the point's preimage."""
        p = 0
        for g, e in word.letters:
            images = self.gens[g].images
            p = int(images[p] if e > 0 else np.flatnonzero(images == p)[0])
        return p == 0

    def check_shape(self):
        """Raise the class's violation if its own clause fails, or else
        for the first word of the kind's scaffold that is not trivial."""
        self.shape_clause()
        for w in shape_relators(self.kind, self.rank):
            if not self.is_trivial(w):
                raise self.violation(self.shape_fault(w))

    def word_orbit(self, words):
        """Element set of the subgroup generated by the given words."""
        key = frozenset(words)
        found = self._orbits.get(key)
        if found is None:
            found = self._orbits[key] = frozenset(
                orbit([word_image(self.gens, w) for w in key], 0))
        return found

    def on_words(self, words, pres=None):
        """The same class on the words' images, acting on the same points.
        With no presentation it has no table (a section, a mirror); given
        the images' own (a dual's, an enantiomorph's), it is from_table of
        the words' columns of this table once proved and seen transitive."""
        if pres is None:
            return type(self)(None, [word_image(self.gens, w) for w in words])
        cols = [self.table.column(x) for w in words for x in (w, w.inverse())]
        seen = layer = np.arange(self.order) == 0
        while layer.any():  # breadth-first, one boolean mask per layer
            hit = np.concatenate([col[layer] for col in cols[::2]])
            layer = (np.bincount(hit, minlength=self.order) > 0) & ~seen
            seen |= layer
        if not seen.all():
            raise ValueError(f"the words generate {seen.sum()} of"
                             f" {self.order} points")
        table = replace(self.table, columns=tuple(cols))
        prove_table(pres, table)
        return type(self).from_table(pres, table)

    def section(self, lo, hi):
        """Gamma_{lo..hi}, the section of ranks lo..hi, of rank hi - lo + 1:
        the same class on the generators those ranks span (one rank of a
        rotation group spans none), with no presentation or table."""
        stop = hi + 1 - KINDS[self.kind][1]
        if not 0 <= lo < stop <= len(self.gens):
            raise ValueError(f"need ranks 0 <= lo <= hi < {self.rank} "
                             f"spanning a generator, got ({lo}, {hi})")
        return self.on_words(map(Word.gen, range(lo, stop)))

    def schlafli_symbol(self):
        """Orders of the rotations, computed once per group: the action
        is free, so each is the length of the cycle through point 0."""
        if self._schlafli is None:
            self._schlafli = tuple(len(orbit([g], 0))
                                   for g in self.rotations())
        return self._schlafli

    def parabolic_order(self, subset):
        return len(self.parabolic_orbit(subset))

    def face_stabilizer(self, i):
        """The subgroup of every rank but i: the stabilizer of the base
        i-face."""
        return self.parabolic_orbit(j for j in range(self.rank) if j != i)


class StringGroup(RegularGroup):
    """A finite string group; its elements are the flags."""

    kind = REFLECTION
    violation = SggiViolation

    def rotations(self):
        return [self.gens[i - 1] * self.gens[i]
                for i in range(1, self.rank)]

    def flag_count(self):
        return self.order

    def parabolic_orbit(self, subset):
        """Element set of the subgroup those generators produce."""
        return self.word_orbit(Word.gen(i) for i in subset)

    def shape_clause(self):
        """No generator collapses to the identity."""
        for i in range(len(self.gens)):
            if self.is_trivial(Word.gen(i)):
                raise SggiViolation(
                    f"generator r{i} collapses to the identity")

    def shape_fault(self, word):
        """The message for a failed r_i r_i or r_i r_j r_i r_j."""
        (i, _), (j, _) = word.letters[:2]
        return (f"generator r{i} is not an involution" if i == j
                else f"generators r{i} and r{j} do not commute")


def build_string_group(pres, max_cosets=DEFAULT_MAX_COSETS):
    """Build the group's regular action and check it really is a string
    group (StringGroup.check_shape raises SggiViolation if not).  The
    action is the orbit of the base flag where coset_enum.flag_orbit_table
    applies (it also refuses an infinite or over-the-cap bare Coxeter
    group), else an enumeration over the trivial subgroup.
    """
    if pres.kind != REFLECTION:
        raise ValueError("string groups are built from reflection "
                         "presentations")
    table = (flag_orbit_table(pres, max_cosets)
             or enumerate_cosets(pres, (), max_cosets))
    return StringGroup.from_table(pres, table)


def dual(group):
    """The dual's group, string or rotation: generator i of the dual is
    generator n-1-i inverted, so s_1..s_m become s_m^-1..s_1^-1 and a
    string of reflections is just reversed.  It is group.on_words of
    those words and the relators, each rewritten as its inverse in them
    (none for a section): column x of the table is column 2n-1-x of the
    group's, not a copy.  dual(dual(g)) equals g."""
    n, pres = len(group.gens), group.pres
    words = [Word.gen(n - 1 - g).inverse() for g in range(n)]
    sym = pres and pres.declared_schlafli
    pres = pres and replace(pres, relators=tuple(
        w.substitute(words).inverse() for w in pres.relators),
        declared_schlafli=sym and tuple(reversed(sym)))
    return group.on_words(words, pres)


def _witness_scan(group):
    """Smallest pair of rank sets I, J whose subgroups meet in more than
    the subgroup of I & J: parabolics of a string group, or the Gamma_I
    of a rotation group."""
    n = group.rank
    subsets = [s for size in range(1, n + 1)
               for s in combinations(range(n), size)]
    for left in subsets:
        for right in subsets:
            meet = frozenset(left) & frozenset(right)
            got = len(group.parabolic_orbit(left)
                      & group.parabolic_orbit(right))
            want = group.parabolic_order(meet)
            if got != want:
                return IntersectionWitness(left, right, got, want)
    return None


def window_holds(group, lo, hi):
    """On the ranks lo..hi, the facet and vertex-figure subgroups meet in
    the medial one: Gamma_{lo..hi-1} & Gamma_{lo+1..hi} =
    Gamma_{lo+1..hi-1}, for a string or a rotation group."""
    facet = group.parabolic_orbit(range(lo, hi))
    vfig = group.parabolic_orbit(range(lo + 1, hi + 1))
    return len(facet & vfig) == group.parabolic_order(range(lo + 1, hi))


def is_string_c_group(group):
    """Intersection-condition verdict, window by window, for a string
    group or a rotation group (a string C+-group when it holds).

    window_holds on every window lo..hi of two or more ranks, narrowest
    first, is the recursive condition on the whole string.  A width-2
    window asks r_lo != r_lo+1 of a string group and always holds on a
    rotation group, whose single-rank subgroups are trivial.  On failure
    the verdict carries the smallest offending subset pair.
    """
    n = group.rank
    if all(window_holds(group, lo, lo + width - 1)
           for width in range(2, n + 1) for lo in range(n - width + 1)):
        return CGroupVerdict()
    witness = _witness_scan(group)
    if witness is None:  # a window said no but no small witness: impossible
        raise InternalError("inconsistent intersection verdicts")
    return CGroupVerdict(witness)


def intersection_condition_exhaustive(group):
    """Literal check of every pair of rank sets, on a string or a
    rotation group; the test oracle.

    Quadratic in the number of subsets, usable for small groups only.
    """
    return CGroupVerdict(_witness_scan(group))
