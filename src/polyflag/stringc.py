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
string groups and rotation groups alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .presentation import Word, REFLECTION, coxeter_order, coxeter_relators
from .coset_enum import (enumerate_cosets, coset_action, relators_close,
                         CosetLimitExceeded, InternalError,
                         DEFAULT_MAX_COSETS)
from .permgroup import orbit, word_image


class SggiViolation(Exception):
    """The presented group is not a string group on involutions."""


class CoxeterLimitExceeded(CosetLimitExceeded):
    """A bare string Coxeter group refused before enumeration: its order
    in closed form (``order``, None if infinite) is over the coset limit,
    so enumeration could only end at the limit.  Nothing was enumerated,
    so ``high_water`` is 0.
    """

    def __init__(self, schlafli, order, max_cosets):
        symbol = "[" + ",".join("inf" if p is None else str(p)
                                for p in schlafli) + "]"
        size = "is infinite" if order is None else f"has order {order}"
        Exception.__init__(
            self, f"string Coxeter group {symbol} {size},"
                  f" over the coset limit {max_cosets}")
        self.max_cosets = max_cosets
        self.high_water = 0
        self.schlafli = schlafli
        self.order = order


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
    ok: bool
    witness: IntersectionWitness | None = None

    def __bool__(self):
        return self.ok


class RegularGroup:
    """A finite group with its faithful regular representation, from a
    reflection or a rotation presentation, or a section of one.

    The regular action is free, so the orbit of the trivial coset under
    any set of elements is the subgroup they generate; each such element
    set is computed once and cached.  Subclasses say what the rank is,
    which elements the rotations are, how many flags there are and which
    words generate the subgroup of a set I of ranks (``parabolic_orbit``:
    the reflections r_i, or the rotations r_a r_b, for i, a, b in I)
    and what shape the generators must have (``check_shape``).  The
    stabilizer of the base i-face is the subgroup of every rank but i,
    for both classes.
    """

    def __init__(self, pres, table, gens):
        self.pres = pres
        self.table = table
        self.gens = gens
        self.order = (len(orbit(gens, 0)) if table is None
                      else table.num_cosets)
        self._orbits = {}
        self._schlafli = None

    @classmethod
    def from_table(cls, pres, table):
        """The group of a proved regular action table: its generators'
        action, once the class's shape check (``check_shape``) passes.
        Every builder returns through here."""
        group = cls(pres, table, coset_action(table))
        group.check_shape()
        return group

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
        return type(self)(None, None, self.gens[lo:hi + 1])

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

    def check_shape(self):
        """Raise SggiViolation naming the first failed condition: a
        generator collapsing or losing its involution, or a distant pair
        failing to commute."""
        gens = self.gens
        n = self.pres.num_generators
        for i, g in enumerate(gens):
            if g.is_identity():
                raise SggiViolation(
                    f"generator r{i} collapses to the identity")
            if not (g * g).is_identity():
                raise SggiViolation(f"generator r{i} is not an involution")
        for i in range(n):
            for j in range(i + 2, n):
                if not (gens[i] * gens[j] * gens[i] * gens[j]).is_identity():
                    raise SggiViolation(
                        f"generators r{i} and r{j} do not commute")


def build_string_group(pres, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the group and check it really is a string group
    (StringGroup.check_shape raises SggiViolation if not).  A bare
    Coxeter presentation (the declared symbol's relators and nothing
    else) whose closed-form order is infinite or over ``max_cosets``
    raises CoxeterLimitExceeded at once: enumerating it could only end
    at the limit.
    """
    if pres.kind != REFLECTION:
        raise ValueError("string groups are built from reflection "
                         "presentations")
    sym = pres.declared_schlafli
    if sym is not None:
        order = coxeter_order(sym)
        if ((order is None or order > max_cosets)
                and pres.relators == tuple(coxeter_relators(pres.rank, sym))):
            raise CoxeterLimitExceeded(sym, order, max_cosets)
    table = enumerate_cosets(pres, (), max_cosets)
    return StringGroup.from_table(pres, table)


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
        return type(group)(None, None, gens)
    pres, n = group.pres, group.pres.num_generators
    sym = pres.declared_schlafli
    relabel = [Word.gen(n - 1 - g).inverse() for g in range(n)]
    relators = tuple(w.substitute(relabel).inverse() for w in pres.relators)
    new_pres = replace(pres, relators=relators,
                       declared_schlafli=sym and tuple(reversed(sym)))
    table = replace(group.table,
                    action=tuple(row[::-1] for row in group.table.action))
    if not relators_close(new_pres, table):
        raise InternalError("dual table does not satisfy the dual relators")
    return type(group)(new_pres, table, gens)


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
        return CGroupVerdict(True)
    witness = _witness_scan(group)
    if witness is None:  # a window said no but no small witness: impossible
        raise InternalError("inconsistent intersection verdicts")
    return CGroupVerdict(False, witness)


def intersection_condition_exhaustive(group):
    """Literal check of every pair of rank sets, on a string or a
    rotation group; the test oracle.

    Quadratic in the number of subsets, usable for small groups only.
    """
    witness = _witness_scan(group)
    return CGroupVerdict(witness is None, witness)
