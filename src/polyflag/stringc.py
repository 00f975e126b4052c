"""String groups generated by involutions, and the intersection condition.

A reflection presentation whose generator images are involutions that
commute at distance two or more presents a string group; it is the
automorphism group of a regular polytope exactly when it also satisfies
the intersection condition, which makes it a string C-group.

All subgroup computations here ride on the regular representation coming
out of the coset enumeration: a subgroup's elements are exactly the orbit
of the trivial coset under its generators, so subgroup orders and
pairwise intersections are plain orbit computations, cached per
generator subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .presentation import Word, Presentation, REFLECTION
from .coset_enum import enumerate_cosets, coset_action, DEFAULT_MAX_COSETS
from .permgroup import orbit


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


class StringGroup:
    """A finite string group with its faithful regular representation."""

    def __init__(self, pres, table, gens):
        self.pres = pres
        self.table = table
        self.gens = gens
        self.order = table.num_cosets
        self._orbits = {}
        self._slice_ok = {}
        self.max_cosets = DEFAULT_MAX_COSETS

    @property
    def rank(self):
        return self.pres.num_generators

    def generator_words(self, subset):
        return tuple(Word.gen(i) for i in sorted(subset))

    def parabolic_orbit(self, subset):
        """Element set of the subgroup those generators produce.

        In the regular representation the orbit of the trivial coset under
        a subgroup is the subgroup itself, so this is exact.
        """
        key = frozenset(subset)
        cached = self._orbits.get(key)
        if cached is not None:
            return cached
        result = frozenset(orbit([self.gens[i] for i in sorted(key)], 0))
        self._orbits[key] = result
        return result

    def parabolic_order(self, subset):
        return len(self.parabolic_orbit(subset))

    def schlafli_symbol(self):
        return tuple(
            (self.gens[i - 1] * self.gens[i]).order()
            for i in range(1, self.rank))


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
    group = StringGroup(pres, table, gens)
    group.max_cosets = max_cosets
    return group


def schlafli_symbol(group):
    return group.schlafli_symbol()


def dual(group):
    """The same group with its generator string reversed.

    No re-enumeration happens: the regular action is kept and its columns
    are relabeled, so dual(dual(g)) is identical to g up to that
    relabeling.
    """
    n = group.rank
    relabel = {i: n - 1 - i for i in range(n)}
    new_rels = tuple(
        Word(tuple((relabel[g], e) for g, e in w.letters))
        for w in group.pres.relators)
    sym = group.pres.declared_schlafli
    new_pres = Presentation(
        num_generators=n,
        kind=REFLECTION,
        relators=new_rels,
        declared_schlafli=tuple(reversed(sym)) if sym is not None else None,
    )
    action = tuple(
        tuple(row[2 * relabel[col >> 1] + (col & 1)]
              for col in range(2 * n))
        for row in group.table.action)
    table = type(group.table)(
        num_generators=n, num_cosets=group.order, action=action)
    out = StringGroup(new_pres, table, list(reversed(group.gens)))
    out.max_cosets = group.max_cosets
    return out


def _slice_check(group, lo, hi):
    """Intersection condition for the sggi on generators lo..hi."""
    key = (lo, hi)
    cached = group._slice_ok.get(key)
    if cached is not None:
        return cached
    if hi - lo < 1:
        ok = True
    elif hi - lo == 1:
        ok = group.gens[lo] != group.gens[hi]
    else:
        ok = (_slice_check(group, lo, hi - 1)
              and _slice_check(group, lo + 1, hi))
        if ok:
            facet = group.parabolic_orbit(range(lo, hi))
            vfig = group.parabolic_orbit(range(lo + 1, hi + 1))
            middle = group.parabolic_orbit(range(lo + 1, hi))
            ok = len(facet & vfig) == len(middle)
    group._slice_ok[key] = ok
    return ok


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
    """Recursive intersection-condition verdict.

    Rank at most two reduces to the generators being distinct; above that
    the facet and vertex-figure sggis are checked recursively and their
    intersection compared with the medial parabolic.  On failure the
    verdict carries the smallest offending subset pair.
    """
    if _slice_check(group, 0, group.rank - 1):
        return CGroupVerdict(True)
    witness = _witness_scan(group)
    if witness is None:  # recursion said no but no small witness: impossible
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
