"""Permutation groups: orbits, stabilizer chains, subgroup intersection.

Permutations act on the right and compose left to right: (p * q) means
apply p, then q.  That matches the way words trace through coset tables,
so the permutation of a word is the product of its letter images in
reading order.

``orbit`` is the library's one orbit engine: in a regular representation
the orbit of point 0 is the element set of the subgroup the given elements
generate.  Stabilizer chains, ``membership_test`` and
``intersect_subgroups`` are independent oracles for the tests; no runtime
path builds a chain.  Chains are built with the deterministic
Schreier-Sims scheme: base points are chosen as the smallest point moved
by the generator that forces a new level, and every Schreier generator is
sifted through the chain below before being admitted, so two runs on the
same generators produce the same base and the same transversals.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


class DegreeMismatch(Exception):
    pass


class Perm:
    """A permutation of {0, ..., n-1}, stored as an image array."""

    __slots__ = ("images", "_key")

    def __init__(self, images):
        arr = np.asarray(images, dtype=np.int32)
        if arr.ndim != 1:
            raise ValueError("images must be one-dimensional")
        n = arr.shape[0]
        if n and ((arr < 0).any() or (arr >= n).any()):
            raise ValueError("image out of range")
        seen = np.zeros(n, dtype=bool)
        seen[arr] = True
        if not seen.all():
            raise ValueError("images are not a bijection")
        arr.flags.writeable = False
        self.images = arr
        self._key = arr.tobytes()

    @staticmethod
    def identity(degree):
        return Perm(np.arange(degree, dtype=np.int32))

    @property
    def degree(self):
        return self.images.shape[0]

    def __call__(self, point):
        return int(self.images[point])

    def __mul__(self, other):
        if other.degree != self.degree:
            raise DegreeMismatch(
                f"degree {self.degree} vs {other.degree}")
        return Perm(other.images[self.images])

    def inverse(self):
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.degree, dtype=np.int32)
        return Perm(inv)

    def is_identity(self):
        return bool((self.images == np.arange(self.degree)).all())

    def __eq__(self, other):
        return isinstance(other, Perm) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def first_moved(self):
        """Smallest moved point, or None for the identity."""
        moved = np.nonzero(self.images != np.arange(self.degree))[0]
        return int(moved[0]) if moved.size else None

    def order(self):
        # plain ints: indexing the numpy array makes a numpy scalar per step
        images = self.images.tolist()
        seen = bytearray(len(images))
        result = 1
        for start in range(len(images)):
            if seen[start]:
                continue
            length = 0
            p = start
            while not seen[p]:
                seen[p] = 1
                p = images[p]
                length += 1
            result = math.lcm(result, length)
        return result

    def __repr__(self):
        if self.degree <= 12:
            return f"Perm({list(self.images)})"
        return f"Perm(<degree {self.degree}>)"


def word_image(gens, word):
    """Image of a word under a generator list, composed in reading order.

    The product starts from the first letter's permutation, so a
    one-letter word costs no multiplication."""
    p = None
    inverses = {}
    for g, e in word.letters:
        if e > 0:
            q = gens[g]
        else:
            if g not in inverses:
                inverses[g] = gens[g].inverse()
            q = inverses[g]
        p = q if p is None else p * q
    return Perm.identity(gens[0].degree) if p is None else p


def orbit(gens, start):
    """The orbit of a point under a generator list ({start} if empty)."""
    degree = gens[0].degree if gens else None
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch("generators act on different degrees")
    if degree is not None and not 0 <= start < degree:
        raise IndexError(f"point {start} outside degree {degree}")
    images = [g.images for g in gens]
    seen = {start}
    frontier = [start]
    while frontier:
        p = frontier.pop()
        for img in images:
            q = int(img[p])
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


class _Level:
    __slots__ = ("point", "transversal")

    def __init__(self, point):
        self.point = point
        self.transversal = {}


class StabilizerChain:
    """Base, strong generators, and fundamental-orbit transversals."""

    def __init__(self, degree):
        self.degree = degree
        self.base = []
        self.levels = []
        self.strong = []  # (perm, level): perm fixes base[:level]

    @property
    def order(self):
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def gens_at(self, i):
        return [g for g, lev in self.strong if lev >= i]

    def sift(self, g, start=0):
        """Reduce g through the chain; returns (residue, stuck_level)."""
        for i in range(start, len(self.base)):
            x = g(self.base[i])
            if x == self.base[i]:
                continue
            rep = self.levels[i].transversal.get(x)
            if rep is None:
                return g, i
            g = g * rep.inverse()
        return g, len(self.base)

    def _insert(self, g):
        """File a non-identity element as a strong generator."""
        level = 0
        while level < len(self.base) and g(self.base[level]) == self.base[level]:
            level += 1
        if level == len(self.base):
            point = g.first_moved()
            self.base.append(point)
            self.levels.append(_Level(point))
        self.strong.append((g, level))
        return level

    def _orbit_pass(self, i):
        """Recompute transversal i, then test Schreier generators.

        Returns None if the level verifies, else a non-identity residue
        with the level it should be filed at.
        """
        gens = self.gens_at(i)
        level = self.levels[i]
        base_pt = level.point
        level.transversal = {base_pt: Perm.identity(self.degree)}
        queue = deque([base_pt])
        while queue:
            p = queue.popleft()
            rep = level.transversal[p]
            for g in gens:
                q = g(p)
                if q not in level.transversal:
                    level.transversal[q] = rep * g
                    queue.append(q)
        for p in level.transversal:
            rep = level.transversal[p]
            for g in gens:
                q = g(p)
                h = rep * g * level.transversal[q].inverse()
                if h.is_identity():
                    continue
                residue, stuck = self.sift(h, i + 1)
                if not residue.is_identity():
                    return residue
        return None

    def build(self, gens):
        for g in gens:
            if not g.is_identity():
                self._insert(g)
        i = len(self.base) - 1
        while i >= 0:
            residue = self._orbit_pass(i)
            if residue is None:
                i -= 1
            else:
                i = self._insert(residue)


def build_chain(gens):
    """Stabilizer chain for the group those permutations generate."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one permutation to fix the degree")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch("generators act on different degrees")
    chain = StabilizerChain(degree)
    chain.build(gens)
    return chain


def membership_test(chain, g):
    if g.degree != chain.degree:
        raise DegreeMismatch(
            f"degree {g.degree} vs chain degree {chain.degree}")
    residue, _ = chain.sift(g)
    return residue.is_identity()


def brute_force_closure(gens, limit=None):
    """All elements of the generated group, by plain closure.

    Exponential-memory oracle for cross-checking chain orders; ``limit``
    aborts the walk early when the group is bigger than expected.
    """
    if not gens:
        return []
    identity = Perm.identity(gens[0].degree)
    elements = {identity._key: identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q._key not in elements:
                    if limit is not None and len(elements) >= limit:
                        raise ValueError(f"closure exceeded limit {limit}")
                    elements[q._key] = q
                    nxt.append(q)
        frontier = nxt
    return list(elements.values())


def intersect_subgroups(pres, h_words, k_words,
                        max_cosets=None):
    """Chain for the intersection of two finitely generated subgroups.

    H and K are given by generating words in the presented group G.  K
    acts on the coset space G/H; the stabilizer of the trivial coset in
    that action is exactly K meet H, and its Schreier generators, read off
    in the regular representation, generate the intersection.
    """
    from .coset_enum import enumerate_cosets, DEFAULT_MAX_COSETS

    if max_cosets is None:
        max_cosets = DEFAULT_MAX_COSETS
    t_h = enumerate_cosets(pres, h_words, max_cosets)
    t_reg = enumerate_cosets(pres, (), max_cosets)

    def table_perm(table, word):
        return Perm([table.trace(c, word) for c in range(table.num_cosets)])

    k_action = [table_perm(t_h, w) for w in k_words]
    k_reg = [table_perm(t_reg, w) for w in k_words]

    identity = Perm.identity(t_reg.num_cosets)
    reps = {0: identity}
    queue = deque([0])
    while queue:
        p = queue.popleft()
        for act, reg in zip(k_action, k_reg):
            q = act(p)
            if q not in reps:
                reps[q] = reps[p] * reg
                queue.append(q)

    schreier = []
    seen = set()
    for p in reps:
        for act, reg in zip(k_action, k_reg):
            q = act(p)
            h = reps[p] * reg * reps[q].inverse()
            if not h.is_identity() and h._key not in seen:
                seen.add(h._key)
                schreier.append(h)
    if not schreier:
        schreier = [identity]
    chain = StabilizerChain(t_reg.num_cosets)
    chain.build(schreier)
    return chain
