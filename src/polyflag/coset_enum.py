"""Coset enumeration over finitely presented groups.

The enumerator is relator-driven: each live coset is scanned against every
relator in file order, defining cosets as needed to complete the trace, with
a fill pass for any column no relator touches.  Coincidences are resolved
through a union-find merge queue, always keeping the smaller coset number.
When the live-coset budget is exhausted a lookahead pass scans the table
without defining anything, hoping for a collapse; if that frees no room the
enumeration fails with the high-water mark.

Lookahead starts at the scan pointer.  Every live coset below it has had
every relator scanned and filled, so each of its relator traces closes, and
deductions and coincidences only add entries or pass to a quotient, so a
closed trace stays closed: scanning those cosets would change nothing.

For the same reason lookahead marks the relator traces it finds closed
above the pointer: ``closed[k][c]`` is 1 once relator k's trace from coset
c was seen complete and back at c, or was completed by a deduction, and a
later lookahead skips marked pairs.  The marks are one bytearray per
relator, made by the first lookahead, extended to new cosets by each later
one, and renumbered with the cosets when the table is compacted.  The
scan loop does not read them.

The working table is column-major: ``cols[x][c]`` is the image of coset c
under column x (generator g forward is 2g, inverse 2g+1).  Each relator is
bound to the tuple of the columns its letters read, and of their mirrors,
so one scan step is one list subscript.  Coset c is dead once
``parent[c] != c``; its entries are cleared when its coincidence is
processed.

Coset numbering is deterministic: cosets are numbered by first definition
in scanning order, and the finished table is compacted to be gap-free, so
identical input yields an identical table.  Every table is proved before it
is returned: complete, mirror-consistent, closed under every relator, and
with coset 0 fixed by the subgroup words, each relator traced from all
cosets at once with numpy.

``pair_orbit_table`` reaches a regular action the other way: it enumerates
the cosets of a cyclic subgroup and walks the orbit of a pair of them,
which is regular when its size meets the bound the subgroup's period sets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .presentation import Word

DEFAULT_MAX_COSETS = 2_000_000

_UNDEF = -1

# Columns grow by this many undefined entries at a time, so that defining
# a coset appends to the parent list only.
_GROW = (_UNDEF,) * 1024


class CosetLimitExceeded(Exception):
    """The enumeration needed more live cosets than allowed.

    ``high_water`` is the largest number of simultaneously live cosets the
    run reached before giving up.
    """

    def __init__(self, max_cosets, high_water):
        super().__init__(
            f"coset limit {max_cosets} exceeded"
            f" (high water {high_water} live cosets)")
        self.max_cosets = max_cosets
        self.high_water = high_water


class InternalError(AssertionError):
    """A result failed a runtime proof the library runs on itself.

    Seeing one means a bug in polyflag, not bad input.
    """


class _LimitHit(Exception):
    """Internal: a definition was refused; trigger lookahead."""


def word_to_columns(word):
    """Column encoding: generator g forward is 2g, inverse is 2g+1."""
    return tuple(2 * g if e > 0 else 2 * g + 1 for g, e in word.letters)


def _cyclic_reduce(cols):
    cols = list(cols)
    while len(cols) >= 2 and cols[0] == cols[-1] ^ 1:
        cols = cols[1:-1]
    return tuple(cols)


@dataclass(frozen=True)
class CosetTable:
    """Completed action of the generators on the cosets of a subgroup.

    ``action[c][2g]`` is the image of coset c under generator g and
    ``action[c][2g + 1]`` its image under the inverse; every entry is
    filled, and coset 0 is the subgroup itself.
    """

    num_generators: int
    num_cosets: int
    action: tuple

    def trace(self, coset, word):
        if not 0 <= coset < self.num_cosets:
            raise IndexError(f"coset {coset} out of range")
        for col in word_to_columns(word):
            coset = self.action[coset][col]
        return coset


class _Enumerator:
    def __init__(self, ncols, relators, max_cosets):
        self.max_cosets = max_cosets
        cols = self.cols = [[_UNDEF] for _ in range(ncols)]
        self.parent = [0]
        self.live = 1
        self.high_water = 1
        self.closed = None  # lookahead's closed-trace marks, one per relator
        # The column lists live as long as the run (compaction rewrites
        # them in place), so these bindings never go stale.
        self.bound = [self._columns(rel) for rel in relators]
        self.mirrored = [(col, cols[x ^ 1]) for x, col in enumerate(cols)]

    def _columns(self, word):
        """The word with the column each letter reads forward, and the
        column of its inverse, which backward scans read."""
        cols = self.cols
        return (word, tuple(cols[x] for x in word),
                tuple(cols[x ^ 1] for x in word))

    def find(self, c):
        parent = self.parent
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(self, f, x):
        if self.live >= self.max_cosets:
            raise _LimitHit
        n = len(self.parent)
        cols = self.cols
        if n == len(cols[0]):
            for col in cols:
                col.extend(_GROW)
        self.parent.append(n)
        cols[x][f] = n
        cols[x ^ 1][n] = f
        self.live += 1
        if self.live > self.high_water:
            self.high_water = self.live
        return n

    def coincide(self, a, b):
        mirrored = self.mirrored
        parent = self.parent
        find = self.find
        queue = deque()

        def merge(x, y):
            x, y = find(x), find(y)
            if x == y:
                return
            if x > y:
                x, y = y, x
            parent[y] = x
            self.live -= 1
            queue.append(y)

        merge(a, b)
        while queue:
            g = queue.popleft()
            for col, back in mirrored:
                d = col[g]
                if d < 0:
                    continue
                col[g] = _UNDEF
                back[d] = _UNDEF
                mu = find(g)
                nu = find(d)
                t = col[mu]
                if t >= 0:
                    merge(nu, t)
                else:
                    t = back[nu]
                    if t >= 0:
                        merge(mu, t)
                    else:
                        col[mu] = nu
                        back[nu] = mu

    def scan_and_fill(self, a, word, fwd, back):
        f = a
        i = 0
        b = a
        j = len(word) - 1
        while True:
            while i <= j:
                t = fwd[i][f]
                if t < 0:
                    break
                f = t
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            while j >= i:
                t = back[j][b]
                if t < 0:
                    break
                b = t
                j -= 1
            if j < i:
                self.coincide(f, b)
                return
            if j == i:
                fwd[i][f] = b
                back[i][b] = f
                return
            self.define(f, word[i])

    def lookahead(self, start):
        """Scan every live coset from ``start`` on against every relator,
        defining nothing: a complete trace that does not close is a
        coincidence, and a trace missing one entry is a deduction.
        Relator traces already marked closed are skipped."""
        parent = self.parent
        coincide = self.coincide
        n = len(parent)
        if self.closed is None:
            self.closed = [bytearray(n) for _ in self.bound]
        else:
            for marks in self.closed:
                marks.extend(bytes(n - len(marks)))
        bound = [(len(word) - 1, tuple(enumerate(fwd)), fwd, back, marks)
                 for (word, fwd, back), marks in zip(self.bound, self.closed)]
        for c in range(start, n):
            if parent[c] != c:
                continue
            for last, steps, fwd, back, marks in bound:
                if marks[c]:
                    continue
                f = c
                for i, col in steps:
                    t = col[f]
                    if t < 0:
                        break
                    f = t
                else:
                    if f == c:
                        marks[c] = 1
                    else:
                        coincide(f, c)
                        if parent[c] != c:
                            break
                    continue
                b = c
                j = last
                while j >= i:
                    t = back[j][b]
                    if t < 0:
                        break
                    b = t
                    j -= 1
                else:
                    coincide(f, b)
                    if parent[c] != c:
                        break
                    continue
                if j == i:
                    fwd[i][f] = b
                    back[i][b] = f
                    marks[c] = 1

    def compact(self, pointer):
        """Drop dead cosets, renumbering live ones in order.

        Returns the translated scan pointer.
        """
        parent = self.parent
        live = []
        # mapping[c] is the new number of find(c); a dead coset's parent
        # is smaller than it, so is mapped first.  The extra last slot
        # sends _UNDEF (index -1) to itself.
        mapping = [_UNDEF] * (len(parent) + 1)
        for c, p in enumerate(parent):
            if p == c:
                mapping[c] = len(live)
                live.append(c)
            else:
                mapping[c] = mapping[p]
        # in place, one column at a time, so only one new column is held
        for col in self.cols:
            col[:] = [mapping[col[c]] for c in live]
        if self.closed is not None:
            for marks in self.closed:
                marks.extend(bytes(len(parent) - len(marks)))
                marks[:] = bytes(map(marks.__getitem__, live))
        self.parent = list(range(len(live)))
        return bisect_left(live, pointer)

    def run(self, subgroup_cols):
        for cols in subgroup_cols:
            bound = self._columns(cols)
            while True:
                try:
                    self.scan_and_fill(0, *bound)
                    break
                except _LimitHit:
                    self._lookahead_or_fail(0)
        a = 0
        while a < len(self.parent):
            parent = self.parent
            if parent[a] != a:
                a += 1
                continue
            if len(parent) - self.live > max(4096, self.live):
                a = self.compact(a)
                continue
            try:
                for word, fwd, back in self.bound:
                    f = a
                    for col in fwd:
                        f = col[f]
                        if f < 0:
                            break
                    else:
                        if f == a:
                            continue
                    self.scan_and_fill(a, word, fwd, back)
                    if parent[a] != a:
                        break
                else:
                    for x, col in enumerate(self.cols):
                        if col[a] < 0:
                            self.define(a, x)
            except _LimitHit:
                self._lookahead_or_fail(a)
                continue
            a += 1
        self.compact(0)

    def _lookahead_or_fail(self, start):
        self.lookahead(start)
        if self.live >= self.max_cosets:
            raise CosetLimitExceeded(
                self.max_cosets, self.high_water) from None


def enumerate_cosets(pres, subgroup_words=(), max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the cosets of the subgroup those words generate.

    Returns a complete, compacted, deterministic CosetTable.  Raises
    CosetLimitExceeded if more than ``max_cosets`` cosets would have to be
    live at once.
    """
    ncols = 2 * pres.num_generators
    relators = _relator_columns(pres)
    sub = [word_to_columns(w) for w in subgroup_words]
    enum = _Enumerator(ncols, relators, max_cosets)
    enum.run(sub)
    table = CosetTable(
        num_generators=pres.num_generators,
        num_cosets=len(enum.parent),
        action=tuple(zip(*enum.cols)),
    )
    del enum  # free the working table before the proof allocates arrays
    _check_table(table, relators, sub)
    return table


def _relator_columns(pres):
    """The relators as cyclically reduced column tuples, empty ones
    dropped."""
    relators = []
    for w in pres.relators:
        cols = _cyclic_reduce(word_to_columns(w))
        if cols:
            relators.append(cols)
    return relators


def pair_orbit_table(pres, gen, word, max_cosets=DEFAULT_MAX_COSETS):
    """The regular action of the presented group as the orbit of a pair
    of cosets of H = <s>, s generator ``gen``, or None when that orbit
    is not certified regular.

    H is enumerated first; say it has m cosets.  The group acts on
    pairs of them, and the orbit O of (H, H w), w = ``word``, is
    walked breadth-first and numbered in visit order, so its start is
    point 0.  Relators s^q bound |H| by q (the gcd of their lengths), so
    |O| <= |G| <= q m, and when |O| = q m the point stabilizer is
    trivial: the action on O is the regular action, numbered otherwise
    than an enumeration over the trivial subgroup numbers it.  With no
    relator s^q there is no bound and the result is None, as it is when
    |O| < q m or when enumerating H hits ``max_cosets``, so the caller
    can enumerate the group plainly.  An orbit of more than
    ``max_cosets`` points raises CosetLimitExceeded: then |G| is over
    the cap too.  The table is proved like every enumerated one.
    """
    powers = [len(w) for w in pres.relators
              if len(set(w.letters)) == 1 and w.letters[0][0] == gen]
    if not powers:
        return None
    try:
        cosets = enumerate_cosets(pres, (Word.gen(gen),), max_cosets)
    except CosetLimitExceeded:
        return None
    m = cosets.num_cosets
    rows = cosets.action
    start = cosets.trace(0, word)
    index = {start: 0}  # point (a, b) is keyed a * m + b
    points = [(0, start)]
    action = []
    for a, b in points:  # the list grows while it is walked
        row = []
        for x, y in zip(rows[a], rows[b]):
            key = x * m + y
            p = index.get(key)
            if p is None:
                if len(points) == max_cosets:
                    raise CosetLimitExceeded(max_cosets, max_cosets)
                p = index[key] = len(points)
                points.append((x, y))
            row.append(p)
        action.append(tuple(row))
    if len(points) < math.gcd(*powers) * m:
        return None
    table = CosetTable(pres.num_generators, len(points), tuple(action))
    _check_table(table, _relator_columns(pres), ())
    return table


def _table_fault(table, relators, subgroup_cols=()):
    """What keeps the table from being a complete, mirror-consistent
    action on which every relator closes and every subgroup word fixes
    coset 0, or None if nothing does.

    Each relator is traced from all cosets at once, one numpy gather per
    letter.
    """
    n = table.num_cosets
    act = np.array(table.action, dtype=np.int32).reshape(
        n, 2 * table.num_generators)
    if act.min() < 0 or act.max() >= n:
        bad = np.argwhere((act < 0) | (act >= n))
        return "incomplete table at ({}, {})".format(*bad[0])
    cols = act.T
    cosets = np.arange(n, dtype=np.int32)
    for x, col in enumerate(cols):
        bad = np.flatnonzero(cols[x ^ 1][col] != cosets)
        if bad.size:
            return f"mirror violation at ({bad[0]}, {x})"
    for k, word in enumerate(relators):
        c = cosets
        for x in word:
            c = cols[x][c]
        bad = np.flatnonzero(c != cosets)
        if bad.size:
            return f"relator {k} does not close at coset {bad[0]}"
    for word in subgroup_cols:
        c = 0
        for x in word:
            c = table.action[c][x]
        if c != 0:
            return "subgroup word does not fix coset 0"
    return None


def _check_table(table, relators, subgroup_cols):
    """Prove the table before it is handed out; raises on any fault."""
    fault = _table_fault(table, relators, subgroup_cols)
    if fault is not None:
        raise InternalError(fault)


def coset_action(table):
    """One permutation per generator, acting on the coset space."""
    from .permgroup import Perm
    perms = []
    for g in range(table.num_generators):
        perms.append(Perm([row[2 * g] for row in table.action]))
    return perms


def relators_close(pres, table):
    """True iff the table is a complete action on which every relator
    traces back to its start from every coset.

    The same traced check enumerate_cosets runs on every table it returns.
    """
    rels = [word_to_columns(w) for w in pres.relators]
    return _table_fault(table, rels) is None
