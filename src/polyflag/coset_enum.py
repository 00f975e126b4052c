"""Coset enumeration over finitely presented groups.

The enumerator is relator-driven: each live coset is scanned against every
relator in file order, defining cosets as needed to complete the trace, with
a fill pass for any column no relator touches.  Coincidences are resolved
through a union-find merge queue, always keeping the smaller coset number.
When the live-coset budget is exhausted a lookahead pass scans the table
without defining anything, hoping for a collapse; if that frees no room and
leaves an entry undefined, the enumeration fails with the high-water mark.

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

The table is column-major: ``cols[x][c]`` is the image of coset c under
column x (generator g forward is 2g, inverse 2g+1), and the finished
CosetTable keeps this layout as read-only int32 arrays.  Each relator is
bound to the tuple of the columns its letters read, and of their mirrors,
so one scan step is one list subscript.  Coset c is dead once
``parent[c] != c``; its entries are cleared when its coincidence is
processed.

Coset numbering is deterministic: cosets are numbered by first definition
in scanning order, and the finished table is compacted to be gap-free, so
identical input yields an identical table.  Every table is proved before it
is returned (``prove_table``): complete, mirror-consistent, closed under
every relator, and with coset 0 fixed by the subgroup words, each relator
traced from all cosets at once with numpy on the table's columns.

Two routes reach a regular action without enumerating over the trivial
subgroup.  Each returns a proved table, or None where it does not apply,
so a builder reads ``route(pres, cap) or enumerate_cosets(pres, (),
cap)``.  ``flag_orbit_table`` takes a bare string Coxeter presentation
(its symbol's relators alone), refuses it if its closed-form order is
infinite or over the cap, and walks the base flag's orbit over the
cosets of the maximal parabolics, in the standard numbering.
``pair_orbit_table`` takes a presentation with a relator s2^q and walks
the orbit of the pair (<s2>, <s2> s1), which is regular when it has q
times as many points as <s2> has cosets; it numbers them in visit order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .presentation import Word, coxeter_order, coxeter_relators
from .permgroup import Perm

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


@dataclass(frozen=True, eq=False)
class CosetTable:
    """Completed action of the generators on the cosets of a subgroup.

    ``columns[2g][c]`` is the image of coset c under generator g and
    ``columns[2g + 1][c]`` under its inverse, each a read-only int32
    array; every entry is filled, coset 0 is the subgroup itself, and
    ``action`` is the rows as one array: ``action[c][x] == columns[x][c]``.
    """

    columns: tuple

    def __post_init__(self):
        for col in self.columns:
            col.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, CosetTable)
                and len(self.columns) == len(other.columns)
                and all(map(np.array_equal, self.columns, other.columns)))

    __hash__ = None

    @property
    def num_generators(self):
        return len(self.columns) // 2

    @property
    def num_cosets(self):
        return len(self.columns[0])

    @property
    def action(self):
        return np.stack(self.columns, axis=1)

    def trace(self, coset, word):
        if not 0 <= coset < self.num_cosets:
            raise IndexError(f"coset {coset} out of range")
        for col in word_to_columns(word):
            coset = self.columns[col][coset]
        return int(coset)

    def column(self, word):
        """The word's image of every coset: its letters' columns gathered
        from the first, so a one-letter word's column is the table's own."""
        cols = word_to_columns(word)
        out = (self.columns[cols[0]] if cols
               else np.arange(self.num_cosets, dtype=np.int32))
        for x in cols[1:]:
            out = self.columns[x][out]
        return out


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
        """Lookahead, then fail unless it freed room or completed the
        table (each column then holds exactly ``live`` defined entries)."""
        self.lookahead(start)
        if self.live >= self.max_cosets and not all(
                len(col) - col.count(_UNDEF) == self.live
                for col in self.cols):
            raise CosetLimitExceeded(
                self.max_cosets, self.high_water) from None


def enumerate_cosets(pres, subgroup_words=(), max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the cosets of the subgroup those words generate.

    Returns a complete, compacted, deterministic CosetTable.  Raises
    CosetLimitExceeded if more than ``max_cosets`` cosets would have to be
    live at once, and ValueError if ``max_cosets`` is below 1.
    """
    if max_cosets < 1:
        raise ValueError(f"coset limit must be at least 1, got {max_cosets}")
    enum = _Enumerator(2 * pres.num_generators, _relator_columns(pres),
                       max_cosets)
    enum.run([word_to_columns(w) for w in subgroup_words])
    table = CosetTable(tuple(np.array(enum.cols, dtype=np.int32)))
    del enum  # free the working table before the proof allocates arrays
    prove_table(pres, table, subgroup_words)
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


def pair_orbit_table(pres, max_cosets=DEFAULT_MAX_COSETS):
    """The regular action of a rotation group as the orbit of a pair of
    cosets of H = <s2>, or None when that orbit is not certified regular.

    H is enumerated first; say it has m cosets.  The group acts on
    pairs of them, and the orbit O of (H, H s1) is walked breadth-first
    and numbered in visit order, so its start is point 0.  Relators s2^q
    bound |H| by q (the gcd of their lengths), so |O| <= |G| <= q m, and
    when |O| = q m the point stabilizer is trivial: the action on O is
    the regular action, numbered otherwise than an enumeration over the
    trivial subgroup numbers it.  With no relator s2^q (a rank-2
    rotation presentation has no s2) there is no bound and the result
    is None, as it is when |O| < q m, so the caller enumerates the group
    plainly.  More than ``max_cosets`` cosets of H or points of O raise
    CosetLimitExceeded, which is final: then |G| is over the cap too.
    The table is proved like every enumerated one.

    The walk is plain Python, point by point: torus orbits are thin and
    many layers deep, so the layered numpy walk of ``flag_orbit_table``
    would pay its per-call cost on every layer (on the 14 seed-1
    chiral-cover tori it took 12.3 ms per pass against 6.4 ms).
    """
    powers = [len(w) for w in pres.relators
              if len(set(w.letters)) == 1 and w.letters[0][0] == 1]
    if not powers:
        return None
    cosets = enumerate_cosets(pres, (Word.gen(1),), max_cosets)
    m = cosets.num_cosets
    start = cosets.trace(0, Word.gen(0))  # H s1
    index = {start: 0}  # point (a, b) is keyed a * m + b
    points = [(0, start)]
    columns = [(col.tolist(), []) for col in cosets.columns]
    for a, b in points:  # the list grows while it is walked
        for col, out in columns:
            x, y = col[a], col[b]
            key = x * m + y
            p = index.get(key)
            if p is None:
                if len(points) == max_cosets:
                    raise CosetLimitExceeded(max_cosets, max_cosets)
                p = index[key] = len(points)
                points.append((x, y))
            out.append(p)
    if len(points) < math.gcd(*powers) * m:
        return None
    table = CosetTable(tuple(np.array([out for _, out in columns], np.int32)))
    prove_table(pres, table)
    return table


def flag_orbit_table(pres, max_cosets=DEFAULT_MAX_COSETS):
    """The regular action of a finite string Coxeter group as the orbit
    of the base flag, in the standard numbering; None unless the
    presentation is bare Coxeter (its symbol's relators alone).

    The order is known in closed form (``coxeter_order``): an infinite
    group, or one over ``max_cosets``, raises CoxeterLimitExceeded at
    once, since enumerating it could only end at the limit.  Face i of
    the base flag is the coset G_i of its stabilizer, the maximal
    parabolic G_i = <r_j : j != i>, whose cosets are enumerated first
    (their counts are the f-vector).  The group acts on n-tuples of such
    cosets, and the orbit O of the base flag (G_0, ..., G_{n-1}) is
    walked breadth-first, generator by generator, and numbered in visit
    order, coset 0 first.  In a finite Coxeter group the standard
    parabolics meet as W_I & W_J = W_{I&J}, so the G_i meet trivially
    and |O| = order certifies the action regular.  An orbit of any other
    size is a bug (InternalError): the walk stops once it passes the
    order, which is within the cap.  The table is proved like every
    enumerated one.

    The walk is numpy, one breadth-first layer at a time.  Every
    generator is an involution, its own inverse, so an image of layer L
    lies in layer L-1, L or L+1, and new points are found by matching
    each layer's images against those two layers only; one column per
    generator is walked, and its row is the inverse column too.  This
    pays on these wide, shallow orbits; ``pair_orbit_table`` walks its
    thin, deep torus orbits in plain Python, where a numpy call per
    layer costs more than it saves.
    """
    sym = pres.declared_schlafli
    if (sym is None
            or pres.relators != tuple(coxeter_relators(pres.rank, sym))):
        return None
    order = coxeter_order(sym)
    if order is None or order > max_cosets:
        raise CoxeterLimitExceeded(sym, order, max_cosets)
    n = pres.num_generators
    tables = [enumerate_cosets(pres, [Word.gen(j) for j in range(n) if j != i],
                               max_cosets)
              for i in range(n)]
    radices = [t.num_cosets for t in tables]
    # images[i][g][c]: coset c of G_i under generator g
    images = [np.stack(t.columns[::2]) for t in tables]
    before = np.empty((0, n), dtype=np.int64)  # layer L-1, as rows
    layer = np.zeros((1, n), dtype=np.int64)   # layer L, from point `start`
    start = 0
    found = []  # per layer: its points' images, a row per point
    while len(layer):
        k = len(layer)
        # candidate (p, g) is layer point p under generator g
        cand = np.stack([im[:, layer[:, i]].T.ravel()
                         for i, im in enumerate(images)], axis=1)
        known = len(before) + k
        rows = np.concatenate([before, layer, cand])
        _, first, where = np.unique(_row_keys(rows, radices),
                                    return_index=True, return_inverse=True)
        # a key first seen among the candidates is a new point; number
        # the new points in the order they are first seen
        new = np.sort(first[first >= known])
        if start + k + len(new) > order:
            raise InternalError(f"the base flag's orbit has more than"
                                f" {order} points, the group order")
        number = np.empty(len(rows), dtype=np.int64)
        number[:known] = np.arange(start - len(before), start + k)
        number[new] = np.arange(start + k, start + k + len(new))
        found.append(number[first[where[known:]]].reshape(k, n))
        before, layer, start = layer, rows[new], start + k
    if start != order:
        raise InternalError(f"the base flag's orbit has {start} points,"
                            f" not the group order {order}")
    rows = np.array(np.concatenate(found).T, dtype=np.int32, order="C")
    table = CosetTable(tuple(col for row in rows for col in (row, row)))
    prove_table(pres, table)
    return table


def _row_keys(rows, radices):
    """One int64 per row, equal exactly when the rows are: the rows'
    mixed-radix value, the keys so far renumbered densely (np.unique)
    whenever the next digit could pass 2^63."""
    keys = rows[:, 0].copy()
    bound = radices[0]
    for i in range(1, rows.shape[1]):
        if bound * radices[i] >= 2 ** 63:
            keys = np.unique(keys, return_inverse=True)[1]
            bound = len(rows)
        keys = keys * radices[i] + rows[:, i]
        bound *= radices[i]
    return keys


def _table_fault(table, relators, subgroup_words=()):
    """What keeps the table from being a complete, mirror-consistent
    action on which every relator closes and every subgroup word fixes
    coset 0, or None if nothing does.

    Each relator is traced from all cosets at once, one numpy gather per
    letter.
    """
    n = table.num_cosets
    cols = table.columns
    for x, col in enumerate(cols):
        bad = np.flatnonzero((col < 0) | (col >= n))
        if bad.size:
            return f"incomplete table at ({bad[0]}, {x})"
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
    if any(table.trace(0, w) != 0 for w in subgroup_words):
        return "subgroup word does not fix coset 0"
    return None


def prove_table(pres, table, subgroup_words=()):
    """Prove the table before it is handed out: raise InternalError
    naming the first fault _table_fault finds against ``pres``.  This
    shows a G-action; transitivity and |G| <= n come from the route."""
    fault = _table_fault(table, _relator_columns(pres), subgroup_words)
    if fault is not None:
        raise InternalError(fault)


def coset_action(table):
    """One permutation per generator, acting on the coset space."""
    return [Perm(col) for col in table.columns[::2]]


def relators_close(pres, table):
    """True iff the table is a complete action on which every relator
    traces back to its start from every coset: prove_table's check on
    the same cyclically reduced relators (on a permutation action, a
    relator closes everywhere iff its cyclic reduction does)."""
    return _table_fault(table, _relator_columns(pres)) is None
