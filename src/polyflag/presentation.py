"""Finitely presented groups for polytope work.

Two kinds of presentation are supported.  A *reflection* presentation has
rank n and generators r0..r{n-1}, thought of as the flag mirrors of a rank-n
polytope.  A *rotation* presentation has rank n and generators s1..s{n-1},
the abstract rotations.  Declaring a Schlafli symbol expands to the standard
relator families for that kind; extra relators and centrality declarations
may be layered on top.

Words are stored as tuples of (generator index, +-1) letters and are always
kept freely reduced.
"""

from __future__ import annotations

import re
from math import factorial
from dataclasses import dataclass
from collections import Counter

REFLECTION = "reflection"
ROTATION = "rotation"

# Input bounds, checked before anything is expanded, so that a few bytes
# of input cannot ask for gigabytes: letters in one product or power of
# words, and generators in one presentation.
MAX_WORD_LETTERS = 1_000_000
MAX_GENERATORS = 64


class PresentationError(Exception):
    """Raised for malformed words or presentation files."""


def _check_size(count, limit=MAX_WORD_LETTERS, what="letters in a word"):
    if count > limit:
        raise PresentationError(f"{count} {what} exceed the limit of {limit}")


def free_reduce(letters):
    """Cancel adjacent (g, e)(g, -e) pairs until none remain."""
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the generators of some presentation."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", free_reduce(tuple(self.letters)))

    @staticmethod
    def gen(i):
        return Word(((i, 1),))

    def __mul__(self, other):
        _check_size(len(self) + len(other))
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k):
        _check_size(len(self) * abs(k))
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.letters * k)

    def substitute(self, images):
        """The image under the free-group homomorphism sending generator
        g to the word images[g], freely reduced."""
        out = []
        for g, e in self.letters:
            out.extend((images[g] if e > 0 else images[g].inverse()).letters)
        return Word(tuple(out))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def max_generator(self):
        return max((g for g, _ in self.letters), default=-1)

    def spell(self, prefix="r", offset=0):
        return " ".join(
            f"{prefix}{g + offset}" + ("-" if e < 0 else "")
            for g, e in self.letters
        )

    def __repr__(self):
        return f"Word({self.spell()})" if self.letters else "Word(<empty>)"


EMPTY = Word(())


def commutator(a, b):
    return a.inverse() * b.inverse() * a * b


@dataclass(frozen=True)
class Presentation:
    """Generators and relators, plus the Schlafli symbol that was declared.

    ``rank`` is the polytope rank: equal to the generator count for
    reflection kind, one more for rotation kind.  ``declared_schlafli``
    records the symbol the relators were expanded from (None entries mean
    an unbounded period); it is a claim, not a computed invariant.
    """

    num_generators: int
    kind: str
    relators: tuple = ()
    declared_schlafli: tuple | None = None

    def __post_init__(self):
        if self.kind not in (REFLECTION, ROTATION):
            raise PresentationError(f"unknown kind {self.kind!r}")
        if self.num_generators < 1:
            raise PresentationError("need at least one generator")
        _check_size(self.num_generators, MAX_GENERATORS, "generators")
        for w in self.relators:
            if not w:
                raise PresentationError("relator reduces to the empty word")
            if w.max_generator() >= self.num_generators:
                raise PresentationError(
                    f"relator {w!r} uses a generator out of range")

    @property
    def rank(self):
        return self.num_generators + (1 if self.kind == ROTATION else 0)


def coxeter_relators(rank, schlafli):
    """Relators of the string Coxeter group [p1,...,p_{n-1}].

    Involutions first, then the period relators (skipping unbounded
    entries), then the commuting relations for non-adjacent mirrors.
    """
    rels = [Word.gen(i) ** 2 for i in range(rank)]
    for i, p in enumerate(schlafli):
        if p is not None:
            rels.append((Word.gen(i) * Word.gen(i + 1)) ** p)
    for i in range(rank):
        for j in range(i + 2, rank):
            rels.append((Word.gen(i) * Word.gen(j)) ** 2)
    return rels


def _piece_order(piece):
    """Order of the irreducible string Coxeter group on one piece of a
    symbol with no entry 2, or None if it is infinite."""
    m = len(piece) + 1  # mirrors
    if None in piece:
        return None
    if m == 1:
        return 2
    if m == 2:  # I2(p)
        return 2 * piece[0]
    if all(p == 3 for p in piece):  # A_m
        return factorial(m + 1)
    if all(p == 3 for p in piece[1:-1]) and {piece[0], piece[-1]} == {3, 4}:
        return 2 ** m * factorial(m)  # B_m
    # F4, H3 and H4
    return {(3, 4, 3): 1152, (5, 3): 120, (3, 5): 120,
            (5, 3, 3): 14400, (3, 3, 5): 14400}.get(tuple(piece))


def coxeter_order(schlafli):
    """Order of the string Coxeter group [p1,...,p_{n-1}], or None if it
    is infinite (None entries are unbounded periods).

    An entry 2 makes the mirrors on either side commute, so the group is
    the direct product of the pieces between them; a piece is finite
    exactly when it is A_m, B_m, F4, H3, H4 or a dihedral I2(p).
    """
    order = 1
    piece = []
    for p in (*schlafli, 2):  # the final 2 closes the last piece
        if p != 2:
            piece.append(p)
            continue
        factor = _piece_order(piece)
        if factor is None:
            return None
        order *= factor
        piece = []
    return order


def rotation_relators(rank, schlafli):
    """Relator families for an abstract rotation group of the given rank.

    Each s_i gets its period, and every contiguous product
    s_i s_{i+1} ... s_j with i < j squares to the identity.
    """
    rels = []
    for i, p in enumerate(schlafli):
        if p is not None:
            rels.append(Word.gen(i) ** p)
    for i in range(rank - 1):
        for j in range(i + 1, rank - 1):
            w = EMPTY
            for k in range(i, j + 1):
                w = w * Word.gen(k)
            rels.append(w ** 2)
    return rels


def central_relators(w, num_generators):
    """Commutators forcing w into the centre: one per generator."""
    return [commutator(w, Word.gen(j)) for j in range(num_generators)]


def _schlafli_relators(kind, rank, schlafli):
    if kind == REFLECTION:
        return coxeter_relators(rank, schlafli)
    return rotation_relators(rank, schlafli)


def make_presentation(kind, rank, schlafli=None, extra_relators=(),
                      central_words=()):
    """Assemble a presentation from a symbol plus extra structure.

    This is the single expansion path: the file parser and the family
    builders both go through it, so declared symbols always expand to the
    same relator multiset.
    """
    ngens = rank if kind == REFLECTION else rank - 1
    if ngens < 1:
        raise PresentationError("rank too small for this kind")
    _check_size(ngens, MAX_GENERATORS, "generators")
    if schlafli is not None:
        if len(schlafli) != rank - 1:
            raise PresentationError(
                f"schlafli needs {rank - 1} entries for rank {rank}")
        for p in schlafli:
            if p is not None and p < 2:
                raise PresentationError("schlafli entries must be >= 2")
    rels = (list(_schlafli_relators(kind, rank, schlafli))
            if schlafli is not None else [])
    rels.extend(extra_relators)
    for w in central_words:
        # a commutator with the word itself can cancel freely; that carries
        # no constraint, so it is dropped rather than stored empty
        rels.extend(c for c in central_relators(w, ngens) if c)
    return Presentation(
        num_generators=ngens,
        kind=kind,
        relators=tuple(rels),
        declared_schlafli=tuple(schlafli) if schlafli is not None else None,
    )


# ---------------------------------------------------------------------------
# word grammar
#
#   word      := factor*
#   factor    := atom postfix*
#   atom      := generator | "(" word ")" | "[" word "," word "]"
#   postfix   := "-" | "^" integer
#
# Generators are r0..r{n-1} or s1..s{n-1} depending on kind.

_TOKEN = re.compile(r"\s*([rs]\d+|\^-?\d+|[()\[\],-])")


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PresentationError(
                    f"syntax error at position {pos}: {text[pos:pos+10]!r}")
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _WordParser:
    def __init__(self, tokens, kind, num_generators):
        self.tokens = tokens
        self.i = 0
        self.kind = kind
        self.ngens = num_generators

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg):
        pos = self.tokens[self.i][1] if self.i < len(self.tokens) else -1
        raise PresentationError(f"{msg} (position {pos})")

    def parse_word(self, stop=()):
        w = EMPTY
        while self.peek() is not None and self.peek() not in stop:
            w = w * self.parse_factor()
        return w

    def parse_factor(self):
        w = self.parse_atom()
        while self.peek() in ("-",) or (
                self.peek() or "").startswith("^"):
            tok, _ = self.take()
            if tok == "-":
                w = w.inverse()
            else:
                k = int(tok[1:])
                if k == 0:
                    self.fail("exponent zero")
                w = w ** k
        return w

    def parse_atom(self):
        tok, pos = self.take()
        if tok == "(":
            w = self.parse_word(stop=(")",))
            if self.peek() != ")":
                self.fail("unclosed parenthesis")
            self.take()
            return w
        if tok == "[":
            a = self.parse_word(stop=(",",))
            if self.peek() != ",":
                self.fail("commutator needs two parts")
            self.take()
            b = self.parse_word(stop=("]",))
            if self.peek() != "]":
                self.fail("unclosed commutator")
            self.take()
            return commutator(a, b)
        if tok[0] in "rs":
            want = "r" if self.kind == REFLECTION else "s"
            if tok[0] != want:
                raise PresentationError(
                    f"generator {tok} does not match kind {self.kind}"
                    f" (position {pos})")
            idx = int(tok[1:])
            if self.kind == ROTATION:
                idx -= 1
            if not 0 <= idx < self.ngens:
                raise PresentationError(
                    f"generator index out of range: {tok} (position {pos})")
            return Word.gen(idx)
        raise PresentationError(f"unexpected token {tok!r} (position {pos})")


def parse_word(text, kind, num_generators):
    parser = _WordParser(_tokenize(text), kind, num_generators)
    w = parser.parse_word()
    if parser.peek() is not None:
        parser.fail("trailing input")
    return w


def parse_presentation(text):
    """Parse the line-oriented presentation format.

    Directives: ``rank n``, ``kind reflection|rotation``, optional
    ``schlafli p1 ... `` (token ``inf`` for an unbounded period), then any
    number of ``rel <word>`` and ``central <word>`` lines.  ``#`` starts a
    comment.
    """
    rank = None
    kind = None
    schlafli = None
    rel_lines = []
    central_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "rank":
                rank = int(rest)
            elif head == "kind":
                if rest not in (REFLECTION, ROTATION):
                    raise PresentationError(f"unknown kind {rest!r}")
                kind = rest
            elif head == "schlafli":
                entries = []
                for tok in rest.split():
                    entries.append(None if tok == "inf" else int(tok))
                schlafli = entries
            elif head == "rel":
                rel_lines.append(rest)
            elif head == "central":
                central_lines.append(rest)
            else:
                raise PresentationError(f"unknown directive {head!r}")
        except ValueError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from None
        except PresentationError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from None
    if rank is None:
        raise PresentationError("rank line missing")
    if kind is None:
        raise PresentationError("kind line missing")
    ngens = rank if kind == REFLECTION else rank - 1
    if ngens < 1:
        raise PresentationError("rank too small for this kind")
    extra = [parse_word(t, kind, ngens) for t in rel_lines]
    for w in extra:
        if not w:
            raise PresentationError("relator reduces to the empty word")
    central = [parse_word(t, kind, ngens) for t in central_lines]
    for w in central:
        if not w:
            raise PresentationError("central word reduces to the empty word")
    return make_presentation(kind, rank, schlafli, extra, central)


def serialize_presentation(pres):
    """Render a presentation back to the file format.

    If a symbol was declared, the expanded families are folded back into
    the ``schlafli`` line and only the surplus relators are written out, so
    parse(serialize(p)) reproduces the relator multiset exactly.
    """
    lines = [f"rank {pres.rank}", f"kind {pres.kind}"]
    surplus = Counter(w.letters for w in pres.relators)
    if pres.declared_schlafli is not None:
        lines.append("schlafli " + " ".join(
            "inf" if p is None else str(p) for p in pres.declared_schlafli))
        for w in _schlafli_relators(pres.kind, pres.rank,
                                    pres.declared_schlafli):
            surplus[w.letters] -= 1
    prefix = "r" if pres.kind == REFLECTION else "s"
    offset = 0 if pres.kind == REFLECTION else 1
    for letters, count in surplus.items():
        if count < 0:
            # declared symbol no longer matches the relator list; fall back
            # to writing everything explicitly
            return serialize_presentation(
                Presentation(pres.num_generators, pres.kind, pres.relators))
        for _ in range(count):
            lines.append("rel " + Word(letters).spell(prefix, offset))
    return "\n".join(lines) + "\n"
