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
from contextlib import contextmanager
from math import factorial
from dataclasses import dataclass
from collections import Counter

REFLECTION = "reflection"
ROTATION = "rotation"

# What a kind is: its generator letter, and its rank minus its generator
# count, which is also the index of the letter naming generator 0
# (r0..r{n-1} for rank n, or s1..s{n-1}).
KINDS = {REFLECTION: ("r", 0), ROTATION: ("s", 1)}

# Input bounds, checked before anything is expanded, so that a few bytes
# of input cannot ask for gigabytes or a deep recursion: letters in one
# product or power of words, generators in one presentation, and levels
# of brackets open at once in one word.
MAX_WORD_LETTERS = 1_000_000
MAX_GENERATORS = 64
MAX_NESTING = 100


class PresentationError(Exception):
    """Raised for malformed words or presentation files."""


def _check_size(count, limit=MAX_WORD_LETTERS, what="letters in a word"):
    if count > limit:
        raise PresentationError(f"{count} {what} exceed the limit of {limit}")


def _kind_spec(kind):
    """The (generator letter, rank offset) of a kind."""
    if kind not in KINDS:
        raise PresentationError(f"unknown kind {kind!r}")
    return KINDS[kind]


def _generator_count(kind, rank):
    """How many generators a presentation of this kind and rank has."""
    ngens = rank - _kind_spec(kind)[1]
    if ngens < 1:
        raise PresentationError("rank too small for this kind")
    _check_size(ngens, MAX_GENERATORS, "generators")
    return ngens


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

    @classmethod
    def _reduced(cls, letters):
        """The word of letters already freely reduced, taken as they are."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    @staticmethod
    def gen(i):
        return Word(((i, 1),))

    def __mul__(self, other):
        """The product; two reduced words can cancel only at the join."""
        _check_size(len(self) + len(other))
        a, b = self.letters, other.letters
        k = 0
        while k < min(len(a), len(b)) and a[-1 - k] == (b[k][0], -b[k][1]):
            k += 1
        return Word._reduced(a[:len(a) - k] + b[k:])

    def inverse(self):
        return Word._reduced(
            tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k):
        """The k-th power.  A reduced word is u v u^-1 with v cyclically
        reduced (its last letter does not cancel its first), so for
        k > 0 the power u v^k u^-1 needs no reduction."""
        _check_size(len(self) * abs(k))
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return EMPTY
        a, t = self.letters, 0
        while 2 * t + 1 < len(a) and a[t] == (a[-1 - t][0], -a[-1 - t][1]):
            t += 1
        return Word._reduced(a[:t] + a[t:len(a) - t] * k + a[len(a) - t:])

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
        _generator_count(self.kind, self.rank)
        for w in self.relators:
            if not w:
                raise PresentationError("relator reduces to the empty word")
            if w.max_generator() >= self.num_generators:
                raise PresentationError(
                    f"relator {w!r} uses a generator out of range")

    @property
    def rank(self):
        return self.num_generators + _kind_spec(self.kind)[1]


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
            rels.append(Word(tuple((k, 1) for k in range(i, j + 1))) ** 2)
    return rels


def central_relators(w, num_generators):
    """Commutators forcing w into the centre: one per generator."""
    return [commutator(w, Word.gen(j)) for j in range(num_generators)]


def shape_relators(kind, rank, schlafli=None):
    """A kind's relator families at this rank, with a Schlafli symbol's
    periods.  With none, every period unbounded, they are the kind's
    shape: r_i^2 and (r_i r_j)^2 for j > i + 1, or (s_i...s_j)^2."""
    families = coxeter_relators if kind == REFLECTION else rotation_relators
    return families(rank, schlafli or (None,) * (rank - 1))


def make_presentation(kind, rank, schlafli=None, extra_relators=(),
                      central_words=()):
    """Assemble a presentation from a symbol plus extra structure.

    This is the single expansion path: the file parser and the family
    builders both go through it, so declared symbols always expand to the
    same relator multiset.
    """
    ngens = _generator_count(kind, rank)
    if schlafli is not None:
        if len(schlafli) != rank - 1:
            raise PresentationError(
                f"schlafli needs {rank - 1} entries for rank {rank}")
        for p in schlafli:
            if p is not None and p < 2:
                raise PresentationError("schlafli entries must be >= 2")
    rels = [] if schlafli is None else shape_relators(kind, rank, schlafli)
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
    """(token, position) pairs, ending with (None, end of the text)."""
    text = text.rstrip()
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PresentationError(
                f"syntax error at position {pos}: {text[pos:pos+10]!r}")
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens + [(None, len(text))]


class _WordParser:
    def __init__(self, text, kind, num_generators):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # brackets open around the current token
        self.kind = kind
        self.ngens = num_generators

    def peek(self):
        return self.tokens[self.i][0]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok, msg):
        if self.peek() != tok:
            self.fail(msg)
        self.take()

    def fail(self, msg):
        raise PresentationError(f"{msg} (position {self.tokens[self.i][1]})")

    def parse_word(self, stop=()):
        w = EMPTY
        while self.peek() is not None and self.peek() not in stop:
            w = w * self.parse_factor()
        return w

    def parse_factor(self):
        w = self.parse_atom()
        while self.peek() == "-" or (self.peek() or "").startswith("^"):
            tok, pos = self.take()
            if tok == "-":
                w = w.inverse()
            elif (k := int(tok[1:])) == 0:
                raise PresentationError(f"exponent zero (position {pos})")
            else:
                w = w ** k
        return w

    def parse_atom(self):
        tok, pos = self.take()
        if tok in ("(", "[") and self.depth == MAX_NESTING:
            raise PresentationError(
                f"brackets nested deeper than {MAX_NESTING} (position {pos})")
        if tok == "(":
            self.depth += 1
            w = self.parse_word(stop=(")",))
            self.expect(")", "unclosed parenthesis")
            self.depth -= 1
            return w
        if tok == "[":
            self.depth += 1
            a = self.parse_word(stop=(",",))
            self.expect(",", "commutator needs two parts")
            b = self.parse_word(stop=("]",))
            self.expect("]", "unclosed commutator")
            self.depth -= 1
            return commutator(a, b)
        if tok[0] in "rs":
            letter, offset = KINDS[self.kind]
            if tok[0] != letter:
                raise PresentationError(
                    f"generator {tok} does not match kind {self.kind}"
                    f" (position {pos})")
            idx = int(tok[1:]) - offset
            if not 0 <= idx < self.ngens:
                raise PresentationError(
                    f"generator index out of range: {tok} (position {pos})")
            return Word.gen(idx)
        raise PresentationError(f"unexpected token {tok!r} (position {pos})")


def parse_word(text, kind, num_generators):
    return _WordParser(text, kind, num_generators).parse_word()


@contextmanager
def _on_line(lineno):
    """Prefix any parse error raised in the block with its line number."""
    try:
        yield
    except (ValueError, PresentationError) as exc:
        raise PresentationError(f"line {lineno}: {exc}") from None


def parse_presentation(text):
    """Parse the line-oriented presentation format.

    Directives: ``rank n``, ``kind reflection|rotation``, optional
    ``schlafli p1 ... `` (token ``inf`` for an unbounded period), then any
    number of ``rel <word>`` and ``central <word>`` lines.  ``#`` starts a
    comment.  ``rank``, ``kind`` and ``schlafli`` may each appear once.
    Words are parsed once rank and kind are known; an error in one names
    its line, as in any other directive.
    """
    rank = None
    kind = None
    schlafli = None
    first = {}  # line of each rank, kind and schlafli directive
    rels, centrals = [], []
    words = []  # (line number, text, list it parses into, name) per word
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        with _on_line(lineno):
            if head in first:
                raise PresentationError(f"repeated directive {head!r}"
                                        f" (first on line {first[head]})")
            if head in ("rank", "kind", "schlafli"):
                first[head] = lineno
            if head == "rank":
                rank = int(rest)
            elif head == "kind":
                _kind_spec(rest)
                kind = rest
            elif head == "schlafli":
                schlafli = [None if tok == "inf" else int(tok)
                            for tok in rest.split()]
            elif head == "rel":
                words.append((lineno, rest, rels, "relator"))
            elif head == "central":
                words.append((lineno, rest, centrals, "central word"))
            else:
                raise PresentationError(f"unknown directive {head!r}")
    if rank is None:
        raise PresentationError("rank line missing")
    if kind is None:
        raise PresentationError("kind line missing")
    ngens = _generator_count(kind, rank)
    for lineno, word_text, out, what in words:
        with _on_line(lineno):
            w = parse_word(word_text, kind, ngens)
            if not w:
                raise PresentationError(f"{what} reduces to the empty word")
        out.append(w)
    return make_presentation(kind, rank, schlafli, rels, centrals)


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
        for w in shape_relators(pres.kind, pres.rank,
                                pres.declared_schlafli):
            surplus[w.letters] -= 1
    prefix, offset = KINDS[pres.kind]
    for letters, count in surplus.items():
        if count < 0:
            # declared symbol no longer matches the relator list; fall back
            # to writing everything explicitly
            return serialize_presentation(
                Presentation(pres.num_generators, pres.kind, pres.relators))
        for _ in range(count):
            lines.append("rel " + Word(letters).spell(prefix, offset))
    return "\n".join(lines) + "\n"
