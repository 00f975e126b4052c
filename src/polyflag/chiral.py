"""Rotation groups, chirality, enantiomorphs, and the chiral bounds.

The rotation subgroup of a polytope is generated by s_i = r_{i-1} r_i.
A chiral polytope has only these rotations: its flags fall in two orbits
and no automorphism maps a flag to an adjacent one.  Working purely with
the rotation presentation, regularity is equivalent to the mirror
substitution

    s_1 -> s_1^{-1},  s_2 -> s_1^2 s_2,  s_j -> s_j (j >= 3)

extending to a group automorphism: conjugation by the missing first
mirror acts exactly this way on the rotations.  The substitution is an
involutory automorphism of the free group, so applying it to the
relators yields the enantiomorph (mirror image) presentation, which
presents an isomorphic group whether or not the polytope is chiral.

Subgroup orders here ride on the regular representation the same way the
reflection side does: the orbit of the trivial coset under any set of
element images is the element set of the subgroup they generate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .presentation import Word, Presentation, ROTATION, make_presentation
from .coset_enum import enumerate_cosets, coset_action, DEFAULT_MAX_COSETS
# build_chain is unused here, but perfbench/tracing.py installs a span at it
from .permgroup import word_image, orbit, build_chain  # noqa: F401


class RotationViolation(Exception):
    """The presented group does not have rotation-subgroup shape."""


class RotationGroup:
    """A finite rotation group with its faithful regular representation."""

    def __init__(self, pres, table, gens):
        self.pres = pres
        self.table = table
        self.gens = gens
        self.order = table.num_cosets
        self._orbits = {}
        self.max_cosets = DEFAULT_MAX_COSETS

    @property
    def rank(self):
        return self.pres.num_generators + 1

    def schlafli_symbol(self):
        return tuple(g.order() for g in self.gens)

    def flag_count(self):
        return 2 * self.order

    def word_orbit(self, words):
        """Element set of the subgroup generated by the given words.

        Exact for the same reason as on the reflection side: the regular
        action is free, and in a finite group forward images alone close
        into the subgroup.
        """
        key = frozenset(words)
        cached = self._orbits.get(key)
        if cached is not None:
            return cached
        result = frozenset(
            orbit([word_image(self.gens, w) for w in key], 0))
        self._orbits[key] = result
        return result


def build_rotation_group(pres, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate a rotation presentation and validate its shape.

    Shape means: every (s_i s_{i+1} ... s_j)^2 with i < j holds in the
    image, and any declared periods are attained.  Violations raise
    RotationViolation naming the failed relation.
    """
    if pres.kind != ROTATION:
        raise ValueError("rotation groups are built from rotation "
                         "presentations")
    table = enumerate_cosets(pres, (), max_cosets)
    gens = coset_action(table)
    m = pres.num_generators
    if pres.declared_schlafli is not None:
        for i, p in enumerate(pres.declared_schlafli):
            if p is not None and gens[i].order() != p:
                raise RotationViolation(
                    f"s{i + 1} has order {gens[i].order()}, declared {p}")
    for i in range(m):
        prod = gens[i]
        for j in range(i + 1, m):
            prod = prod * gens[j]
            if not (prod * prod).is_identity():
                raise RotationViolation(
                    f"(s{i + 1}...s{j + 1})^2 is not the identity")
    group = RotationGroup(pres, table, gens)
    group.max_cosets = max_cosets
    return group


def _mirror_word(w):
    out = []
    for g, e in w.letters:
        if g == 0:
            out.append((0, -e))
        elif g == 1:
            if e == 1:
                out.extend(((0, 1), (0, 1), (1, 1)))
            else:
                out.extend(((1, -1), (0, -1), (0, -1)))
        else:
            out.append((g, e))
    return Word(tuple(out))


def _mirror_images(group):
    """Candidate images of the generators under conjugation by the
    missing mirror."""
    images = list(group.gens)
    images[0] = group.gens[0].inverse()
    if len(images) > 1:
        images[1] = group.gens[0] * group.gens[0] * group.gens[1]
    return images


def is_chiral(group):
    """True when the mirror substitution does NOT extend to an
    automorphism, i.e. the polytope exists in two enantiomorphic forms.

    The substitution extends iff every defining relator maps to the
    identity under the candidate images (well-definedness) and the
    images generate the whole group (surjectivity, hence bijectivity on
    a finite group).
    """
    images = _mirror_images(group)
    for w in group.pres.relators:
        if not word_image(images, w).is_identity():
            return True
    return len(orbit(images, 0)) != group.order


def enantiomorph(group):
    """The mirror-image rotation group, built from the substituted
    presentation.  Isomorphic to the original as an abstract group; the
    polytopes differ exactly when the group is chiral."""
    mirrored = tuple(_mirror_word(w) for w in group.pres.relators)
    pres = Presentation(
        num_generators=group.pres.num_generators,
        kind=ROTATION,
        relators=mirrored,
        declared_schlafli=group.pres.declared_schlafli,
    )
    out = build_rotation_group(pres, group.max_cosets)
    if out.order != group.order:
        raise RotationViolation("mirror image changed the group order")
    return out


def mix_order(g, h):
    """Order of the mix: the subgroup of the direct product generated by
    the paired generators (s_i(g), s_i(h)).

    The mix projects onto g with kernel K, the normal closure in h of g's
    relators, so its order is |g| |K|.  K's elements are the orbit of 0
    under the relator images in h, closed under conjugation by h's
    generators: a conjugate that leaves the orbit joins the list.
    """
    if g.pres.num_generators != h.pres.num_generators:
        raise ValueError("mix needs equal generator counts")
    normal = [word_image(h.gens, w) for w in g.pres.relators]
    kernel = orbit(normal, 0)
    for s in normal:  # the list grows while it is walked
        for t in h.gens:
            c = t.inverse() * s * t
            if c(0) not in kernel:
                normal.append(c)
                kernel = orbit(normal, 0)
    return g.order * len(kernel)


def mixed_regular_cover_flags(group):
    """Flag count of the smallest regular polytope covering this one:
    twice the order of the mix with the enantiomorph.  Equals the
    group's own flag count exactly when the polytope is regular."""
    return 2 * mix_order(group, enantiomorph(group))


def _stabilizer_words(group, i):
    """Generating words of the rotation stabilizer of the base i-face.

    Vertices keep s_2..s_{n-1}, facets keep s_1..s_{n-2}; a middle face
    keeps both flanks plus the bridging product s_i s_{i+1}.  Generator
    index j stands for s_{j+1}.
    """
    n = group.rank
    if i == 0:
        return tuple(Word.gen(j) for j in range(1, n - 1))
    if i == n - 1:
        return tuple(Word.gen(j) for j in range(n - 2))
    words = [Word.gen(j) for j in range(i - 1)]
    words.append(Word.gen(i - 1) * Word.gen(i))
    words.extend(Word.gen(j) for j in range(i + 1, n - 1))
    return tuple(words)


def chiral_counts(group):
    """(vertices, facets): the ends of the f-vector."""
    f = chiral_f_vector(group)
    return f[0], f[-1]


def chiral_f_vector(group):
    n = group.rank
    return tuple(
        group.order // len(group.word_orbit(_stabilizer_words(group, i)))
        for i in range(n))


def chiral_flat_pairs(group):
    """Flat pairs of the polytope, decided inside the rotation group by
    the same product-formula test the reflection side uses."""
    n = group.rank
    out = []
    for k in range(n - 1):
        b = group.word_orbit(_stabilizer_words(group, k))
        for m in range(k + 1, n):
            a = group.word_orbit(_stabilizer_words(group, m))
            if len(a) * len(b) == group.order * len(a & b):
                out.append((k, m))
    return tuple(out)


def is_tight_rotation(group):
    return group.order == math.prod(group.schlafli_symbol())


def rotation_intersection_advisory(group):
    """Sanity check on polytopality of the rotation group: the facet and
    vertex-figure rotation subgroups should meet exactly in the medial
    one.  Advisory only; passing it is necessary but not known to be
    sufficient in high rank.
    """
    n = group.rank
    facet = group.word_orbit(tuple(Word.gen(j) for j in range(n - 2)))
    vf = group.word_orbit(tuple(Word.gen(j) for j in range(1, n - 1)))
    mid = group.word_orbit(tuple(Word.gen(j) for j in range(1, n - 2)))
    return len(facet & vf) == len(mid)


@dataclass(frozen=True)
class ChiralBound:
    """Flag-count bound for chiral polytopes of a given section profile.

    exact means some polytope attains the value; upper, when present, is
    the flag count of the smallest known example above a non-exact
    bound."""

    value: int
    exact: bool
    upper: int | None = None


@dataclass(frozen=True)
class BoundQuery:
    rank: int
    facet_kind: str
    vf_kind: str


def chiral_lower_bound(query):
    """Minimum flag count of a chiral polytope with the given rank and
    facet/vertex-figure kinds.

    A (regular, chiral) profile is the dual of (chiral, regular) and
    shares its bound, so queries are normalized to chiral-first.  Rank 3
    admits only the regular/regular profile: the sections of a
    polyhedron are polygons.
    """
    n = query.rank
    fk, vk = query.facet_kind, query.vf_kind
    for kind in (fk, vk):
        if kind not in ("regular", "chiral"):
            raise ValueError(f"kind must be regular or chiral, got {kind!r}")
    if n < 3:
        raise ValueError(f"chiral polytopes have rank at least 3, got {n}")
    if (fk, vk) == ("regular", "chiral"):
        fk, vk = "chiral", "regular"
    if (fk, vk) == ("regular", "regular"):
        if n == 3:
            return ChiralBound(40, True)
        if n == 4:
            return ChiralBound(384, True)
        if n == 5:
            return ChiralBound(4004, False)
        return ChiralBound(16 * n * math.factorial(n) // 3, False)
    if n == 3:
        raise ValueError("rank-3 sections are polygons, always regular")
    if (fk, vk) == ("chiral", "regular"):
        if n == 4:
            return ChiralBound(240, True)
        if n == 5:
            return ChiralBound(4004, False, upper=4608)
        if n == 6:
            return ChiralBound(18432, False)
        return ChiralBound(16 * (n - 1) * math.factorial(n - 1), False)
    if n == 4:
        return ChiralBound(240, True)
    if n == 5:
        return ChiralBound(1440, True)
    if n == 6:
        return ChiralBound(18432, True)
    if n == 7:
        return ChiralBound(55296, False)
    return ChiralBound(48 * (n - 2) * math.factorial(n - 2), False)


def weakest_chiral_bound(rank):
    """Smallest bound over all section profiles valid at this rank: the
    flag count any chiral polytope of the rank must meet."""
    if rank == 3:
        return chiral_lower_bound(BoundQuery(3, "regular", "regular")).value
    return min(
        chiral_lower_bound(BoundQuery(rank, fk, vk)).value
        for fk in ("regular", "chiral") for vk in ("regular", "chiral"))


@dataclass(frozen=True)
class StructureFacts:
    """What is known about a claimed chiral polytope, for auditing.

    facet and vertex_figure each hold an AnalysisReport (a regular
    section with full data), the bare marker "regular" (known regular,
    no report), the marker "chiral", or None for unknown.  medial_kind
    optionally classifies the rank-(n-2) medial sections.  Checks whose
    inputs are unknown are skipped, so the audit only reports definite
    contradictions.
    """

    rank: int
    facet: object
    vertex_figure: object
    flat_pairs: tuple
    tight: bool
    medial_kind: str | None = None


def _section_kind(section):
    if section is None:
        return None
    if isinstance(section, str):
        return section
    return "regular"  # an AnalysisReport describes a regular section


def _section_report(section):
    return None if section is None or isinstance(section, str) else section


def structure_constraint_audit(facts):
    """Check a claimed chiral polytope against the structural theorems.

    Violations reported: flat_regular_facets (flat regular facets with
    regular vertex-figures), forbidden_facet_flatness (a regular facet
    that is (1, rank-1)-flat in its own rank), excessive_flatness (the
    polytope is (1,n-3)- or (2,n-2)-flat), tight_high_rank (tight at
    rank 6 or more), tight_rank4_regular_sections, tight_rank5_sections
    (a tight rank-5 chiral polytope needs chiral facets, vertex-figures,
    and medial sections).
    """
    violations = []
    n = facts.rank
    fk = _section_kind(facts.facet)
    vk = _section_kind(facts.vertex_figure)
    facet_report = _section_report(facts.facet)
    flats = set(facts.flat_pairs)

    if (fk == "regular" and vk == "regular" and facet_report is not None
            and facet_report.is_flat):
        violations.append("flat_regular_facets")
    if fk == "regular" and facet_report is not None:
        nf = facet_report.rank
        if nf >= 3 and (1, nf - 1) in set(facet_report.flat_pairs):
            violations.append("forbidden_facet_flatness")
    if n >= 5 and ((1, n - 3) in flats or (2, n - 2) in flats):
        violations.append("excessive_flatness")
    if facts.tight and n >= 6:
        violations.append("tight_high_rank")
    if facts.tight and n == 4 and fk == "regular" and vk == "regular":
        violations.append("tight_rank4_regular_sections")
    if facts.tight and n == 5 and "regular" in (fk, vk, facts.medial_kind):
        violations.append("tight_rank5_sections")
    return violations


def rotation_torus_map(kind, b, c, max_cosets=DEFAULT_MAX_COSETS):
    """Rotation group of the torus map {4,4}_(b,c), {3,6}_(b,c) or
    {6,3}_(b,c); accepts chiral parameters, unlike the reflection
    builder.  The translation words are the rotational rewrites of the
    reflection-side ones; the order certificates are half the flag-count
    formulas."""
    kind = str(kind).strip("{}").replace(",", "").replace(" ", "")
    if kind not in ("44", "36", "63"):
        raise ValueError(f"kind must be one of 44, 36, 63, got {kind!r}")
    if b < 0 or c < 0 or (b, c) == (0, 0):
        raise ValueError("need b, c >= 0 and not both zero")
    if kind == "63":
        inner = rotation_torus_map("36", b, c, max_cosets)
        # dual rotation group: reverse and invert the generator string
        m = inner.pres.num_generators
        relators = tuple(
            Word(tuple((m - 1 - g, -e) for g, e in reversed(w.letters)))
            for w in inner.pres.relators)
        sym = inner.pres.declared_schlafli
        pres = Presentation(
            num_generators=m, kind=ROTATION, relators=relators,
            declared_schlafli=tuple(reversed(sym)) if sym else None)
        out = build_rotation_group(pres, max_cosets)
        if out.order != inner.order:
            raise RotationViolation("dual changed the group order")
        return out
    s1, s2 = Word.gen(0), Word.gen(1)
    if kind == "44":
        x = s1 * s2.inverse()
        symbol = [4, 4]
        expected = 4 * (b * b + c * c)
    else:
        x = s1 * s2.inverse() * s2.inverse()
        symbol = [3, 6]
        expected = 6 * (b * b + b * c + c * c)
    y = s2.inverse() * x * s2
    pres = make_presentation(ROTATION, 3, symbol,
                             extra_relators=[x ** b * y ** c])
    group = build_rotation_group(pres, max_cosets)
    if group.order != expected:
        raise RotationViolation(
            f"order certificate failed: expected {expected}, "
            f"got {group.order}")
    return group


def chiral_report(group, facts=None):
    """JSON-ready analysis of a rotation group.

    When structure facts are not supplied, an auditable subset is
    assembled from what the group alone determines: its own flat pairs
    and tightness, with section kinds left unknown.
    """
    chiral = is_chiral(group)
    vertices, facets = chiral_counts(group)
    if facts is None:
        facts = StructureFacts(
            rank=group.rank,
            facet=None,
            vertex_figure=None,
            flat_pairs=chiral_flat_pairs(group),
            tight=is_tight_rotation(group),
        )
    flags = group.flag_count()
    if chiral:
        bound = weakest_chiral_bound(group.rank)
        bound_check = {"minimum_flags": bound, "flags": flags,
                       "ok": flags >= bound}
    else:
        bound_check = None
    return {
        "order": group.order,
        "flags": flags,
        "is_chiral": chiral,
        "vertices": vertices,
        "facets": facets,
        "mixed_cover_flags": mixed_regular_cover_flags(group),
        "bound_check": bound_check,
        "audit_violations": list(structure_constraint_audit(facts)),
        "rotation_intersection_advisory":
            rotation_intersection_advisory(group),
    }
