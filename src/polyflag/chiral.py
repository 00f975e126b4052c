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

That isomorphism needs no second enumeration: the enantiomorph's group
is G itself, generated by the mirror images t_i (the substitution
evaluated in G).  The mix of G with its mirror image projects onto G
with kernel K, the elements w(t) for the words w with w(s) = 1, and the
substitution extends to an automorphism exactly when K is trivial.  So
the regular cover and the chirality verdict are both read off K, which
mix_order finds from the two regular actions alone, with no presentation.
Surjectivity needs no check, since the t_i always generate G:
s_1 = (s_1^{-1})^{-1} and s_2 = s_1^{-2} (s_1^2 s_2).

Subgroup orders here ride on the regular representation the same way the
reflection side does: the orbit of the trivial coset under any set of
element images is the element set of the subgroup they generate.  The
subgroup of a rank set I is Gamma_I (RotationGroup.parabolic_orbit), so
stringc.is_string_c_group runs unchanged: it holds when G is a string
C+-group, the rotation group of a chiral or a directly regular polytope.

A torus map's regular action comes from its m vertices, the cosets of
<s2>: G permutes pairs of vertices, and s2^q = 1 bounds |G| by q m, so
an orbit of q m vertex pairs certifies that G acts on it regularly.
The degenerate tori, where a vertex pair has a nontrivial stabilizer,
and any torus whose vertices pass the coset cap enumerate G over the
trivial subgroup instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .presentation import Word, Presentation, ROTATION, make_presentation
from .coset_enum import enumerate_cosets, pair_orbit_table, DEFAULT_MAX_COSETS
from .stringc import RegularGroup, dual, is_string_c_group
from .analysis import FlagBound, f_vector, flatness_spectrum, is_tight
from .constructions import torus_kind, check_torus_params, torus_order
from .permgroup import orbit, word_image
# unused here, but the benchmark's tracer installs spans at
# chiral.coset_action and chiral.build_chain
from .coset_enum import coset_action  # noqa: F401
from .permgroup import build_chain  # noqa: F401


class RotationViolation(Exception):
    """The presented group does not have rotation-subgroup shape."""


class RotationGroup(RegularGroup):
    """A finite rotation group; each element stands for two flags."""

    @property
    def rank(self):
        return len(self.gens) + 1

    def rotations(self):
        return self.gens

    def flag_count(self):
        return 2 * self.order

    def parabolic_orbit(self, subset):
        """Gamma_I: the element set generated by tau_{a,b} = s_{a+1}...s_b
        = r_a r_b for each pair a < b of consecutive ranks in I, since
        tau_{a,c} = tau_{a,b} tau_{b,c}.  Generator j is s_{j+1}."""
        ranks = sorted(subset)
        return self.word_orbit(Word(tuple((j, 1) for j in range(a, b)))
                               for a, b in zip(ranks, ranks[1:]))

    def check_shape(self):
        """Raise RotationViolation naming the failed relation unless
        every (s_i s_{i+1} ... s_j)^2 with i < j holds in the image and
        any declared periods are attained."""
        gens = self.gens
        m = self.pres.num_generators
        for i, p in enumerate(self.pres.declared_schlafli or ()):
            # the action is regular: the cycle through 0 has the order
            if p is not None and (k := len(orbit([gens[i]], 0))) != p:
                raise RotationViolation(
                    f"s{i + 1} has order {k}, declared {p}")
        for i in range(m):
            prod = gens[i]
            for j in range(i + 1, m):
                prod = prod * gens[j]
                if not (prod * prod).is_identity():
                    raise RotationViolation(
                        f"(s{i + 1}...s{j + 1})^2 is not the identity")


def build_rotation_group(pres, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate a rotation presentation and validate its shape
    (RotationGroup.check_shape)."""
    if pres.kind != ROTATION:
        raise ValueError("rotation groups are built from rotation "
                         "presentations")
    return RotationGroup.from_table(pres,
                                    enumerate_cosets(pres, (), max_cosets))


def _mirror(m):
    """The mirror substitution as the images of s_1..s_m (just s_1 when
    m is 1)."""
    s1 = Word.gen(0)
    return [s1.inverse(), s1 * s1 * Word.gen(1),
            *map(Word.gen, range(2, m))][:m]


def _mirror_images(group):
    """Candidate images of the generators under conjugation by the
    missing mirror: the mirror substitution, evaluated."""
    return [word_image(group.gens, w) for w in _mirror(len(group.gens))]


def is_chiral(group):
    """True when the mirror substitution does NOT extend to an
    automorphism, i.e. the polytope exists in two enantiomorphic forms.

    The substitution extends iff every word trivial in G stays trivial
    under the mirror images, i.e. iff the mirror kernel K is trivial,
    i.e. iff the regular cover has no more flags than the polytope.  It
    is then onto, hence bijective on a finite group: the mirror images
    always generate G (see the module docstring).  Only the generators
    are read, so sections work too.
    """
    return mixed_regular_cover_flags(group) != group.flag_count()


def enantiomorph(group, max_cosets=DEFAULT_MAX_COSETS):
    """The mirror-image rotation group, built from the substituted
    presentation.  Isomorphic to the original as an abstract group; the
    polytopes differ exactly when the group is chiral."""
    if group.pres is None:
        raise ValueError("a section has no presentation to mirror")
    images = _mirror(group.pres.num_generators)
    pres = Presentation(
        num_generators=group.pres.num_generators,
        kind=ROTATION,
        relators=tuple(w.substitute(images) for w in group.pres.relators),
        declared_schlafli=group.pres.declared_schlafli,
    )
    out = build_rotation_group(pres, max_cosets)
    if out.order != group.order:
        raise RotationViolation("mirror image changed the group order")
    return out


def mix_order(g, h):
    """Order of the mix: the subgroup of the direct product generated by
    the paired generators (s_i(g), s_i(h)).

    The mix projects onto g with kernel K, the elements w(h) for the
    words w trivial in g, so its order is |g| |K|.  A walk of g's regular
    action from 0 carries each point x to f(x), the point of h reached
    along the same word.  A step x -> y under s_i to a reached y closes a
    word trivial in g, and those words generate all the others
    (Schreier), so s_i(f(x)) and f(y) lie in one coset of K.  A
    union-find closes these joins under h's generators (Atkinson's block
    closure); |K| is the size of the class of 0, which is {0} exactly
    when no join is needed.
    """
    if len(g.gens) != len(h.gens):
        raise ValueError("mix needs equal generator counts")
    steps = [(s.images.tolist(), t.images.tolist())
             for s, t in zip(g.gens, h.gens)]
    f = [None] * g.gens[0].degree
    f[0] = 0
    reached, joins = [0], []
    for x in reached:  # the list grows while it is walked
        for s, t in steps:
            y, fy = s[x], t[f[x]]
            if f[y] is None:
                f[y] = fy
                reached.append(y)
            elif fy != f[y]:
                joins.append((fy, f[y]))
    parent = list(range(h.gens[0].degree))
    size = [1] * len(parent)

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a, b in joins:  # the list grows while it is walked
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
            size[a] += size[b]
            for _, t in steps:
                joins.append((t[a], t[b]))
    return g.order * size[find(0)]


def mixed_regular_cover_flags(group):
    """Flag count of the smallest regular polytope covering this one:
    twice the order of the mix with the enantiomorph, 2 |G| |K|.

    The enantiomorph is G under the mirror images, so the mix is taken
    on G's points with no second enumeration: the mirror keeps G's table
    for its order only, and claims no presentation.  K is trivial, and
    the cover is the polytope itself, exactly when G is regular.
    """
    mirror = RotationGroup(None, group.table, _mirror_images(group))
    return 2 * mix_order(group, mirror)


# profile -> rank -> bound, below the ranks where the closed forms hold
_SMALL_RANK_BOUNDS = {
    ("regular", "regular"): {3: FlagBound(40, True), 4: FlagBound(384, True),
                             5: FlagBound(4004, False)},
    ("chiral", "regular"): {4: FlagBound(240, True),
                            5: FlagBound(4004, False, upper=4608),
                            6: FlagBound(18432, False)},
    ("chiral", "chiral"): {4: FlagBound(240, True), 5: FlagBound(1440, True),
                           6: FlagBound(18432, True),
                           7: FlagBound(55296, False)},
}


def chiral_lower_bound(rank, facet_kind, vf_kind):
    """Minimum flag count of a chiral polytope with the given rank and
    facet/vertex-figure kinds, as a FlagBound.

    exact means some polytope attains the value; upper, when present, is
    the flag count of the smallest known example above a non-exact
    bound.  A (regular, chiral) profile is the dual of (chiral, regular)
    and shares its bound, so profiles are normalized to chiral-first.
    Rank 3 admits only the regular/regular profile: the sections of a
    polyhedron are polygons.
    """
    n, fk, vk = rank, facet_kind, vf_kind
    for kind in (fk, vk):
        if kind not in ("regular", "chiral"):
            raise ValueError(f"kind must be regular or chiral, got {kind!r}")
    if n < 3:
        raise ValueError(f"chiral polytopes have rank at least 3, got {n}")
    if (fk, vk) == ("regular", "chiral"):
        fk, vk = "chiral", "regular"
    if n == 3 and fk == "chiral":
        raise ValueError("rank-3 sections are polygons, always regular")
    f = math.factorial
    closed = {("regular", "regular"): 16 * n * f(n) // 3,
              ("chiral", "regular"): 16 * (n - 1) * f(n - 1),
              ("chiral", "chiral"): 48 * (n - 2) * f(n - 2)}[fk, vk]
    return _SMALL_RANK_BOUNDS[fk, vk].get(n, FlagBound(closed, False))


@dataclass(frozen=True)
class StructureFacts:
    """What is known about a claimed chiral polytope, for auditing.

    facet_kind, vf_kind and the medial sections' medial_kind are
    "regular", "chiral" or None for unknown, and facet_flat_pairs is the
    facet's own flatness spectrum; chiral_report computes all of them.
    Checks whose inputs are unknown are skipped, so the audit only
    reports definite contradictions.
    """

    rank: int
    facet_kind: str | None
    vf_kind: str | None
    flat_pairs: tuple
    tight: bool
    medial_kind: str | None = None
    facet_flat_pairs: tuple | None = None


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
    fk, vk = facts.facet_kind, facts.vf_kind
    flats = set(facts.flat_pairs)
    facet_flats = set(facts.facet_flat_pairs or ())

    if fk == "regular" and vk == "regular" and (0, n - 2) in facet_flats:
        violations.append("flat_regular_facets")
    if fk == "regular" and n >= 4 and (1, n - 2) in facet_flats:
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
    reflection-side ones; the order certificate is half the flag count.
    {6,3}_(b,c) is the dual of {3,6}_(b,c), so it is built as one.
    The regular action is the orbit of the base vertex and a neighbour
    of it on the base face (coset_enum.pair_orbit_table over <s2>)."""
    kind = torus_kind(kind)
    check_torus_params(b, c)
    if kind == "63":
        return dual(rotation_torus_map("36", b, c, max_cosets))
    s1, s2 = Word.gen(0), Word.gen(1)
    if kind == "44":
        x = s1 * s2.inverse()
        symbol = [4, 4]
    else:
        x = s1 * s2.inverse() * s2.inverse()
        symbol = [3, 6]
    y = s2.inverse() * x * s2
    pres = make_presentation(ROTATION, 3, symbol,
                             extra_relators=[x ** b * y ** c])
    table = pair_orbit_table(pres, 1, s1, max_cosets)
    group = (build_rotation_group(pres, max_cosets) if table is None
             else RotationGroup.from_table(pres, table))
    expected = torus_order(kind, b, c) // 2
    if group.order != expected:
        raise RotationViolation(
            f"order certificate failed: expected {expected}, "
            f"got {group.order}")
    return group


def _kind(section):
    return "chiral" if is_chiral(section) else "regular"


def chiral_report(group):
    """JSON-ready analysis of a rotation group.

    facet_kind and vf_kind are is_chiral of the facet s_1..s_{n-2} and
    the vertex-figure s_2..s_{n-1} (None below rank 3).  Only a chiral
    group gets the flag bound of that profile and the structure audit,
    on facts computed from it and, from rank 5, the medial s_2..s_{n-2}.
    c_group and c_group_witness (on failure) are as for a string group.
    """
    n, flags = group.rank, group.flag_count()
    cover = mixed_regular_cover_flags(group)
    chiral = cover != flags
    faces = f_vector(group)
    fk, vk, bound_check, violations = None, None, None, []
    if n >= 3:
        facet = group.section(0, n - 3)
        fk, vk = _kind(facet), _kind(group.section(1, n - 2))
    if chiral:  # a rank-2 rotation group is cyclic, never chiral
        bound = chiral_lower_bound(n, fk, vk).value
        bound_check = {"minimum_flags": bound, "flags": flags,
                       "ok": flags >= bound}
        violations = structure_constraint_audit(StructureFacts(
            n, fk, vk, flat_pairs=flatness_spectrum(group),
            tight=is_tight(group),
            medial_kind=_kind(group.section(1, n - 3)) if n >= 5 else None,
            facet_flat_pairs=flatness_spectrum(facet)))
    verdict = is_string_c_group(group)
    payload = {
        "order": group.order,
        "flags": flags,
        "is_chiral": chiral,
        "vertices": faces[0],
        "facets": faces[-1],
        "mixed_cover_flags": cover,
        "facet_kind": fk,
        "vf_kind": vk,
        "bound_check": bound_check,
        "audit_violations": violations,
        "c_group": verdict.ok,
    }
    if not verdict.ok:
        payload["c_group_witness"] = verdict.witness.rank_sets()
    return payload
