"""Builders for the concrete polytope families.

Each builder assembles a presentation, enumerates it, and then checks a
certificate: a closed-form order formula, an attained Schlafli symbol, a
vertex count.  Each builder is the only place its certificate is checked;
a group that comes out has passed it.  A certificate failure raises
CertificateMismatch and always means a bug in the presentation or the
enumerator, never new mathematics, so the builders double as end-to-end
tests of the engine.

Families:

  coxeter           string Coxeter group [p1,...,p_{n-1}], of order
                    coxeter_order
  simplex_extension quotient of [p1,...,p_{n-1}], all pi in {3,6}, by
                    relations making each (r_{i-1} r_i)^3 central; order
                    (p1...p_{n-1}/3^{n-1})(n+1)!
  torus_map         the maps {4,4}_(b,c), {3,6}_(b,c), {6,3}_(b,c) for
                    regular parameters (b = 0, c = 0 or b = c)
  hemi_icosahedron  [3,5] with (r0 r1 r2)^5 killed, 60 flags
  universal_amalgam largest polytope with given facet and vertex-figure
                    types, by joining the two presentations
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .presentation import (Word, REFLECTION, make_presentation,
                           coxeter_order, coxeter_relators)
from .coset_enum import DEFAULT_MAX_COSETS
from .stringc import (StringGroup, build_string_group, dual,
                      is_string_c_group)
from .analysis import f_vector


class CertificateMismatch(Exception):
    """A constructed group failed its own order/symbol certificate."""


class AmalgamCollapse(Exception):
    """An amalgam's sections shrank: the assembled group does not
    contain the intended facet or vertex-figure group."""


def simplex_extension_order(periods):
    """(p1...p_{n-1}/3^{n-1})(n+1)!, as certified by simplex_extension."""
    n = len(periods) + 1
    return (math.prod(periods) // 3 ** (n - 1)) * math.factorial(n + 1)


def torus_order(kind, b, c):
    """Flags: 8(b^2+c^2) for {4,4}_(b,c), 12(b^2+bc+c^2) for {3,6}, {6,3}."""
    if kind == "44":
        return 8 * (b * b + c * c)
    return 12 * (b * b + b * c + c * c)


def torus_kind(kind):
    """Normalize "{4,4}", "4,4" or 44 to "44"; likewise 36 and 63."""
    kind = str(kind).strip("{}").replace(",", "").replace(" ", "")
    if kind not in ("44", "36", "63"):
        raise ValueError(f"kind must be one of 44, 36, 63, got {kind!r}")
    return kind


def check_torus_params(b, c):
    if b < 0 or c < 0 or (b, c) == (0, 0):
        raise ValueError("need b, c >= 0 and not both zero")


def is_regular_torus(b, c):
    """b = 0, c = 0 or b = c give a reflexible map; others a chiral one."""
    return b == 0 or c == 0 or b == c


def certify(label, expected, got):
    """Raise CertificateMismatch unless a builder got what it expected."""
    if expected != got:
        raise CertificateMismatch(
            f"{label}: expected {expected}, got {got}")


def coxeter(*periods, max_cosets=DEFAULT_MAX_COSETS):
    """The string Coxeter group [p1,...,p_{n-1}].  None means an
    unconstrained (infinite) period.  An infinite group, or one whose
    closed-form order is over ``max_cosets``, is refused at once with
    CoxeterLimitExceeded, before anything is enumerated; a finite one
    certifies coxeter_order."""
    for p in periods:
        if p is not None and p < 2:
            raise ValueError(f"periods must be >= 2, got {p}")
    pres = make_presentation(REFLECTION, len(periods) + 1, list(periods))
    group = build_string_group(pres, max_cosets)
    certify("order", coxeter_order(periods), group.order)
    return group


def simplex_extension(*periods, max_cosets=DEFAULT_MAX_COSETS):
    """Central extension of the simplex with the given symbol.

    Quotient of [p1,...,p_{n-1}] making each (r_{i-1} r_i)^3 central;
    only the entries equal to 6 contribute a nontrivial center, so only
    those get centrality relators.  Certifies simplex_extension_order,
    the attained symbol, the intersection condition, and the vertex
    count (n+1)p1/3.
    """
    if not periods:
        raise ValueError("need at least one period")
    if any(p not in (3, 6) for p in periods):
        raise ValueError(f"periods must be 3 or 6, got {periods}")
    n = len(periods) + 1
    central = [(Word.gen(i) * Word.gen(i + 1)) ** 3
               for i, p in enumerate(periods) if p == 6]
    pres = make_presentation(REFLECTION, n, list(periods),
                             central_words=central)
    group = build_string_group(pres, max_cosets)
    certify("order", simplex_extension_order(periods), group.order)
    certify("schlafli", tuple(periods), group.schlafli_symbol())
    if not is_string_c_group(group):
        raise CertificateMismatch("intersection condition failed")
    certify("vertices", (n + 1) * periods[0] // 3, f_vector(group)[0])
    return group


def _torus_translations(kind):
    """The two unit translations of the {4,4} / {3,6} tessellation as
    words in the reflections; the second is the first conjugated by r1."""
    r0, r1, r2 = Word.gen(0), Word.gen(1), Word.gen(2)
    if kind == "44":
        x = r0 * r1 * r2 * r1
    else:
        x = r0 * r1 * r2 * r1 * r2 * r1
    return x, r1 * x * r1


def torus_map(kind, b, c, max_cosets=DEFAULT_MAX_COSETS):
    """Regular torus map {4,4}_(b,c), {3,6}_(b,c) or {6,3}_(b,c).

    The quotient kills the normal closure of x^b y^c where x, y generate
    the translation lattice; rotational symmetry of the tessellation
    closes that to the full sublattice.  Only b = 0, c = 0 and b = c give
    reflexible maps; other parameters belong to the rotation-group
    builder in the chiral module.  Certifies torus_order.
    """
    kind = torus_kind(kind)
    check_torus_params(b, c)
    if not is_regular_torus(b, c):
        raise ValueError(
            f"({b},{c}) gives a chiral map; use the rotation builder")
    if b == 0:
        # (0,c) is the (c,0) lattice rotated; same map
        b, c = c, 0
    if kind == "63":
        return dual(torus_map("36", b, c, max_cosets))
    x, y = _torus_translations(kind)
    symbol = [4, 4] if kind == "44" else [3, 6]
    pres = make_presentation(REFLECTION, 3, symbol,
                             extra_relators=[x ** b * y ** c])
    group = build_string_group(pres, max_cosets)
    certify("order", torus_order(kind, b, c), group.order)
    return group


def hemi_icosahedron(max_cosets=DEFAULT_MAX_COSETS):
    """Antipodal quotient of the icosahedron: [3,5] with (r0 r1 r2)^5
    killed; 60 flags, the smallest non-flat polyhedron after the
    tetrahedron and the 48-flag pair."""
    w = Word.gen(0) * Word.gen(1) * Word.gen(2)
    pres = make_presentation(REFLECTION, 3, [3, 5],
                             extra_relators=[w ** 5])
    group = build_string_group(pres, max_cosets)
    certify("order", 60, group.order)
    return group


def universal_amalgam(facet, vertex_figure, max_cosets=DEFAULT_MAX_COSETS):
    """Largest polytope with the given facet and vertex-figure string groups.

    The presentation is make_presentation's string Coxeter group of the
    joined symbol plus the facet's relators on r0..r_{n-2} and the
    vertex-figure's shifted to r1..r_{n-1}, those it lacks: the windows
    hold all of that scaffold but (r0 r_{n-1})^2, which it adds.  So bare
    Coxeter sections join to a bare Coxeter presentation, which
    build_string_group can refuse before enumerating.  Section
    compatibility is prechecked only through the overlap of Schlafli
    symbols.  A deeper mismatch surfaces after enumeration: as
    SggiViolation from build_string_group's shape check when the join
    kills a generator (coxeter(3, 3) with the hemi-icosahedron), else as
    AmalgamCollapse when a parabolic subgroup order differs from its
    input's or the join fails the intersection condition.
    """
    k, l = facet, vertex_figure
    for name, g in (("facet", k), ("vertex-figure", l)):
        if not isinstance(g, StringGroup):
            raise ValueError(f"the {name} group is a {type(g).__name__};"
                             " only string groups are joined")
        if g.pres is None:
            raise ValueError(f"the {name} group is a section, with no "
                             "presentation to join")
    if k.rank != l.rank:
        raise ValueError(f"rank mismatch: {k.rank} vs {l.rank}")
    if k.rank < 2:
        raise ValueError("sections must have rank at least 2")
    if k.schlafli_symbol()[1:] != l.schlafli_symbol()[:-1]:
        raise ValueError(
            f"symbol overlap mismatch: {k.schlafli_symbol()} cannot share "
            f"a section with {l.schlafli_symbol()}")
    n = k.rank + 1
    symbol = k.schlafli_symbol() + (l.schlafli_symbol()[-1],)
    up = [Word.gen(g + 1) for g in range(n - 1)]
    shift = tuple(w.substitute(up) for w in l.pres.relators)
    seen = {w.letters for w in coxeter_relators(n, symbol)}
    extras = []  # first occurrences only
    for w in k.pres.relators + shift:
        if w.letters not in seen:
            seen.add(w.letters)
            extras.append(w)
    pres = make_presentation(REFLECTION, n, symbol, extra_relators=extras)
    group = build_string_group(pres, max_cosets)
    facet_order = group.parabolic_order(range(n - 1))
    if facet_order != k.order:
        raise AmalgamCollapse(
            f"facet subgroup has order {facet_order}, wanted {k.order}")
    vf_order = group.parabolic_order(range(1, n))
    if vf_order != l.order:
        raise AmalgamCollapse(
            f"vertex-figure subgroup has order {vf_order}, wanted {l.order}")
    if not is_string_c_group(group):
        raise AmalgamCollapse("amalgam fails the intersection condition")
    return group


def simplex_amalgam_check(*periods, max_cosets=DEFAULT_MAX_COSETS):
    """Assembling two overlapping central simplex extensions yields the
    full one: the amalgam of the (p1..p_{n-2}) and (p2..p_{n-1})
    extensions has the order of the (p1..p_{n-1}) extension.  Returns
    the comparison outcome as a boolean."""
    if len(periods) < 3:
        raise ValueError("need rank at least 4, so at least 3 periods")
    facet = simplex_extension(*periods[:-1], max_cosets=max_cosets)
    vf = simplex_extension(*periods[1:], max_cosets=max_cosets)
    whole = simplex_extension(*periods, max_cosets=max_cosets)
    amalgam = universal_amalgam(facet, vf, max_cosets=max_cosets)
    return amalgam.order == whole.order


TORUS_FAMILIES = {"torus44": "44", "torus36": "36", "torus63": "63"}
# the families construct builds, in the order its help lists them
FAMILIES = ("coxeter", "lambda", *TORUS_FAMILIES, "hemi", "amalgam", "named")

# parameter count of the families that have a fixed one
_ARITY = {**dict.fromkeys(TORUS_FAMILIES, 2), "hemi": 0, "named": 1}


@dataclass(frozen=True)
class FamilySpec:
    """A buildable family instance, as named on the command line; its
    family name, parameter count and types are checked on creation."""

    family: str
    params: tuple = ()
    sections: tuple = ()  # two sub-specs, amalgam only

    def __post_init__(self):
        fam, params = self.family, self.params
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        want = _ARITY.get(fam)
        if want is not None and len(params) != want:
            raise ValueError(
                f"{fam} takes {want} parameter(s), got {len(params)}")
        # only a coxeter period may be inf (None), i.e. unconstrained
        numbers = (int, type(None)) if fam == "coxeter" else int
        bad = [p for p in params if not isinstance(p, numbers)]
        if fam != "named" and bad:
            shown = "inf" if bad[0] is None else bad[0]
            raise ValueError(
                f"{fam} parameters must be integers, got {shown!r}")
        want = 2 if fam == "amalgam" else 0
        if len(self.sections) != want:
            raise ValueError(
                f"{fam} takes {want} section(s), got {len(self.sections)}")

    def to_json(self):
        out = {"family": self.family, "params": list(self.params)}
        if self.sections:
            out["sections"] = [s.to_json() for s in self.sections]
        return out


NAMED = {
    "hemi-icosahedron": FamilySpec("hemi"),
    "4-cube": FamilySpec("coxeter", (4, 3, 3)),
    "5-cube": FamilySpec("coxeter", (4, 3, 3, 3)),
}


def table2_witness(rank, which, max_cosets=DEFAULT_MAX_COSETS):
    """A group attaining the Table-2 flag count, or None where the cell
    is verified by value only.

    The generic witnesses are the simplex, the single-6 extension, and
    the double-6 extension (the last sits in column three from rank 5
    up, but in column four at rank 4).  The sporadic cells get the
    hemi-icosahedron, the {4,4}_(2,2) torus map, and the 4- and 5-cubes;
    those identifications match the table values and are checked
    non-flat, but their minimality ordering is inherited from the table,
    not re-proved here.
    """
    if rank < 3:
        raise ValueError(f"rank must be at least 3, got {rank}")
    if which not in (1, 2, 3, 4):
        raise ValueError(f"which must be 1..4, got {which}")
    sporadic = {
        (3, 3): NAMED["hemi-icosahedron"],
        (3, 4): FamilySpec("torus44", (2, 2)),
        (4, 3): NAMED["4-cube"],
        (4, 4): FamilySpec("lambda", (6, 6, 3)),
        (5, 4): NAMED["5-cube"],
    }
    threes = (3,) * (rank - 1)
    generic = {1: FamilySpec("coxeter", threes),
               2: FamilySpec("lambda", (6, *threes[1:])),
               3: FamilySpec("lambda", (6, 6, *threes[2:]))}
    spec = sporadic.get((rank, which)) or generic.get(which)
    return None if spec is None else build_family(spec, max_cosets)


def build_family(spec, max_cosets=DEFAULT_MAX_COSETS):
    """Dispatch a FamilySpec to its builder.  Reflection families only;
    the torus kinds reject chiral parameters rather than silently
    building a rotation group."""
    fam, params = spec.family, spec.params
    if fam == "coxeter":
        return coxeter(*params, max_cosets=max_cosets)
    if fam == "lambda":
        return simplex_extension(*params, max_cosets=max_cosets)
    if fam in TORUS_FAMILIES:
        return torus_map(TORUS_FAMILIES[fam], *params, max_cosets=max_cosets)
    if fam == "hemi":
        return hemi_icosahedron(max_cosets=max_cosets)
    if fam == "amalgam":
        k = build_family(spec.sections[0], max_cosets)
        l = build_family(spec.sections[1], max_cosets)
        return universal_amalgam(k, l, max_cosets=max_cosets)
    (name,) = params  # the last family, named
    if name not in NAMED:
        raise ValueError(f"unknown name {name!r}; have {sorted(NAMED)}")
    return build_family(NAMED[name], max_cosets)
